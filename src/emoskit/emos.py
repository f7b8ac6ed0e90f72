"""Nonhomogeneous Gaussian regression (EMOS) fit by CRPS minimization.

One model with K predictors, the ensemble statistics of K forecast models:

    mu      = a + sum_k b_k * xbar_k
    sigma^2 = c^2 + sum_k d_k^2 * s_k^2

with b_k, d_k >= 0. A single-model fit is K = 1; the two-model ("mixed")
combination is K = 2. Coefficients minimize the mean Gaussian CRPS over a
training window (Gneiting et al. 2005).

Fits are solved in batches: ``fit_batch`` stacks the training windows of many
keys into padded, masked arrays and runs one projected Newton solve
(Bertsekas 1982) over all of them at once. The solver works in the natural
coordinates theta = (a, b_k, c^2, d_k^2), in which mu is linear in (a, b) and
sigma^2 linear in (c^2, d^2), and every constraint is a box: b_k, c^2, d_k^2
>= 0, plus the optional upper bounds on b_1 and d_1 of the pre-horizon
transition scheme, which become a per-row clip. Warm starts, seeds and
bounds come in as arrays, a row per task, and results go out as theta,
objective, convergence and iteration arrays; ``_theta_from`` and
``_coef_from`` convert between theta and the coefficient columns of the
coefficient store.

* Gradient and Hessian are analytic: the closed-form CRPS derivatives
  d2/dmu2 = 2 phi(z)/sigma, d2/dmu dsigma = 2 z phi(z)/sigma and
  d2/dsigma2 = 2 z^2 phi(z)/sigma (as in crch, Messner et al. 2016), chained
  through the coefficient map.
* Coordinates at a bound whose gradient points outward are held there; on
  the others the Hessian is made positive definite through its eigenvalues.
* A backtracking line search along the projected path accepts the first
  step 1, 1/2, 1/4, ... that lowers the objective without putting some sigma
  on its floor, where the objective is flat in c and d. The full step is
  tried for every row in one pass, then the next 8 halvings of each row still
  searching together, in passes of bounded size, so that each row accepts the
  step of halving one at a time. Each point is evaluated once: the forward
  pass at the accepted point gives the next iteration's derivatives. A row
  stops when its next Newton step predicts a relative decrease below 1e-13.

A row whose line search finds no decrease is finished by scipy's L-BFGS-B on
its own, in the squared parametrization b = gamma^2, d = delta^2, run both
from the row's start and from where the row stalled.

Every key contributes one row per start, and the best row wins; zero-cost
candidate points are evaluated alongside. Starts and candidates are built
for the whole batch at once. A K = 1 fit without a warm start
starts from the default coefficients (a, b, c, d) = (0, 1, 1, 1) and from
near-identity ones (c = 0.1); the identity and default coefficients are its
candidates. A K > 1 fit is multi-started from a symmetric initialization and
from a perturbed embedding of the best single-model fit; the exact
embeddings of all K single-model fits are candidates, so the combined
training objective can never end up above a single-model optimum (nesting).

The objective's Phi is ``scoring.ndtr``, which needs no scipy. scipy is
imported only when a row falls back to L-BFGS-B (``minimize`` loads
``scipy.optimize``), so a batch that never falls back loads no scipy module.

The acceptance tests check ``_forward`` and ``_derivatives``, which every
fit evaluates, and ``fit_batch``. ``fit_single`` and ``fit_mixed`` are
batches of one, taken and returned as records, that no stage calls, kept
while the benchmark tracer (``bench/traced.py``) wraps them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import GaussianPredictive, SampleTable
from .scoring import _INV_SQRT_PI, _std_normal_pdf, ndtr

__all__ = [
    "EmosCoefficients",
    "FitOptions",
    "ModelWeights",
    "FitResult",
    "predict",
    "predict_columns",
    "identity",
    "fit_single",
    "fit_mixed",
    "fit_batch",
    "model_weights",
]


@dataclass(frozen=True)
class EmosCoefficients:
    """Coefficients (a, b, c, d) of a K-predictor model; ``b`` and ``d`` hold
    one non-negative entry per predictor, in model order."""

    a: float
    b: tuple[float, ...]
    c: float
    d: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "d", tuple(self.d))
        if not self.b or len(self.b) != len(self.d):
            raise ValueError("b and d need one entry per predictor")
        named = [("a", self.a), ("c", self.c)]
        named += [(f"b{k}", v) for k, v in enumerate(self.b, 1)] + [(f"d{k}", v) for k, v in enumerate(self.d, 1)]
        for name, value in named:
            if not math.isfinite(value):
                raise ValueError(f"coefficient {name} must be finite")
        for name, value in named[2:]:
            if value < 0.0:
                raise ValueError(f"coefficient {name} must be >= 0")


@dataclass(frozen=True)
class FitOptions:
    """Optimizer settings.

    ``min_sigma`` floors every predicted sigma so CRPS and its gradient stay
    finite for degenerate ensembles. ``max_iterations`` bounds the Newton
    iterations of each row. ``objective_tolerance`` is the relative-decrease
    stop of the L-BFGS-B fallback; the Newton solve stops at the smaller of
    it and 1e-13.
    """

    max_iterations: int = 1000
    objective_tolerance: float = 1e-8
    min_sigma: float = 1e-3

    def __post_init__(self):
        if self.objective_tolerance <= 0.0:
            raise ValueError("objective_tolerance must be > 0")
        if self.min_sigma <= 0.0:
            raise ValueError("min_sigma must be > 0")


@dataclass(frozen=True)
class ModelWeights:
    """Relative weight of predictor 1: b1/sum(b) for the mean, d1/sum(d) for
    the spread. Degenerate zero sums report 0.5 with the defined flag
    cleared."""

    weight_mean: float
    weight_std: float
    defined_mean: bool
    defined_std: bool


@dataclass(frozen=True)
class FitResult:
    """One key's coefficients and how they were found: a fit's outcome, and
    the record the coefficient store keeps. ``fallback`` marks stale or
    identity coefficients reused in place of a fit; those records, and the
    records read from a store file, count 0 iterations."""

    coefficients: EmosCoefficients
    objective: float
    converged: bool
    n_iterations: int
    n_samples: int
    fallback: bool = False


def identity(k: int) -> EmosCoefficients:
    """Equal-weight pass-through for k models: b_k = 1/k and d_k = sqrt(1/k)
    keep mu the average of the ensemble means and sigma^2 the average of the
    ensemble variances (for k = 1, mu = ensemble mean, sigma = ensemble std)."""
    return EmosCoefficients(a=0.0, b=(1.0 / k,) * k, c=0.0, d=(math.sqrt(1.0 / k),) * k)


def predict(
    coef: EmosCoefficients, mean: Sequence[float], std: Sequence[float], min_sigma: float = FitOptions.min_sigma
) -> GaussianPredictive:
    """Apply coefficients to the ensemble means and standard deviations of
    their models, in model order."""
    if not len(mean) == len(std) == len(coef.b):
        raise ValueError(f"{len(coef.b)}-predictor coefficients got statistics of {len(mean)} models")
    mu = coef.a
    var = coef.c * coef.c
    for b, d, m, s in zip(coef.b, coef.d, mean, std):
        mu = mu + b * m
        var = var + (d * d) * (s * s)
    return GaussianPredictive(mu=mu, sigma=max(math.sqrt(var), min_sigma))


def predict_columns(a, b, c, d, mean, std, min_sigma: float = FitOptions.min_sigma) -> tuple[np.ndarray, np.ndarray]:
    """``predict`` row by row, in the same operations, so bit for bit: ``a``
    and ``c`` are (n,) arrays, ``b``, ``d`` and the ensemble ``mean`` and
    ``std`` (n, K) ones, column k for predictor k. Returns (mu, sigma)."""
    mu, var = a, c * c
    for k in range(b.shape[1]):
        mu = mu + b[:, k] * mean[:, k]
        var = var + (d[:, k] * d[:, k]) * (std[:, k] * std[:, k])
    return mu, np.maximum(np.sqrt(var), min_sigma)


def model_weights(coef: EmosCoefficients) -> ModelWeights:
    """Fractional weight of predictor 1 for the mean and the spread."""
    sum_b = sum(coef.b)
    sum_d = sum(coef.d)
    defined_mean = sum_b > 0.0
    defined_std = sum_d > 0.0
    return ModelWeights(
        weight_mean=coef.b[0] / sum_b if defined_mean else 0.5,
        weight_std=coef.d[0] / sum_d if defined_std else 0.5,
        defined_mean=defined_mean,
        defined_std=defined_std,
    )


# ---------------------------------------------------------------------------
# Batched solver.
#
# Natural coordinates of a K-predictor row: theta = (a, b_1..b_K, C, D_1..D_K)
# with C = c^2 and D_k = d_k^2, so that
#   mu = U @ theta[:K+1],  U = (1, xbar_1..xbar_K)
#   S  = V @ theta[K+1:],  V = (1, s_1^2..s_K^2),  sigma = max(sqrt(S), min_sigma)
# ---------------------------------------------------------------------------

# A row stops when its next Newton step predicts less than this relative
# decrease of the objective; Newton converges quadratically, so the tight
# threshold costs about one iteration.
_NEWTON_RTOL = 1e-13
_MAX_HALVINGS = 40
_HALVING_BATCH = 8  # halvings per forward pass once alpha = 1 failed
# Samples (rows x window length) per halving pass; bounds the memory that
# the replicated rows of a batch of halvings take.
_PASS_SAMPLES = 2**14
# Bound on the epsilon of the epsilon-active set (Bertsekas 1982).
_ACTIVE_EPS = 1e-3
# Floor on the eigenvalues of the modified Hessian, relative to the largest.
_EIG_FLOOR = 1e-10
# Starts whose c lies below twice the sigma floor restart at c = 0.1, so that
# no sample starts with a floored sigma (the line search keeps it so), where
# the objective is flat in c and d and the Newton model breaks down.
_WAKE_C2 = 0.01


class _Stack:
    """Training windows of a batch, one per task, padded to the longest
    rounded up to a multiple of 16, and the rows of a solve: row r is the
    window of task ``task[r]``. ``take`` shares the windows; ``U``, ``V``,
    ``y``, ``w`` and ``valid`` gather copies of the rows'.

    Padding entries carry zero weight and harmless values (x = 0, s^2 = 1,
    y = 0), so every entry stays finite, and add exactly: up to 128 samples
    (one block of numpy's pairwise sum), a row's fit does not depend on the
    padded length, so not on its batch.
    """

    def __init__(self, windows, task):
        self.windows, self.task = windows, task  # windows: (U, V, y, w, valid), one entry per task

    @classmethod
    def from_windows(cls, tables: Sequence[SampleTable], model_ids: Sequence[tuple[str, ...]]):
        """One row per task: its table's columns of the task's models, in
        ``model_ids`` order, with variances std * std."""
        k = len(model_ids[0])
        rows, width = len(tables), -(-max(map(len, tables)) // 16) * 16
        U = np.zeros((rows, width, k + 1))
        V = np.ones((rows, width, k + 1))
        y = np.zeros((rows, width))
        valid = np.arange(width) < np.array([len(table) for table in tables])[:, None]
        U[:, :, 0] = 1.0
        for r, (table, models) in enumerate(zip(tables, model_ids)):
            cols = [table.models.index(m) for m in models]
            n = len(table)
            std = table.std[:, cols]
            U[r, :n, 1:] = table.mean[:, cols]
            V[r, :n, 1:] = std * std
            y[r, :n] = table.observation
        w = valid / valid.sum(axis=1, keepdims=True)
        return cls((U, V, y, w, valid), np.arange(rows))

    def take(self, rows) -> _Stack:
        return _Stack(self.windows, self.task[rows])

    U, V, y, w, valid = (property(lambda self, i=i: self.windows[i][self.task]) for i in range(5))


def _forward(theta, st: _Stack, min_sigma: float):
    """Mean CRPS of every row at ``theta`` (rows, P), and the per-sample state
    (sigma, z, 2 Phi(z) - 1, pdf(z), floored) of its derivatives."""
    k1 = theta.shape[1] // 2
    mu = np.matmul(st.U, theta[:, :k1, None])[..., 0]
    s2 = np.matmul(st.V, theta[:, k1:, None])[..., 0]
    sig_raw = np.sqrt(s2)
    floored = sig_raw < min_sigma
    sig = np.maximum(sig_raw, min_sigma)
    err = st.y - mu
    z = err / sig
    two_cdf_m1 = 2.0 * ndtr(z) - 1.0
    pdf = _std_normal_pdf(z)
    # sig * z == err, so crps = err*(2F-1) + sig*(2*pdf - 1/sqrt(pi))
    f = (st.w * (err * two_cdf_m1 + sig * (2.0 * pdf - _INV_SQRT_PI))).sum(axis=1)
    return f, (sig, z, two_cdf_m1, pdf, floored)


def _derivatives(state, st: _Stack, order: int):
    """(g,) for ``order`` 1 and (g, H) for order 2 at a forward pass's state;
    a floored sigma is constant and adds nothing to the C and D derivatives."""
    sig, z, two_cdf_m1, pdf, floored = state
    U, V, w = st.U, st.V, st.w
    f_sig = 2.0 * pdf - _INV_SQRT_PI
    sig_s = np.where(floored, 0.0, 0.5 / sig)  # d sigma / d S
    g_mu = w * -two_cdf_m1
    g_s = w * f_sig * sig_s
    g = np.concatenate([np.matmul(g_mu[:, None, :], U)[:, 0], np.matmul(g_s[:, None, :], V)[:, 0]], axis=1)
    if order == 1:
        return (g,)

    # d2/dmu2 = 2 pdf/sig, d2/dmu dsig = 2 z pdf/sig, d2/dsig2 = 2 z^2 pdf/sig,
    # chained through sigma = sqrt(S): d2 sigma/dS2 = -1/(4 sig^3).
    h_mm = w * 2.0 * pdf / sig
    h_ms = h_mm * z * sig_s
    h_ss = h_mm * (z * sig_s) ** 2 - w * f_sig * np.where(floored, 0.0, 0.25 / sig**3)
    Ut = U.transpose(0, 2, 1)
    Vt = V.transpose(0, 2, 1)
    k1 = Ut.shape[1]
    H = np.empty((len(g), 2 * k1, 2 * k1))
    H[:, :k1, :k1] = np.matmul(Ut * h_mm[:, None, :], U)
    H[:, :k1, k1:] = H_ms = np.matmul(Ut * h_ms[:, None, :], V)
    H[:, k1:, :k1] = H_ms.transpose(0, 2, 1)
    H[:, k1:, k1:] = np.matmul(Vt * h_ss[:, None, :], V)
    return g, H


def _evaluate(theta, st: _Stack, min_sigma: float, order: int):
    """Mean CRPS of every row at ``theta`` (rows, P) and its derivatives:
    (f, g) for ``order`` 1 and (f, g, H) for order 2."""
    f, state = _forward(theta, st, min_sigma)
    return (f, *_derivatives(state, st, order))


def _newton_direction(theta, g, H, lower, upper):
    """Projected Newton step of every row and its predicted decrease.

    Coordinates within epsilon of a bound whose gradient points outward are
    held (moved onto the bound); the Hessian of the others is made positive
    definite through its eigenvalues (absolute values, floored).
    """
    pg = theta - np.clip(theta - g, lower, upper)
    eps = np.minimum(_ACTIVE_EPS, np.abs(pg).max(axis=1))[:, None]
    at_lower = (theta - lower <= eps) & (g > 0.0)
    at_upper = (upper - theta <= eps) & (g < 0.0)
    held = at_lower | at_upper
    free = ~held
    rows, p = theta.shape
    Hf = np.where(free[:, :, None] & free[:, None, :], H, 0.0)
    Hf.reshape(rows, p * p)[:, :: p + 1] += held  # the diagonal
    lam, vec = np.linalg.eigh(Hf)
    lam = np.abs(lam)
    lam = np.maximum(lam, _EIG_FLOOR * np.maximum(lam.max(axis=1, keepdims=True), 1e-300))
    gv = np.matmul(np.where(free, g, 0.0)[:, None, :], vec)[:, 0] / lam
    target = np.where(at_lower, lower, np.where(at_upper, upper, theta))
    step = np.where(held, target - theta, -np.matmul(vec, gv[:, :, None])[..., 0])
    decrease = (gv * gv * lam).sum(axis=1) + np.where(held, g * (theta - target), 0.0).sum(axis=1)
    return step, decrease


def _line_search(theta, step, lower, upper, f, st: _Stack, min_sigma: float):
    """Backtracking along the projected path: each row's first step alpha = 1,
    1/2, ..., 2^-(_MAX_HALVINGS - 1) that lowers ``f`` with no sigma on its
    floor. alpha = 1 is tried for all rows in one forward pass, then the rows
    still searching try _HALVING_BATCH halvings per pass (of at most
    _PASS_SAMPLES samples); alpha is a power of two, so each row accepts the
    point of halving one step at a time. Returns (rows, theta, f, *state) of
    the accepted points, ``rows`` indexing the rows that found one, or None
    when all did at alpha = 1."""
    pending, parts, first = np.arange(len(f)), [], 0
    while pending.size and first < _MAX_HALVINGS:
        j = np.arange(first, min(first + (_HALVING_BATCH if first else 1), _MAX_HALVINGS))  # alpha = 2^-j
        n, failed = j.size, []
        passes = min(pending.size, -(-pending.size * n * st.windows[2].shape[1] // _PASS_SAMPLES))  # ceil, none empty
        for rows in np.array_split(pending, passes) if first else [pending]:
            r = np.repeat(rows, n) if first else slice(None)
            alpha = np.tile(np.ldexp(1.0, -j), rows.size)[:, None] if first else 1.0
            trial = np.clip(theta[r] + alpha * step[r], lower[r], upper[r])
            trial_st = st.take(r)
            f_trial, state = _forward(trial, trial_st, min_sigma)
            ok = ((f_trial < f[r]) & ~(state[-1] & trial_st.valid).any(axis=1)).reshape(-1, n)
            if not first and ok.all():
                return (None, trial, f_trial, *state)
            hit = ok.any(axis=1)
            pick = np.flatnonzero(hit) * n + ok.argmax(axis=1)[hit]
            parts.append((rows[hit], trial[pick], f_trial[pick], *(a[pick] for a in state)))
            failed.append(rows[~hit])
        pending, first = np.concatenate(failed), first + n
    return tuple(np.concatenate(column) for column in zip(*parts)) or (pending[:0], theta[:0], f[:0])


class _Solved(NamedTuple):
    theta: np.ndarray
    f: np.ndarray
    converged: np.ndarray
    n_iterations: np.ndarray


def _newton(theta, st: _Stack, lower, upper, options: FitOptions) -> _Solved:
    """Projected Newton on every row at once; each row runs until it
    converges, exhausts max_iterations or stalls (no decrease along the
    projected path). Stalled rows are finished by L-BFGS-B one at a time.

    Each point is evaluated once: the forward pass at a row's start or at its
    accepted line-search point gives the derivatives of its next iteration.
    A row boxed to one point (lower == upper) is evaluated only.
    """
    start, theta = theta, theta.copy()
    m = options.min_sigma
    rtol = min(options.objective_tolerance, _NEWTON_RTOL)
    f, state = _forward(theta, st, m)
    converged, stalled = np.zeros((2, len(theta)), dtype=bool)
    n_iter = np.zeros(len(theta), dtype=int)

    live = np.flatnonzero((lower != upper).any(axis=1))
    state = tuple(a[live] for a in state)  # of the live rows
    for it in range(options.max_iterations + 1):
        if live.size == 0:
            break
        sub, th, lo, hi, f_live = st.take(live), theta[live], lower[live], upper[live], f[live]
        g, H = _derivatives(state, sub, 2)
        step, decrease = _newton_direction(th, g, H, lo, hi)
        done = decrease <= rtol * np.abs(f_live)
        converged[live[done]] = True
        if it == options.max_iterations or done.all():
            break
        s = np.flatnonzero(~done) if done.any() else slice(None)  # the rows still searching
        found, trial, f_trial, *state = _line_search(th[s], step[s], lo[s], hi[s], f_live[s], sub.take(s), m)
        stalled[live[s]] = True
        live = live[s] if found is None else live[s][found]
        stalled[live] = False
        theta[live], f[live] = trial, f_trial
        n_iter[live] += 1

    for i in np.flatnonzero(stalled):
        theta[i], f[i], converged[i], extra = _lbfgsb_row(
            (start[i], theta[i]), st.take([i]), upper[i], theta[i], f[i], options
        )
        n_iter[i] += extra
    return _Solved(theta, f, converged, n_iter)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call: it is needed
    only for stalled rows, and the import costs a process about 0.2 s
    (0.20-0.28 s after ``import emoskit.cli``, scipy 1.17)."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _lbfgsb_row(points, st: _Stack, upper, theta, f, options: FitOptions):
    """Finish one stalled row with L-BFGS-B in the squared parametrization
    p = (a, gamma_k, c, delta_k), b_k = gamma_k^2, C = c^2, D_k = delta_k^4,
    run from each of ``points`` (the row's start and its stall point).

    Returns (theta, f, converged, iterations): the best of the runs and of
    the input (``theta``, ``f``), converged when any run converged.
    """
    k1 = theta.size // 2
    power = np.concatenate([[1.0], np.full(k1 - 1, 2.0), [2.0], np.full(k1 - 1, 4.0)])
    root = upper ** (1.0 / power)
    box = [(None, None)] + [(None, None) if np.isinf(r) else (-r, r) for r in root[1:]]

    def value_and_grad(p):
        fv, g = _evaluate((p**power)[None], st, options.min_sigma, order=1)
        return float(fv[0]), g[0] * power * p ** (power - 1.0)

    converged, iterations = False, 0
    for point in points:
        p0 = np.concatenate([[point[0]], point[1:] ** (1.0 / power[1:])])
        p0[1:] = np.where(p0[1:] < 1e-8, 0.1, p0[1:])  # zero is stationary in these coordinates
        p0[1:] = np.minimum(p0[1:], root[1:])
        res = minimize(
            value_and_grad,
            p0,
            jac=True,
            method="L-BFGS-B",
            bounds=box,
            options={"maxiter": options.max_iterations, "ftol": options.objective_tolerance, "gtol": 1e-12, "maxls": 50},
        )
        converged = converged or res.status == 0
        iterations += int(res.nit)
        if float(res.fun) < f:
            theta, f = np.minimum(np.asarray(res.x) ** power, upper), float(res.fun)
    return theta, f, converged, iterations


# ---------------------------------------------------------------------------
# Tasks -> rows -> results.
# ---------------------------------------------------------------------------


def _theta_from(a, b, c, d) -> np.ndarray:
    """theta (n, 2K + 2) of coefficient columns: ``a`` and ``c`` (n,), ``b``
    and ``d`` (n, K). c^2 and d^2 are libm's pow, as ``x ** 2`` of a Python
    float (``np.square`` may differ by an ulp), so a start or seed keeps the
    bits it had."""
    return np.column_stack([a, b, np.float_power(c, 2), np.float_power(d, 2)])


def _coef_from(theta, d1_max) -> tuple[np.ndarray, ...]:
    """The coefficient columns (a, b, c, d) of ``theta`` (n, 2K + 2), d_1
    clamped to ``d1_max`` (inf for none): sqrt(d1_max**2) may round one ulp
    above it."""
    if not np.isfinite(theta).all():
        raise ValueError("fitted coefficients must be finite")
    k = theta.shape[1] // 2 - 1
    d = np.sqrt(theta[:, k + 2 :])
    d[:, 0] = np.minimum(d[:, 0], d1_max)
    return theta[:, 0], theta[:, 1 : k + 1], np.sqrt(theta[:, k + 1]), d


def _wake(theta: np.ndarray, min_sigma: float) -> np.ndarray:
    """``theta`` with each c^2 too close to the sigma floor set to _WAKE_C2, in place."""
    k1 = theta.shape[1] // 2
    theta[theta[:, k1] < (2.0 * min_sigma) ** 2, k1] = _WAKE_C2
    return theta


_DEFAULT_SINGLE = np.array([0.0, 1.0, 1.0, 1.0])  # a=0, b=1, c=1, d=1
_NEAR_IDENTITY_SINGLE = np.array([0.0, 1.0, 0.01, 1.0])  # c nudged off zero
_IDENTITY_SINGLE = np.array([0.0, 1.0, 0.0, 1.0])


def fit_batch(tables: Sequence[SampleTable], model_ids: Sequence[tuple[str, ...]], options: FitOptions = FitOptions(),
              start: np.ndarray | None = None, seeds: tuple[np.ndarray, np.ndarray] | None = None,
              caps: np.ndarray | None = None) -> _Solved:
    """Fit every task, a training window ``tables[i]`` and its K predictors
    ``model_ids[i]`` (some of its models), in one batched projected-Newton
    solve. All tasks take the same K.

    The optional arrays hold a row per task, NaN (inf for ``caps``) where a
    task has none. ``start`` (n, 2K + 2) is a theta to warm-start from.
    ``seeds`` (K > 1 only) = (theta (n, K, 4), objective (n, K)) of the K
    single-model fits on the same window, in ``model_ids`` order; they seed
    the multi-start and supply the nesting candidates, and a batched
    single-model solve fits them where absent. ``caps`` (n, 2) holds
    (b1_max, d1_max), upper bounds on the first predictor's coefficients.

    A task contributes one row per start; its best row wins unless a
    candidate point scores lower. Returns (theta, f, converged, n_iterations)
    arrays in task order, converged when any of the task's rows converged;
    nothing is raised for a fit that did not converge.
    """
    n, k = len(tables), len(model_ids[0])
    if any(len(m) != k for m in model_ids):
        raise ValueError("a batch takes tasks with one number of predictors")
    if not all(map(len, tables)):
        raise ValueError("cannot fit on an empty training set")
    p = 2 * k + 2
    start = np.full((n, p), np.nan) if start is None else np.asarray(start, dtype=float)
    caps = np.full((n, 2), np.inf) if caps is None else np.asarray(caps, dtype=float)
    if (caps < 0.0).any():
        raise ValueError("upper bounds must be >= 0")
    warm = ~np.isnan(start).any(axis=1)
    if k == 1:
        first, second = _DEFAULT_SINGLE, _NEAR_IDENTITY_SINGLE
        candidates = np.broadcast_to([_IDENTITY_SINGLE, _DEFAULT_SINGLE], (n, 2, p))
    else:
        seed_theta, seed_f = (np.array(a, dtype=float) for a in seeds or (np.full((n, k, 4), np.nan), np.zeros((n, k))))
        need = np.flatnonzero(np.isnan(seed_theta).any(axis=(1, 2)))
        if need.size:  # through the coefficients and back, as a store hands seeds back
            fits = fit_batch(*zip(*[(tables[i], (m,)) for i in need for m in model_ids[i]]), options)
            seed_theta[need] = _theta_from(*_coef_from(fits.theta, np.inf)).reshape(-1, k, 4)
            seed_f[need] = fits.f.reshape(-1, k)
        # Predictor j's single fit embedded with every other predictor off.
        candidates = np.zeros((n, k, p))
        for j in range(k):
            candidates[:, j, [0, 1 + j, k + 1, k + 2 + j]] = seed_theta[:, j]
        # Start from the best single fit with the other predictors switched on
        # a little, and from a symmetric combination.
        best = seed_f.argmin(axis=1)
        first = candidates[np.arange(n), best]
        dormant = np.arange(k) != best[:, None]
        first[:, 1 : k + 1][dormant], first[:, k + 2 :][dormant] = 0.09, 0.0081
        second = np.concatenate([[0.0], np.full(k, 1.0 / k), [1.0], np.full(k, 1.0 / k)])
    first = _wake(np.where(warm[:, None], start, first), options.min_sigma)  # a warm task's only start

    # A row per start (one for a warm task), then per zero-cost candidate
    # point boxed to itself: evaluated, not solved, it may improve the answer
    # but says nothing of convergence.
    points = np.concatenate([first[:, None], np.broadcast_to(second, (n, 1, p)), candidates], axis=1)
    used = (np.arange(points.shape[1]) != 1) | ~warm[:, None]
    row_task, slot = np.nonzero(used)
    points, candidate = points[used], slot >= 2
    # b, c^2, d^2 >= 0, and the upper bounds on b_1 and d_1^2
    lower, upper = np.zeros(points.shape), np.full(points.shape, np.inf)
    lower[:, 0] = -np.inf
    upper[:, 1], upper[:, k + 2] = caps[row_task, 0], np.float_power(caps[row_task, 1], 2)
    theta = np.clip(points, lower, upper)
    lower[candidate] = upper[candidate] = theta[candidate]
    solved = _newton(theta, _Stack.from_windows(tables, model_ids).take(row_task), lower, upper, options)

    f, row, converged = np.full(used.shape, np.inf), np.zeros(used.shape, dtype=int), np.zeros(used.shape, dtype=bool)
    f[used], row[used], converged[used] = solved.f, np.arange(len(points)), solved.converged
    best = row[np.arange(n), f.argmin(axis=1)]  # the first of the lowest, starts before candidates
    return _Solved(solved.theta[best], solved.f[best], converged.any(axis=1), solved.n_iterations[best])


def _fit_record(table: SampleTable, model_ids: tuple[str, ...], options: FitOptions, start, single_fits) -> FitResult:
    """``fit_batch`` of one task, given and returned as records."""

    def theta(coefs):
        return _theta_from(*(np.array([getattr(c, name) for c in coefs]) for name in "abcd"))

    seeds = single_fits and (theta([f.coefficients for f in single_fits])[None], [[f.objective for f in single_fits]])
    fit = fit_batch([table], [model_ids], options, start and theta([start]), seeds)
    coef = EmosCoefficients(*(column[0].tolist() for column in _coef_from(fit.theta, np.inf)))
    return FitResult(coef, float(fit.f[0]), bool(fit.converged[0]), int(fit.n_iterations[0]), len(table))


def fit_single(table: SampleTable, model_id: str, options: FitOptions = FitOptions(),
               start: EmosCoefficients | None = None) -> FitResult:
    """``fit_batch`` of one K = 1 task, warm-started from ``start`` when given."""
    return _fit_record(table, (model_id,), options, start, None)


def fit_mixed(table: SampleTable, model_ids: tuple[str, str], options: FitOptions = FitOptions(),
              single_fits: tuple[FitResult, FitResult] | None = None,
              start: EmosCoefficients | None = None) -> FitResult:
    """``fit_batch`` of one K = 2 task, seeded from the ``single_fits`` of
    its models (fitted when absent) and warm-started from ``start``."""
    return _fit_record(table, tuple(model_ids), options, start, single_fits)
