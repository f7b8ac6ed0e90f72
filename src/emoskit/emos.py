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
coordinates (a, b_k, c^2, d_k^2), in which mu is linear in (a, b) and sigma^2
linear in (c^2, d^2), and every constraint is a box: b_k, c^2, d_k^2 >= 0,
plus the optional upper bounds on b_1 and d_1 of the pre-horizon transition
scheme, which become a per-row clip.

* Gradient and Hessian are analytic: the closed-form CRPS derivatives
  d2/dmu2 = 2 phi(z)/sigma, d2/dmu dsigma = 2 z phi(z)/sigma and
  d2/dsigma2 = 2 z^2 phi(z)/sigma (as in crch, Messner et al. 2016), chained
  through the coefficient map.
* Coordinates at a bound whose gradient points outward are held there; on
  the others the Hessian is made positive definite through its eigenvalues.
* A backtracking line search along the projected path accepts the first
  step that lowers the objective. A row stops when its next Newton step
  predicts a relative decrease below 1e-13.

The line search rejects steps that would put some sigma on its floor, where
the objective is flat in c and d. A row whose line search finds no decrease
is finished by scipy's L-BFGS-B on its own, in the squared parametrization
b = gamma^2, d = delta^2, run both from the row's start and from where the
row stalled.

Every key contributes one row per start, and the best row wins; zero-cost
candidate points are evaluated alongside. A K = 1 fit without a warm start
starts from the default coefficients (a, b, c, d) = (0, 1, 1, 1) and from
near-identity ones (c = 0.1); the identity and default coefficients are its
candidates. A K > 1 fit is multi-started from a symmetric initialization and
from a perturbed embedding of the best single-model fit; the exact
embeddings of all K single-model fits are candidates, so the combined
training objective can never end up above a single-model optimum (nesting).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .domain import EnsembleStats, GaussianPredictive, SampleTable
from .scoring import _INV_SQRT_PI, _std_normal_pdf

__all__ = [
    "EmosCoefficients",
    "FitOptions",
    "ModelWeights",
    "FitResult",
    "FitTask",
    "NonConvergenceError",
    "predict",
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
    """Outcome of one coefficient fit."""

    coefficients: EmosCoefficients
    objective: float
    converged: bool
    n_iterations: int
    n_samples: int


class NonConvergenceError(RuntimeError):
    """Raised when the optimizer exhausts max_iterations; carries best-so-far."""

    def __init__(self, message: str, result: FitResult):
        super().__init__(message)
        self.result = result


def identity(k: int) -> EmosCoefficients:
    """Equal-weight pass-through for k models: b_k = 1/k and d_k = sqrt(1/k)
    keep mu the average of the ensemble means and sigma^2 the average of the
    ensemble variances (for k = 1, mu = ensemble mean, sigma = ensemble std)."""
    return EmosCoefficients(a=0.0, b=(1.0 / k,) * k, c=0.0, d=(math.sqrt(1.0 / k),) * k)


def predict(coef: EmosCoefficients, stats_seq: Sequence[EnsembleStats], min_sigma: float = 1e-3) -> GaussianPredictive:
    """Apply coefficients to the ensemble statistics of their models, in
    model order."""
    if len(stats_seq) != len(coef.b):
        raise ValueError(f"{len(coef.b)}-predictor coefficients got statistics of {len(stats_seq)} models")
    mu = coef.a
    var = coef.c**2
    for b, d, stats in zip(coef.b, coef.d, stats_seq):
        mu = mu + b * stats.mean
        var = var + d**2 * stats.std**2
    return GaussianPredictive(mu=mu, sigma=max(math.sqrt(var), min_sigma))


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


@dataclass(frozen=True)
class FitTask:
    """One coefficient fit of a batch: a training window ``table`` and the K
    predictors ``model_ids``, some of its models. ``start`` warm-starts the
    solve. ``single_fits`` (K > 1 only) are the K single-model fits on the
    same window, in ``model_ids`` order; they seed the multi-start and supply
    the nesting candidates, and are computed when absent. ``bounds`` is
    (b1_max, d1_max), upper bounds on the first predictor's coefficients.
    """

    table: SampleTable
    model_ids: tuple[str, ...]
    start: EmosCoefficients | None = None
    single_fits: tuple[FitResult, ...] | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if len(self.table) == 0:
            raise ValueError("cannot fit on an empty training set")
        if self.bounds is not None and min(self.bounds) < 0.0:
            raise ValueError("upper bounds must be >= 0")


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
# Bound on the epsilon of the epsilon-active set (Bertsekas 1982).
_ACTIVE_EPS = 1e-3
# Floor on the eigenvalues of the modified Hessian, relative to the largest.
_EIG_FLOOR = 1e-10
# Starts whose c lies below twice the sigma floor restart at c = 0.1, so that
# no sample starts with a floored sigma (the line search keeps it so), where
# the objective is flat in c and d and the Newton model breaks down.
_WAKE_C2 = 0.01


class _Stack:
    """Training windows of a batch, padded to a common length.

    Padding entries carry zero weight and harmless values (x = 0, s^2 = 1,
    y = 0), so every entry stays finite.
    """

    def __init__(self, U, V, y, w, valid):
        self.U, self.V, self.y, self.w, self.valid = U, V, y, w, valid

    @classmethod
    def from_windows(cls, tasks: Sequence[FitTask]):
        """One row per task: its table's columns of the task's models, in
        ``model_ids`` order, with variances std * std."""
        k = len(tasks[0].model_ids)
        rows, width = len(tasks), max(len(t.table) for t in tasks)
        U = np.zeros((rows, width, k + 1))
        V = np.ones((rows, width, k + 1))
        y = np.zeros((rows, width))
        valid = np.zeros((rows, width), dtype=bool)
        U[:, :, 0] = 1.0
        for r, task in enumerate(tasks):
            table = task.table
            cols = [table.models.index(m) for m in task.model_ids]
            n = len(table)
            std = table.std[:, cols]
            U[r, :n, 1:] = table.mean[:, cols]
            V[r, :n, 1:] = std * std
            y[r, :n] = table.observation
            valid[r, :n] = True
        w = valid / valid.sum(axis=1, keepdims=True)
        return cls(U, V, y, w, valid)

    def take(self, rows) -> _Stack:
        return _Stack(self.U[rows], self.V[rows], self.y[rows], self.w[rows], self.valid[rows])


def _evaluate(theta, st: _Stack, min_sigma: float, order: int = 0):
    """Mean CRPS of every row at ``theta`` (rows, P).

    Returns (f, floored) for ``order`` 0, where ``floored`` flags rows with a
    floored sigma on some sample; (f, g) for order 1 and (f, g, H) for order
    2. A floored sigma is constant, so it contributes nothing to the
    derivatives in C and D.
    """
    k1 = st.U.shape[2]
    mu = np.matmul(st.U, theta[:, :k1, None])[..., 0]
    s2 = np.matmul(st.V, theta[:, k1:, None])[..., 0]
    sig_raw = np.sqrt(s2)
    floored = sig_raw < min_sigma
    sig = np.maximum(sig_raw, min_sigma)
    err = st.y - mu
    z = err / sig
    two_cdf_m1 = 2.0 * ndtr(z) - 1.0
    pdf = _std_normal_pdf(z)
    f_sig = 2.0 * pdf - _INV_SQRT_PI
    # sig * z == err, so crps = err*(2F-1) + sig*(2*pdf - 1/sqrt(pi))
    f = np.sum(st.w * (err * two_cdf_m1 + sig * f_sig), axis=1)
    if order == 0:
        return f, np.any(floored & st.valid, axis=1)

    sig_s = np.where(floored, 0.0, 0.5 / sig)  # d sigma / d S
    g_mu = st.w * -two_cdf_m1
    g_s = st.w * f_sig * sig_s
    g = np.concatenate([np.matmul(g_mu[:, None, :], st.U)[:, 0], np.matmul(g_s[:, None, :], st.V)[:, 0]], axis=1)
    if order == 1:
        return f, g

    # d2/dmu2 = 2 pdf/sig, d2/dmu dsig = 2 z pdf/sig, d2/dsig2 = 2 z^2 pdf/sig,
    # chained through sigma = sqrt(S): d2 sigma/dS2 = -1/(4 sig^3).
    h_mm = st.w * 2.0 * pdf / sig
    h_ms = h_mm * z * sig_s
    h_ss = h_mm * (z * sig_s) ** 2 - st.w * f_sig * np.where(floored, 0.0, 0.25 / sig**3)
    Ut = st.U.transpose(0, 2, 1)
    Vt = st.V.transpose(0, 2, 1)
    H_mm = np.matmul(Ut * h_mm[:, None, :], st.U)
    H_ms = np.matmul(Ut * h_ms[:, None, :], st.V)
    H_ss = np.matmul(Vt * h_ss[:, None, :], st.V)
    H = np.block([[H_mm, H_ms], [H_ms.transpose(0, 2, 1), H_ss]])
    return f, g, H


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
    p = theta.shape[1]
    Hf = np.where(free[:, :, None] & free[:, None, :], H, 0.0)
    Hf[:, np.arange(p), np.arange(p)] += held
    gf = np.where(free, g, 0.0)
    lam, vec = np.linalg.eigh(Hf)
    lam = np.abs(lam)
    lam = np.maximum(lam, _EIG_FLOOR * np.maximum(lam.max(axis=1, keepdims=True), 1e-300))
    gv = np.matmul(gf[:, None, :], vec)[:, 0] / lam
    step = -np.matmul(vec, gv[:, :, None])[..., 0]
    target = np.where(at_lower, lower, np.where(at_upper, upper, theta))
    step = np.where(held, target - theta, step)
    decrease = np.sum(gv * gv * lam, axis=1) + np.sum(np.where(held, g * (theta - target), 0.0), axis=1)
    return step, decrease


@dataclass
class _Solved:
    theta: np.ndarray
    f: np.ndarray
    converged: np.ndarray
    n_iterations: np.ndarray


def _newton(theta, st: _Stack, lower, upper, options: FitOptions) -> _Solved:
    """Projected Newton on every row at once; each row runs until it
    converges, exhausts max_iterations or stalls (no decrease along the
    projected path). Stalled rows are finished by L-BFGS-B one at a time."""
    start, theta = theta, theta.copy()
    rows = theta.shape[0]
    m = options.min_sigma
    rtol = min(options.objective_tolerance, _NEWTON_RTOL)
    f, _ = _evaluate(theta, st, m)
    converged = np.zeros(rows, dtype=bool)
    stalled = np.zeros(rows, dtype=bool)
    n_iter = np.zeros(rows, dtype=int)

    live = np.arange(rows)
    for it in range(options.max_iterations + 1):
        if live.size == 0:
            break
        sub = st.take(live)
        th, lo, hi = theta[live], lower[live], upper[live]
        f_live, g, H = _evaluate(th, sub, m, order=2)
        step, decrease = _newton_direction(th, g, H, lo, hi)
        done = decrease <= rtol * np.abs(f_live)
        converged[live[done]] = True
        if it == options.max_iterations:
            break
        search = np.flatnonzero(~done)
        alpha = np.ones(search.size)
        accepted = np.zeros(search.size, dtype=bool)
        pending = np.arange(search.size)
        for _ in range(_MAX_HALVINGS):
            if pending.size == 0:
                break
            r = search[pending]
            trial = np.clip(th[r] + alpha[pending, None] * step[r], lo[r], hi[r])
            f_trial, floored = _evaluate(trial, sub.take(r), m)
            ok = (f_trial < f_live[r]) & ~floored
            idx = live[r[ok]]
            theta[idx] = trial[ok]
            f[idx] = f_trial[ok]
            accepted[pending[ok]] = True
            alpha[pending[~ok]] *= 0.5
            pending = pending[~ok]
        n_iter[live[search[accepted]]] += 1
        stalled[live[search[~accepted]]] = True
        live = live[search[accepted]]

    for i in np.flatnonzero(stalled):
        theta[i], f[i], converged[i], extra = _lbfgsb_row(
            (start[i], theta[i]), st.take([i]), upper[i], theta[i], f[i], options
        )
        n_iter[i] += extra
    return _Solved(theta, f, converged, n_iter)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call: it is needed
    only for stalled rows, and the import costs every process about 0.5 s."""
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


def _theta_from(coef: EmosCoefficients) -> np.ndarray:
    return np.array([coef.a, *coef.b, coef.c**2, *(d**2 for d in coef.d)])


def _coef_from(theta, bounds) -> EmosCoefficients:
    k = len(theta) // 2 - 1
    d = [math.sqrt(v) for v in theta[k + 2 :]]
    if bounds is not None:
        d[0] = min(d[0], bounds[1])  # sqrt(d1_max**2) may round one ulp above d1_max
    b = tuple(float(v) for v in theta[1 : k + 1])
    return EmosCoefficients(a=float(theta[0]), b=b, c=math.sqrt(theta[k + 1]), d=tuple(d))


def _wake(theta: np.ndarray, min_sigma: float) -> np.ndarray:
    k1 = len(theta) // 2
    if theta[k1] < (2.0 * min_sigma) ** 2:
        theta = theta.copy()
        theta[k1] = _WAKE_C2
    return theta


_DEFAULT_SINGLE = np.array([0.0, 1.0, 1.0, 1.0])  # a=0, b=1, c=1, d=1
_NEAR_IDENTITY_SINGLE = np.array([0.0, 1.0, 0.01, 1.0])  # c nudged off zero
_IDENTITY_SINGLE = np.array([0.0, 1.0, 0.0, 1.0])


def _starts_and_candidates(task: FitTask, single_fits, min_sigma):
    """Natural-coordinate start rows and zero-cost candidate points of a task."""
    k = len(task.model_ids)
    if k == 1:
        if task.start is not None:
            starts = [_wake(_theta_from(task.start), min_sigma)]
        else:
            starts = [_DEFAULT_SINGLE, _NEAR_IDENTITY_SINGLE]
        return starts, [_IDENTITY_SINGLE, _DEFAULT_SINGLE]

    # Predictor j's single fit embedded with every other predictor off.
    embeds = []
    for j, fit in enumerate(single_fits):
        embed = np.zeros(2 * k + 2)
        embed[[0, 1 + j, k + 1, k + 2 + j]] = _theta_from(fit.coefficients)
        embeds.append(embed)
    if task.start is not None:
        starts = [_wake(_theta_from(task.start), min_sigma)]
    else:
        # Start from the best single fit with the other predictors switched
        # on a little, and from a symmetric combination.
        best = min(range(k), key=lambda j: single_fits[j].objective)
        perturbed = embeds[best].copy()
        dormant = np.array([j for j in range(k) if j != best])
        perturbed[1 + dormant], perturbed[k + 2 + dormant] = 0.09, 0.0081
        symmetric = np.concatenate([[0.0], np.full(k, 1.0 / k), [1.0], np.full(k, 1.0 / k)])
        starts = [_wake(perturbed, min_sigma), symmetric]
    return starts, embeds


def _bounds_arrays(k: int, bounds):
    p = 2 * k + 2
    lower = np.zeros(p)
    lower[0] = -np.inf
    upper = np.full(p, np.inf)
    if bounds is not None:
        upper[1], upper[k + 2] = bounds[0], bounds[1] ** 2
    return lower, upper


def fit_batch(tasks: Sequence[FitTask], options: FitOptions = FitOptions()) -> list[FitResult]:
    """Fit every task in one batched projected-Newton solve.

    All tasks take the same number K of predictors. Tasks with K > 1 and
    without ``single_fits`` first get them from a batched single-model solve.
    Each task contributes one row per start; its best row wins unless a
    candidate point scores lower. Results are returned in task order, flagged
    ``converged`` when any of the task's rows converged; nothing is raised for
    a fit that did not converge.
    """
    if not tasks:
        return []
    k = len(tasks[0].model_ids)
    if any(len(t.model_ids) != k for t in tasks):
        raise ValueError("a batch takes tasks with one number of predictors")
    stack = _Stack.from_windows(tasks)
    singles = [t.single_fits for t in tasks]
    need = [i for i, fits in enumerate(singles) if k > 1 and fits is None]
    if need:
        seeds = fit_batch([FitTask(tasks[i].table, (m,)) for i in need for m in tasks[i].model_ids], options)
        for j, i in enumerate(need):
            singles[i] = tuple(seeds[k * j : k * (j + 1)])

    rows, cands = [], []  # (task, theta, lower, upper) per start row; (task, theta) per candidate
    task_rows, task_cands = [], []
    for i, task in enumerate(tasks):
        lower, upper = _bounds_arrays(k, task.bounds)
        starts, candidates = _starts_and_candidates(task, singles[i], options.min_sigma)
        task_rows.append(range(len(rows), len(rows) + len(starts)))
        task_cands.append(range(len(cands), len(cands) + len(candidates)))
        rows += [(i, np.clip(p, lower, upper), lower, upper) for p in starts]
        cands += [(i, np.clip(p, lower, upper)) for p in candidates]
    row_task, row_theta, row_lower, row_upper = (list(col) for col in zip(*rows))
    cand_task, cand_theta = (list(col) for col in zip(*cands))
    solved = _newton(np.array(row_theta), stack.take(row_task), np.array(row_lower), np.array(row_upper), options)
    f_cand, _ = _evaluate(np.array(cand_theta), stack.take(cand_task), options.min_sigma)

    results = []
    for i, task in enumerate(tasks):
        best = min(task_rows[i], key=lambda r: solved.f[r])
        theta, f, n_iter = solved.theta[best], float(solved.f[best]), int(solved.n_iterations[best])
        for c in task_cands[i]:
            # Zero-cost points may improve the answer but say nothing about
            # convergence.
            if f_cand[c] < f:
                theta, f, n_iter = cand_theta[c], float(f_cand[c]), 0
        results.append(
            FitResult(
                coefficients=_coef_from(theta, task.bounds),
                objective=f,
                converged=bool(solved.converged[task_rows[i]].any()),
                n_iterations=n_iter,
                n_samples=len(task.table),
            )
        )
    return results


def _fit_one(task: FitTask, options: FitOptions) -> FitResult:
    result = fit_batch([task], options)[0]
    if not result.converged:
        raise NonConvergenceError(
            f"fit for {task.model_ids!r} did not converge in {options.max_iterations} iterations", result
        )
    return result


def fit_single(
    table: SampleTable,
    model_id: str,
    options: FitOptions = FitOptions(),
    start: EmosCoefficients | None = None,
) -> FitResult:
    """Fit K = 1 coefficients by minimizing mean Gaussian CRPS.

    A batch of one task (see ``fit_batch``). ``start`` warm-starts the solver
    (e.g. from the previous issue date's coefficients). Whatever the starting
    point, the achieved objective is never above the objective at the
    default initialization or at the identity (pass-through) coefficients:
    both are evaluated as candidates.

    Raises
    ------
    NonConvergenceError
        If max_iterations is exhausted before the solver converges; the
        best-so-far fit rides on the error.
    """
    return _fit_one(FitTask(table, (model_id,), start=start), options)


def fit_mixed(
    table: SampleTable,
    model_ids: tuple[str, str],
    options: FitOptions = FitOptions(),
    single_fits: tuple[FitResult, FitResult] | None = None,
    start: EmosCoefficients | None = None,
) -> FitResult:
    """Fit K = 2 coefficients subject to b, d >= 0.

    A batch of one task (see ``fit_batch``; upper bounds go through
    ``FitTask.bounds``). ``single_fits`` may carry precomputed single-model
    fits for the two models (in model_ids order) to seed the multi-start;
    otherwise they are computed internally. Embedding a single-model optimum
    into the two-predictor space gives the same objective value, so the
    returned objective is never above either single-model optimum.
    ``start`` warm-starts the solver and skips the multi-start. Raises
    NonConvergenceError like ``fit_single``.
    """
    return _fit_one(FitTask(table, tuple(model_ids), start=start, single_fits=single_fits), options)
