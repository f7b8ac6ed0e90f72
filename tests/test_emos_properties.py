"""Property tests of the batched EMOS solver.

scipy's L-BFGS-B, run the way single fits were solved before the batched
solver (squared parametrization b = gamma^2, d = delta^2, analytic
gradient, the same starts and candidates), is the oracle: on every row of a
batch the batched objective must not end above it.

The Newton loop has a second, differential oracle: the loop as it was
before it reused line-search evaluations and batched the backtracking
(``oracle_newton`` below, kept as it was, with the evaluation and Newton
direction it called), which evaluated every point again for its derivatives
and halved the step one forward pass at a time. ``fit_batch`` must give its
results bit for bit.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import ndtr

import emoskit.emos as emos
from emoskit.domain import SampleTable
from emoskit.emos import EmosCoefficients, FitOptions, FitTask, _derivatives, _evaluate, _forward, _Stack, fit_batch
from emoskit.scoring import _INV_SQRT_PI, _std_normal_pdf
from emoskit.scoring import ndtr as emos_ndtr

from conftest import T0

MIN_SAMPLES = 30  # RollingWindowSpec().min_samples
OPTIONS = FitOptions()
PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# Random training windows
# ---------------------------------------------------------------------------


@st.composite
def windows(draw, k, sizes=st.sampled_from([MIN_SAMPLES, MIN_SAMPLES + 1, 45])):
    """(xbar (n, k), std (n, k), y (n,)) of a two-model linear scenario, n
    drawn from ``sizes``."""
    n = draw(sizes)
    seed = draw(st.integers(0, 2**32 - 1))
    a = draw(st.floats(-3.0, 3.0))
    b = draw(st.floats(-0.5, 1.5))
    # Noise stays well above 0.01 degC. Nearer 1e-3 the optimum puts sigma on
    # the min_sigma floor, where fit_batch may stop above the oracle: a
    # 1,500-example run with noise down to 1e-3 found single-model rows 1.3e-6
    # and 1e-5 above it, and with noise >= 0.01 all 1,500 examples passed.
    # Temperature observations are never that exact.
    noise = draw(st.floats(0.05, 2.0))
    spread = draw(st.sampled_from(["normal", "zero", "some_zero"]))
    rng = np.random.default_rng(seed)
    truth = rng.normal(8.0, 4.0, n)
    xbar = truth[:, None] + rng.normal(0.0, [0.5, 1.5][:k], (n, k)) + [1.0, -2.0][:k]
    std = rng.uniform(0.2, 1.5, (n, k))
    if spread == "zero":
        std[:] = 0.0
    elif spread == "some_zero":
        std[rng.random((n, k)) < 0.3] = 0.0
    y = a + b * truth + rng.normal(0.0, noise, n)
    return xbar, std, y


def bounds_or_none():
    return st.one_of(st.none(), st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.2)))


def as_table(window):
    xbar, std, y = window
    days = T0.date().toordinal() + np.arange(len(y))
    return SampleTable(("A", "B")[: xbar.shape[1]], days, xbar, std, y)


# ---------------------------------------------------------------------------
# Oracle: L-BFGS-B in the squared parametrization
# ---------------------------------------------------------------------------


def crps_and_grad(p, xbar, var, y, min_sigma):
    k = xbar.shape[1]
    a, g, c, t = p[0], p[1 : k + 1], p[k + 1], p[k + 2 :]
    err = y - (a + xbar @ (g * g))
    sig_raw = np.sqrt(c * c + var @ t**4)
    floored = sig_raw < min_sigma
    sig = np.maximum(sig_raw, min_sigma)
    z = err / sig
    cdf2 = 2.0 * ndtr(z) - 1.0
    d_sig = 2.0 * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) - 1.0 / np.sqrt(np.pi)
    f = np.mean(err * cdf2 + sig * d_sig)
    w = np.where(floored, 0.0, d_sig) / np.maximum(sig_raw, 1e-300)
    grad = np.concatenate(
        [[-cdf2.mean()], -2.0 * g * (cdf2 @ xbar) / len(y), [c * w.mean()], 2.0 * t**3 * (w @ var) / len(y)]
    )
    return f, grad


def oracle(window, bounds=None, single_fits=None):
    """Best objective of L-BFGS-B from the solver's starts, and of its
    candidate points. ``single_fits``: (coefficient tuple, objective) of both
    models, for a two-model window."""
    xbar, std, y = window
    var = std * std
    k = xbar.shape[1]
    box = [(None, None)] * (2 * k + 2)
    if bounds is not None:
        box[1] = (-np.sqrt(bounds[0]), np.sqrt(bounds[0]))
        box[k + 2] = (-np.sqrt(bounds[1]), np.sqrt(bounds[1]))
    lo = np.array([-np.inf if b[0] is None else b[0] for b in box])
    hi = np.array([np.inf if b[1] is None else b[1] for b in box])

    def fun(p):
        return crps_and_grad(p, xbar, var, y, OPTIONS.min_sigma)

    if k == 1:
        starts = [np.array([0.0, 1.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.1, 1.0])]
        candidates = [np.array([0.0, 1.0, 0.0, 1.0])]
    else:
        (c1, f1), (c2, f2) = single_fits
        embeds = [
            np.array([c1[0], np.sqrt(c1[1]), 0.0, c1[2], np.sqrt(c1[3]), 0.0]),
            np.array([c2[0], 0.0, np.sqrt(c2[1]), c2[2], 0.0, np.sqrt(c2[3])]),
        ]
        better = 0 if f1 <= f2 else 1
        perturbed = embeds[better].copy()
        perturbed[list([(2, 5), (1, 4)][better])] = 0.3
        symmetric = np.array([0.0, np.sqrt(0.5), np.sqrt(0.5), 1.0, 0.5**0.25, 0.5**0.25])
        starts, candidates = [perturbed, symmetric], embeds
    best = min(fun(np.clip(p, lo, hi))[0] for p in starts + candidates)
    for p0 in starts:
        res = minimize(
            fun,
            np.clip(p0, lo, hi),
            jac=True,
            method="L-BFGS-B",
            bounds=box,
            options={"maxiter": 1000, "ftol": OPTIONS.objective_tolerance, "gtol": 1e-12, "maxls": 50},
        )
        best = min(best, float(res.fun))
    return best


def single_oracle_fit(window, j):
    """Coefficients (a, b, c, d) and objective of the oracle's single fit of
    model j, found by the squared-parametrization runs."""
    xbar, std, y = window
    one = (xbar[:, [j]], std[:, [j]], y)
    var = std[:, [j]] ** 2
    best = None
    for p0 in (np.array([0.0, 1.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.1, 1.0])):
        res = minimize(
            lambda p: crps_and_grad(p, one[0], var, y, OPTIONS.min_sigma), p0, jac=True, method="L-BFGS-B",
            options={"maxiter": 1000, "ftol": OPTIONS.objective_tolerance, "gtol": 1e-12, "maxls": 50},
        )
        if best is None or res.fun < best[1]:
            a, g, c, t = res.x
            best = ((a, g * g, abs(c), t * t), float(res.fun))
    return best


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(data=st.data(), k=st.sampled_from([1, 2]), size=st.integers(1, 4))
def test_batched_objective_not_above_oracle(data, k, size):
    batch = [data.draw(windows(k)) for _ in range(size)]
    bounds = [data.draw(bounds_or_none()) if k == 2 else None for _ in range(size)]
    tasks = [FitTask(as_table(w), ("A", "B")[:k], bounds=b) for w, b in zip(batch, bounds)]
    results = fit_batch(tasks, OPTIONS)
    for window, b, result in zip(batch, bounds, results):
        singles = [single_oracle_fit(window, j) for j in range(k)] if k == 2 else None
        assert result.converged
        assert result.objective <= oracle(window, b, singles) + 1e-9
        if b is not None:
            assert result.coefficients.b[0] <= b[0] and result.coefficients.d[0] <= b[1]


@PROPERTY_SETTINGS
@given(data=st.data(), k=st.sampled_from([1, 2]))
def test_hessian_matches_central_differences(data, k):
    """``_derivatives``' g against central differences of ``_forward``, and
    its H against central differences of the order-1 g, on drawn K = 1 and
    K = 2 windows at points where c^2 >= 0.05 keeps every sigma off the floor."""
    stack = _Stack.from_windows([FitTask(as_table(data.draw(windows(k))), ("A", "B")[:k])])
    b, d = (data.draw(st.lists(st.floats(0.0, upper), min_size=k, max_size=k)) for upper in (1.5, 2.0))
    theta = np.array([[data.draw(st.floats(-2.0, 2.0)), *b, data.draw(st.floats(0.05, 2.0)), *d]])
    f, state = _forward(theta, stack, OPTIONS.min_sigma)
    g, H = _derivatives(state, stack, order=2)
    for j in range(theta.shape[1]):
        h = 1e-6 * max(1.0, abs(theta[0, j]))
        up, down = theta.copy(), theta.copy()
        up[0, j] += h
        down[0, j] -= h
        (f_up, up_state), (f_down, down_state) = (_forward(p, stack, OPTIONS.min_sigma) for p in (up, down))
        assert not (state[-1] | up_state[-1] | down_state[-1]).any()
        (g_up,), (g_down,) = _derivatives(up_state, stack, order=1), _derivatives(down_state, stack, order=1)
        scale = max(1.0, np.abs(H[0]).max())
        np.testing.assert_allclose((g_up - g_down)[0] / (2 * h), H[0, :, j], rtol=0, atol=1e-6 * scale)
        assert abs((f_up - f_down)[0] / (2 * h) - g[0, j]) <= 1e-6 * max(1.0, np.abs(g).max())


@PROPERTY_SETTINGS
@given(data=st.data(), size=st.integers(1, 5))
def test_mixed_nests_singles_within_a_batch(data, size):
    batch = [data.draw(windows(2)) for _ in range(size)]
    samples = [as_table(w) for w in batch]
    singles = fit_batch([FitTask(s, (m,)) for s in samples for m in ("A", "B")], OPTIONS)
    pairs = [(singles[2 * i], singles[2 * i + 1]) for i in range(size)]
    mixed = fit_batch([FitTask(s, ("A", "B"), single_fits=p) for s, p in zip(samples, pairs)], OPTIONS)
    for (fit_a, fit_b), fit in zip(pairs, mixed):
        assert fit.objective <= min(fit_a.objective, fit_b.objective) + 3e-8


# ---------------------------------------------------------------------------
# Differential oracle: the sequential-halving Newton loop
# ---------------------------------------------------------------------------


def oracle_evaluate(theta, st: _Stack, min_sigma: float, order: int = 0):
    k1 = st.U.shape[2]
    mu = np.matmul(st.U, theta[:, :k1, None])[..., 0]
    s2 = np.matmul(st.V, theta[:, k1:, None])[..., 0]
    sig_raw = np.sqrt(s2)
    floored = sig_raw < min_sigma
    sig = np.maximum(sig_raw, min_sigma)
    err = st.y - mu
    z = err / sig
    two_cdf_m1 = 2.0 * emos_ndtr(z) - 1.0
    pdf = _std_normal_pdf(z)
    f_sig = 2.0 * pdf - _INV_SQRT_PI
    f = np.sum(st.w * (err * two_cdf_m1 + sig * f_sig), axis=1)
    if order == 0:
        return f, np.any(floored & st.valid, axis=1)

    sig_s = np.where(floored, 0.0, 0.5 / sig)
    g_mu = st.w * -two_cdf_m1
    g_s = st.w * f_sig * sig_s
    g = np.concatenate([np.matmul(g_mu[:, None, :], st.U)[:, 0], np.matmul(g_s[:, None, :], st.V)[:, 0]], axis=1)
    if order == 1:
        return f, g

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


def oracle_newton_direction(theta, g, H, lower, upper):
    pg = theta - np.clip(theta - g, lower, upper)
    eps = np.minimum(emos._ACTIVE_EPS, np.abs(pg).max(axis=1))[:, None]
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
    lam = np.maximum(lam, emos._EIG_FLOOR * np.maximum(lam.max(axis=1, keepdims=True), 1e-300))
    gv = np.matmul(gf[:, None, :], vec)[:, 0] / lam
    step = -np.matmul(vec, gv[:, :, None])[..., 0]
    target = np.where(at_lower, lower, np.where(at_upper, upper, theta))
    step = np.where(held, target - theta, step)
    decrease = np.sum(gv * gv * lam, axis=1) + np.sum(np.where(held, g * (theta - target), 0.0), axis=1)
    return step, decrease


def oracle_newton(theta, st: _Stack, lower, upper, options: FitOptions):
    start, theta = theta, theta.copy()
    rows = theta.shape[0]
    m = options.min_sigma
    rtol = min(options.objective_tolerance, emos._NEWTON_RTOL)
    f, _ = oracle_evaluate(theta, st, m)
    converged = np.zeros(rows, dtype=bool)
    stalled = np.zeros(rows, dtype=bool)
    n_iter = np.zeros(rows, dtype=int)

    live = np.arange(rows)
    for it in range(options.max_iterations + 1):
        if live.size == 0:
            break
        sub = st.take(live)
        th, lo, hi = theta[live], lower[live], upper[live]
        f_live, g, H = oracle_evaluate(th, sub, m, order=2)
        step, decrease = oracle_newton_direction(th, g, H, lo, hi)
        done = decrease <= rtol * np.abs(f_live)
        converged[live[done]] = True
        if it == options.max_iterations:
            break
        search = np.flatnonzero(~done)
        alpha = np.ones(search.size)
        accepted = np.zeros(search.size, dtype=bool)
        pending = np.arange(search.size)
        for _ in range(40):  # _MAX_HALVINGS
            if pending.size == 0:
                break
            r = search[pending]
            trial = np.clip(th[r] + alpha[pending, None] * step[r], lo[r], hi[r])
            f_trial, floored = oracle_evaluate(trial, sub.take(r), m)
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
        theta[i], f[i], converged[i], extra = emos._lbfgsb_row(
            (start[i], theta[i]), st.take([i]), upper[i], theta[i], f[i], options
        )
        n_iter[i] += extra
    return emos._Solved(theta, f, converged, n_iter)


def oracle_solve(theta, st: _Stack, lower, upper, options: FitOptions):
    """``_newton``'s contract on the oracle loop: ``fit_batch`` boxes each
    candidate point to itself, and such rows are only evaluated, as
    ``fit_batch`` evaluated its candidates before."""
    point = (lower == upper).all(axis=1)
    rows, points = np.flatnonzero(~point), np.flatnonzero(point)
    solved = oracle_newton(theta[rows], st.take(rows), lower[rows], upper[rows], options)
    out = emos._Solved(theta.copy(), np.empty(len(theta)), np.zeros(len(theta), bool), np.zeros(len(theta), int))
    out.theta[rows], out.f[rows], out.converged[rows], out.n_iterations[rows] = (
        solved.theta, solved.f, solved.converged, solved.n_iterations
    )
    out.f[points] = oracle_evaluate(theta[points], st.take(points), options.min_sigma)[0]
    return out


def bits(results):
    """Every number of a list of fit results, by its float64 bits."""
    out = []
    for r in results:
        c = r.coefficients
        out.append(([v.hex() for v in (c.a, *c.b, c.c, *c.d, r.objective)], r.converged, r.n_iterations))
    return out


def oracle_fit_batch(tasks, options=OPTIONS):
    with mock.patch.object(emos, "_newton", oracle_solve):
        return fit_batch(tasks, options)


@st.composite
def oracle_tasks(draw, k, sizes=st.sampled_from([MIN_SAMPLES, MIN_SAMPLES + 1, 45])):
    """A task on a drawn window: some exact (zero noise and spread, whose
    sigma heads for the floor and whose rows stall into L-BFGS-B), some
    warm-started at c = 0 (woken) or with a far from the data (more than
    _HALVING_BATCH halvings), some under t1 upper bounds."""
    xbar, std, y = draw(windows(k, sizes))
    if draw(st.booleans()):
        std = np.zeros_like(std)
        y = 0.5 + 0.9 * xbar[:, 0]
    start = draw(st.one_of(
        st.none(),
        st.builds(
            lambda a, c, b: EmosCoefficients(a, (b,) * k, c, (1.0,) * k),
            st.sampled_from([0.0, 1.0, 30.0, -200.0]), st.sampled_from([0.0, 1e-4, 0.5]), st.floats(0.1, 1.5),
        ),
    ))
    bounds = draw(bounds_or_none()) if k == 2 else None
    return FitTask(as_table((xbar, std, y)), ("A", "B")[:k], start=start, bounds=bounds)


@PROPERTY_SETTINGS
@given(data=st.data(), k=st.sampled_from([1, 2]), size=st.integers(1, 4))
def test_fit_batch_matches_sequential_halving_oracle(data, k, size):
    tasks = [data.draw(oracle_tasks(k)) for _ in range(size)]
    assert bits(fit_batch(tasks, OPTIONS)) == bits(oracle_fit_batch(tasks))


@settings(PROPERTY_SETTINGS, max_examples=12)
@given(data=st.data(), k=st.sampled_from([1, 2]), size=st.integers(2, 5))
def test_fit_does_not_depend_on_its_batch(data, k, size):
    # Windows of up to 128 samples: numpy sums that many in one pairwise block
    # (ROADMAP item 8), so a wider padding adds only exact zeros.
    tasks = [data.draw(oracle_tasks(k, st.integers(1, 128))) for _ in range(size)]
    order = data.draw(st.permutations(range(size)))
    together = fit_batch([tasks[i] for i in order], OPTIONS)
    assert bits([together[order.index(i)] for i in range(size)]) == bits([fit_batch([t], OPTIONS)[0] for t in tasks])


def test_oracle_cases_cover_long_searches_stalls_and_wakes():
    """One batch of each kind the property test draws, checked to reach the
    branches it is drawn for: a line search past the first batch of
    halvings, a woken start and a row that stalls into L-BFGS-B; with the
    halving passes whole and split."""
    rng = np.random.default_rng(5)
    n = 45
    truth = rng.normal(8.0, 4.0, n)
    xbar = truth[:, None] + rng.normal(0.0, [0.5, 1.5], (n, 2)) + [1.0, -2.0]
    std = rng.uniform(0.2, 1.5, (n, 2))
    y = 0.5 + 0.9 * truth + rng.normal(0.0, 0.5, n)
    exact = as_table((xbar, np.zeros_like(std), 0.5 + 0.9 * xbar[:, 0]))
    noisy = as_table((xbar, std, y))
    batches = [
        [FitTask(noisy, ("A",), start=EmosCoefficients(30.0, (1.0,), 0.5, (1.0,))),
         FitTask(noisy, ("B",), start=EmosCoefficients(0.0, (1.0,), 0.0, (1.0,))),
         FitTask(exact, ("A",))],
        [FitTask(noisy, ("A", "B"), bounds=(0.5, 0.4)),
         FitTask(noisy, ("A", "B"), start=EmosCoefficients(-200.0, (0.5, 0.5), 0.0, (0.5, 0.5))),
         FitTask(exact, ("A", "B"))],
    ]
    rounds, stalls, wakes, forwards = [], [], [], [0]
    real_search, real_forward, real_lbfgsb, real_wake = emos._line_search, emos._forward, emos._lbfgsb_row, emos._wake

    def search(*args):
        before = forwards[0]
        out = real_search(*args)
        rounds.append(forwards[0] - before)
        return out

    def forward(*args):
        forwards[0] += 1
        return real_forward(*args)

    def lbfgsb(*args):
        stalls.append(1)
        return real_lbfgsb(*args)

    def wake(theta, min_sigma):
        woken = real_wake(theta, min_sigma)
        wakes.append(woken is not theta)
        return woken

    spies = {"_line_search": search, "_forward": forward, "_lbfgsb_row": lbfgsb, "_wake": wake}
    # One Newton iteration leaves rows unconverged, which candidate points
    # must not mark converged.
    for batch, options in [(b, o) for b in batches for o in (OPTIONS, FitOptions(max_iterations=1))]:
        want = bits(oracle_fit_batch(batch, options))
        # A pass budget of one sample splits every batch of halvings into one
        # pass per pending row.
        for pass_samples in (emos._PASS_SAMPLES, 1):
            with mock.patch.multiple(emos, _PASS_SAMPLES=pass_samples, **spies):
                assert bits(fit_batch(batch, options)) == want
    # a third round tries halvings past the first batch
    assert max(rounds) >= 3
    assert stalls and any(wakes)


@PROPERTY_SETTINGS
@given(window=windows(2), point=st.tuples(
    st.floats(-2.0, 2.0), st.floats(0.0, 1.5), st.floats(0.0, 1.5),
    st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
), order=st.sampled_from([1, 2]))
def test_evaluate_matches_oracle(window, point, order):
    stack = _Stack.from_windows([FitTask(as_table(window), ("A", "B"))])
    theta = np.array([point])
    got, want = _evaluate(theta, stack, OPTIONS.min_sigma, order), oracle_evaluate(theta, stack, OPTIONS.min_sigma, order)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
