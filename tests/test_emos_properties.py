"""Property tests of the batched EMOS solver.

scipy's L-BFGS-B, run the way single fits were solved before the batched
solver (squared parametrization b = gamma^2, d = delta^2, analytic
gradient, the same starts and candidates), is the oracle: on every row of a
batch the batched objective must not end above it.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import ndtr

from emoskit.domain import SampleTable
from emoskit.emos import FitOptions, FitTask, _evaluate, _Stack, fit_batch

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
def windows(draw, k):
    """(xbar (n, k), std (n, k), y (n,)) of a two-model linear scenario."""
    n = draw(st.sampled_from([MIN_SAMPLES, MIN_SAMPLES + 1, 45]))
    seed = draw(st.integers(0, 2**32 - 1))
    a = draw(st.floats(-3.0, 3.0))
    b = draw(st.floats(-0.5, 1.5))
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
@given(window=windows(2), point=st.tuples(
    st.floats(-2.0, 2.0), st.floats(0.1, 1.5), st.floats(0.0, 1.5),
    st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(0.0, 2.0),
))
def test_hessian_matches_central_differences(window, point):
    stack = _Stack.from_windows([FitTask(as_table(window), ("A", "B"))])
    theta = np.array([point])
    f, g, H = _evaluate(theta, stack, OPTIONS.min_sigma, order=2)
    for j in range(theta.shape[1]):
        h = 1e-6 * max(1.0, abs(theta[0, j]))
        up, down = theta.copy(), theta.copy()
        up[0, j] += h
        down[0, j] -= h
        f_up, g_up = _evaluate(up, stack, OPTIONS.min_sigma, order=1)
        f_down, g_down = _evaluate(down, stack, OPTIONS.min_sigma, order=1)
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
