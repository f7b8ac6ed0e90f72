from datetime import datetime, timezone

import numpy as np
import pytest

from emoskit.domain import ForecastCube, GaussianPredictive, PredictionTable, SampleTable
from emoskit.emos import FitTask, _Stack

T0 = datetime(2017, 1, 1, tzinfo=timezone.utc)


def linear_gaussian_samples(
    n=45,
    a=2.0,
    b=1.0,
    noise_std=0.1,
    seed=0,
    predictor_std=2.0,
    spread=0.5,
    second_model="noise",
):
    """A training table of models ("A", "B") on n daily init dates from T0,
    with y = a + b * mean_A + N(0, noise_std).

    Model "B" is either pure noise uncorrelated with y ("noise"), an exact
    copy of model A ("copy"), or a second noisy view of the same signal
    ("informative").
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        m1 = rng.normal(0.0, predictor_std)
        y = a + b * m1 + rng.normal(0.0, noise_std)
        if second_model == "copy":
            m2, s2 = m1, spread
        elif second_model == "informative":
            m2, s2 = m1 + rng.normal(0.0, 1.0), 0.7
        else:
            m2, s2 = rng.normal(0.0, predictor_std), 0.7
        rows.append((m1, m2, spread, s2, y))
    rows = np.array(rows, dtype=float).reshape(n, 5)
    return SampleTable(("A", "B"), T0.date().toordinal() + np.arange(n), rows[:, :2], rows[:, 2:4], rows[:, 4])


def forecast_cube(model_id, ensembles):
    """The cube of (station_id, init_time, lead, members) tuples, given in
    any order."""
    ensembles = sorted(ensembles, key=lambda e: e[:3])
    stations, inits = (sorted({e[i] for e in ensembles}) for i in (0, 1))
    widths, block = np.unique([len(e[3]) for e in ensembles], return_inverse=True)
    members = [np.array([e[3] for e, b in zip(ensembles, block) if b == j], dtype=float).reshape(sum(block == j), width)
               for j, width in enumerate(widths)]
    return ForecastCube(model_id, stations, inits, [stations.index(e[0]) for e in ensembles],
                        [inits.index(e[1]) for e in ensembles], [e[2] for e in ensembles], block.astype(np.int64), members)


def prediction_table(predictions) -> PredictionTable:
    """The table of a (station, init time, lead, strategy) ->
    GaussianPredictive mapping."""
    keys = list(predictions)
    sid, init, lead, strategy = zip(*keys) if keys else [()] * 4
    rows = np.arange(len(keys))
    return PredictionTable(sid, init, strategy, rows, rows, lead, rows, [p.mu for p in predictions.values()],
                           [p.sigma for p in predictions.values()])


def prediction_dict(table: PredictionTable) -> dict:
    """The (station, init time, lead, strategy) -> GaussianPredictive dict of
    a table, in its key order."""
    columns = [getattr(table, name).tolist() for name in ("station", "init", "lead", "strategy", "mu", "sigma")]
    return {(table.station_ids[s], table.init_times[t], lead, table.strategies[k]): GaussianPredictive(mu, sigma)
            for s, t, lead, k, mu, sigma in zip(*columns)}


def one_sample_windows(mu, sigma, y):
    """A solver stack of one-sample K = 1 windows, one per observation y[i],
    and the points theta_i = (mu_i, 0, sigma_i^2, 0). There ``emos._forward``
    gives the CRPS of N(mu_i, sigma_i) at y[i]: b = d = 0 switch the window's
    ensemble mean and spread (both 1) off."""
    day = T0.date().toordinal()
    tasks = [FitTask(SampleTable(("A",), [day], [[1.0]], [[1.0]], [obs]), ("A",)) for obs in np.ravel(y)]
    theta = np.column_stack([mu, np.zeros_like(mu), np.square(sigma), np.zeros_like(mu)])
    return _Stack.from_windows(tasks), theta


def oracle_ensemble_crps(members, y):
    """The kernel form of the raw-ensemble CRPS as one ensemble was scored
    before the scalar score computed through ``ensemble_crps_rows``:
    mean_i |x_i - y| - (1/(2 m^2)) sum_ij |x_i - x_j|, the pairwise sum by
    sum_ij |x_i - x_j| = 2 sum_i (2i - m + 1) x_(i)."""
    x = np.asarray(members, dtype=float)
    m = x.size
    term_obs = np.abs(x - y).mean()
    xs = np.sort(x)
    weights = 2.0 * np.arange(m) - m + 1.0
    term_pairs = float(np.dot(weights, xs)) / (m * m)
    return float(term_obs - term_pairs)


@pytest.fixture
def samples_45():
    return linear_gaussian_samples()
