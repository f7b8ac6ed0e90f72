from datetime import datetime, timezone

import numpy as np
import pytest

from emoskit.domain import ForecastCube, SampleTable

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


@pytest.fixture
def samples_45():
    return linear_gaussian_samples()
