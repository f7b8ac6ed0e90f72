"""Property tests of the file formats, the Gaussian CRPS, the vectorised
verification scores and the lapse-rate correction (derandomized, like the
solver properties)."""

import math
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from emoskit.domain import GaussianPredictive, ObservationSeries, _micros
from emoskit.emos import EmosCoefficients, FitResult
from emoskit.io import read_predictions, read_store, write_predictions, write_store
from emoskit.pipeline import CoefficientKey, CoefficientStore
from emoskit.scoring import gaussian_crps, pit_value
from emoskit.terrain import lapse_correct
from emoskit.verification import verify

from conftest import forecast_cube, oracle_ensemble_crps, prediction_dict, prediction_table

from test_scoring import crps_by_quadrature

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True)


# ---------------------------------------------------------------------------
# Coefficient store and predictions CSV round trips
# ---------------------------------------------------------------------------


@st.composite
def store_records(draw):
    """(key, record) of a random K = 1 or K = 2 strategy."""
    models = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    strategy = f"single:{models[0]}" if len(models) == 1 else f"mixed:{models[0]}+{models[1]}"
    k = len(models)
    key = CoefficientKey(draw(names), draw(st.integers(0, 400)), strategy, draw(st.dates()))
    coef = EmosCoefficients(
        draw(finite),
        tuple(draw(non_negative) for _ in range(k)),
        draw(finite),
        tuple(draw(non_negative) for _ in range(k)),
    )
    objective = draw(st.one_of(st.just(float("nan")), non_negative))
    n_samples = draw(st.integers(0, 10_000))
    record = FitResult(coef, objective, draw(st.booleans()), 0, n_samples, draw(st.booleans()))
    return key, record


@PROPERTY_SETTINGS
@given(records=st.lists(store_records(), min_size=1, max_size=8))
def test_store_round_trip_is_byte_identical(tmp_path_factory, records):
    root = tmp_path_factory.mktemp("store")
    write_store(root / "a.csv", CoefficientStore(dict(records)))
    back = read_store(root / "a.csv")
    assert [key for key, _ in back.items()] == sorted(dict(records), key=lambda k: (k.issue_date, k.station_id,
                                                                                    k.lead_time, k.strategy))
    write_store(root / "b.csv", back)
    assert (root / "b.csv").read_bytes() == (root / "a.csv").read_bytes()


@st.composite
def prediction_keys(draw):
    init = draw(st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 12, 31)))
    return draw(names), init.replace(microsecond=0, tzinfo=timezone.utc), draw(st.integers(0, 400)), draw(names)


@PROPERTY_SETTINGS
@given(predictions=st.dictionaries(
    prediction_keys(),
    st.builds(GaussianPredictive, finite, st.floats(min_value=1e-300, allow_infinity=False)),
    min_size=1, max_size=8,
))
def test_predictions_round_trip_is_byte_identical(tmp_path_factory, predictions):
    root = tmp_path_factory.mktemp("predictions")
    write_predictions(root / "a.csv", prediction_table(predictions))
    back = read_predictions(root / "a.csv")
    assert list(prediction_dict(back)) == sorted(predictions)
    write_predictions(root / "b.csv", back)
    assert (root / "b.csv").read_bytes() == (root / "a.csv").read_bytes()


# ---------------------------------------------------------------------------
# Gaussian CRPS
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(mu=st.floats(-1e6, 1e6), sigma=st.floats(1e-6, 1e6), y=st.floats(-1e6, 1e6))
def test_gaussian_crps_non_negative(mu, sigma, y):
    assert gaussian_crps(GaussianPredictive(mu, sigma), y) >= 0.0


@PROPERTY_SETTINGS
@given(mu=st.floats(-1e2, 1e2), sigma=st.floats(1e-2, 1e2), z=st.floats(-8.0, 8.0))
def test_gaussian_crps_matches_quadrature(mu, sigma, z):
    y = mu + sigma * z
    closed = gaussian_crps(GaussianPredictive(mu, sigma), y)
    assert math.isclose(closed, crps_by_quadrature(mu, sigma, y), rel_tol=1e-9, abs_tol=1e-10 * sigma)


# ---------------------------------------------------------------------------
# Vectorised verification scores against the scalar references
# ---------------------------------------------------------------------------

T0 = datetime(2017, 1, 1, tzinfo=timezone.utc)
# Quarter degrees make ties between members, and with the observation, common.
temperature = st.one_of(st.integers(-12, 12).map(lambda v: v / 4), st.floats(-40.0, 40.0))


@st.composite
def scored_cases(draw):
    """(mu, sigma, y, members) per case, 1-60 members; y often equals a member."""
    cases = []
    for _ in range(draw(st.integers(2, 12))):
        members = draw(st.lists(temperature, min_size=1, max_size=60))
        y = draw(st.one_of(st.sampled_from(members), temperature))
        cases.append((draw(st.floats(-40.0, 40.0)), draw(st.floats(1e-3, 20.0)), y, members))
    return cases


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(cases=scored_cases())
def test_verify_scores_equal_the_scalar_scores(cases):
    inits = [T0 + timedelta(days=i) for i in range(len(cases))]
    predictions = {("S", t, 12, "single:m"): GaussianPredictive(c[0], c[1]) for t, c in zip(inits, cases)}
    ensembles = {"m": forecast_cube("m", [("S", t, 12, c[3]) for t, c in zip(inits, cases)])}
    valid = _micros(t + timedelta(hours=12) for t in inits)
    observations = {"S": ObservationSeries("S", valid, [c[2] for c in cases])}
    result = verify(prediction_table(predictions), ensembles, observations, ["single:m", "raw:m"], "single:m")
    for i, (mu, sigma, y, members) in enumerate(cases):
        pred = GaussianPredictive(mu, sigma)
        assert result.crps["single:m"][i].hex() == gaussian_crps(pred, y).hex()
        assert result.pit["single:m"][i].hex() == pit_value(pred, y).hex()
        assert result.crps["raw:m"][i].hex() == oracle_ensemble_crps(members, y).hex()


# ---------------------------------------------------------------------------
# Lapse-rate correction
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(
    members=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=51),
    elevation_a=st.floats(-500.0, 9000.0),
    elevation_b=st.floats(-500.0, 9000.0),
)
def test_lapse_correction_is_invertible(members, elevation_a, elevation_b):
    back = lapse_correct(lapse_correct(members, elevation_a, elevation_b), elevation_b, elevation_a)
    assert all(abs(u - v) <= 1e-9 for u, v in zip(back, members))
