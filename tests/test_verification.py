"""The library verification path: case alignment, the calibration table and
the Diebold-Mariano matrix on hand-checked inputs."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from emoskit import verification
from emoskit.domain import GaussianPredictive, ObservationSeries, _micros
from emoskit.emos import EmosCoefficients, FitResult, identity, model_weights
from emoskit.pipeline import CoefficientKey, CoefficientStore
from emoskit.scoring import Conclusion, dm_test, ensemble_crps
from emoskit.verification import verify

from conftest import forecast_cube, prediction_table

T0 = datetime(2017, 1, 1, tzinfo=timezone.utc)


def hourly_observations(sid, values):
    return ObservationSeries(sid, _micros(T0 + timedelta(hours=h) for h in range(len(values))), values)


def test_cases_are_the_common_set_with_observations():
    obs = {"S": hourly_observations("S", [0.0] * 30)}
    predictions = {("S", T0, lead, "single:m"): GaussianPredictive(0.0, 1.0) for lead in (1, 2, 40)}
    predictions[("S", T0, 3, "mixed:m+n")] = GaussianPredictive(0.0, 1.0)
    predictions.update({("S", T0, lead, "mixed:m+n"): GaussianPredictive(0.5, 1.0) for lead in (2, 1)})
    ensembles = {"m": forecast_cube("m", [("S", T0, lead, (0.0, 1.0)) for lead in (1, 2, 3)])}
    result = verify(prediction_table(predictions), ensembles, obs, ["single:m", "mixed:m+n", "raw:m"], "single:m")
    # lead 3 lacks single:m, lead 40 has no observation
    assert result.cases.leads.tolist() == [1, 2]
    assert set(result.crps) == {"single:m", "mixed:m+n", "raw:m"}
    assert result.crps["raw:m"].tolist() == [ensemble_crps([0.0, 1.0], 0.0)] * 2
    assert result.calibration[("single:m", 1)] == (1, 0.0, math.inf)  # exact mean: no error to scale by


def test_reference_must_be_scored():
    with pytest.raises(ValueError, match="reference strategy"):
        verify({}, {}, {}, ["single:m"], "raw:m")


def test_calibration_table_by_hand():
    # lead 1: errors (y - mu) of 1 and -1 with sigma 1 and 3; lead 2: one case
    obs = {"S": hourly_observations("S", [0.0, 1.0, 5.0]), "T": hourly_observations("T", [0.0, -1.0])}
    predictions = {
        ("S", T0, 1, "single:m"): GaussianPredictive(0.0, 1.0),
        ("T", T0, 1, "single:m"): GaussianPredictive(0.0, 3.0),
        ("S", T0, 2, "single:m"): GaussianPredictive(4.0, 2.0),
    }
    result = verify(prediction_table(predictions), {}, obs, ["single:m"], "single:m")
    n, z_std, spread_skill = result.calibration[("single:m", 1)]
    assert n == 2
    assert z_std == pytest.approx(np.std([1.0, -1.0 / 3.0]))
    assert spread_skill == pytest.approx(math.sqrt((1.0 + 9.0) / 2.0) / 1.0)
    assert result.calibration[("single:m", 2)] == (1, 0.0, 2.0)


def test_dm_matrix_counts_init_dates():
    # three init dates x two leads; the mixed strategy is sharper everywhere
    obs = {"S": hourly_observations("S", np.sin(np.arange(24 * 4)).tolist())}
    predictions = {}
    for day in range(3):
        init = T0 + timedelta(days=day)
        for lead in (6, 30):
            y = obs["S"].values[24 * day + lead]
            predictions[("S", init, lead, "single:m")] = GaussianPredictive(y + 0.5 + 0.2 * day, 2.0)
            predictions[("S", init, lead, "mixed:m+n")] = GaussianPredictive(y + 0.1, 1.0)
    result = verify(prediction_table(predictions), {}, obs, ["mixed:m+n", "single:m"], "single:m")
    test = result.dm[("mixed:m+n", "single:m")]
    d = result.crps["mixed:m+n"] - result.crps["single:m"]
    assert test == dm_test(d, result.cases.init_days, max_lead=30)
    assert (test.n, test.conclusion) == (3, Conclusion.FIRST_BETTER)

    first_date = {key: pred for key, pred in predictions.items() if key[1] == T0}
    test = verify(prediction_table(first_date), {}, obs, ["mixed:m+n", "single:m"], "single:m").dm[("mixed:m+n", "single:m")]
    assert (test.n, test.statistic, test.p_value, test.conclusion) == (1, None, None, Conclusion.INSUFFICIENT)


def test_seam_sums_cases_in_repr_order(monkeypatch):
    # seam_diagnostics.csv sums the cases in repr order of (station, init
    # time): Jan 10 comes before Jan 2.
    inits = [T0 + timedelta(days=d) for d in (1, 9)]
    predictions = {("S", t, lead, "single:m"): GaussianPredictive(float(t.day), 1.0) for t in inits for lead in (1, 2)}
    obs = {"S": ObservationSeries("S", _micros(t + timedelta(hours=h) for t in inits for h in (1, 2)), [0.0] * 4)}
    seen, real = [], verification.seam_diagnostics
    monkeypatch.setattr(verification, "seam_diagnostics",
                        lambda mu, *rest: seen.append(mu[:, 0].tolist()) or real(mu, *rest))
    verify(prediction_table(predictions), {}, obs, ["single:m"], "single:m", seam_window=(1, 2))
    assert seen == [[10.0, 2.0]]


def test_weights_are_the_model_weights_of_the_mixed_records():
    # The columns of verify --store against emos.model_weights record by
    # record, zero sums (weight 0.5) included; single-model records give none.
    coefficients = [((0.6, 0.2), (0.3, 0.1)), ((0.0, 0.0), (0.0, 0.0)), ((0.0, 1.5), (2.0, 0.0)),
                    ((1e-300, 3.0), (1.0, 1.0))]
    records = {}
    for day, (b, d) in enumerate(coefficients):
        for sid in ("T", "S"):
            issue = T0.date() + timedelta(days=day)
            records[CoefficientKey(sid, 12 + day, "mixed:m+n", issue)] = FitResult(
                EmosCoefficients(0.1, b, 0.2, d), 0.5, True, 0, 45, False)
            records[CoefficientKey(sid, 12, "single:m", issue)] = FitResult(identity(1), 0.5, True, 0, 45, True)
    store = CoefficientStore(records)
    weights = verification._weights(store)
    expected = [(key, model_weights(r.coefficients)) for key, r in store.items() if key.strategy == "mixed:m+n"]
    assert list(zip(weights["station_id"], weights["issue_day"].tolist(), weights["lead_h"].tolist())) == [
        (key.station_id, key.issue_date.toordinal(), key.lead_time) for key, _ in expected]
    assert [(m.hex(), s.hex()) for m, s in zip(weights["weight_mean"].tolist(), weights["weight_std"].tolist())] == [
        (w.weight_mean.hex(), w.weight_std.hex()) for _, w in expected]
