import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from emoskit.domain import EnsembleForecast, GaussianPredictive, ObservationSeries, StationMetadata
from emoskit.emos import EmosCoefficients, FitResult
from emoskit.io import (
    SchemaError,
    fmt_float,
    format_timestamp,
    parse_config,
    parse_timestamp,
    read_forecasts,
    read_observations,
    read_predictions,
    read_stations,
    read_store,
    write_forecasts,
    write_observations,
    write_predictions,
    write_stations,
    write_store,
)
from emoskit.pipeline import CoefficientKey, CoefficientStore

from conftest import forecast_cube

T0 = datetime(2017, 3, 1, tzinfo=timezone.utc)


class TestPrimitives:
    def test_timestamp_round_trip(self):
        t = datetime(2019, 10, 27, 13, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(t)) == t
        assert format_timestamp(t) == "2019-10-27T13:00:00Z"
        assert parse_timestamp("2019-10-27T13:00:00+00:00") == t

    def test_float_round_trip_nine_digits(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = float(rng.normal(0, 100))
            back = float(fmt_float(x))
            assert back == pytest.approx(x, rel=1e-8)
            assert fmt_float(back) == fmt_float(x)  # stable at 9 significant digits


class TestObservations:
    def test_round_trip_skips_missing(self, tmp_path):
        series = ObservationSeries(
            station_id="S1",
            timestamps=tuple(T0 + timedelta(hours=h) for h in range(4)),
            values=(1.5, math.nan, -3.25, 10.0),
        )
        path = tmp_path / "obs.csv"
        write_observations(path, {"S1": series})
        back = read_observations(path)
        assert list(back) == ["S1"]
        assert back["S1"].timestamps == (T0, T0 + timedelta(hours=2), T0 + timedelta(hours=3))
        assert back["S1"].values == (1.5, -3.25, 10.0)

    def test_malformed_row_cites_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("station_id,valid_time,temp_c\nS1,2017-03-01T00:00:00Z,1.5\nS1,not-a-time,2.0\n")
        with pytest.raises(SchemaError) as err:
            read_observations(path)
        assert ":3" in str(err.value)
        assert "valid_time" in str(err.value)

    def test_timestamp_out_of_range_cites_line(self, tmp_path):
        # ISO-8601 that leaves the datetime range when converted to UTC.
        path = tmp_path / "obs.csv"
        path.write_text("station_id,valid_time,temp_c\nS1,2017-03-01T00:00:00Z,1.5\nS1,0001-01-01T00:00:00+01:00,2.0\n")
        with pytest.raises(SchemaError) as err:
            read_observations(path)
        assert str(err.value) == (f"{path}:3 (column 'valid_time'): "
                                  "not an ISO-8601 timestamp: '0001-01-01T00:00:00+01:00'")

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("station_id,valid_time,temp_c\n")
        assert read_observations(path) == {}

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("station_id,when,temp_c\n")
        with pytest.raises(SchemaError):
            read_observations(path)

    def test_repeated_observation_rejected_with_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "station_id,valid_time,temp_c\n"
            "S1,2017-03-01T01:00:00Z,1.5\n"
            "S2,2017-03-01T01:00:00Z,2.5\n"
            "S2,2017-03-01T00:00:00Z,2.0\n"
            "S2,2017-03-01T01:00:00+00:00,3.5\n"
            "S1,2017-03-01T01:00:00Z,4.5\n"
        )
        with pytest.raises(SchemaError) as err:
            read_observations(path)
        # the first line that repeats an earlier one
        assert str(err.value) == f"{path}:5: duplicate observation for S2 2017-03-01T01:00:00Z"


class TestForecasts:
    def test_round_trip(self, tmp_path):
        fcs = [
            EnsembleForecast("S1", "m", T0, 12, (1.25, -2.5, 3.75)),
            EnsembleForecast("S1", "m", T0 + timedelta(days=1), 12, (0.5, 0.25)),
            EnsembleForecast("S2", "m", T0, 6, (7.0, 8.0, 9.0)),
        ]
        path = tmp_path / "forecasts_m.csv"
        write_forecasts(path, forecast_cube("m", [(f.station_id, f.init_time, f.lead_time, f.members)
                                                                for f in reversed(fcs)]))
        assert list(read_forecasts(path, "m")) == fcs

    def test_non_contiguous_members_rejected(self, tmp_path):
        path = tmp_path / "forecasts_m.csv"
        path.write_text(
            "station_id,init_time,lead_h,member_idx,temp_c\n"
            "S1,2017-03-01T00:00:00Z,12,0,1.0\n"
            "S1,2017-03-01T00:00:00Z,12,2,2.0\n"
        )
        with pytest.raises(SchemaError):
            read_forecasts(path, "m")

    def test_header_only_is_empty_without_warning(self, tmp_path):
        path = tmp_path / "forecasts_m.csv"
        path.write_text("station_id,init_time,lead_h,member_idx,temp_c\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_forecasts(path, "m")) == 0


class TestStations:
    def test_round_trip_multi_model(self, tmp_path):
        stations = [
            StationMetadata("S1", 46.5, 7.25, 1500.0, {"hires": 1450.5, "global": 1820.25}),
            StationMetadata("S2", 47.0, 8.5, 500.0, {"hires": 520.0, "global": 444.0}),
        ]
        path = tmp_path / "stations.csv"
        write_stations(path, stations, ["global", "hires"])
        back = read_stations(path)
        assert back == stations

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_text("station_id,lat,lon,elev_m,bogus\nS1,46,7,100,1\n")
        with pytest.raises(SchemaError):
            read_stations(path)

    def test_repeated_station_rejected_with_line(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_text("station_id,lat,lon,elev_m\nS1,46,7,100\nS2,46,7,200\n S1 ,46,7,300\n")
        with pytest.raises(SchemaError) as err:
            read_stations(path)
        assert (err.value.line_no, err.value.column) == (4, "station_id")
        assert "duplicate station S1" in str(err.value)


class TestPredictions:
    def test_round_trip(self, tmp_path):
        predictions = {
            ("S1", T0, 12, "single:hires"): GaussianPredictive(3.5, 1.25),
            ("S1", T0, 12, "mixed:hires+global"): GaussianPredictive(-4.0, 0.5),
        }
        path = tmp_path / "predictions.csv"
        write_predictions(path, predictions)
        back = read_predictions(path)
        assert back == predictions
        assert list(back) == sorted(predictions)  # the file is in key order

    def test_non_positive_sigma_rejected(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text(
            "station_id,init_time,lead_h,strategy,mu,sigma\nS1,2017-03-01T00:00:00Z,12,single:m,1.0,0\n"
        )
        with pytest.raises(SchemaError) as err:
            read_predictions(path)
        assert "sigma" in str(err.value)

    def test_duplicate_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text(
            "station_id,init_time,lead_h,strategy,mu,sigma\n"
            "S1,2017-03-01T00:00:00Z,12,single:m,1.0,0.5\n"
            "S1,2017-03-01T00:00:00Z,13,single:m,1.0,0.5\n"
            "S1,2017-03-01T00:00:00Z,12,single:m,2.0,0.5\n"
        )
        with pytest.raises(SchemaError) as err:
            read_predictions(path)
        assert err.value.line_no == 4
        assert "duplicate prediction for S1 2017-03-01T00:00:00Z lead 12 single:m" in str(err.value)


class TestStore:
    def test_round_trip_single_and_mixed(self, tmp_path):
        store = CoefficientStore()
        issue = T0.date()
        store.put(
            CoefficientKey("S1", 12, "single:hires", issue),
            FitResult(EmosCoefficients(0.125, (0.875,), 1.5, (0.25,)), 0.456789123, True, 0, 45, False),
        )
        store.put(
            CoefficientKey("S1", 12, "mixed:hires+global", issue),
            FitResult(EmosCoefficients(0.1, (0.6, 0.3), 0.2, (0.7, 0.35)), 0.25, False, 0, 45, True),
        )
        path = tmp_path / "coeffs.csv"
        write_store(path, store)
        back = read_store(path)
        assert len(back) == 2
        for key, record in store.items():
            got = back.get(key)
            assert got == record

    def test_nan_objective_round_trips(self, tmp_path):
        store = CoefficientStore()
        store.put(
            CoefficientKey("S1", 12, "single:hires", T0.date()),
            FitResult(EmosCoefficients(0, (1,), 0, (1,)), float("nan"), True, 0, 10, True),
        )
        path = tmp_path / "coeffs.csv"
        write_store(path, store)
        got = next(iter(back_record for _, back_record in read_store(path).items()))
        assert math.isnan(got.objective)
        assert got.fallback

    def test_mixed_fields_required_empty_for_single(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text(
            "station_id,lead_h,strategy,issue_date,a,b1,b2,c,d1,d2,n_samples,objective,converged,fallback\n"
            "S1,12,single:hires,2017-03-01,0,1,0.5,0,1,,45,0.1,true,false\n"
        )
        with pytest.raises(SchemaError):
            read_store(path)


# A header that names a column twice is rejected at line 1, naming the
# column: a reader would otherwise take the last of the two cells.
DUPLICATE_HEADERS = [
    (read_observations, "station_id,valid_time,temp_c,temp_c\nS1,2017-03-01T00:00:00Z,1.5,9.5\n", "temp_c"),
    (
        lambda path: read_forecasts(path, "m"),
        "station_id,init_time,lead_h,member_idx,temp_c,temp_c\nS1,2017-03-01T00:00:00Z,12,0,1.5,9.5\n",
        "temp_c",
    ),
    (
        read_store,
        "station_id,lead_h,strategy,issue_date,a,b1,b2,c,d1,d2,n_samples,objective,converged,fallback,a\n"
        "S1,12,single:hires,2017-03-01,0,1,,0,1,,45,0.1,true,false,5\n",
        "a",
    ),
    (
        read_stations,
        "station_id,lat,lon,elev_m,grid_elev_hires,grid_elev_hires\nS1,46,7,100,110,900\n",
        "grid_elev_hires",
    ),
]


@pytest.mark.parametrize("reader, text, column", DUPLICATE_HEADERS,
                         ids=["observations", "forecasts", "store", "stations"])
def test_duplicate_column_rejected(tmp_path, reader, text, column):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        reader(path)
    assert (err.value.line_no, err.value.column) == (1, column)
    assert str(err.value).endswith(": duplicate column")


class TestConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "seed = 7\n"
            "window.days = 45\n"
            "\n"
            "models = hires,global\n"
            "transition.weights = 0.75,0.5,0.25\n"
        )
        cfg = parse_config(path)
        assert cfg["seed"] == "7"
        assert cfg["window.days"] == "45"
        assert cfg["transition.weights"] == "0.75,0.5,0.25"

    def test_rejects_bare_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(SchemaError):
            parse_config(path)
