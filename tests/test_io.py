import csv
import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from emoskit import io as eio
from emoskit.domain import EnsembleForecast, GaussianPredictive, ObservationSeries, StationMetadata, _micros
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
from emoskit.pipeline import CoefficientKey

from conftest import forecast_cube, prediction_dict, prediction_table
from store_records import records_of, store_of

T0 = datetime(2017, 3, 1, tzinfo=timezone.utc)


class TestPrimitives:
    def test_timestamp_round_trip(self):
        t = datetime(2019, 10, 27, 13, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(t)) == t
        assert format_timestamp(t) == "2019-10-27T13:00:00Z"
        assert parse_timestamp("2019-10-27T13:00:00+00:00") == t

    def test_years_before_1000_round_trip(self, tmp_path):
        # Four-digit years, as np.datetime_as_string writes them: each file reads back.
        early = [datetime(1, 1, 1, tzinfo=timezone.utc), datetime(999, 12, 31, 23, tzinfo=timezone.utc)]
        assert [format_timestamp(t) for t in early] == ["0001-01-01T00:00:00Z", "0999-12-31T23:00:00Z"]
        fcs = [EnsembleForecast("S1", "m", t, 6, (1.0, 2.0)) for t in early]
        write_forecasts(tmp_path / "f.csv", forecast_cube("m", [("S1", t, 6, (1.0, 2.0)) for t in early]))
        assert list(read_forecasts(tmp_path / "f.csv", "m")) == fcs
        predictions = {("S1", t, 6, "single:m"): GaussianPredictive(1.0, 0.5) for t in early}
        write_predictions(tmp_path / "p.csv", prediction_table(predictions))
        assert prediction_dict(read_predictions(tmp_path / "p.csv")) == predictions
        write_observations(tmp_path / "o.csv", {"S1": ObservationSeries("S1", _micros(early), [1.5, -2.0])})
        back = read_observations(tmp_path / "o.csv")["S1"]
        assert (back.times.tolist(), back.values.tolist()) == (_micros(early).tolist(), [1.5, -2.0])
        assert (tmp_path / "o.csv").read_text().splitlines()[1:] == ["S1,0001-01-01T00:00:00Z,1.5",
                                                                     "S1,0999-12-31T23:00:00Z,-2"]

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
            times=_micros(T0 + timedelta(hours=h) for h in range(4)),
            values=[1.5, math.nan, -3.25, 10.0],
        )
        path = tmp_path / "obs.csv"
        write_observations(path, {"S1": series})
        back = read_observations(path)
        assert list(back) == ["S1"]
        assert back["S1"].times.tolist() == _micros([T0, T0 + timedelta(hours=2), T0 + timedelta(hours=3)]).tolist()
        assert back["S1"].values.tolist() == [1.5, -3.25, 10.0]

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

    def test_repeated_observation_reported_before_a_later_bad_cell(self, tmp_path):
        # Errors come in file order: the repeat on line 3, not the bad value on line 4.
        path = tmp_path / "obs.csv"
        path.write_text("station_id,valid_time,temp_c\nS1,2017-03-01T00:00:00Z,1.5\nS1,2017-03-01T00:00:00Z,2.5\n"
                        "S1,2017-03-01T01:00:00Z,x\n")
        with pytest.raises(SchemaError) as err:
            read_observations(path)
        assert str(err.value) == f"{path}:3: duplicate observation for S1 2017-03-01T00:00:00Z"


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
        write_predictions(path, prediction_table(predictions))
        back = prediction_dict(read_predictions(path))
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
        issue = T0.date()
        store = store_of({
            CoefficientKey("S1", 12, "single:hires", issue):
                FitResult(EmosCoefficients(0.125, (0.875,), 1.5, (0.25,)), 0.456789123, True, 0, 45, False),
            CoefficientKey("S1", 12, "mixed:hires+global", issue):
                FitResult(EmosCoefficients(0.1, (0.6, 0.3), 0.2, (0.7, 0.35)), 0.25, False, 0, 45, True),
        })
        path = tmp_path / "coeffs.csv"
        write_store(path, store)
        back = read_store(path)
        assert len(back) == 2
        for key, record in records_of(store).items():
            got = records_of(back).get(key)
            assert got == record

    def test_nan_objective_round_trips(self, tmp_path):
        store = store_of({
            CoefficientKey("S1", 12, "single:hires", T0.date()):
                FitResult(EmosCoefficients(0, (1,), 0, (1,)), float("nan"), True, 0, 10, True),
        })
        path = tmp_path / "coeffs.csv"
        write_store(path, store)
        got = next(iter(records_of(read_store(path)).values()))
        assert math.isnan(got.objective)
        assert got.fallback

    def test_repeated_record_rejected_with_line(self, tmp_path):
        # The last record of a key used to win silently.
        path = tmp_path / "coeffs.csv"
        path.write_text(
            "station_id,lead_h,strategy,issue_date,a,b1,b2,c,d1,d2,n_samples,objective,converged,fallback\n"
            "S1,12,single:hires,2017-03-01,0,1,,0,1,,45,0.1,true,false\n"
            "S1,13,single:hires,2017-03-01,0,1,,0,1,,45,0.1,true,false\n"
            "S1,12,single:hires,2017-03-01,5,1,,0,1,,45,0.1,true,false\n"
        )
        with pytest.raises(SchemaError) as err:
            read_store(path)
        assert (err.value.line_no, err.value.column) == (4, None)
        assert "duplicate record for S1 lead 12 single:hires 2017-03-01" in str(err.value)

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



# A cell out of its domain raises SchemaError at its line, naming its column,
# not the unlocated ValueError of the record it would build.
def table(row: dict[str, str], bad: dict[str, str]) -> str:
    """The header and the valid ``row``, then at line 3 the row with the ``bad`` cells."""
    return "\n".join([",".join(row), ",".join(row.values()), ",".join({**row, **bad}.values())]) + "\n"


STORE_ROW = {"station_id": "S1", "lead_h": "12", "strategy": "single:hires", "issue_date": "2017-03-01", "a": "0.5",
             "b1": "1", "b2": "", "c": "0.25", "d1": "1", "d2": "", "n_samples": "45", "objective": "0.1",
             "converged": "true", "fallback": "false"}
MIXED = {"strategy": "mixed:hires+global", "b2": "0.5", "d2": "0.5"}


@pytest.mark.parametrize("bad, column", [
    ({"lead_h": "-3"}, "lead_h"),
    ({"strategy": "mixed:hires"}, "strategy"),
    ({"a": "nan"}, "a"),
    ({"c": "inf"}, "c"),
    ({"b1": "-0.5"}, "b1"),
    ({"d1": "nan"}, "d1"),
    ({**MIXED, "d2": "-1"}, "d2"),
    ({"n_samples": "-45"}, "n_samples"),
    ({"objective": "-1.5"}, "objective"),
    ({"objective": "inf"}, "objective"),
], ids=["negative-lead", "malformed-strategy", "nan-a", "inf-c", "negative-b1", "nan-d1", "negative-d2",
        "negative-n-samples", "negative-objective", "inf-objective"])
def test_store_cell_errors_are_located(tmp_path, bad, column):
    path = tmp_path / "coeffs.csv"
    path.write_text(table(STORE_ROW, {"lead_h": "13", **bad}))
    with pytest.raises(SchemaError) as err:
        read_store(path)
    assert (err.value.path, err.value.line_no, err.value.column) == (str(path), 3, column)


PREDICTION_ROW = {"station_id": "S1", "init_time": "2017-03-01T00:00:00Z", "lead_h": "12", "strategy": "single:m",
                  "mu": "1.5", "sigma": "0.5"}


@pytest.mark.parametrize("bad, column", [
    ({"lead_h": "-3"}, "lead_h"),
    ({"mu": "nan"}, "mu"),
    ({"mu": "-inf"}, "mu"),
    ({"sigma": "nan"}, "sigma"),
], ids=["negative-lead", "nan-mu", "inf-mu", "nan-sigma"])
def test_prediction_cell_errors_are_located(tmp_path, bad, column):
    path = tmp_path / "predictions.csv"
    path.write_text(table(PREDICTION_ROW, {"lead_h": "13", **bad}))
    with pytest.raises(SchemaError) as err:
        read_predictions(path)
    assert (err.value.path, err.value.line_no, err.value.column) == (str(path), 3, column)


STATION_ROW = {"station_id": "S1", "lat": "46.5", "lon": "7.25", "elev_m": "1500", "grid_elev_hires": "1450"}


@pytest.mark.parametrize("bad, column", [
    ({"lat": "95"}, "lat"),
    ({"lat": "nan"}, "lat"),
    ({"lon": "-181"}, "lon"),
    ({"elev_m": "nan"}, "elev_m"),
    ({"grid_elev_hires": "inf"}, "grid_elev_hires"),
], ids=["latitude-95", "nan-latitude", "longitude-181", "nan-elevation", "inf-grid-elevation"])
def test_station_cell_errors_are_located(tmp_path, bad, column):
    path = tmp_path / "stations.csv"
    path.write_text(table(STATION_ROW, {"station_id": "S2", **bad}))
    with pytest.raises(SchemaError) as err:
        read_stations(path)
    assert (err.value.path, err.value.line_no, err.value.column) == (str(path), 3, column)


# Every reader names the file and line of a byte that is not UTF-8, and of a
# cell past the csv module's field limit, which stays as it is.
NOT_UTF8 = [
    (read_stations, "station_id,lat,lon,elev_m\nS1,46,7,100\nS{},46,7,200\n"),
    (read_observations, "station_id,valid_time,temp_c\nS1,2017-03-01T00:00:00Z,1.5\nS{},2017-03-01T00:00:00Z,1.5\n"),
    (lambda path: read_forecasts(path, "m"),
     "station_id,init_time,lead_h,member_idx,temp_c\nS1,2017-03-01T00:00:00Z,12,0,1.5\nS{},2017-03-01T00:00:00Z,12,0,1\n"),
    (read_predictions, ",".join(PREDICTION_ROW) + "\n" + ",".join(PREDICTION_ROW.values()) + "\n"
     + ",".join({**PREDICTION_ROW, "station_id": "S{}"}.values()) + "\n"),
    (read_store, ",".join(STORE_ROW) + "\n" + ",".join(STORE_ROW.values()) + "\n"
     + ",".join({**STORE_ROW, "station_id": "S{}"}.values()) + "\n"),
    (parse_config, "# run\nseed = 7\nname = S{}\n"),
]
READER_IDS = ["stations", "observations", "forecasts", "predictions", "store", "config"]


@pytest.mark.parametrize("reader, text", NOT_UTF8, ids=READER_IDS)
def test_byte_that_is_not_utf8_is_located(tmp_path, reader, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text.format("\x00").encode().replace(b"\x00", b"\xe9"))
    with pytest.raises(SchemaError) as err:
        reader(path)
    assert (err.value.path, err.value.line_no, err.value.column) == (str(path), 3, None)
    assert str(err.value) == f"{path}:3: not UTF-8: byte 0xe9 (invalid continuation byte)"


# config has no cells; the last case is a value padded with spaces on a later line of a run.
FIELD_LIMIT = [(reader, text, "1") for reader, text in NOT_UTF8[:5]] + [
    (NOT_UTF8[2][0], "station_id,init_time,lead_h,member_idx,temp_c\nS1,2017-03-01T00:00:00Z,12,0,1.5\n"
                     "S1,2017-03-01T00:00:00Z,12,1,{}1\n", " ")]


@pytest.mark.parametrize("reader, text, filler", FIELD_LIMIT, ids=[*READER_IDS[:5], "forecast-value"])
@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv"])
def test_cell_past_the_field_limit_is_located(tmp_path, reader, text, filler, quoted):
    # A quote on line 2 hands the file to the csv module from its first line
    # (forecasts: to the column reader, as a long line does).
    path = tmp_path / "table.csv"
    lines = text.format(filler * 200_000).split("\n")
    lines[1] = lines[1].replace("S1", '"S1"') if quoted else lines[1]
    path.write_text("\n".join(lines))
    with pytest.raises(SchemaError) as err:
        reader(path)
    assert (err.value.path, err.value.line_no, err.value.column) == (str(path), 3, None)
    assert str(err.value).endswith(": field larger than field limit (131072)")
    assert csv.field_size_limit() == 131072


# The tables with a rule on repeated keys.
@pytest.mark.parametrize("reader, text", [NOT_UTF8[j] for j in (1, 3, 4)], ids=[READER_IDS[j] for j in (1, 3, 4)])
def test_repeated_key_before_a_bad_cell_in_a_later_chunk(tmp_path, monkeypatch, reader, text):
    # Chunks of 2 lines: line 3 repeats line 2, and line 4, in the next chunk, has an empty station cell.
    header, first = text.split("\n")[:2]
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, first, first, first.replace("S1", " ", 1), ""]))
    monkeypatch.setattr(eio, "_CHUNK_LINES", 2)
    with pytest.raises(SchemaError) as err:
        reader(path)
    assert (err.value.line_no, err.value.column) == (3, None)
    assert "duplicate" in str(err.value)


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
