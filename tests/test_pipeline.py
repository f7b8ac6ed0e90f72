import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emoskit import domain
from emoskit.domain import SampleTable, StationMetadata, ensemble_stats
from emoskit import pipeline
from emoskit.emos import EmosCoefficients, FitResult, identity, predict
from emoskit.pipeline import (
    CoefficientKey,
    CoefficientStore,
    RollingState,
    RollingWindowSpec,
    build_archive,
    fit_for_issue,
    lead_coverage,
    mixed_strategy,
    parse_strategy,
    predict_for_issue,
    prepare_forecasts,
    select_window,
    single_strategy,
    train,
)
from emoskit.transition import TransitionSpec, transition1_bounds

from conftest import T0, forecast_cube, linear_gaussian_samples, prediction_dict
from train_oracle import rolling_train


def issue_on(day):
    return (T0 + timedelta(days=day)).date()


def slot(key):
    """The (station, lead, strategy) slot of a key."""
    return key.station_id, key.lead_time, key.strategy


class TestStrategies:
    def test_formats(self):
        assert single_strategy("hires") == "single:hires"
        assert mixed_strategy("hires", "global") == "mixed:hires+global"

    def test_parse(self):
        assert parse_strategy("raw:hires") == ("raw", ("hires",))
        assert parse_strategy("single:x") == ("single", ("x",))
        assert parse_strategy("mixed:a+b") == ("mixed", ("a", "b"))

    def test_parse_rejects_malformed(self):
        for bad in ("", "single:", "mixed:a", "mixed:a+b+c", "other:x"):
            with pytest.raises(ValueError):
                parse_strategy(bad)

    def test_parse_is_cached_but_malformed_raises_every_time(self):
        assert parse_strategy("mixed:a+b") is parse_strategy("mixed:a+b")
        for _ in range(3):
            with pytest.raises(ValueError, match="malformed"):
                parse_strategy("mixed:a")
            with pytest.raises(ValueError, match="malformed"):
                CoefficientKey("S1", 12, "mixed:a", issue_on(50))


class TestSelectWindow:
    def test_full_window(self):
        archive = linear_gaussian_samples(n=60)
        window = select_window(archive, issue_on(60), RollingWindowSpec(window_days=45))
        assert len(window) == 45
        assert window.init_days.min() == issue_on(15).toordinal()
        assert window.init_days.max() == issue_on(59).toordinal()

    def test_short_archive(self):
        archive = linear_gaussian_samples(n=10)
        window = select_window(archive, issue_on(10), RollingWindowSpec(window_days=45, min_samples=5))
        assert len(window) == 10

    def test_issue_date_excluded(self):
        archive = linear_gaussian_samples(n=50)
        window = select_window(archive, issue_on(49), RollingWindowSpec(window_days=45))
        assert window.init_days.max() == issue_on(48).toordinal()

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingWindowSpec(window_days=10, min_samples=11)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        hours=st.lists(st.integers(0, 24 * 60), max_size=40),
        issue_day=st.integers(-70, 130),
        window_days=st.integers(1, 60),
    )
    def test_matches_list_filter(self, hours, issue_day, window_days):
        # Sorted init times with gaps, repeated days and any hour; the oracle
        # is the per-sample filter select_window used to run.
        init_times = [T0 + timedelta(hours=h) for h in sorted(hours)]
        n, init_days = len(init_times), [t.date().toordinal() for t in init_times]
        table = SampleTable(("A",), init_days, np.zeros((n, 1)), np.ones((n, 1)), range(n))
        issue = issue_on(issue_day)
        lo, hi = issue - timedelta(days=window_days), issue - timedelta(days=1)
        expected = [i for i, t in enumerate(init_times) if lo <= t.date() <= hi]
        window = select_window(table, issue, RollingWindowSpec(window_days=window_days, min_samples=1))
        assert window.observation.tolist() == expected


def make_archive(n_days=60):
    table = linear_gaussian_samples(n=n_days, a=1.0, b=0.9, noise_std=0.4, second_model="informative")
    return {("S1", 12): table}


STRATS = ["single:A", "single:B", "mixed:A+B"]


def table_bytes(store):
    """A store's labels and the bytes of its rows, in key order."""
    station_ids, strategies, rows = store.table()
    return station_ids, strategies, rows.tobytes()


def keys_for(issue, strategies=STRATS, station="S1", lead=12):
    return [CoefficientKey(station, lead, s, issue) for s in strategies]


def slots_for(strategies=STRATS, station="S1", lead=12):
    return [(station, lead, s) for s in strategies]


def fit_all(archive, issue, state=None, spec=RollingWindowSpec()):
    """One ``fit_for_issue`` call over every slot of ``state`` (by default a
    new state over ``slots_for()``): the store of its rows, and the state."""
    state = RollingState(slots_for()) if state is None else state
    rows = fit_for_issue(archive, issue, state, np.arange(len(state.slots)), spec)
    return state.store(rows), state


class TestFitForIssue:
    def test_fresh_fit(self):
        archive = make_archive(60)
        updates, _ = fit_all(archive, issue_on(50))
        assert len(updates) == 3
        for key, record in updates.items():
            assert not record.fallback
            assert record.converged
            assert record.n_samples == 45

    def test_identity_fallback_without_history(self):
        archive = make_archive(10)
        updates, _ = fit_all(archive, issue_on(10))
        for key, record in updates.items():
            assert record.fallback
            assert record.n_samples == 10
            assert record.n_iterations == 0
            kind, _ = parse_strategy(key.strategy)
            if kind == "single":
                assert record.coefficients == EmosCoefficients(0.0, (1.0,), 0.0, (1.0,))
            else:
                assert record.coefficients.b == (0.5, 0.5)

    def test_stale_reuse_within_ten_days(self):
        archive = make_archive(60)
        store, state = fit_all(archive, issue_on(50))
        fresh = {k.strategy: v for k, v in store.items()}
        # issue 53 has a gutted archive -> too few samples -> reuse the 3-day-old fits
        gutted = {("S1", 12): archive[("S1", 12)][48:53]}
        updates, _ = fit_all(gutted, issue_on(53), state)
        for key, record in updates.items():
            assert record.fallback
            assert record.coefficients == fresh[key.strategy].coefficients
            assert record.n_samples == 5
            assert (fresh[key.strategy].fallback, record.n_iterations) == (False, 0)

    def test_stale_reuse_expires_after_ten_days(self):
        archive = make_archive(60)
        _, state = fit_all(archive, issue_on(50))
        gutted = {("S1", 12): archive[("S1", 12)][48:53]}
        updates, _ = fit_all(gutted, issue_on(61), state)
        for key, record in updates.items():
            assert record.fallback
            if parse_strategy(key.strategy)[0] == "single":
                assert record.coefficients == EmosCoefficients(0.0, (1.0,), 0.0, (1.0,))

    def test_stale_reuse_reads_fits_only(self):
        # Short windows on days 51-65, one date after another: days 51-60
        # reuse the day-50 fit; from day 61 it is more than 10 days old, and
        # the stale copies of it are not reused again.
        archive = make_archive(60)
        store, state = fit_all(archive, issue_on(50))
        fresh = {k.strategy: v.coefficients for k, v in store.items()}
        gutted = {("S1", 12): archive[("S1", 12)][48:53]}
        for day in range(51, 66):
            updates, _ = fit_all(gutted, issue_on(day), state)
            for key, record in updates.items():
                want = fresh[key.strategy] if day <= 60 else identity(len(parse_strategy(key.strategy)[1]))
                assert record.fallback and record.coefficients == want, (day, key.strategy)
                assert math.isnan(record.objective) == (day > 60)

    def test_store_records_seed_combined_refits(self, monkeypatch):
        # A refit of an earlier date's combined slot is seeded with that
        # date's single-model rows of the state, unless one is a fallback.
        archive = make_archive(60)
        state = RollingState(slots_for())
        store = state.store(fit_for_issue(archive, issue_on(50), state, [0, 1]))
        single_a, single_b, mixed = keys_for(issue_on(50))
        seen, real = [], pipeline.fit_batch
        monkeypatch.setattr(pipeline, "fit_batch", lambda *args: seen.append(args[4]) or real(*args))
        flagged = RollingState(slots_for())
        flagged.row[:], flagged.fit[:] = state.row, state.fit
        fit_for_issue(archive, issue_on(51), state, [], refits=(issue_on(50), [2], np.ones((1, 2))))
        singles = [store.get(single_a), store.get(single_b)]
        theta, objective = seen[0]
        assert theta[0].tolist() == [[r.coefficients.a, r.coefficients.b[0], r.coefficients.c**2, r.coefficients.d[0]**2]
                                     for r in singles]
        assert objective[0].tolist() == [r.objective for r in singles]
        flagged.row["fallback"][1] = True
        fit_for_issue(archive, issue_on(51), flagged, [], refits=(issue_on(50), [2], np.ones((1, 2))))
        assert np.isnan(seen[1][0]).all()

    def test_bounds_key_must_not_postdate_issue(self):
        state = RollingState(slots_for())
        with pytest.raises(ValueError, match="dated after issue date"):
            fit_for_issue(make_archive(60), issue_on(50), state, [0, 1], refits=(issue_on(51), [2], np.ones((1, 2))))

    def test_slot_dates_must_increase(self):
        # The state holds each slot's latest row: a date at or before it
        # would store a key twice, or out of order.
        archive = make_archive(60)
        _, state = fit_all(archive, issue_on(50))
        for day in (50, 49):
            with pytest.raises(ValueError, match="has a row on or after"):
                fit_all(archive, issue_on(day), state)

    def test_no_leakage(self):
        archive = make_archive(60)
        issue = issue_on(50)
        truncated = {slot: table[table.init_days < issue.toordinal()] for slot, table in archive.items()}
        full, _ = fit_all(archive, issue)
        cut, _ = fit_all(truncated, issue)
        assert table_bytes(full) == table_bytes(cut)

    def test_determinism(self):
        archive = make_archive(60)
        a, _ = fit_all(archive, issue_on(50))
        b, _ = fit_all(archive, issue_on(50))
        assert table_bytes(a) == table_bytes(b)

    def test_batch_composition(self):
        # Keys share one batched solve per stage; a key's fit must not depend,
        # bit for bit, on which other keys ride along (different window
        # lengths included).
        samples_a = linear_gaussian_samples(n=60, seed=1, second_model="informative")
        samples_b = linear_gaussian_samples(n=60, seed=2, second_model="informative")[10:]
        archive = {("S1", 12): samples_a, ("S2", 12): samples_b}
        together, _ = fit_all(archive, issue_on(50), RollingState(slots_for(station="S1") + slots_for(station="S2")))
        for station in ("S1", "S2"):
            alone, _ = fit_all(archive, issue_on(50), RollingState(slots_for(station=station)))
            for key, record in alone.items():
                assert not record.fallback
                assert repr(together.get(key)) == repr(record)  # every float to its last bit

    def test_missing_model_falls_back(self):
        archive = make_archive(60)
        stripped = {
            slot: SampleTable(("A",), t.init_days, t.mean[:, :1], t.std[:, :1], t.observation)
            for slot, t in archive.items()
        }
        updates, _ = fit_all(stripped, issue_on(50))
        assert not updates.get(keys_for(issue_on(50))[0]).fallback
        for key in keys_for(issue_on(50))[1:]:
            assert updates.get(key).fallback
            assert math.isnan(updates.get(key).objective)

    def test_solver_error_propagates(self, monkeypatch):
        # Only too few samples or a missing model may fall back; a solver
        # that returns non-finite coefficients must surface.
        import emoskit.emos as emos

        def broken(theta, st, lower, upper, options):
            solved = real(theta, st, lower, upper, options)
            solved.theta[:] = np.nan
            return solved

        real = emos._newton
        monkeypatch.setattr(emos, "_newton", broken)
        with pytest.raises(ValueError, match="finite"):
            fit_all(make_archive(60), issue_on(50))

    def test_raw_strategy_rejected(self):
        archive = make_archive(50)
        with pytest.raises(ValueError):
            fit_all(archive, issue_on(50), RollingState([("S1", 12, "raw:A")]))


class TestPredictForIssue:
    MEMBERS = (3.0, 5.0, 7.0, 5.0, 3.0, 7.0)  # mean 5, population std 2 * sqrt(2/3)

    def forecasts(self, issue_day=50, leads=(12,)):
        init = T0 + timedelta(days=issue_day)
        return {m: forecast_cube(m, [("S1", init, lead, self.MEMBERS) for lead in leads]) for m in "AB"}

    def test_identity_coefficients_pass_through(self):
        issue = issue_on(50)
        key = CoefficientKey("S1", 12, "single:A", issue)
        store = CoefficientStore({key: FitResult(identity(1), 0.1, True, 0, 45, False)})
        predictions, errors = predict_for_issue(store, self.forecasts(), issue, [slot(key)])
        predictions = prediction_dict(predictions)
        pred = predictions[("S1", T0 + timedelta(days=50), 12, "single:A")]
        assert pred.mu == pytest.approx(5.0)
        assert pred.sigma == pytest.approx(float((2 * (2.0**2) / 3) ** 0.5))
        assert list(predictions) == [("S1", T0 + timedelta(days=50), 12, "single:A")] and errors == {}

    def test_matches_direct_predict_bitwise(self):
        issue = issue_on(50)
        coef = EmosCoefficients(a=0.3, b=(0.6, 0.35), c=0.2, d=(0.8, 0.4))
        key = CoefficientKey("S1", 12, "mixed:A+B", issue)
        store = CoefficientStore({key: FitResult(coef, 0.2, True, 0, 45, False)})
        predictions, _ = predict_for_issue(store, self.forecasts(), issue, [slot(key)])
        mean, std = ensemble_stats(self.MEMBERS)
        expected = predict(coef, [mean, mean], [std, std])
        assert prediction_dict(predictions)[("S1", T0 + timedelta(days=50), 12, "mixed:A+B")] == expected

    def test_stats_only_for_forecasts_keys_read(self):
        # Forecasts of other leads and other days are read by no key and
        # change no prediction.
        issue = issue_on(50)
        key = CoefficientKey("S1", 12, "single:A", issue)
        store = CoefficientStore({key: FitResult(identity(1), 0.1, True, 0, 45, False)})
        ensembles = [("S1", T0 + timedelta(days=day), lead, self.MEMBERS if day == 50 else (float(day),) * 3)
                     for day in (49, 50, 51) for lead in (12, 13)]
        more = {m: forecast_cube(m, ensembles) for m in "AB"}
        (found, errors), (expected, expected_errors) = (predict_for_issue(store, cubes, issue, [slot(key)])
                                                        for cubes in (more, self.forecasts()))
        assert (prediction_dict(found), errors) == (prediction_dict(expected), expected_errors)

    def test_missing_key_reported(self):
        issue = issue_on(50)
        present = CoefficientKey("S1", 12, "single:A", issue)
        absent = CoefficientKey("S1", 12, "single:B", issue)
        store = CoefficientStore({present: FitResult(identity(1), 0.1, True, 0, 45, False)})
        predictions, errors = predict_for_issue(store, self.forecasts(), issue, [slot(present), slot(absent)])
        assert ("S1", T0 + timedelta(days=50), 12, "single:A") in prediction_dict(predictions)
        assert errors == {slot(absent): f"no coefficients stored for {absent}"}

    def test_missing_forecast_reported(self):
        issue = issue_on(50)
        key = CoefficientKey("S9", 12, "single:A", issue)
        store = CoefficientStore({key: FitResult(identity(1), 0.1, True, 0, 45, False)})
        predictions, errors = predict_for_issue(store, self.forecasts(), issue, [slot(key)])
        assert len(predictions) == 0 and errors == {slot(key): "no forecast for model 'A' at S9 lead 12"}

    def test_date_without_forecasts_gives_nothing(self):
        # Neither predictions nor errors, although the key has no coefficients.
        key = CoefficientKey("S1", 12, "single:A", issue_on(51))
        predictions, errors = predict_for_issue(CoefficientStore(), self.forecasts(), issue_on(51), [slot(key)])
        assert len(predictions) == 0 and errors == {}

    def test_predict_issues_orders_errors_by_date_station_lead_strategy(self):
        # Forecasts at leads 12 and 13; coefficients for single:A at lead 12
        # (the predictions) and single:B at lead 14 (no forecast there). The
        # slots come in reverse order.
        issues = [issue_on(50), issue_on(51)]
        ensembles = [(sid, T0 + timedelta(days=day), lead, self.MEMBERS)
                     for sid in ("S1", "S2") for day in (50, 51) for lead in (12, 13)]
        forecasts = {m: forecast_cube(m, ensembles) for m in "AB"}
        slots = [(sid, lead, strategy) for sid in ("S2", "S1") for lead in (14, 13, 12)
                 for strategy in ("single:B", "single:A", "mixed:A+B")]
        store = CoefficientStore({CoefficientKey(sid, lead, strategy, issue): FitResult(identity(1), 0.1, True, 0, 45, False)
                                  for issue in issues for sid in ("S1", "S2")
                                  for lead, strategy in ((12, "single:A"), (14, "single:B"))})

        def message(issue, sid, lead, strategy):
            if (lead, strategy) == (14, "single:B"):
                return f"no forecast for model 'B' at {sid} lead 14"
            return f"no coefficients stored for {CoefficientKey(sid, lead, strategy, issue)}"

        predictions, errors = pipeline.predict_issues(store, forecasts, issues, slots)
        failed = sorted((issue, *slot) for issue in issues for slot in slots if slot[1:] != (12, "single:A"))
        assert len(predictions) == 4
        assert errors == [message(*key) for key in failed]


class TestBuildArchive:
    def test_models_drop_out_beyond_horizon(self):
        from emoskit.synth import ScenarioSpec, TruthSpec, generate_scenario, ModelErrorSpec

        spec = ScenarioSpec(
            seed=20, n_stations=1, n_days=3, lead_hours=(6, 30),
            truth=TruthSpec(ar1_coefficient=0.0, innovation_std=0.1),
            models={
                "short": ModelErrorSpec(member_count=3, horizon=12),
                "long": ModelErrorSpec(member_count=3, horizon=48),
            },
        )
        data = generate_scenario(spec)
        archive, dropped = build_archive(data.forecasts, data.observations, spec.lead_hours)
        assert dropped == 0
        assert archive[("S000", 6)].models == ("long", "short")
        assert archive[("S000", 30)].models == ("long",)

    def test_sample_count_equals_window_size(self):
        archive = make_archive(60)
        spec = RollingWindowSpec()
        issue = issue_on(50)
        updates, _ = fit_all(archive, issue, spec=spec)
        expected = len(select_window(archive[("S1", 12)], issue, spec))
        assert all(r.n_samples == expected for _, r in updates.items())


@st.composite
def lead_grids(draw):
    """Sorted lead runs from a start of 0-10 h in steps of 1-3 h."""
    leads = [draw(st.integers(0, 10))]
    for step in draw(st.lists(st.integers(1, 3), max_size=5)):
        leads.append(leads[-1] + step)
    return tuple(leads)


class TestLeadCoverage:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(runs=st.dictionaries(st.tuples(st.sampled_from(["S1", "S2"]), st.integers(0, 2)), lead_grids(), min_size=1))
    def test_equals_leads_of_prepared_cube(self, runs):
        # The coverage that predict and verify take from a file's lead grids
        # is that of the cube prepare_forecasts makes of the whole file.
        cube = forecast_cube("A", [(sid, T0 + timedelta(days=day), lead, (1.0, 2.0))
                                   for (sid, day), grid in runs.items() for lead in grid])
        stations = [StationMetadata(sid, 0.0, 0.0, 500.0, {"A": 400.0}) for sid in ("S1", "S2")]
        grids = set(runs.values())
        for coarse_step in (None, 3):
            assert lead_coverage(grids, coarse_step) == set(prepare_forecasts(cube, stations, coarse_step).lead.tolist())


class TestStoreRoundTrip:
    def test_put_get_identity(self):
        key = CoefficientKey("S1", 12, "single:A", issue_on(50))
        record = FitResult(EmosCoefficients(0.1, (0.9,), 0.3, (1.1,)), 0.23, True, 0, 45, False)
        store = CoefficientStore({key: record})
        assert store.get(key) == record
        assert len(store) == 1
        assert key in store

    def test_latest_before(self):
        store = CoefficientStore({
            CoefficientKey("S1", 12, "single:A", issue_on(day)):
                FitResult(EmosCoefficients(float(day), (1,), 0, (1,)), 0.1, True, 0, 45, False)
            for day in (40, 44, 47)
        })
        hit = store.latest_before("S1", 12, "single:A", issue_on(50), 10)
        assert hit.coefficients.a == 47.0
        miss = store.latest_before("S1", 12, "single:A", issue_on(60), 10)
        assert miss is None


# t1 on a short horizon: anchor lead 10, taper leads 11 and 12.
TSPEC = TransitionSpec(horizon=12, scheme="t1", weights=(0.6, 0.3))
COMBINED = "mixed:A+B"
T1_SPEC = RollingWindowSpec(window_days=45, min_samples=30)


def t1_table(n, seed):
    """n daily samples from T0 of two models whose spreads vary, so that c
    and the d coefficients are identified and a fit has one minimizer."""
    rng = np.random.default_rng(seed)
    mean = rng.normal(0.0, 2.0, (n, 2))
    mean[:, 1] += mean[:, 0]
    std = rng.uniform(0.2, 1.5, (n, 2))
    y = 1.0 + 0.6 * mean[:, 0] + 0.3 * mean[:, 1] + rng.normal(0.0, np.sqrt(0.1 + (std**2).sum(axis=1)))
    return SampleTable(("A", "B"), T0.date().toordinal() + np.arange(n), mean, std, y)


def t1_archive(skips, seed=0, gap=None):
    """Tables at leads 10-12 per station, station i starting skips[i] days
    after T0, so windows ramp up (and fall back) on different dates. ``gap``
    = (lead, first day, days) cuts those days from S0's table at that lead,
    so that its windows shrink there and may reuse an earlier fit."""
    archive = {(f"S{i}", lead): t1_table(60, seed + 3 * i + lead)[skip:]
               for i, skip in enumerate(skips) for lead in (10, 11, 12)}
    if gap is not None:
        lead, first, days = gap
        table = archive[("S0", lead)]
        day = table.init_days - T0.date().toordinal()
        archive[("S0", lead)] = table[(day < first) | (day >= first + days)]
    return archive


def t1_slots(archive):
    return [(sid, lead, s) for sid, lead in sorted(archive) for s in STRATS]


def per_date_train(archive, issue_dates, slots, spec, taper):
    """The rolling train one date at a time, as it ran before the waves: each
    date's own slots, then that date's taper refits in a call of their own."""
    state, blocks = RollingState(slots), []
    tapered = [i for i, (_, lead, strategy) in enumerate(slots)
               if taper is not None and strategy == taper[1] and lead in taper[0].taper_leads]
    plain = [i for i in range(len(slots)) if i not in tapered]
    for issue in issue_dates:
        blocks.append(fit_for_issue(archive, issue, state, plain, spec))
        if not tapered:
            continue
        store, caps = state.store(np.concatenate(blocks)), []
        for sid, lead, _ in (slots[i] for i in tapered):
            anchor = store.get(CoefficientKey(sid, taper[0].anchor_lead, taper[1], issue))
            caps.append(transition1_bounds(anchor.coefficients, taper[0])[lead])
        blocks.append(fit_for_issue(archive, issue, state, [], spec, refits=(issue, tapered, np.array(caps))))
    return state.store(np.concatenate(blocks))


def bits(record):
    c = record.coefficients
    floats = (c.a, *c.b, c.c, *c.d, record.objective)
    return tuple(map(float.hex, floats)), record.n_samples, record.converged, record.fallback


def assert_stores_close(got, want):
    """The same keys and fit outcomes, objectives within 1e-12 relative. The
    CRPS is flat to float64 resolution within about sqrt(eps * f / curvature)
    of its minimizer, up to 1e-7 on a 30-sample window, so coefficients that
    a different summation order reaches are compared within 1e-6."""
    assert [key for key, _ in got.items()] == [key for key, _ in want.items()]
    for (key, a), (_, b) in zip(got.items(), want.items()):
        assert (a.fallback, a.converged, a.n_samples) == (b.fallback, b.converged, b.n_samples), key
        assert math.isclose(a.objective, b.objective, rel_tol=1e-12) or (math.isnan(a.objective) and math.isnan(b.objective)), key
        ca, cb = a.coefficients, b.coefficients
        np.testing.assert_allclose([ca.a, *ca.b, ca.c, *ca.d], [cb.a, *cb.b, cb.c, *cb.d], rtol=0, atol=1e-6, err_msg=str(key))


def check_waves(archive, issues):
    """``train`` against ``per_date_train`` with and without the t1 taper;
    returns the store of the taper run."""
    slots = t1_slots(archive)
    taper = (TSPEC, COMBINED)
    store = train(archive, issues, slots, T1_SPEC, taper=taper)
    assert_stores_close(store, per_date_train(archive, issues, slots, T1_SPEC, taper))
    # without a taper the solves are composed exactly as before
    got = train(archive, issues, slots, T1_SPEC)
    want = per_date_train(archive, issues, slots, T1_SPEC, None)
    assert [(key, bits(r)) for key, r in got.items()] == [(key, bits(r)) for key, r in want.items()]
    return store


class TestTrainWaves:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        skips=st.lists(st.integers(0, 12), min_size=1, max_size=2),
        days=st.lists(st.integers(28, 59), min_size=1, max_size=5, unique=True),
        seed=st.integers(0, 50),
        gap=st.one_of(st.none(), st.tuples(st.integers(10, 12), st.integers(0, 5))),
    )
    def test_matches_per_date_schedule(self, skips, days, seed, gap):
        # Window lengths differ across dates (ramp-up, observation gaps,
        # identity and stale fallbacks, gaps in the issue dates); moving each
        # date's taper refits into the next date's solve may change a fit
        # only by the summation order of padded rows. A gap of (lead, u)
        # cuts S0's observations from 15 - u days before the second-last
        # issue date to the last one: a full window keeps 30 + u samples on
        # the second-last date and fewer than 30 on the last one, if that is
        # more than u days later, which then reuses the earlier fit.
        issues = sorted(days)
        if gap is not None:
            lead, u = gap
            first = issues[-2:][0] - 15 + u
            gap = lead, first, issues[-1] - first
        check_waves(t1_archive(skips, seed, gap), [issue_on(day) for day in issues])

    def test_waves_reach_stale_and_identity_fallbacks(self):
        # S0's windows at lead 10 lose days 30-49: 30 samples on day 45 (a
        # fit), 25 on day 51 (reuses it); S1 starts on day 20 and has 25
        # samples on day 45 (identity).
        store = check_waves(t1_archive([0, 20], gap=(10, 30, 20)), [issue_on(45), issue_on(51)])
        fallbacks = [(key.station_id, key.issue_date, math.isnan(r.objective)) for key, r in store.items() if r.fallback]
        assert ("S0", issue_on(51), False) in fallbacks and ("S1", issue_on(45), True) in fallbacks

    def test_last_date_taper_keys_fitted_under_bounds(self):
        archive = t1_archive([0, 2])
        issues = [issue_on(day) for day in range(50, 54)]
        store = train(archive, issues, t1_slots(archive), T1_SPEC, taper=(TSPEC, COMBINED))
        for sid in ("S0", "S1"):
            anchor = store.get(CoefficientKey(sid, TSPEC.anchor_lead, COMBINED, issues[-1]))
            for lead, (b1_max, d1_max) in transition1_bounds(anchor.coefficients, TSPEC).items():
                record = store.get(CoefficientKey(sid, lead, COMBINED, issues[-1]))
                assert not record.fallback and record.converged
                assert record.coefficients.b[0] <= b1_max and record.coefficients.d[0] <= d1_max

    def test_taper_refits_ride_with_the_next_listed_date(self, monkeypatch):
        # A gap in the issue dates: 21's refits go with 25's keys, and the
        # last date's refits run alone.
        waves = []
        real = pipeline.fit_for_issue

        def spy(archive, issue_date, state, at, spec, options, refits):
            def tapered(i):
                strategy, lead = state.slots[i][2], state.slots[i][1]
                return strategy == COMBINED and lead in TSPEC.taper_leads

            refit_date, refit_at, _ = refits or (None, [], None)
            assert not any(map(tapered, at)) and all(map(tapered, refit_at))
            waves.append((issue_date, {issue_date} if len(at) else set(), {refit_date} if len(refit_at) else set()))
            return real(archive, issue_date, state, at, spec, options, refits)

        monkeypatch.setattr(pipeline, "fit_for_issue", spy)
        archive = t1_archive([0])
        days = [50, 51, 55, 56]
        issues = [issue_on(day) for day in days]
        store = train(archive, issues, t1_slots(archive), T1_SPEC, taper=(TSPEC, COMBINED))
        expected = [(50, {50}, set()), (51, {51}, {50}), (55, {55}, {51}), (56, {56}, {55}), (56, set(), {56})]
        assert waves == [(issue_on(d), {issue_on(d) for d in own}, {issue_on(d) for d in rides})
                         for d, own, rides in expected]
        monkeypatch.setattr(pipeline, "fit_for_issue", real)
        assert_stores_close(store, per_date_train(archive, issues, t1_slots(archive), T1_SPEC, (TSPEC, COMBINED)))

    def test_two_solves_per_date_plus_one(self, monkeypatch):
        ks = []
        real = pipeline.fit_batch

        def spy(tables, model_ids, *args):
            ks.append(len(model_ids[0]))
            return real(tables, model_ids, *args)

        monkeypatch.setattr(pipeline, "fit_batch", spy)
        archive = t1_archive([0, 1])
        issues = [issue_on(day) for day in range(50, 54)]
        train(archive, issues, t1_slots(archive), T1_SPEC, taper=(TSPEC, COMBINED))
        assert ks == [1, 2] * len(issues) + [2]

    def test_records_built_only_for_anchor_lookups(self, monkeypatch):
        # The fits read and write store rows; with t1 each station and date
        # builds the one record of its anchor fit, without a taper none.
        built = []
        real = EmosCoefficients.__post_init__
        monkeypatch.setattr(EmosCoefficients, "__post_init__", lambda coef: built.append(coef) or real(coef))
        archive = t1_archive([0, 1])
        issues = [issue_on(day) for day in range(50, 54)]
        train(archive, issues, t1_slots(archive), T1_SPEC, taper=(TSPEC, COMBINED))
        assert 0 < len(built) <= 2 * len(issues)
        built.clear()
        train(archive, issues, t1_slots(archive), T1_SPEC)
        assert built == []

    def test_missing_anchor_names_its_date(self):
        archive = t1_archive([0, 0])
        slots = [slot for slot in t1_slots(archive) if slot != ("S1", TSPEC.anchor_lead, COMBINED)]
        issues = [issue_on(day) for day in (50, 51)]
        with pytest.raises(ValueError, match=f"lead {TSPEC.anchor_lead} for S1 {issues[0]}"):
            train(archive, issues, slots, T1_SPEC, taper=(TSPEC, COMBINED))


class TestTrainOracle:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        skips=st.lists(st.integers(0, 12), min_size=1, max_size=2),
        first=st.integers(25, 45),
        steps=st.lists(st.sampled_from([1, 2, 6, 11]), min_size=1, max_size=5),
        seed=st.integers(0, 50),
        gap=st.one_of(st.none(), st.tuples(st.integers(10, 12), st.integers(0, 40), st.integers(1, 30))),
        min_samples=st.sampled_from([5, 20, 30]),
    )
    @example(skips=[0, 20], first=45, steps=[5, 6, 6], seed=0, gap=(10, 30, 30), min_samples=30)
    def test_train_equals_the_lookup_oracle(self, skips, first, steps, seed, gap, min_samples):
        # Issue dates up to 11 days apart (past the 5-day warm start and the
        # 10-day stale reuse), observation gaps of up to 30 days at one lead
        # of S0 (short windows that reuse a fit, and then identity once the
        # fit is too old) and windows that ramp up from the stations' skips.
        # The pinned example: S0 at lead 10 fits on day 45, reuses it on 50
        # and takes identity on 56 and 62; S1 is short on 45.
        archive = t1_archive(skips, seed, gap)
        issues = [issue_on(first + sum(steps[:i])) for i in range(len(steps))]
        spec = RollingWindowSpec(window_days=45, min_samples=min_samples)
        for taper in (None, (TSPEC, COMBINED)):
            got = train(archive, issues, t1_slots(archive), spec, taper=taper)
            assert table_bytes(got) == table_bytes(rolling_train(archive, issues, t1_slots(archive), spec, taper=taper))

    def test_pinned_example_reaches_stale_reuse_and_its_expiry(self):
        archive = t1_archive([0, 20], 0, (10, 30, 30))
        issues = [issue_on(day) for day in (45, 50, 56, 62)]
        store = rolling_train(archive, issues, t1_slots(archive), T1_SPEC)
        s0 = [store.get(CoefficientKey("S0", 10, "single:A", issue)) for issue in issues]
        assert [(r.fallback, math.isnan(r.objective)) for r in s0] == [(False, False), (True, False), (True, True),
                                                                         (True, True)]
        assert s0[1].coefficients == s0[0].coefficients

    def test_train_searches_no_store(self, monkeypatch):
        # Warm starts, stale reuse, seeds and t1 anchors are read from the
        # per-slot state by index: no store lookup and no CoefficientKey.
        calls = []

        def forbidden(name):
            return lambda *args, **kwargs: calls.append(name)

        monkeypatch.setattr(CoefficientStore, "_find", forbidden("_find"))
        monkeypatch.setattr(domain, "lookup", forbidden("domain.lookup"))
        monkeypatch.setattr(pipeline, "lookup", forbidden("pipeline.lookup"))
        monkeypatch.setattr(CoefficientKey, "__post_init__", forbidden("CoefficientKey"))
        archive = t1_archive([0, 1], gap=(10, 30, 20))
        issues = [issue_on(day) for day in (45, 50, 51, 57, 60)]
        store = train(archive, issues, t1_slots(archive), T1_SPEC, taper=(TSPEC, COMBINED))
        assert calls == []
        assert len(store) == len(issues) * len(t1_slots(archive))
