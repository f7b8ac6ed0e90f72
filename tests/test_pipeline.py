import math
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoskit.domain import EnsembleForecast, EnsembleStats, SampleTable
from emoskit.emos import EmosCoefficients, identity, predict
from emoskit.pipeline import (
    CoefficientKey,
    CoefficientStore,
    RollingWindowSpec,
    StoredFit,
    build_archive,
    fit_for_issue,
    mixed_strategy,
    parse_strategy,
    predict_for_issue,
    select_window,
    single_strategy,
)

from conftest import T0, linear_gaussian_samples


def issue_on(day):
    return (T0 + timedelta(days=day)).date()


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


def keys_for(issue, strategies=STRATS, station="S1", lead=12):
    return [CoefficientKey(station, lead, s, issue) for s in strategies]


class TestFitForIssue:
    def test_fresh_fit(self):
        archive = make_archive(60)
        updates = fit_for_issue(archive, issue_on(50), keys_for(issue_on(50)))
        assert len(updates) == 3
        for key, record in updates.items():
            assert not record.fallback
            assert record.converged
            assert record.n_samples == 45

    def test_identity_fallback_without_history(self):
        archive = make_archive(10)
        updates = fit_for_issue(archive, issue_on(10), keys_for(issue_on(10)))
        for key, record in updates.items():
            assert record.fallback
            assert record.n_samples == 10
            kind, _ = parse_strategy(key.strategy)
            if kind == "single":
                assert record.coefficients == EmosCoefficients(0.0, (1.0,), 0.0, (1.0,))
            else:
                assert record.coefficients.b == (0.5, 0.5)

    def test_stale_reuse_within_ten_days(self):
        archive = make_archive(60)
        store = CoefficientStore()
        store.update(fit_for_issue(archive, issue_on(50), keys_for(issue_on(50)), store=store))
        fresh = {k.strategy: v for k, v in store.items()}
        # issue 53 has a gutted archive -> too few samples -> reuse the 3-day-old fits
        gutted = {("S1", 12): archive[("S1", 12)][48:53]}
        updates = fit_for_issue(gutted, issue_on(53), keys_for(issue_on(53)), store=store)
        for key, record in updates.items():
            assert record.fallback
            assert record.coefficients == fresh[key.strategy].coefficients
            assert record.n_samples == 5

    def test_stale_reuse_expires_after_ten_days(self):
        archive = make_archive(60)
        store = CoefficientStore()
        store.update(fit_for_issue(archive, issue_on(50), keys_for(issue_on(50)), store=store))
        gutted = {("S1", 12): archive[("S1", 12)][48:53]}
        updates = fit_for_issue(gutted, issue_on(61), keys_for(issue_on(61)), store=store)
        for key, record in updates.items():
            assert record.fallback
            if parse_strategy(key.strategy)[0] == "single":
                assert record.coefficients == EmosCoefficients(0.0, (1.0,), 0.0, (1.0,))

    def test_key_issue_date_must_match(self):
        archive = make_archive(50)
        with pytest.raises(ValueError):
            fit_for_issue(archive, issue_on(50), keys_for(issue_on(49)))

    def test_no_leakage(self):
        archive = make_archive(60)
        issue = issue_on(50)
        truncated = {slot: table[table.init_days < issue.toordinal()] for slot, table in archive.items()}
        full = fit_for_issue(archive, issue, keys_for(issue))
        cut = fit_for_issue(truncated, issue, keys_for(issue))
        assert full == cut

    def test_determinism(self):
        archive = make_archive(60)
        a = fit_for_issue(archive, issue_on(50), keys_for(issue_on(50)))
        b = fit_for_issue(archive, issue_on(50), keys_for(issue_on(50)))
        assert a == b

    def test_batch_composition(self):
        # Keys share one batched solve per stage; a key's fit must not depend
        # on which other keys ride along (different window lengths included).
        samples_a = linear_gaussian_samples(n=60, seed=1, second_model="informative")
        samples_b = linear_gaussian_samples(n=60, seed=2, second_model="informative")[10:]
        archive = {("S1", 12): samples_a, ("S2", 12): samples_b}
        keys = keys_for(issue_on(50), station="S1") + keys_for(issue_on(50), station="S2")
        together = fit_for_issue(archive, issue_on(50), keys)
        for station in ("S1", "S2"):
            alone = fit_for_issue(archive, issue_on(50), keys_for(issue_on(50), station=station))
            for key, record in alone.items():
                assert not record.fallback
                assert together[key].objective == pytest.approx(record.objective, abs=1e-12)

    def test_missing_model_falls_back(self):
        archive = make_archive(60)
        stripped = {
            slot: SampleTable(("A",), t.init_days, t.mean[:, :1], t.std[:, :1], t.observation)
            for slot, t in archive.items()
        }
        updates = fit_for_issue(stripped, issue_on(50), keys_for(issue_on(50)))
        assert not updates[keys_for(issue_on(50))[0]].fallback
        for key in keys_for(issue_on(50))[1:]:
            assert updates[key].fallback
            assert math.isnan(updates[key].objective)

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
            fit_for_issue(make_archive(60), issue_on(50), keys_for(issue_on(50)))

    def test_raw_strategy_rejected(self):
        archive = make_archive(50)
        with pytest.raises(ValueError):
            fit_for_issue(archive, issue_on(50), [CoefficientKey("S1", 12, "raw:A", issue_on(50))])


class TestPredictForIssue:
    def forecasts(self, issue_day=50, mean=5.0, std=2.0):
        init = T0 + timedelta(days=issue_day)
        out = []
        for model in ("A", "B"):
            out.append(
                EnsembleForecast(
                    station_id="S1", model_id=model, init_time=init, lead_time=12,
                    members=(mean - std, mean, mean + std, mean, mean - std, mean + std),
                )
            )
        return out

    def test_identity_coefficients_pass_through(self):
        issue = issue_on(50)
        store = CoefficientStore()
        key = CoefficientKey("S1", 12, "single:A", issue)
        store.put(key, StoredFit(identity(1), 45, 0.1, True, False))
        fcs = self.forecasts()
        outcome = predict_for_issue(store, fcs, issue, [key])
        pred = outcome.predictions[("S1", 12, "single:A")]
        stats = EnsembleStats(5.0, float((2 * (2.0**2) / 3) ** 0.5), 6)
        assert pred.mu == pytest.approx(stats.mean)
        assert pred.sigma == pytest.approx(stats.std)

    def test_matches_direct_predict_bitwise(self):
        from emoskit.domain import ensemble_stats

        issue = issue_on(50)
        store = CoefficientStore()
        coef = EmosCoefficients(a=0.3, b=(0.6, 0.35), c=0.2, d=(0.8, 0.4))
        key = CoefficientKey("S1", 12, "mixed:A+B", issue)
        store.put(key, StoredFit(coef, 45, 0.2, True, False))
        fcs = self.forecasts()
        outcome = predict_for_issue(store, fcs, issue, [key])
        direct = predict(coef, [ensemble_stats(fcs[0]), ensemble_stats(fcs[1])])
        assert outcome.predictions[("S1", 12, "mixed:A+B")] == direct

    def test_stats_only_for_forecasts_keys_read(self, monkeypatch):
        import emoskit.pipeline as pipeline

        issue = issue_on(50)
        store = CoefficientStore()
        key = CoefficientKey("S1", 12, "single:A", issue)
        store.put(key, StoredFit(identity(1), 45, 0.1, True, False))
        unread = [replace(f, lead_time=13) for f in self.forecasts()]
        seen = []
        real = pipeline.ensemble_stats
        monkeypatch.setattr(pipeline, "ensemble_stats", lambda f: seen.append((f.model_id, f.lead_time)) or real(f))
        outcome = predict_for_issue(store, self.forecasts() + unread, issue, [key])
        assert seen == [("A", 12)]
        assert outcome.predictions[("S1", 12, "single:A")] == predict(identity(1), [real(self.forecasts()[0])])

    def test_missing_key_reported(self):
        issue = issue_on(50)
        store = CoefficientStore()
        present = CoefficientKey("S1", 12, "single:A", issue)
        absent = CoefficientKey("S1", 12, "single:B", issue)
        store.put(present, StoredFit(identity(1), 45, 0.1, True, False))
        outcome = predict_for_issue(store, self.forecasts(), issue, [present, absent])
        assert ("S1", 12, "single:A") in outcome.predictions
        assert ("S1", 12, "single:B") in outcome.errors

    def test_missing_forecast_reported(self):
        issue = issue_on(50)
        store = CoefficientStore()
        key = CoefficientKey("S9", 12, "single:A", issue)
        store.put(key, StoredFit(identity(1), 45, 0.1, True, False))
        outcome = predict_for_issue(store, self.forecasts(), issue, [key])
        assert ("S9", 12, "single:A") in outcome.errors


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
        updates = fit_for_issue(archive, issue, keys_for(issue), spec)
        expected = len(select_window(archive[("S1", 12)], issue, spec))
        assert all(r.n_samples == expected for r in updates.values())


class TestStoreRoundTrip:
    def test_put_get_identity(self):
        store = CoefficientStore()
        key = CoefficientKey("S1", 12, "single:A", issue_on(50))
        record = StoredFit(EmosCoefficients(0.1, (0.9,), 0.3, (1.1,)), 45, 0.23, True, False)
        store.put(key, record)
        assert store.get(key) == record
        assert len(store) == 1
        assert key in store

    def test_latest_before(self):
        store = CoefficientStore()
        for day in (40, 44, 47):
            key = CoefficientKey("S1", 12, "single:A", issue_on(day))
            store.put(key, StoredFit(EmosCoefficients(float(day), (1,), 0, (1,)), 45, 0.1, True, False))
        hit = store.latest_before("S1", 12, "single:A", issue_on(50), 10)
        assert hit.coefficients.a == 47.0
        miss = store.latest_before("S1", 12, "single:A", issue_on(60), 10)
        assert miss is None
