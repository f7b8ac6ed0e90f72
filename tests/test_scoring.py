import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import chisquare

from emoskit import scoring

from emoskit.domain import GaussianPredictive
from emoskit.scoring import (
    Conclusion,
    ScoreSeries,
    crps_normal_unit,
    crpss,
    diebold_mariano,
    dm_test,
    ensemble_crps,
    gaussian_crps,
    gaussian_crps_gradient,
    pit_histogram,
    pit_value,
    stratified_report,
)

T0 = datetime(2017, 1, 1, tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# Independent oracles (defined first; the closed forms are checked against
# them, never the other way round).
# ---------------------------------------------------------------------------


def crps_by_quadrature(mu, sigma, y):
    """Numerical integration of the CRPS definition for a Gaussian CDF."""
    lo = min(mu - 12.0 * sigma, y - 1.0)
    hi = max(mu + 12.0 * sigma, y + 1.0)
    left, _ = quad(lambda x: ndtr((x - mu) / sigma) ** 2, lo, y, limit=300, epsabs=1e-13, epsrel=1e-12)
    right, _ = quad(lambda x: (ndtr((x - mu) / sigma) - 1.0) ** 2, y, hi, limit=300, epsabs=1e-13, epsrel=1e-12)
    return left + right


def ensemble_crps_by_integration(members, y):
    """Exact piecewise integral of (empirical CDF - step)^2."""
    xs = sorted(members)
    points = sorted(set(xs) | {y})
    m = len(xs)
    total = 0.0
    for left, right in zip(points, points[1:]):
        cdf = sum(1 for x in xs if x <= left) / m
        step = 1.0 if left >= y else 0.0
        total += (cdf - step) ** 2 * (right - left)
    return total


# Frozen from crps_by_quadrature(0, 1, 0); agrees with sigma*(2*phi(0)-1/sqrt(pi)).
CRPS_STD_NORMAL_AT_CENTER = 0.23369497725510913


class TestGaussianCrps:
    def test_standard_normal_at_center(self):
        assert crps_by_quadrature(0.0, 1.0, 0.0) == pytest.approx(CRPS_STD_NORMAL_AT_CENTER, abs=1e-10)
        assert gaussian_crps(GaussianPredictive(0.0, 1.0), 0.0) == pytest.approx(
            CRPS_STD_NORMAL_AT_CENTER, abs=1e-12
        )

    def test_sharp_perfect_forecast(self):
        assert gaussian_crps(GaussianPredictive(5.0, 1e-9), 5.0) < 1e-8

    def test_degree_one_homogeneity_example(self):
        assert gaussian_crps(GaussianPredictive(0.0, 2.0), 0.0) == pytest.approx(
            2.0 * CRPS_STD_NORMAL_AT_CENTER, rel=1e-12
        )

    def test_matches_quadrature_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            mu = rng.uniform(-10, 10)
            sigma = rng.uniform(0.05, 5.0)
            y = mu + sigma * rng.uniform(-6, 6)
            assert gaussian_crps(GaussianPredictive(mu, sigma), y) == pytest.approx(
                crps_by_quadrature(mu, sigma, y), abs=1e-8
            )

    def test_homogeneity_and_translation_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mu, sigma, y = rng.normal(0, 3), rng.uniform(0.1, 4), rng.normal(0, 5)
            k = rng.uniform(0.1, 10)
            c = rng.normal(0, 10)
            base = gaussian_crps(GaussianPredictive(mu, sigma), y)
            assert gaussian_crps(GaussianPredictive(k * mu, k * sigma), k * y) == pytest.approx(k * base, rel=1e-10)
            assert gaussian_crps(GaussianPredictive(mu + c, sigma), y + c) == pytest.approx(base, rel=1e-9, abs=1e-12)
            assert base >= 0.0

    def test_invalid_sigma(self):
        pred = GaussianPredictive(0.0, 1.0)
        object.__setattr__(pred, "sigma", 0.0)
        with pytest.raises(ValueError):
            gaussian_crps(pred, 0.0)


class TestGaussianCrpsGradient:
    def finite_difference(self, mu, sigma, y):
        h_mu = 1e-6 * max(1.0, abs(mu), sigma)
        h_sig = 1e-6 * sigma
        f = lambda m, s: gaussian_crps(GaussianPredictive(m, s), y)
        d_mu = (f(mu + h_mu, sigma) - f(mu - h_mu, sigma)) / (2 * h_mu)
        d_sigma = (f(mu, sigma + h_sig) - f(mu, sigma - h_sig)) / (2 * h_sig)
        return d_mu, d_sigma

    def test_symmetry_at_center(self):
        d_mu, _ = gaussian_crps_gradient(GaussianPredictive(0.0, 1.0), 0.0)
        assert d_mu == pytest.approx(0.0, abs=1e-15)

    def test_dsigma_at_center_equals_unit_crps(self):
        # the score is linear in sigma at fixed z
        fd = self.finite_difference(0.0, 1.0, 0.0)[1]
        _, d_sigma = gaussian_crps_gradient(GaussianPredictive(0.0, 1.0), 0.0)
        assert d_sigma == pytest.approx(fd, abs=1e-9)
        assert d_sigma == pytest.approx(CRPS_STD_NORMAL_AT_CENTER, abs=1e-12)

    def test_example_point(self):
        d_mu, d_sigma = gaussian_crps_gradient(GaussianPredictive(1.0, 2.0), 0.0)
        fd_mu, fd_sigma = self.finite_difference(1.0, 2.0, 0.0)
        assert d_mu == pytest.approx(fd_mu, abs=1e-6)
        assert d_sigma == pytest.approx(fd_sigma, abs=1e-6)

    def test_randomized_against_finite_differences(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            mu = rng.uniform(-8, 8)
            sigma = rng.uniform(1e-3, 4.0)
            y = mu + sigma * rng.uniform(-5, 5)
            a_mu, a_sigma = gaussian_crps_gradient(GaussianPredictive(mu, sigma), y)
            fd_mu, fd_sigma = self.finite_difference(mu, sigma, y)
            assert abs(a_mu - fd_mu) <= 1e-6 * max(1.0, abs(fd_mu))
            assert abs(a_sigma - fd_sigma) <= 1e-6 * max(1.0, abs(fd_sigma))


class TestEnsembleCrps:
    def test_single_member_absolute_error(self):
        assert ensemble_crps([3.0], 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_two_members_exact_integral(self):
        assert ensemble_crps([0.0, 2.0], 1.0) == pytest.approx(0.5, abs=1e-12)
        assert ensemble_crps_by_integration([0.0, 2.0], 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_perfect_degenerate_ensemble(self):
        assert ensemble_crps([4.2, 4.2, 4.2], 4.2) == 0.0

    def test_matches_piecewise_integration(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = rng.integers(1, 11)
            members = rng.normal(0, 3, size=m).tolist()
            y = rng.normal(0, 3)
            assert ensemble_crps(members, y) == pytest.approx(
                ensemble_crps_by_integration(members, y), abs=1e-10
            )

    def test_homogeneity_and_translation(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            members = rng.normal(0, 2, size=7)
            y = rng.normal(0, 2)
            k = rng.uniform(0.2, 5)
            c = rng.normal(0, 4)
            base = ensemble_crps(members, y)
            assert ensemble_crps(k * members, k * y) == pytest.approx(k * base, rel=1e-10)
            assert ensemble_crps(members + c, y + c) == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_converges_to_gaussian_value(self):
        # kernel score of m iid Gaussian draws approaches the closed form
        rng = np.random.default_rng(99)
        mu, sigma, y = 1.0, 2.0, 1.5
        target = gaussian_crps(GaussianPredictive(mu, sigma), y)
        reps = [ensemble_crps(rng.normal(mu, sigma, size=10_000), y) for _ in range(40)]
        se = np.std(reps, ddof=1) / math.sqrt(len(reps))
        assert abs(np.mean(reps) - target) < 3 * se + 1e-4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_crps([], 0.0)


class TestCrpss:
    def test_half(self):
        assert crpss(1.0, 2.0) == 0.5

    def test_worse_than_reference(self):
        assert crpss(2.0, 1.0) == -1.0

    def test_published_table_values(self):
        # annual mean scores 1.05 (combined) vs 1.54 (reference raw model)
        assert crpss(1.05, 1.54) == pytest.approx(0.3182, abs=5e-4)

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            crpss(1.0, 0.0)


class TestPit:
    def test_center(self):
        assert pit_value(GaussianPredictive(0.0, 1.0), 0.0) == 0.5

    def test_far_tail(self):
        assert pit_value(GaussianPredictive(0.0, 1.0), 40.0) == pytest.approx(1.0, abs=1e-12)

    def test_one_sigma_below(self):
        assert pit_value(GaussianPredictive(2.0, 2.0), 0.0) == pytest.approx(0.158655, abs=1e-6)

    def test_histogram_basic(self):
        hist = pit_histogram([0.1, 0.9], 2)
        assert hist.counts == (1, 1)

    def test_histogram_boundary_one(self):
        hist = pit_histogram([1.0], 10)
        assert hist.counts[-1] == 1
        assert sum(hist.counts) == 1

    def test_histogram_counts_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pits = rng.random(size=rng.integers(0, 500))
            bins = int(rng.integers(2, 30))
            assert sum(pit_histogram(pits, bins).counts) == len(pits)

    def test_histogram_uniformity_chi_square(self):
        rng = np.random.default_rng(2024)
        pits = rng.random(100_000)
        hist = pit_histogram(pits, 20)
        _, p = chisquare(hist.counts)
        assert p > 0.01

    def test_histogram_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pit_histogram([0.5, 1.2], 10)
        with pytest.raises(ValueError):
            pit_histogram([0.5], 1)


def series(values, start_hour=12, **extra):
    times = tuple(T0 + timedelta(days=i, hours=start_hour) for i in range(len(values)))
    return ScoreSeries(valid_times=times, crps_values=tuple(values), **extra)


class TestDieboldMariano:
    def test_alternating_differential_not_significant(self):
        base = [2.0] * 10
        d = [1.0 if i % 2 == 0 else -1.0 for i in range(10)]
        result = diebold_mariano(series([b + x for b, x in zip(base, d)]), series(base))
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.conclusion == Conclusion.NOT_SIGNIFICANT

    def test_identical_series_degenerate(self):
        a = series([1.0, 2.0, 3.0])
        result = diebold_mariano(a, series([1.0, 2.0, 3.0]))
        assert result.conclusion == Conclusion.DEGENERATE
        assert result.p_value == 1.0

    def test_constant_nonzero_differential_degenerate(self):
        result = diebold_mariano(series([2.0, 2.0, 2.0]), series([1.0, 1.0, 1.0]))
        assert result.conclusion == Conclusion.DEGENERATE
        assert result.p_value == 0.0

    def test_strong_differential_statistic(self):
        # d with sample mean 0.5 and sample sd 0.1, n = 45
        n = 45
        x = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        x = (x - x.mean()) / x.std(ddof=1)
        d = 0.5 + 0.1 * x
        expected_stat = d.mean() / math.sqrt(d.var(ddof=1) / n)
        assert expected_stat == pytest.approx(33.54, abs=0.01)
        b = [2.0] * n
        result = diebold_mariano(series([v + dv for v, dv in zip(b, d)]), series(b))
        assert result.statistic == pytest.approx(expected_stat, rel=1e-12)
        assert result.p_value < 0.001
        assert result.conclusion == Conclusion.SECOND_BETTER  # a has larger scores

    def test_antisymmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            a = series(rng.uniform(0.5, 3.0, n).tolist())
            b = series(rng.uniform(0.5, 3.0, n).tolist())
            fwd = diebold_mariano(a, b)
            rev = diebold_mariano(b, a)
            assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-12)
            assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)
            swap = {
                Conclusion.FIRST_BETTER: Conclusion.SECOND_BETTER,
                Conclusion.SECOND_BETTER: Conclusion.FIRST_BETTER,
            }
            assert rev.conclusion == swap.get(fwd.conclusion, fwd.conclusion)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            diebold_mariano(series([1.0, 2.0]), series([1.0, 2.0, 3.0]))

    def test_single_init_date_insufficient(self):
        # 24 hourly cases of one init date: no variance across dates to test with
        times = tuple(T0 + timedelta(hours=h) for h in range(24))
        a = ScoreSeries(times, tuple(np.linspace(1.0, 2.0, 24)), lead_times=tuple(range(24)))
        b = ScoreSeries(times, (1.5,) * 24, lead_times=tuple(range(24)))
        result = diebold_mariano(a, b)
        assert (result.statistic, result.p_value, result.conclusion, result.n) == (None, None,
                                                                                    Conclusion.INSUFFICIENT, 1)

    def test_cases_are_averaged_per_init_date(self):
        # two init dates x two leads; per-date means 1 and 3 give mean 2, and
        # with h = 1 the variance is the lag-0 one of the two daily means
        d = np.array([0.5, 1.5, 2.0, 4.0])
        result = dm_test(d, np.array([7, 7, 8, 8]), max_lead=21)
        assert result.n == 2
        assert result.statistic == pytest.approx(2.0 / math.sqrt(1.0 / 1.0))

    def test_autocovariance_pairs_days_by_calendar_lag(self):
        # with h = 2 only days one calendar day apart are paired: not 2 and 10
        days = np.array([0, 1, 2, 10, 11, 12])
        daily = np.array([0.3, -0.1, 0.4, 0.2, 0.5, -0.2])
        e = daily - daily.mean()
        n = len(days)
        lag1 = sum(e[i] * e[j] for i in range(n) for j in range(n) if days[i] - days[j] == 1)
        v = (e @ e + 2 * 0.5 * lag1) / n
        c = n + 1 - 2 * 2 + 2 * 1 / n
        result = dm_test(daily, days, max_lead=48)
        assert result.statistic == pytest.approx(daily.mean() / math.sqrt(v / c), rel=1e-12)

    def test_non_positive_correction_insufficient(self):
        # h = 6 (126 h leads) on 5 init dates: n + 1 - 2h + h(h-1)/n = 0
        rng = np.random.default_rng(3)
        result = dm_test(rng.normal(size=5), np.arange(5), max_lead=126)
        assert result.conclusion == Conclusion.INSUFFICIENT

    @staticmethod
    def ar1(rng, shape, rho):
        """Unit-variance AR(1) series along the last axis."""
        e = rng.standard_normal(shape)
        e[..., 1:] *= math.sqrt(1.0 - rho**2)
        for k in range(1, shape[-1]):
            e[..., k] += rho * e[..., k - 1]
        return e

    def test_size_and_power_with_autocorrelated_leads(self):
        """Toy model, 400 derandomized replications of 50 init dates x 43
        hourly leads (84-126 h, so h = 6). Each forecast's standardized error
        is AR(1) over the leads with rho = 0.98 per hour; the two forecasts
        share 95 % of their error variance (what both miss against the same
        observation). Scores are the CRPS of N(0, 1); for a 10 % CRPS
        advantage, b's errors and spread are scaled by 0.9. A lag-0 test on
        the pooled cases rejects equal skill in about 70 % of replications."""
        rng = np.random.default_rng(1995)
        reps, days, leads = 400, 50, 43
        shared, own_a, own_b = (self.ar1(rng, (reps, days, leads), 0.98) for _ in range(3))
        crps_a = crps_normal_unit(math.sqrt(0.95) * shared + math.sqrt(0.05) * own_a)
        crps_b = crps_normal_unit(math.sqrt(0.95) * shared + math.sqrt(0.05) * own_b)
        init_days = np.repeat(np.arange(days), leads)

        def rejection_rate(d):
            return np.mean([dm_test(rep.ravel(), init_days, max_lead=126).p_value < 0.05 for rep in d])

        assert rejection_rate(crps_a - crps_b) <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / reps)
        assert rejection_rate(crps_a - 0.9 * crps_b) > 0.5

    def test_mismatched_valid_times(self):
        a = series([1.0, 2.0])
        b = series([1.0, 2.0], start_hour=13)
        with pytest.raises(ValueError):
            diebold_mariano(a, b)


class TestStratifiedReport:
    def test_single_stratum_mean(self):
        scores = {"x": series([1.0, 3.0]), "ref": series([2.0, 2.0])}
        report = stratified_report(scores, "ref", strata=("daynight",))
        assert report.overall["x"].mean_crps == pytest.approx(2.0)
        assert report.overall["x"].count == 2

    def test_reference_has_zero_skill_everywhere(self):
        values = np.random.default_rng(0).uniform(0.5, 2.0, 40).tolist()
        times = tuple(T0 + timedelta(days=i, hours=(i * 7) % 24) for i in range(40))
        s = ScoreSeries(valid_times=times, crps_values=tuple(values))
        report = stratified_report({"ref": s}, "ref", strata=("season", "daynight"))
        assert report.overall["ref"].crpss == 0.0
        for table in report.by_stratum.values():
            for stat in table["ref"].values():
                assert stat.crpss == pytest.approx(0.0, abs=1e-15)

    def test_uniformly_better_strategy_all_stations_positive(self):
        n = 30
        times = tuple(T0 + timedelta(days=i) for i in range(n))
        stations = tuple(f"S{i % 5}" for i in range(n))
        leads = tuple([12] * n)
        ref_values = tuple(1.0 + (i % 3) * 0.2 for i in range(n))
        better = tuple(v * 0.7 for v in ref_values)
        common = dict(valid_times=times, station_ids=stations, lead_times=leads)
        scores = {
            "ref": ScoreSeries(crps_values=ref_values, **common),
            "good": ScoreSeries(crps_values=better, **common),
        }
        report = stratified_report(scores, "ref")
        assert report.station_skill_fraction["good"] == 1.0
        assert report.overall["good"].crpss == pytest.approx(0.3, rel=1e-12)

    def test_stratum_means_recombine_to_overall(self):
        rng = np.random.default_rng(8)
        n = 200
        times = tuple(T0 + timedelta(days=i % 90, hours=int(rng.integers(0, 24))) for i in range(n))
        s = ScoreSeries(valid_times=times, crps_values=tuple(rng.uniform(0, 3, n).tolist()))
        report = stratified_report({"ref": s}, "ref", strata=("season", "daynight"))
        overall = report.overall["ref"]
        for table in report.by_stratum.values():
            stats = table["ref"].values()
            weighted = sum(st.mean_crps * st.count for st in stats)
            assert sum(st.count for st in stats) == overall.count
            assert weighted / overall.count == pytest.approx(overall.mean_crps, abs=1e-9)

    def test_season_and_daynight_assignment(self):
        winter_day = datetime(2017, 12, 15, 12, tzinfo=timezone.utc)
        summer_night = datetime(2017, 7, 10, 23, tzinfo=timezone.utc)
        edge_day = datetime(2017, 3, 1, 7, tzinfo=timezone.utc)
        edge_night = datetime(2017, 3, 1, 19, tzinfo=timezone.utc)
        s = ScoreSeries(valid_times=(winter_day, summer_night, edge_day, edge_night), crps_values=(1.0, 1.0, 1.0, 1.0))
        report = stratified_report({"ref": s}, "ref", strata=("season", "daynight"))
        assert set(report.by_stratum["season"]["ref"]) == {"DJF", "JJA", "MAM"}
        daynight = report.by_stratum["daynight"]["ref"]
        assert daynight["day"].count == 2  # 12 UTC and the 07 UTC boundary
        assert daynight["night"].count == 2  # 23 UTC and the 19 UTC boundary

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError):
            stratified_report({"x": series([1.0])}, "nope")


# ---------------------------------------------------------------------------
# Phi and the Student t CDF against scipy.special
# ---------------------------------------------------------------------------

ORACLE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

SQRT1_2 = 0.70710678118654752440


def assert_bits_equal(got, want):
    """Same type, shape and dtype, and the same float64 bits (any NaN
    matching any NaN)."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), list(zip(got[~same].tolist(), want[~same].tolist()))


def ndtr_special_points():
    """Branch edges of cephes ndtr (|x|/sqrt(2) at 1/sqrt(2), 1, 8 and the
    underflow bound sqrt(MAXLOG)) with 4 ulps either side, and special values,
    of both signs."""
    edges = np.array([SQRT1_2, 1.0, 8.0, math.sqrt(scoring._MAXLOG)]) * math.sqrt(2.0)
    near = (edges.view(np.int64)[:, None] + np.arange(-4, 5)).view(np.float64).ravel()
    special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 38.5, 1e308, np.finfo(float).max, np.inf]
    points = np.concatenate([near, np.sqrt(2.0) * np.array([SQRT1_2, 1.0, 8.0]), special])
    return np.concatenate([points, -points, [np.nan]])


class TestNdtrOracle:
    def test_bit_equal_on_dense_grid_and_branch_edges(self):
        grid = np.concatenate([np.linspace(-40.0, 40.0, 400_001), ndtr_special_points()])
        assert_bits_equal(scoring.ndtr(grid), scipy.special.ndtr(grid))

    def test_bit_equal_on_scalars_at_branch_edges(self):
        for x in ndtr_special_points().tolist():
            assert_bits_equal(scoring.ndtr(x), scipy.special.ndtr(x))

    @ORACLE_SETTINGS
    @given(st.lists(st.floats(), max_size=40), st.booleans())
    def test_bit_equal_on_any_float64(self, values, as_matrix):
        # st.floats() draws finite, subnormal, +-0, +-inf and NaN values
        x = np.array(values, dtype=float)
        if as_matrix:
            x = np.concatenate([x, x]).reshape(2, -1)
        assert_bits_equal(scoring.ndtr(x), scipy.special.ndtr(x))

    @ORACLE_SETTINGS
    @given(st.floats())
    def test_bit_equal_on_any_scalar(self, x):
        assert_bits_equal(scoring.ndtr(x), scipy.special.ndtr(x))

    @pytest.mark.parametrize(
        "x",
        [0.3, np.float64(-1.7), np.array(2.5), np.array([0.1, -3.0, 9.0]), np.arange(-8, 8).reshape(4, 4),
         np.linspace(-12.0, 12.0, 60).reshape(6, 10)[:, ::3]],
        ids=["float", "np-float", "0-d", "1-d", "2-d-int", "2-d-strided"],
    )
    def test_shape_and_type_follow_scipy(self, x):
        assert_bits_equal(scoring.ndtr(x), scipy.special.ndtr(x))

    def test_no_runtime_warning(self):
        points = ndtr_special_points()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scoring.ndtr(points)
            scoring.ndtr(points[1:].reshape(-1, 2)[::-1])
            for x in points.tolist():
                scoring.ndtr(x)


def cauchy_cdf(t):
    return 0.5 + math.atan(t) / math.pi


class TestStudentTTailOracle:
    # student_t_tail(df, t) is P(T <= -|t|), scipy.special.stdtr(df, -|t|).
    # scipy's stdtr loses digits for df = 1 at tiny t (6e-11 relative at
    # t = -1e-10), so df = 1 is checked against the Cauchy CDF instead.

    @staticmethod
    def oracle(df, t):
        return cauchy_cdf(-abs(t)) if df == 1 else float(scipy.special.stdtr(df, -abs(t)))

    def test_within_1e12_on_grid(self):
        ts = np.concatenate([np.linspace(-40.0, 40.0, 161), [-2.0, 2.0], np.nextafter([-2.0, 2.0], 0.0),
                             np.nextafter([-2.0, 2.0], [-3.0, 3.0]), [-1e-3, 1e-3, -1e-8, 1e-8]]).tolist()
        for df in [*range(1, 41), *range(41, 1001, 23), 999, 1000]:
            for t in ts:
                assert scoring.student_t_tail(df, t) == pytest.approx(self.oracle(df, t), rel=1e-12, abs=0.0), (df, t)

    @ORACLE_SETTINGS
    @given(st.integers(1, 1000), st.floats(-40.0, 40.0))
    def test_within_1e12_anywhere(self, df, t):
        assert scoring.student_t_tail(df, t) == pytest.approx(self.oracle(df, t), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [-1e-300, -1e-10, -1e-5, 1e-7, -0.5])
    def test_closed_forms_at_tiny_t(self, t):
        t = -abs(t)
        assert scoring.student_t_tail(1, t) == pytest.approx(cauchy_cdf(t), rel=1e-15)
        assert scoring.student_t_tail(2, t) == pytest.approx(0.5 + t / (2.0 * math.sqrt(2.0 + t * t)), rel=1e-15)

    def test_ends(self):
        assert scoring.student_t_tail(5, 0.0) == scoring.student_t_tail(6, -0.0) == 0.5
        assert scoring.student_t_tail(5, 1e200) == scoring.student_t_tail(5, -math.inf) == 0.0
