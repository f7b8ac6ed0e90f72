"""Proper scores, skill scores, reliability diagnostics and significance tests.

CRPS conventions follow Gneiting and Raftery (2007): the score is the
integrated squared difference between the forecast CDF and the step function
of the observation; lower is better and 0 is a perfect forecast. For a
Gaussian forecast the closed form

    crps(N(mu, sigma), y) = sigma * (z*(2*Phi(z)-1) + 2*phi(z) - 1/sqrt(pi)),
    z = (y - mu) / sigma

is used (Gneiting et al. 2005). For a raw ensemble the classical kernel form
of the empirical-CDF integral is used:

    crps = mean_i |x_i - y| - (1 / (2 m^2)) * sum_ij |x_i - x_j|

The stages score arrays of cases: ``crps_normal_unit`` (the EMOS fit
objective, ``emos._forward``, is the same score in another algebraic form),
``ensemble_crps_rows`` and ``randomized_ensemble_pit``. The scalar scores
(``gaussian_crps``, ``ensemble_crps``, ``pit_value``) and the per-series
``diebold_mariano`` and ``stratified_report`` take one case or one series at
a time and compute through the same code; no stage calls them, and they stay
because the benchmark tracer (``bench/traced.py``) wraps them.

Significance is the Diebold-Mariano test with the Harvey-Leybourne-Newbold
correction on the score differential averaged per init date (``dm_test``),
so autocorrelated leads and stations of one run count as one observation of
the differential.

Phi comes from ``ndtr``, a numpy port of the cephes ``ndtr``/``erf``/``erfc``
that ``scipy.special.ndtr`` evaluates, equal to it bit for bit; the DM
p-value's Student t tail from ``student_t_tail``, a ``math`` series and
continued fraction. Neither imports scipy, whose ``scipy.special`` import
costs a stage process about 0.35 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum

import numpy as np

from .domain import GaussianPredictive

__all__ = [
    "ScoreSeries",
    "PitHistogram",
    "SignificanceResult",
    "Conclusion",
    "StratumStat",
    "VerificationReport",
    "gaussian_crps",
    "ensemble_crps",
    "ensemble_crps_rows",
    "crpss",
    "pit_value",
    "pit_histogram",
    "randomized_ensemble_pit",
    "diebold_mariano",
    "dm_test",
    "stratified_report",
    "aggregate_report",
    "stratum_labels",
    "season_of",
    "is_day",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# Day/night stratification bounds in UTC: day = 07-18, night = 19-06.
DAY_HOURS = frozenset(range(7, 19))

_SEASON_BY_MONTH = {
    12: "DJF", 1: "DJF", 2: "DJF",
    3: "MAM", 4: "MAM", 5: "MAM",
    6: "JJA", 7: "JJA", 8: "JJA",
    9: "SON", 10: "SON", 11: "SON",
}


# cephes (S. L. Moshier) erf and erfc, as scipy.special.ndtr evaluates them:
# erf(x) = x T(x^2) / U(x^2) for |x| < 1; erfc(x) = exp(-x^2) P(x) / Q(x) for
# 1 <= x < 8 and exp(-x^2) R(x) / S(x) from 8 on. Coefficients run from the
# highest power down; a leading 1.0 is cephes' implicit one (p1evl).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_M_SQRT1_2 = 0.70710678118654752440  # C's M_SQRT1_2; 1 / math.sqrt(2) is one ulp lower
_MAXLOG = 7.09782712893383996843e2  # erfc is 0 once x^2 exceeds it


def _polevl(x, coef):
    """coef[0] * x^n + ... + coef[n] by Horner's rule, rounded step by step as
    cephes ``polevl`` rounds it, for an array x."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def ndtr(x):
    """Standard normal CDF, bit for bit ``scipy.special.ndtr`` on float64.

    A float64 array of x's shape, or a numpy float for a scalar. exp(-x^2)
    comes from ``math.exp`` (the C library's, as in cephes): numpy's vector
    ``exp`` differs from it in the last bit on about 1 % of tail points. erfc
    is evaluated only on the elements with |x| >= sqrt(2).
    """
    a = np.asarray(x, dtype=np.float64)
    x = a.ravel() * _M_SQRT1_2
    z = np.abs(x)
    # the erf polynomials overflow on huge x and the erfc ones on inf, in
    # elements whose branch discards them
    with np.errstate(over="ignore", invalid="ignore"):
        zz = x * x
        r = x * _polevl(zz, _ERF_T) / _polevl(zz, _ERF_U)  # erf(x) where z < 1
        t = 0.5 * (1.0 - np.abs(r))  # Phi(-|a|) where 1/sqrt(2) <= z < 1
        tail = np.flatnonzero(z >= 1.0)
        if tail.size:
            zt = z[tail]
            zz = zt * zt
            e = np.fromiter(map(math.exp, (-zz).tolist()), np.float64, tail.size)
            erfc = e * _polevl(zt, _ERFC_P) / _polevl(zt, _ERFC_Q)
            far = np.flatnonzero(zt >= 8.0)
            if far.size:
                erfc[far] = e[far] * _polevl(zt[far], _ERFC_R) / _polevl(zt[far], _ERFC_S)
                erfc[far[zz[far] > _MAXLOG]] = 0.0
            t[tail] = 0.5 * erfc
    y = np.where(z < _M_SQRT1_2, 0.5 + 0.5 * r, np.where(x > 0.0, 1.0 - t, t))
    return y.reshape(a.shape)[()]


def student_t_tail(df: int, t: float) -> float:
    """P(T <= -|t|) for T ~ Student t with ``df`` >= 1 degrees of freedom
    (an integer): the lower tail a two-sided p-value doubles.

    For |t| <= 2 the finite series of cephes ``stdtr`` in atan and powers of
    1 / (1 + t^2/df); beyond it half the regularized incomplete beta
    I_x(df/2, 1/2), x = df / (df + t^2), by its continued fraction. Within
    1e-12 relative of ``scipy.special.stdtr(df, -|t|)`` for df <= 1000 and
    |t| <= 40, and closer to the exact value where scipy's df = 1 loses
    digits at tiny t.
    """
    x = abs(t)
    if x > 2.0:
        return 0.0 if math.isinf(x * x) else _student_t_tail_cf(df, x * x)
    z = 1.0 + x * x / df
    f = term = 1.0
    for j in range(3 if df % 2 else 2, df - 1, 2):
        if term / f <= 2.0**-53:
            break
        term *= (j - 1) / (z * j)
        f += term
    if df % 2:
        xsqk = x / math.sqrt(df)
        p = 2.0 / math.pi * (math.atan(xsqk) + (f * xsqk / z if df > 1 else 0.0))
    else:
        p = f * x / math.sqrt(z * df)
    return 0.5 - 0.5 * p


def _student_t_tail_cf(df: int, tt: float) -> float:
    """P(T <= -t) for T ~ Student t with ``df`` degrees of freedom, tt = t^2 > 3:
    I_x(a, 1/2) / 2, a = df/2, x = df / (df + tt), by the modified Lentz
    evaluation of the incomplete beta's continued fraction (Numerical Recipes
    ``betacf``), which converges fast for x < (a+1)/(a+3/2), i.e. tt > 3."""
    a, b, x = 0.5 * df, 0.5, df / (df + tt)
    # Gamma(a + 1/2) / Gamma(a) by its recurrence from a = 1/2 or 1:
    # differencing math.lgamma costs up to 5e-13 relative at a ~ 500
    a0, ratio = (0.5, 1.0 / math.sqrt(math.pi)) if df % 2 else (1.0, 0.5 * math.sqrt(math.pi))
    while a0 < a:
        ratio *= (a0 + 0.5) / a0
        a0 += 1.0
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            front = math.exp(a * math.log(x)) * math.sqrt(tt / (df + tt)) * ratio / (a * math.sqrt(math.pi))
            return 0.5 * front * h
    raise ArithmeticError(f"Student t tail did not converge at df={df}, t^2={tt}")


def _std_normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


def crps_normal_unit(z):
    """CRPS of a standard normal forecast at standardized error z (vectorized)."""
    cdf = ndtr(z)
    return z * (2.0 * cdf - 1.0) + 2.0 * _std_normal_pdf(z) - _INV_SQRT_PI


def gaussian_crps(pred: GaussianPredictive, y: float) -> float:
    """CRPS of a Gaussian predictive distribution against observation y."""
    if pred.sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {pred.sigma}")
    z = (y - pred.mu) / pred.sigma
    return float(pred.sigma * crps_normal_unit(z))


def ensemble_crps(members, y: float) -> float:
    """CRPS of one raw ensemble: ``ensemble_crps_rows`` of a one-row matrix."""
    x = np.asarray(members, dtype=float)
    if x.size == 0:
        raise ValueError("cannot score an empty ensemble")
    return float(ensemble_crps_rows(x.reshape(1, -1), np.array([y], dtype=float))[0])


def ensemble_crps_rows(members: np.ndarray, y: np.ndarray) -> np.ndarray:
    """CRPS of each row of an (n, m) member matrix against y[i], in the kernel
    form above, with sum_ij |x_i - x_j| = 2 sum_i (2i - m + 1) x_(i) over the
    sorted row (O(m log m)). ``np.vecdot`` runs the dot kernel of ``np.dot``
    per row, where a matrix-vector product may round differently."""
    m = members.shape[1]
    term_obs = np.abs(members - y[:, None]).mean(axis=1)
    weights = 2.0 * np.arange(m) - m + 1.0
    return term_obs - np.vecdot(np.sort(members, axis=1), weights) / (m * m)


def crpss(crps: float, crps_ref: float) -> float:
    """Skill score 1 - crps/crps_ref; positive means better than the reference."""
    if crps_ref <= 0.0:
        raise ValueError(f"reference CRPS must be > 0, got {crps_ref}")
    return 1.0 - crps / crps_ref


def pit_value(pred: GaussianPredictive, y: float) -> float:
    """Probability integral transform: forecast CDF evaluated at the observation."""
    if pred.sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {pred.sigma}")
    return float(ndtr((y - pred.mu) / pred.sigma))


def randomized_ensemble_pit(members, y, u):
    """Randomized-rank PIT of an observation within a raw ensemble.

    With r members strictly below y and t members equal to y, the PIT is
    (r + u * (t + 1)) / (m + 1) for u ~ U(0, 1); uniform when the members
    and the observation are exchangeable draws. ``members`` may also be an
    (n, m) matrix, with y and u of length n: one PIT per row.
    """
    x = np.asarray(members, dtype=float)
    y = np.asarray(y, dtype=float)[..., None]
    r = np.sum(x < y, axis=-1)
    t = np.sum(x == y, axis=-1)
    return (r + u * (t + 1)) / (x.shape[-1] + 1)


@dataclass(frozen=True)
class PitHistogram:
    """Counts of PIT values over equal-width bins on [0, 1]."""

    bin_count: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.bin_count:
            raise ValueError("counts length must equal bin_count")

    @property
    def edges(self) -> tuple[float, ...]:
        return tuple(i / self.bin_count for i in range(self.bin_count + 1))


def pit_histogram(pits, bin_count: int) -> PitHistogram:
    """Histogram PIT values into ``bin_count`` equal-width bins on [0, 1].

    Bins are half-open [lo, hi) except the last, which also receives the
    boundary value 1.0; counts always sum to the number of inputs.
    """
    if bin_count < 2:
        raise ValueError(f"bin_count must be >= 2, got {bin_count}")
    p = np.asarray(pits, dtype=float)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("all PIT values must lie in [0, 1]")
    counts, _ = np.histogram(p, bins=np.linspace(0.0, 1.0, bin_count + 1))
    return PitHistogram(bin_count=bin_count, counts=tuple(int(c) for c in counts))


class Conclusion(str, Enum):
    FIRST_BETTER = "first_better"
    SECOND_BETTER = "second_better"
    NOT_SIGNIFICANT = "not_significant"
    DEGENERATE = "degenerate"
    INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class SignificanceResult:
    """A test's statistic and two-sided p-value (None when ``insufficient``)
    on ``n`` init dates."""

    statistic: float | None
    p_value: float | None
    conclusion: Conclusion
    n: int

    def __post_init__(self):
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")


@dataclass(frozen=True)
class ScoreSeries:
    """Per-case CRPS values with the metadata needed for stratification.

    ``station_ids`` and ``lead_times`` are optional parallel arrays; they are
    required only when stratifying by station or lead time.
    """

    valid_times: tuple[datetime, ...]
    crps_values: tuple[float, ...]
    station_ids: tuple[str, ...] | None = None
    lead_times: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.valid_times)
        if len(self.crps_values) != n:
            raise ValueError("valid_times and crps_values must have equal length")
        if any(v < 0.0 for v in self.crps_values):
            raise ValueError("CRPS values must be >= 0")
        for name, extra in (("station_ids", self.station_ids), ("lead_times", self.lead_times)):
            if extra is not None and len(extra) != n:
                raise ValueError(f"{name} must have the same length as crps_values")

    def __len__(self) -> int:
        return len(self.crps_values)


def diebold_mariano(scores_a: ScoreSeries, scores_b: ScoreSeries, alpha: float = 0.05) -> SignificanceResult:
    """``dm_test`` of the score differential a - b; a case's init time is its
    valid time minus its lead time (0 h when the series carry no leads)."""
    if len(scores_a) != len(scores_b):
        raise ValueError("score series must have equal length")
    if scores_a.valid_times != scores_b.valid_times or scores_a.lead_times != scores_b.lead_times:
        raise ValueError("score series must cover identical valid and lead times")
    leads = scores_a.lead_times or (0,) * len(scores_a)
    init_days = [(t - timedelta(hours=lead)).toordinal() for t, lead in zip(scores_a.valid_times, leads)]
    d = np.asarray(scores_a.crps_values, dtype=float) - np.asarray(scores_b.crps_values, dtype=float)
    return dm_test(d, np.asarray(init_days), max(leads, default=0), alpha)


def dm_test(d: np.ndarray, init_days: np.ndarray, max_lead: int, alpha: float = 0.05) -> SignificanceResult:
    """Diebold-Mariano (1995) test of equal skill with the Harvey, Leybourne
    and Newbold (1997) small-sample correction.

    The per-case score differential d = a - b is averaged per init day
    (``init_days``, over stations and leads), giving a series of n daily
    means. Forecasts up to ``max_lead`` hours overlap those of the next
    h - 1 init days, h = ceil(max_lead / 24), so the variance of the
    series' mean uses the Newey-West (Bartlett) estimate with lag h - 1,

        V = g_0 + 2 * sum_{k=1}^{h-1} (1 - k/h) * g_k,

    g_k the autocovariance over the pairs of days k days apart, with
    divisor n (a day without cases pairs with none). The corrected statistic
    mean / sqrt(V / c), c = n + 1 - 2h + h(h-1)/n, has a two-sided p-value
    from Student t with n - 1 degrees of freedom. A constant daily
    differential is ``degenerate`` (p = 1 when it is zero, else 0); fewer
    than 2 init days, or V <= 0 or c <= 0, is ``insufficient``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    days, day, counts = np.unique(init_days, return_inverse=True, return_counts=True)
    daily = np.bincount(day, weights=d) / counts
    n = len(daily)
    if n < 2:
        return SignificanceResult(None, None, Conclusion.INSUFFICIENT, n)
    mean_d = float(daily.mean())
    if np.ptp(daily) == 0.0:
        return SignificanceResult(0.0, 1.0 if mean_d == 0.0 else 0.0, Conclusion.DEGENERATE, n)
    h = max(1, math.ceil(max_lead / 24))
    e = np.zeros(days[-1] - days[0] + 1)  # one slot per calendar day
    e[days - days[0]] = daily - mean_d
    v = float(e @ e) / n + 2.0 * sum((1.0 - k / h) * float(e[k:] @ e[:-k]) / n for k in range(1, min(h, len(e))))
    c = n + 1 - 2 * h + h * (h - 1) / n
    if v <= 0.0 or c <= 0.0:
        return SignificanceResult(None, None, Conclusion.INSUFFICIENT, n)
    stat = mean_d / math.sqrt(v / c)
    p = min(2.0 * student_t_tail(n - 1, stat), 1.0)
    if p >= alpha:
        conclusion = Conclusion.NOT_SIGNIFICANT
    elif mean_d < 0.0:
        conclusion = Conclusion.FIRST_BETTER  # a has the lower scores
    else:
        conclusion = Conclusion.SECOND_BETTER
    return SignificanceResult(stat, p, conclusion, n)


def season_of(t: datetime) -> str:
    return _SEASON_BY_MONTH[t.month]


def is_day(t: datetime) -> bool:
    """Day stratum: valid hour 07-18 UTC; night is 19-06."""
    return t.hour in DAY_HOURS


@dataclass(frozen=True)
class StratumStat:
    mean_crps: float
    count: int
    crpss: float | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Stratified mean CRPS and skill relative to a reference strategy.

    ``by_stratum`` maps stratification name -> strategy -> stratum label ->
    statistics, strategies and labels in sorted order (leads numerically).
    ``station_skill_fraction`` is the fraction of stations with
    positive CRPSS against the reference (only present when station metadata
    was available).
    """

    reference: str
    overall: dict[str, StratumStat]
    by_stratum: dict[str, dict[str, dict[str, StratumStat]]]
    station_skill_fraction: dict[str, float] = field(default_factory=dict)


_ALL_STRATA = ("season", "daynight", "lead", "station")


def stratum_labels(valid_times, station_ids, lead_times, strata=_ALL_STRATA) -> dict[str, list[str]]:
    """Per-case stratum labels of each stratification in ``strata``."""
    labels = {}
    for stratification in strata:
        if stratification == "season":
            labels[stratification] = [season_of(t) for t in valid_times]
        elif stratification == "daynight":
            labels[stratification] = ["day" if is_day(t) else "night" for t in valid_times]
        elif stratification == "lead":
            if lead_times is None:
                raise ValueError("lead stratification requires lead_times on every series")
            labels[stratification] = [str(lt) for lt in lead_times]
        elif stratification == "station":
            if station_ids is None:
                raise ValueError("station stratification requires station_ids on every series")
            labels[stratification] = list(station_ids)
        else:
            raise ValueError(f"unknown stratification {stratification!r}")
    return labels


def stratified_report(
    scores: dict[str, ScoreSeries],
    reference: str,
    strata: tuple[str, ...] = _ALL_STRATA,
) -> VerificationReport:
    """Aggregate aligned per-case scores into stratified means and skill scores.

    All series must cover identical cases (same valid times, and same station
    and lead metadata when present). CRPSS per stratum is computed from the
    stratum-mean CRPS values, 1 - mean/mean_ref.
    """
    if reference not in scores:
        raise ValueError(f"unknown reference strategy {reference!r}")
    ref_series = scores[reference]
    for name, series in scores.items():
        for field_name in ("valid_times", "station_ids", "lead_times"):
            if getattr(series, field_name) != getattr(ref_series, field_name):
                raise ValueError(f"series {name!r} is not aligned with the reference in {field_name}")

    crps = {name: np.asarray(series.crps_values, dtype=float) for name, series in scores.items()}
    labels = stratum_labels(ref_series.valid_times, ref_series.station_ids, ref_series.lead_times, strata)
    return aggregate_report(crps, labels, reference)


def aggregate_report(
    crps: dict[str, np.ndarray], labels: dict[str, list[str]], reference: str
) -> VerificationReport:
    """``stratified_report`` of aligned per-case CRPS arrays, one per strategy;
    ``labels`` maps each stratification to the per-case stratum labels."""

    def mean_of(values) -> float:
        return float(np.mean(values)) if len(values) else math.nan

    ref_overall = mean_of(crps[reference])
    overall: dict[str, StratumStat] = {}
    for name in sorted(crps):
        m = mean_of(crps[name])
        skill = crpss(m, ref_overall) if ref_overall > 0.0 else None
        overall[name] = StratumStat(mean_crps=m, count=len(crps[name]), crpss=skill)

    by_stratum: dict[str, dict[str, dict[str, StratumStat]]] = {}
    for stratification, case_labels in labels.items():
        stratum_keys = sorted(set(case_labels), key=lambda s: (len(s), s) if stratification == "lead" else s)
        label_arr = np.asarray(case_labels)
        ref_means = {k: mean_of(crps[reference][label_arr == k]) for k in stratum_keys}

        table: dict[str, dict[str, StratumStat]] = {}
        for name in sorted(crps):
            values = crps[name]
            per_stratum: dict[str, StratumStat] = {}
            for k in stratum_keys:
                mask = label_arr == k
                m = mean_of(values[mask])
                skill = crpss(m, ref_means[k]) if ref_means[k] > 0.0 else None
                per_stratum[k] = StratumStat(mean_crps=m, count=int(mask.sum()), crpss=skill)
            table[name] = per_stratum
        by_stratum[stratification] = table

    station_skill_fraction: dict[str, float] = {}
    if "station" in by_stratum:
        station_table = by_stratum["station"]
        for name, per_station in sorted(station_table.items()):
            skills = [st.crpss for st in per_station.values() if st.crpss is not None]
            if skills:
                station_skill_fraction[name] = sum(1 for s in skills if s > 0.0) / len(skills)

    return VerificationReport(
        reference=reference,
        overall=overall,
        by_stratum=by_stratum,
        station_skill_fraction=station_skill_fraction,
    )
