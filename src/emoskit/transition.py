"""Seamless blending from the two-model combination to the surviving model.

At the shorter model's horizon the combined product must hand over to the
single-model stream. Two smoothing schemes are supported:

* t1 tapers the shorter model's influence before the horizon by imposing
  decaying upper bounds on its coefficients in the refits at horizon-2,
  horizon-1 and the horizon itself, anchored at the fit three hours earlier.
* t2 carries the combined-minus-single difference of mu and sigma at the
  horizon into the following three hours with decaying weights.

Both schemes use the weights 0.75, 0.5, 0.25. ``assemble_seam`` builds the
seam product of either scheme, or of none, from the prediction table;
``seam_diagnostics`` measures a product's steps and CRPS lead by lead from
(case, lead) arrays of its mu, sigma and observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import PredictionTable
from .emos import EmosCoefficients, FitOptions
from .scoring import crps_normal_unit

__all__ = [
    "DEFAULT_TRANSITION_WEIGHTS",
    "TransitionSpec",
    "SeamDiagnostics",
    "transition1_bounds",
    "assemble_seam",
    "seam_diagnostics",
]

DEFAULT_TRANSITION_WEIGHTS = (0.75, 0.5, 0.25)

SCHEMES = ("none", "t1", "t2")


@dataclass(frozen=True)
class TransitionSpec:
    horizon: int = 120
    scheme: str = "none"
    weights: tuple[float, ...] = DEFAULT_TRANSITION_WEIGHTS

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.weights:
            raise ValueError("weights must be non-empty")
        if any(not 0.0 < w < 1.0 for w in self.weights):
            raise ValueError("weights must lie in (0, 1)")
        for a, b in zip(self.weights, self.weights[1:]):
            if b >= a:
                raise ValueError("weights must be strictly decreasing")

    @property
    def anchor_lead(self) -> int:
        """Lead whose coefficients anchor the t1 bounds (horizon - 3)."""
        return self.horizon - len(self.weights)

    @property
    def taper_leads(self) -> tuple[int, ...]:
        """Leads refit with bounds under t1: horizon-2 .. horizon."""
        return tuple(self.anchor_lead + 1 + k for k in range(len(self.weights)))

    @property
    def blend_leads(self) -> tuple[int, ...]:
        """Leads blended under t2: horizon+1 .. horizon+3."""
        return tuple(self.horizon + 1 + k for k in range(len(self.weights)))


def transition1_bounds(
    coef_at_anchor: EmosCoefficients, spec: TransitionSpec
) -> dict[int, tuple[float, float]]:
    """Upper bounds (b1_max, d1_max) per taper lead, from the anchor-lead fit
    of the combined model (predictor 1 is the shorter model).

    At taper lead t with weight w(t), the refit must satisfy
    b1(t) <= b1(anchor) * w(t) and d1(t) <= d1(anchor) * w(t).
    """
    if coef_at_anchor is None:
        raise ValueError(f"no coefficients available at the anchor lead ({spec.anchor_lead} h)")
    return {
        lead: (coef_at_anchor.b[0] * w, coef_at_anchor.d[0] * w)
        for lead, w in zip(spec.taper_leads, spec.weights)
    }


def assemble_seam(
    predictions: PredictionTable,
    spec: TransitionSpec,
    combined: str,
    continuing: str,
    label: str,
    min_sigma: float = FitOptions.min_sigma,
) -> PredictionTable:
    """The seam product of every (station, init time) case of
    ``predictions``, under strategy ``label``: the ``combined`` strategy up to
    the horizon, the ``continuing`` one beyond.

    Under scheme t2 the combined-minus-continuing difference of mu and sigma
    at the horizon carries into the blend leads: the continuing prediction at
    horizon+k gains w_k times it (sigma floored at ``min_sigma``). Schemes
    none and t1 assemble alike: t1 acts in training. The first case, in
    order, without ``continuing`` predictions, or (t2) without the
    ``combined`` prediction at the horizon or a ``continuing`` one at the
    horizon and blend leads, raises ValueError.
    """
    p = predictions
    code = {s: i for i, s in enumerate(p.strategies)}
    of_combined, of_continuing = p.strategy == code.get(combined, -1), p.strategy == code.get(continuing, -1)
    new = np.ones(len(p), dtype=bool)  # the first row of a case: the rows are in key order
    new[1:] = (p.station[1:] != p.station[:-1]) | (p.init[1:] != p.init[:-1])
    first, case = np.flatnonzero(new), np.cumsum(new) - 1

    def row_of(rows):  # each case's row among ``rows`` (a mask), -1 for none
        out = np.full(len(first), -1)
        out[case[rows]] = np.flatnonzero(rows)
        return out

    failing = [row_of(of_continuing) < 0]
    if spec.scheme == "t2":
        at_horizon = row_of(of_combined & (p.lead == spec.horizon))
        needed = {lead: row_of(of_continuing & (p.lead == lead)) for lead in (spec.horizon, *spec.blend_leads)}
        failing += [at_horizon < 0, np.logical_or.reduce([row < 0 for row in needed.values()])]
    cases = np.flatnonzero(np.logical_or.reduce(failing))
    if cases.size:
        c, row = cases[0], first[cases[0]]
        where = f"{p.station_ids[p.station[row]]} {p.init_times[p.init[row]]}"
        if failing[0][c]:
            raise ValueError(f"no {continuing!r} predictions for {where}")
        if failing[1][c]:
            raise ValueError(f"no {combined!r} prediction at the horizon for {where}")
        missing = [lead for lead, rows in needed.items() if rows[c] < 0]
        raise ValueError(f"no {continuing!r} prediction at leads {missing} for {where}")

    kept = of_combined & (p.lead <= spec.horizon) | of_continuing & (p.lead > spec.horizon)
    mu, sigma = p.mu.copy(), p.sigma.copy()
    if spec.scheme == "t2":
        base = needed[spec.horizon]
        delta_mu, delta_sigma = p.mu[at_horizon] - p.mu[base], p.sigma[at_horizon] - p.sigma[base]
        for lead, w in zip(spec.blend_leads, spec.weights):
            rows = np.flatnonzero(of_continuing & (p.lead == lead))
            mu[rows] = p.mu[rows] + w * delta_mu[case[rows]]
            sigma[rows] = np.maximum(p.sigma[rows] + w * delta_sigma[case[rows]], min_sigma)
    return PredictionTable(p.station_ids, p.init_times, (label,), p.station[kept], p.init[kept], p.lead[kept],
                           np.zeros(int(kept.sum()), dtype=np.int64), mu[kept], sigma[kept])


@dataclass(frozen=True)
class SeamDiagnostics:
    """Smoothness and score diagnostics over a window of consecutive leads.

    ``mu_steps``/``sigma_steps`` hold, per lead, the mean absolute change
    against the previous lead (so the first window lead has no entry);
    ``mean_crps`` holds the mean score per lead.
    """

    leads: tuple[int, ...]
    mu_steps: dict[int, float] = field(default_factory=dict)
    sigma_steps: dict[int, float] = field(default_factory=dict)
    mean_crps: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for table in (self.mu_steps, self.sigma_steps, self.mean_crps):
            for lead, v in table.items():
                if v < 0.0:
                    raise ValueError(f"diagnostic at lead {lead} must be >= 0, got {v}")


def seam_diagnostics(mu, sigma, y, leads: list[int]) -> SeamDiagnostics:
    """Mean absolute mu/sigma step versus the previous lead plus mean CRPS.

    ``mu``, ``sigma`` and ``y`` are (case, lead) arrays of the predictions
    and observations of cases that cover every lead of the hourly window
    ``leads``, column j at ``leads[j]``, so that the seam statistics do not
    mix different case sets. Each mean runs over the cases in row order.
    """
    for a, b in zip(leads, leads[1:]):
        if b - a != 1:
            raise ValueError(f"seam window must be hourly and contiguous, got gap {a}..{b}")
    if not np.size(mu):
        raise ValueError("no cases supplied")
    # One contiguous row per lead: each mean then sums its cases as over a vector of them.
    mu, sigma, y = (np.ascontiguousarray(np.asarray(a, dtype=float).T) for a in (mu, sigma, y))
    if mu.ndim != 2 or mu.shape != sigma.shape or mu.shape != y.shape or len(mu) != len(leads):
        raise ValueError(f"mu, sigma and y must be (case, lead) arrays with {len(leads)} leads")
    crps = (sigma * crps_normal_unit((y - mu) / sigma)).mean(axis=1)
    mu_steps, sigma_steps = (dict(zip(leads[1:], np.abs(a[1:] - a[:-1]).mean(axis=1).tolist())) for a in (mu, sigma))
    return SeamDiagnostics(tuple(leads), mu_steps, sigma_steps, dict(zip(leads, crps.tolist())))
