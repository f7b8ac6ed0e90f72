"""The rolling train as it ran before per-slot state: every record is kept in
a dict by (station, lead, strategy, day), and each warm start, stale reuse
and K = 2 seed is found by probing the days before its date one at a time.
A test oracle for ``pipeline.train``, which must give the same store bit for
bit."""

import math
from datetime import date

import numpy as np

from emoskit.emos import EmosCoefficients, FitOptions, FitResult, _coef_from, _theta_from, fit_batch, identity
from emoskit.pipeline import (
    REUSE_WINDOW_DAYS,
    CoefficientKey,
    RollingWindowSpec,
    parse_strategy,
    select_window,
    single_strategy,
)
from emoskit.transition import transition1_bounds

from store_records import store_of

WARM_DAYS = 5  # a fit warm-starts from its slot's latest record of this many days before


def latest(records, slot, day, days, fits=False):
    """The record of ``slot`` at its latest day in [day - days, day - 1],
    among fits only (not fallbacks) if ``fits``; None for none."""
    for back in range(1, days + 1):
        record = records.get((*slot, day - back))
        if record is not None and not (fits and record.fallback):
            return record
    return None


def theta(coefficients):
    c = coefficients
    return _theta_from(np.array([c.a]), np.array([c.b]), np.array([c.c]), np.array([c.d]))[0]


def wave(archive, tasks, records, spec, options):
    """The records of one wave of (slot, issue date, (b1_max, d1_max)) tasks,
    fitted in one batched solve per K in increasing K, reading ``records``
    of the waves before and this wave's single-model fits."""
    out, fitting = {}, {}
    for slot, issue, cap in tasks:
        sid, lead, strategy = slot
        models = parse_strategy(strategy)[1]
        table = archive.get((sid, lead))
        window = select_window(table, issue, spec) if table is not None else None
        n = 0 if window is None else len(window)
        key = (*slot, issue.toordinal())
        if n < spec.min_samples or not set(models) <= set(window.models):
            stale = latest(records, slot, key[3], REUSE_WINDOW_DAYS, fits=True)
            if stale is None:
                out[key] = FitResult(identity(len(models)), math.nan, True, 0, n, True)
            else:
                out[key] = FitResult(stale.coefficients, stale.objective, stale.converged, 0, n, True)
        else:
            fitting.setdefault(len(models), []).append((key, window, models, cap))
    for k in sorted(fitting):
        keys, windows, models, caps = zip(*fitting[k])
        start = np.full((len(keys), 2 * k + 2), math.nan)
        seeds = np.full((len(keys), k, 4), math.nan), np.zeros((len(keys), k))
        for i, (sid, lead, strategy, day) in enumerate(keys):
            warm = latest(records, (sid, lead, strategy), day, WARM_DAYS)
            if warm is not None:
                start[i] = theta(warm.coefficients)
            if k > 1:
                singles = [(sid, lead, single_strategy(m), day) for m in models[i]]
                found = [out.get(s, records.get(s)) for s in singles]
                if all(r is not None and not r.fallback for r in found):
                    for j, r in enumerate(found):
                        seeds[0][i, j], seeds[1][i, j] = theta(r.coefficients), r.objective
        caps = np.array(caps)
        fit = fit_batch(list(windows), list(models), options, start, seeds if k > 1 else None, caps)
        a, b, c, d = _coef_from(fit.theta, caps[:, 1])
        for i, key in enumerate(keys):
            coef = EmosCoefficients(a[i].item(), b[i].tolist(), c[i].item(), d[i].tolist())
            out[key] = FitResult(coef, fit.f[i].item(), bool(fit.converged[i]), 0, len(windows[i]), False)
    return out


def rolling_train(archive, issue_dates, slots, spec=RollingWindowSpec(), options=FitOptions(), taper=None):
    """``pipeline.train`` by records: each date's wave fits its slots, less
    the t1 taper slots, and the previous date's taper slots under the bounds
    of that date's anchor fit; the last date's taper slots go alone at the
    end."""
    records, refits = {}, []
    tapered = [] if taper is None else [s for s in slots if s[2] == taper[1] and s[1] in taper[0].taper_leads]
    plain = [s for s in slots if s not in tapered]
    for issue in issue_dates:
        tasks = [(s, issue, (math.inf, math.inf)) for s in plain] + refits
        records.update(wave(archive, tasks, records, spec, options))
        refits = []
        for sid, lead, strategy in tapered:
            anchor = records[(sid, taper[0].anchor_lead, taper[1], issue.toordinal())]
            refits.append(((sid, lead, strategy), issue, transition1_bounds(anchor.coefficients, taper[0])[lead]))
    if refits:
        records.update(wave(archive, refits, records, spec, options))
    return store_of({CoefficientKey(sid, lead, strategy, date.fromordinal(day)): record
                     for (sid, lead, strategy, day), record in records.items()})
