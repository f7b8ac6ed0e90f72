"""A ``pipeline.CoefficientStore`` record by record: ``store_of`` builds a
store from records (``CoefficientKey`` -> ``emos.FitResult``), and
``records_of`` reads them back in key order, as a dict. For tests that look
up, compare or build records one key at a time; ``table_bytes`` compares
whole stores bit for bit."""

import math
from datetime import date

import numpy as np

from emoskit.emos import EmosCoefficients, FitResult
from emoskit.pipeline import RECORD, CoefficientKey, CoefficientStore, parse_strategy


def store_of(records) -> CoefficientStore:
    """The store of ``records``; each row codes its labels by its own index."""
    rows = np.zeros(len(records), dtype=RECORD)
    pad = (math.nan,) * 2
    for i, (key, record) in enumerate(records.items()):
        c = record.coefficients
        rows[i] = (key.issue_date.toordinal(), i, key.lead_time, i, c.a, (c.b + pad)[:2], c.c, (c.d + pad)[:2],
                   record.n_samples, record.objective, record.converged, record.fallback)
    return CoefficientStore([key.station_id for key in records], [key.strategy for key in records], rows)


def records_of(store: CoefficientStore) -> dict:
    """The records of ``store`` in key order (issue date, station, lead,
    strategy), as a record read from a store file: no iterations."""
    records = {}
    for day, s, lead, k, a, b, c, d, n_samples, objective, converged, fallback in store.rows.tolist():
        strategy = store.strategies[k]
        m = len(parse_strategy(strategy)[1])
        key = CoefficientKey(store.station_ids[s], lead, strategy, date.fromordinal(day))
        records[key] = FitResult(EmosCoefficients(a, b[:m], c, d[:m]), objective, converged, 0, n_samples, fallback)
    return records


def table_bytes(store: CoefficientStore) -> tuple:
    """A store's labels and the bytes of its rows, in key order."""
    return store.station_ids, store.strategies, store.rows.tobytes()
