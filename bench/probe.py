"""Fixed reference work that measures how fast the machine runs right now.

``run.py`` times this script as a child process between pipeline passes. It
does what a stage process does, on fixed inputs and without emoskit: start
the interpreter, import numpy and scipy, run small L-BFGS-B fits and parse
CSV rows. Its cost never changes with the program under test, so the ratio
of its time to ``PROBE_REFERENCE_S`` tracks slowdowns that come from outside
the program.
"""

import csv
import io

import numpy as np
from scipy.optimize import minimize


def objective(p, x, y):
    r = p[0] + p[1] * x - y
    return float(r @ r), np.array([2.0 * r.sum(), 2.0 * (r * x).sum()])


def main() -> None:
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=45)
        y = 1.0 + 2.0 * x + rng.normal(size=45)
        minimize(objective, np.zeros(2), args=(x, y), jac=True, method="L-BFGS-B")
    text = "\n".join(f"S{i % 7},2017-01-{1 + i % 28:02d}T00:00:00Z,{i % 48},{i % 21},{i * 0.37:.9g}" for i in range(40000))
    rows = sum(1 for _ in csv.reader(io.StringIO(text)))
    if rows != 40000:
        raise SystemExit(f"probe parsed {rows} rows, expected 40000")


if __name__ == "__main__":
    main()
