"""Compare sets of benchmark records against the bounds in BENCHMARK.json.

    python3 bench/compare.py RUNS              # medians and spreads
    python3 bench/compare.py BASE_RUNS NEW_RUNS

Each argument is a directory of untraced run records as `run.py` writes
them to bench/out/runs/ (or a single record file).  For every workload
and end-to-end metric it prints the median and the spread, the distance
between the first and third quartile as a share of the median.  With two
sets it flags a regression where NEW's median is worse than BASE's by
more than the metric's bound; the exit code is 1 if any is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """{workload: {metric: [values]}} over the untraced records in path."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = defaultdict(lambda: defaultdict(list))
    for f in files:
        rec = json.loads(f.read_text())
        if rec["trace"]:
            continue
        for name, value in rec["metrics"].items():
            out[rec["workload"]][name].append(value)
    return out


def spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def change(metric: dict, base, new) -> float:
    """How much worse NEW's median is than BASE's, as a share of BASE's
    (negative when better)."""
    b, n = statistics.median(base), statistics.median(new)
    worse = n - b if metric["better"] == "lower" else b - n
    return worse / b


def regressions(base: dict, new: dict, spec: dict) -> list:
    """[(workload, metric, change)] for every bound exceeded."""
    out = []
    for workload in sorted(base.keys() & new.keys()):
        for metric in spec["end_to_end"]:
            b = base[workload].get(metric["name"])
            n = new[workload].get(metric["name"])
            if b and n:
                c = change(metric, b, n)
                if c > metric["bound"]:
                    out.append((workload, metric["name"], c))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(a) for a in argv]
    for workload in sorted(sets[-1]):
        for metric in spec["end_to_end"]:
            cells = []
            for s in sets:
                vals = s.get(workload, {}).get(metric["name"], [])
                if vals:
                    cells.append(f"median {statistics.median(vals):10.5g} "
                                 f"spread {spread(vals):6.2%} (n={len(vals)})")
            print(f"{workload:<14} {metric['name']:<12} {metric['unit']:<3} "
                  f"bound {metric['bound']:.0%}  " + "  |  ".join(cells))
    if len(sets) == 1:
        return 0
    found = regressions(sets[0], sets[1], spec)
    for workload, name, c in found:
        print(f"REGRESSION {workload} {name}: {c:+.1%}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
