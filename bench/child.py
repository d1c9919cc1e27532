"""One workload pass in a fresh process; `run.py` starts one per sample.

    python3 bench/child.py --workload NAME --seed N --trace 0|1
                           --cache-dir DIR --out FILE [--fill]
                           [--no-reference]

Times the set-up (`import qdl`, `default_tables()`, `default_constants()`,
`get_mobius_kernels(gaussian_weight())`) and then one pass of the
workload, checks the outputs, and writes everything to FILE as JSON.
With --fill it only fills the zero cache for zeros_cached.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"      # before anything imports numpy

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _import_qdl():
    sys.path.insert(0, str(ROOT / "src"))
    import qdl
    import qdl.cli
    if Path(qdl.__file__).resolve().parent != ROOT / "src" / "qdl":
        raise SystemExit(f"imported qdl from {qdl.__file__}, not from "
                         f"{ROOT / 'src'}")
    return qdl


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--fill", action="store_true")
    ap.add_argument("--no-reference", action="store_true")
    args = ap.parse_args(argv)
    inp = workloads.inputs(args.workload, args.seed)

    t0 = time.perf_counter()
    qdl = _import_qdl()
    if args.fill:
        workloads.fill_cache(inp, args.cache_dir)
        return 0
    slots = spans.bindings()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    qdl.default_tables()
    qdl.default_constants()
    qdl.get_mobius_kernels(qdl.gaussian_weight())
    setup_s = time.perf_counter() - t0

    results = []
    pass_t0 = time.perf_counter()
    for step, fn in workloads.steps(args.workload, inp, args.cache_dir):
        try:
            results.append((step, fn(), None))
        except Exception as exc:  # a failed operation must not stop the pass
            results.append((step, None, f"{type(exc).__name__}: {exc}"))
    pass_t1 = time.perf_counter()
    if tracer:
        tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = None
    if (args.seed == workloads.DEFAULT_SEED and not args.no_reference
            and REFERENCE.exists()):
        reference = json.loads(REFERENCE.read_text())["workloads"][
            args.workload]
    bad = workloads.failures(inp, results, reference)
    if not spans.unchanged(slots):
        bad["restore"] = ["a traced qdl attribute was not restored"]

    import numpy
    import scipy
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": inp,
        "setup_s": setup_s, "run_s": pass_t1 - pass_t0,
        "peak_rss_mb": peak_rss_mb,
        "steps": [{"step": s, "output": o, "error": e}
                  for s, o, e in results],
        "failures": bad,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     **{v: os.environ[v] for v in THREAD_VARS}},
    }
    if tracer:
        record["layers"] = spans.layer_metrics(tracer.spans,
                                               (pass_t0, pass_t1))
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        record["spans"] = {
            "names": names,
            "fields": ["name", "start", "end", "parent", "counts"],
            "rows": [[index[n], a, b, p, c] for n, a, b, p, c
                     in tracer.spans],
            "pass": [pass_t0, pass_t1]}
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
