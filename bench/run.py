"""qdl benchmark: fixed workloads through the public API and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --workload all --write-reference

Run from anywhere; the package is imported from `src/` of the checkout
that holds this file.  Workloads (see `workloads.py` for the inputs and
why each was chosen): exact_ladder, zeros_cold, zeros_cached, ffield.

Every pass runs in a fresh single-threaded process (`child.py`; BLAS and
OpenMP pinned to one thread, qdl's `threads` knob never passed), so each
pass pays exactly the cold state a `qdl` command pays.  Passes run one
after another until --seconds have gone by, at least two of them.

--trace 0 reports the end-to-end metrics, medians over the passes:
  setup_s      import qdl, default_tables(), default_constants() and
               get_mobius_kernels(gaussian_weight()) in a fresh process
  run_s        wall time of one workload pass after the set-up
  peak_rss_mb  peak resident memory of the pass's process
--trace 1 runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (`spans.py`), the tracing overhead,
and fails the run unless both passes give bit-identical outputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; an operation (one CLI command or
API call) fails if it raises or misses a certificate or, at the default
seed, the stored reference.  Each run's record - metrics, per-pass
figures, failures, git SHA, source hash, Python/numpy/scipy versions and
nproc - is written under bench/out/runs/, the spans of a traced run to
bench/out/trace-<workload>.json.  `compare.py` compares two sets of
records against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 2
BUDGET_S = 165.0        # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  check=False)
            sha = proc.stdout.strip() or None
        except OSError:     # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qdl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0))}


def _child(workload, seed, trace, cache_dir, deadline, *extra) -> dict:
    """Run child.py once and return its record (None for --fill)."""
    out = Path(cache_dir).parent / f"child-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--cache-dir", str(cache_dir), "--out", str(out), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before a pass could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    if "--fill" in extra:
        return None
    record = json.loads(out.read_text())
    out.unlink()
    return record


def _outputs(record) -> str:
    return json.dumps([s["output"] for s in record["steps"]])


def run_workload(name, seed, seconds, trace, deadline,
                 reference=True) -> dict:
    """All passes of one run; returns the aggregated record."""
    extra = () if reference else ("--no-reference",)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cache = Path(tmp) / "zeros"
        if name == "zeros_cached":   # filled outside the timed passes
            _child(name, seed, 0, cache, deadline, "--fill")

        def one(i, traced):
            fresh = cache if name == "zeros_cached" else Path(tmp) / f"z{i}"
            return _child(name, seed, traced, fresh, deadline, *extra)

        kids = []
        start = time.monotonic()
        if trace:
            kids = [one(0, 0), one(1, 1)]
        else:
            while len(kids) < MIN_PASSES or time.monotonic() - start < seconds:
                longest = max((k["setup_s"] + k["run_s"] for k in kids),
                              default=0.0)
                if kids and time.monotonic() + 1.5 * longest > deadline:
                    break
                kids.append(one(len(kids), 0))

    return {"workload": name, "seed": seed, "trace": trace,
            **summarize(kids, trace),
            "passes": [{k: c[k] for k in ("setup_s", "run_s", "peak_rss_mb",
                                          "failures")} for c in kids],
            "inputs": kids[0]["inputs"], "versions": kids[0]["versions"],
            "outputs": {s["step"]: s["output"] for s in kids[0]["steps"]},
            "spans": kids[-1].get("spans")}


def summarize(kids, trace) -> dict:
    """Operation counts, failures and metrics over the passes of a run.

    Every step of every pass is one attempted operation; a step listed in
    a pass's failures failed.  The harness's own checks (attributes
    restored, traced outputs identical) only clear `correct`.
    """
    attempted = sum(len(k["steps"]) for k in kids)
    failed = sum(len([s for s in k["failures"] if s != "restore"])
                 for k in kids)
    problems = [f"pass {i}: {s}: {r}" for i, k in enumerate(kids)
                for s, rs in k["failures"].items() for r in rs]
    if trace:
        plain, traced = kids
        if _outputs(plain) != _outputs(traced):
            problems.append("traced outputs differ from untraced outputs")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    else:
        metrics = {m: statistics.median(k[m] for k in kids)
                   for m in ("setup_s", "run_s", "peak_rss_mb")}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "failed_frac": failed / attempted,
            "problems": problems, "metrics": metrics}


def _save(result, env) -> None:
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans")
    if spans is not None:
        (OUT / f"trace-{result['workload']}.json").write_text(
            json.dumps(spans))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs / (f"{result['workload']}-s{result['seed']}-"
                   f"t{result['trace']}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps({**result, "environment": env}, indent=1))


def _report(result, spec) -> dict:
    """Print one workload's metrics; return them in the result format."""
    out = {}
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']}: attempted {result['attempted']}, "
          f"failed {result['failed']} "
          f"(failed_frac {result['failed_frac']:.4g}), "
          f"correct {result['correct']}")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    for m in spec["per_layer" if result["trace"] else "end_to_end"]:
        value = result["metrics"][m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"   {m['name']:<36} {value:>16.6g} {m['unit']}")
    return out


def main(argv=None) -> int:
    spec = _spec()
    ap = argparse.ArgumentParser(description="qdl benchmark")
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default seed's outputs as reference")
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the
    # running pass, and the temporary directories are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qdl" / "__init__.py").is_file():
        print(f"bench: no qdl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "qdl"), quiet=1)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if args.write_reference:
        return _write_reference(names)

    env = _environment()
    metrics, correct, attempted, failed = {}, True, 0, 0
    try:
        for name in names:
            deadline = time.monotonic() + BUDGET_S
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  deadline)
            env.update(result.pop("versions"))
            print(f"env: {json.dumps(env)}")
            _save(result, env)
            shown = _report(result, spec)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in shown.items()})
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _write_reference(names) -> int:
    path = BENCH / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {
        "seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in names:
        result = run_workload(name, workloads.DEFAULT_SEED, 0, 0,
                              time.monotonic() + BUDGET_S, reference=False)
        if not result["correct"]:
            print("\n".join(result["problems"]), file=sys.stderr)
            return 1
        ref["workloads"][name] = result["outputs"]
        print(f"{name}: reference stored")
    path.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
