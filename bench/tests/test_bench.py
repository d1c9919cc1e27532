"""Tests of the benchmark harness itself (not part of the qdl suite).

    python3 -m pytest bench/tests -q
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["workloads"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pass(name, reference, edit=None):
    """A child record whose outputs are the stored reference outputs."""
    inp = workloads.inputs(name, workloads.DEFAULT_SEED)
    outputs = copy.deepcopy(REFERENCE[name])
    if edit:
        edit(outputs)
    results = [(step, out, None) for step, out in outputs.items()]
    return {"steps": [{"step": s, "output": o} for s, o, _ in results],
            "failures": workloads.failures(inp, results, reference),
            "setup_s": 1.0, "run_s": 1.0, "peak_rss_mb": 1.0}


@pytest.mark.parametrize("name", ["exact_ladder", "ffield"])
def test_reference_outputs_pass_every_check(name):
    summary = run.summarize([_pass(name, REFERENCE[name])] * 2, trace=0)
    assert summary["correct"] and summary["failed"] == 0


def test_wrong_reference_value_raises_failed_frac():
    wrong = copy.deepcopy(REFERENCE["exact_ladder"])
    wrong["family_density"]["total"] *= 1.0 + 1e-9
    summary = run.summarize([_pass("exact_ladder", wrong)], trace=0)
    assert summary["failed"] == 1 and summary["failed_frac"] == 0.5
    assert not summary["correct"]


def test_reference_tolerance_is_1e_12_relative():
    ref = {"a": 0.5, "b": [1e6, "x"], "c": 3}
    assert workloads.mismatches({"a": 0.5 + 5e-13, "b": [1e6 * (1 + 5e-13),
                                                         "x"], "c": 3},
                                ref) == []
    assert workloads.mismatches({"a": 0.5 + 2e-12, "b": [1e6, "x"], "c": 3},
                                ref)
    assert workloads.mismatches({"a": 0.5, "b": [1e6, "y"], "c": 3}, ref)


def test_certificates_apply_without_a_reference():
    def bad_trace(out):
        out["cli_ffield"]["certificates"][0]["trace_defect"] = 1.0

    def bad_exit(out):
        out["cli_density"]["exit"] = 1

    assert run.summarize([_pass("ffield", None, edit=bad_trace)],
                         trace=0)["failed"] == 1
    assert run.summarize([_pass("exact_ladder", None, edit=bad_exit)],
                         trace=0)["failed"] == 1


def test_traced_run_must_reproduce_untraced_outputs():
    plain = _pass("ffield", None)
    traced = {**_pass("ffield", None), "layers": {}}
    assert run.summarize([plain, traced], trace=1)["correct"]
    traced["steps"][0]["output"]["value"] += 1e-16
    summary = run.summarize([plain, traced], trace=1)
    assert not summary["correct"] and summary["failed"] == 0


def test_raising_operation_fails_only_itself():
    inp = workloads.inputs("exact_ladder", workloads.DEFAULT_SEED)
    results = [("cli_density", REFERENCE["exact_ladder"]["cli_density"], None),
               ("family_density", None, "ValueError: X too small")]
    bad = workloads.failures(inp, results, None)
    assert bad == {"family_density": ["ValueError: X too small"]}


def test_seed_jitters_inputs_but_default_seed_is_fixed():
    assert workloads.inputs("exact_ladder", workloads.DEFAULT_SEED) == {
        "ladder": [1e4, 3e4, 1e5], "sigma": 1.2, "all_X": 1e5}
    assert workloads.inputs("zeros_cold", workloads.DEFAULT_SEED)["X"] == 30.0
    assert workloads.inputs("ffield",
                            workloads.DEFAULT_SEED)["sample_seed"] == 1
    for seed in range(1, 20):
        inp = workloads.inputs("exact_ladder", seed)
        assert inp == workloads.inputs("exact_ladder", seed)
        for x, base in zip(inp["ladder"] + [inp["all_X"]],
                           [1e4, 3e4, 1e5, 1e5]):
            assert x != base and abs(x / base - 1) <= workloads.JITTER
        assert workloads.inputs("zeros_cold", seed)["X"] > 2 * math.pi * math.e
        assert workloads.inputs("ffield", seed)["sample_seed"] != 1


def _records(workload, run_s):
    return {workload: {"run_s": list(run_s), "setup_s": [2.8] * len(run_s),
                       "peak_rss_mb": [260.0] * len(run_s)}}


def test_slowdown_beyond_the_bound_is_flagged():
    base = _records("exact_ladder", [8.0, 8.1, 7.9, 8.05, 7.95])
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "run_s")
    slow = _records("exact_ladder", [8.0 * (1 + 1.5 * bound)] * 5)
    close = _records("exact_ladder", [8.0 * (1 + 0.5 * bound)] * 5)
    assert compare.regressions(base, slow, SPEC) == [
        ("exact_ladder", "run_s", pytest.approx(1.5 * bound))]
    assert compare.regressions(base, close, SPEC) == []
    assert compare.regressions(slow, base, SPEC) == []


def test_spread_is_interquartile_range_over_median():
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


def test_tracer_wraps_every_binding_and_removes_the_wrappers():
    import qdl
    import qdl.cli
    slots = spans.bindings()
    owners = {(getattr(o, "__name__", ""), a) for o, a, _ in slots}
    # functions imported by name, and methods on their class
    assert {("qdl.cli", "density"), ("qdl.predict", "build_family"),
            ("qdl.predict", "gamma_integral"), ("qdl", "density"),
            ("LFunction", "z_values"), ("FiniteField", "char_sum_block"),
            ("MobiusKernels", "__init__")} <= owners
    original = qdl.build_sieves
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qdl.build_sieves is not original
        assert qdl.predict.build_family is qdl.explicit.build_family
        qdl.build_sieves(100)
        qdl.ffield.get_field(3, 2)
    finally:
        tracer.remove()
    assert spans.unchanged(slots) and qdl.build_sieves is original
    names = [s[0] for s in tracer.spans]
    assert "arith.build_sieves" in names and "ffield.get_field" in names
    limit = [s[4] for s in tracer.spans if s[0] == "arith.build_sieves"]
    assert limit == [{"limit": 100}]


def test_self_time_subtracts_children_and_recursion_counts_once():
    rows = [["cli.main", 0.0, 10.0, -1, None],
            ["explicit.density", 1.0, 9.0, 0, None],
            ["explicit.density", 2.0, 5.0, 1, None],
            ["explicit.prime_sums", 5.0, 8.0, 1, {"primes": 3, "pairs": 30}]]
    m = spans.layer_metrics(rows, (0.0, 10.0))
    assert m["cli.main.self_s"] == 2.0
    assert m["explicit.density.self_s"] == 2.0 + 3.0
    assert m["explicit.prime_sums.s"] == 3.0
    assert m["explicit.char_prime_pairs"] == 30
    assert m["explicit.pairs_per_s"] == 10.0
    assert m["trace.coverage"] == 1.0
    assert m["explicit.prime_sums.share"] == 0.3
    names = {x["name"] for x in SPEC["per_layer"]}
    assert names == set(m) | {"trace.overhead_s"}


def test_run_fails_without_a_result_where_qdl_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
