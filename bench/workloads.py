"""The four fixed workloads: inputs from a seed, timed steps, checks.

A workload pass is a list of steps.  Each step is one call a user makes
(a `qdl` CLI command run in-process through `qdl.cli.main`, or a public
API call) and returns a JSON-serialisable output.  After the pass every
output is checked twice:

* reference-free certificates (CLI exit codes, zero-route agreement with
  the explicit formula, function-field defects), on every seed;
* against `reference.json` to 1e-12 relative (floored at 1), on the
  default seed only, since other seeds move the inputs.

Why these workloads:

* exact_ladder - the prime block (`explicit.prime_sums`) and `predict.J_X`
  dominate; both families, support 1.2 past the phase transition at 1.
* zeros_cold - the Z grid, brentq refinement, the argument-principle
  count and cache writes, into an empty cache; almost no prime block.
* zeros_cached - the same family read back from a filled cache at two
  heights: only `load_zeros` and the count revalidation run.
* ffield - bulk character sums beside per-curve validation and
  field-table construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

NAMES = ("exact_ladder", "zeros_cold", "zeros_cached", "ffield")
DEFAULT_SEED = 0
JITTER = 0.01          # other seeds scale every X by up to +/- 1 %
REL_TOL = 1e-12


def _jitter(rng: random.Random, x: float) -> float:
    return x * (1.0 + rng.uniform(-JITTER, JITTER))


def inputs(workload: str, seed: int) -> dict:
    """The generated inputs; the default seed gives the fixed ones."""
    rng = random.Random(seed)
    jit = (lambda x: x) if seed == DEFAULT_SEED else (
        lambda x: _jitter(rng, x))
    if workload == "exact_ladder":
        return {"ladder": [jit(x) for x in (1e4, 3e4, 1e5)], "sigma": 1.2,
                "all_X": jit(1e5)}
    if workload in ("zeros_cold", "zeros_cached"):
        return {"X": jit(30.0), "sigma": 0.8, "T": 40.0,
                "T_read": [40.0, 30.0]}
    if workload == "ffield":
        # the CLI fixes validate_family's sample seed at 1; other seeds
        # re-draw the sample
        return {"q": 3, "n": 11, "sigma": 1.2, "cli_q": 5, "cli_n": [5, 7],
                "sample_seed": 1 if seed == DEFAULT_SEED
                else rng.randrange(2, 2 ** 31)}
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- steps

def _cli(argv) -> dict:
    import qdl.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qdl.cli.main(argv)
    return {"exit": code, "rows": json.loads(out.getvalue())["rows"]}


def _zero_family(inp):
    import qdl
    return qdl.build_family(qdl.F_STAR, inp["X"], qdl.gaussian_weight(),
                            qdl.default_tables())


def _empirical(inp, T, cache_dir) -> dict:
    import qdl
    spec = _zero_family(inp)
    value, bound = qdl.empirical_density(spec, qdl.fejer_squared(inp["sigma"]),
                                         T=T, cache_dir=cache_dir)
    return {"value": value, "bound": bound,
            "characters": int(spec.d_values.size)}


def _family_density(inp) -> dict:
    import qdl
    spec = qdl.build_family(qdl.F_ALL, inp["all_X"], qdl.gaussian_weight(),
                            qdl.default_tables())
    br = qdl.density(spec, qdl.fejer_squared(inp["sigma"]))
    return {k: getattr(br, k) for k in (
        "L_value", "total_weight", "term_log_conductor",
        "term_gamma_constant", "term_S_odd", "term_S_even",
        "term_gamma_integral", "term_pole", "total")}


def _ffield_cli(inp) -> dict:
    import qdl.cli
    validate = qdl.cli.validate_family
    certs = []

    def seeded(q, n, sample=200, seed=1):
        # the CLI passes no seed; the workload's sample seed replaces it
        cert = validate(q, n, sample=sample, seed=inp["sample_seed"])
        certs.append(cert)
        return cert

    qdl.cli.validate_family = seeded
    try:
        out = _cli(["ffield", "--q", str(inp["cli_q"]), "--n",
                    ",".join(map(str, inp["cli_n"])), "--format", "json"])
    finally:
        qdl.cli.validate_family = validate
    out["certificates"] = certs
    return out


def steps(workload: str, inp: dict, cache_dir: str) -> list:
    """[(step name, zero-argument callable)] of one pass."""
    import qdl
    if workload == "exact_ladder":
        argv = ["density", "--X", ",".join(repr(x) for x in inp["ladder"]),
                "--sigma", repr(inp["sigma"]), "--format", "json"]
        return [("cli_density", lambda: _cli(argv)),
                ("family_density", lambda: _family_density(inp))]
    if workload == "zeros_cold":
        return [("empirical_T40",
                 lambda: _empirical(inp, inp["T"], cache_dir))]
    if workload == "zeros_cached":
        return [(f"cached_T{T:g}",
                 lambda T=T: _empirical(inp, T, cache_dir))
                for T in inp["T_read"]]
    if workload == "ffield":
        return [("ff_density", lambda: {"value": qdl.ff_one_level_density(
                    inp["q"], inp["n"], qdl.fejer_squared(inp["sigma"]))}),
                ("cli_ffield", lambda: _ffield_cli(inp))]
    raise ValueError(f"unknown workload {workload!r}")


def fill_cache(inp: dict, cache_dir: str) -> None:
    """Compute and store the zero sets the zeros_cached pass reads."""
    _empirical(inp, inp["T"], cache_dir)


# ------------------------------------------------------------- checks

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _certify_cli_density(inp, out) -> list:
    bad = []
    if out["exit"] != 0:
        bad.append(f"qdl density exit code {out['exit']}")
    if len(out["rows"]) != len(inp["ladder"]):
        bad.append(f"{len(out['rows'])} rows for {len(inp['ladder'])} X")
    for X, row in zip(inp["ladder"], out["rows"]):
        if row.get("X") != X or not all(_finite(v) for v in row.values()):
            bad.append(f"row for X={X:g} is not a complete numeric row")
            continue
        # the exact T3_5 right-hand side agrees with the family density
        # up to the theorem's X^eta error term
        gap = abs(row["family_density"] - row["exact_rhs"])
        if not gap <= row["X_pow_eta"]:
            bad.append(f"X={X:g}: |density - T3_5| = {gap:.3g} "
                       f"> X^eta = {row['X_pow_eta']:.3g}")
    return bad


def _certify_zero_route(inp, out) -> list:
    # empirical_density refuses incomplete zero sets, so a returned value
    # already carries the completeness certificate
    import qdl
    exact = qdl.density(_zero_family(inp), qdl.fejer_squared(inp["sigma"]))
    gap = abs(out["value"] - exact.total)
    if not (_finite(out["value"]) and gap < out["bound"] + 1e-3):
        return [f"|zeros - explicit| = {gap:.3g} exceeds the certified "
                f"bound {out['bound']:.3g} + 1e-3"]
    return []


def _certify_ffield_cli(inp, out) -> list:
    bad = []
    if out["exit"] != 0:
        bad.append(f"qdl ffield exit code {out['exit']}")
    if len(out["rows"]) != len(inp["cli_n"]):
        bad.append(f"{len(out['rows'])} rows for n = {inp['cli_n']}")
    if len(out["certificates"]) != len(inp["cli_n"]):
        bad.append("validate_family did not run once per degree")
    for row in out["rows"]:
        if not all(_finite(v) for v in row.values()):
            bad.append(f"n={row.get('n')}: non-numeric row")
        elif row["fe_defect"] != 0 or not row["weil_defect"] < 1e-8:
            bad.append(f"n={row['n']}: fe_defect {row['fe_defect']}, "
                       f"weil_defect {row['weil_defect']}")
    for cert in out["certificates"]:
        if (cert["functional_equation_defect"] != 0
                or cert["trace_defect"] != 0
                or not cert["weil_defect"] < 1e-8):
            bad.append(f"validate_family certificate failed: {cert}")
    return bad


def certify(step: str, inp: dict, out: dict) -> list:
    """Reference-free checks of one step's output; [] when it passes."""
    if step == "cli_density":
        return _certify_cli_density(inp, out)
    if step == "family_density":
        return [] if _finite(out["total"]) else ["density is not finite"]
    if step.startswith(("empirical_", "cached_")):
        return _certify_zero_route(inp, out)
    if step == "ff_density":
        return [] if _finite(out["value"]) else ["ffield density not finite"]
    if step == "cli_ffield":
        return _certify_ffield_cli(inp, out)
    raise ValueError(f"no certificate for step {step!r}")


def mismatches(out, ref, path="") -> list:
    """Where `out` differs from `ref`: numbers beyond REL_TOL * max(|ref|, 1),
    anything else unequal.  Keys absent from `ref` are not compared."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        return [m for k, v in ref.items()
                for m in (mismatches(out[k], v, f"{path}.{k}") if k in out
                          else [f"{path}.{k}: missing"])]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected {len(ref)} items"]
        return [m for i, (o, r) in enumerate(zip(out, ref))
                for m in mismatches(o, r, f"{path}[{i}]")]
    if _finite(ref) and _finite(out):
        if abs(out - ref) <= REL_TOL * max(abs(ref), 1.0):
            return []
        return [f"{path}: {out!r} != reference {ref!r}"]
    return [] if out == ref else [f"{path}: {out!r} != reference {ref!r}"]


def failures(inp: dict, results: list, reference) -> dict:
    """{step: [reasons]} for every failed step of one pass.

    `results` holds (step, output, error) triples; a step that raised
    fails with its error.  `reference` maps step -> stored output, or is
    None when only the certificates apply.
    """
    bad = {}
    for step, out, error in results:
        if error is not None:
            bad[step] = [error]
            continue
        try:
            reasons = certify(step, inp, out)
        except Exception as exc:  # a check that cannot run is a failure
            reasons = [f"certificate raised {type(exc).__name__}: {exc}"]
        if reference is not None:
            reasons += mismatches(out, reference[step], step)
        if reasons:
            bad[step] = reasons
    return bad
