"""Outside-in span recording for the qdl package.

`Tracer.install()` replaces every public function of every loaded qdl
module, on every module attribute bound to it, and the public methods
(plus `__init__`) of `LFunction`, `FiniteField` and `MobiusKernels`, with
wrappers that append one span (name, start, end, parent) per call to an
in-memory list.  `Tracer.remove()` puts the originals back.  Nothing in
`src/qdl` is edited, and when no tracer is installed every attribute is
the original object, so an untraced run pays nothing.

`layer_metrics()` turns the span list into the per-layer metrics named in
BENCHMARK.json.  Some spans carry work counts taken from the call's
arguments and result (`PROBES`); they are computed after the span closes.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import math
import sys
import time
from collections import defaultdict

TRACED_CLASSES = {
    "zeros": ("LFunction",),
    "ffield": ("FiniteField",),
    "weightfn": ("MobiusKernels",),
}

# span names that differ from the method name
_METHOD_NAMES = {
    ("LFunction", "__init__"): "lfunction",
    ("LFunction", "z"): "z_point",
    ("FiniteField", "__init__"): "finite_field",
    ("MobiusKernels", "__init__"): "mobius_kernels",
}

_TWO_PI_E = 2.0 * math.pi * math.e


# ------------------------------------------------------------ probes

def _prime_block_work(args, result):
    # prime_sums' per-prime closure cannot be wrapped, so its work is
    # counted from the inputs: one pass over the family per prime
    # p <= exp(sigma L), the cut the explicit formula imposes.
    spec, phi = args["spec"], args["phi"]
    cap = phi.sigma * math.log(spec.X / _TWO_PI_E)
    pmax = args.get("p_cutoff") or (math.exp(cap) if cap >= math.log(2.0)
                                     else 0.0)
    primes = bisect.bisect_right(spec.tables.primes, pmax)
    return {"primes": primes, "pairs": primes * int(spec.d_values.size)}


def _z_grid_work(args, result):
    lf = args["self"]
    points = len(args["ts"])
    return {"points": points,
            "terms": points * getattr(lf, "N", 0) * int(lf.q)}


PROBES = {
    "arith.build_sieves": lambda a, r: {"limit": int(a["limit"])},
    "explicit.build_family": lambda a, r: {"family": int(r.d_values.size)},
    "explicit.prime_sums": _prime_block_work,
    "zeros.z_values": _z_grid_work,
    "zeros.find_zeros": lambda a, r: {"zeros": int(r.gammas.size)},
    "zeros.load_zeros": lambda a, r: {
        "hit": int(r is not None and bool(r.complete))},
    "ffield.squarefree_codes": lambda a, r: {"curves": int(r.size)},
    "ffield.char_sum_block": lambda a, r: {
        "points": int(a["coeffs"].shape[0]) * int(a["self"].order)},
}


# --------------------------------------------------------- bindings

def _qdl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qdl" or name.startswith("qdl."))]


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def traced_functions():
    """{id(original): (span name, original)} for every function traced."""
    out = {}
    for mod in _qdl_modules():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[id(obj)] = (f"{_short(mod.__name__)}.{attr}", obj)
        for cls_name in TRACED_CLASSES.get(_short(mod.__name__), ()):
            cls = getattr(mod, cls_name)
            for attr, obj in vars(cls).items():
                if inspect.isfunction(obj) and (attr == "__init__"
                                                or not attr.startswith("_")):
                    span = _METHOD_NAMES.get((cls_name, attr), attr)
                    out[id(obj)] = (f"{_short(mod.__name__)}.{span}", obj)
    return out


def bindings():
    """Every (owner, attribute, object) slot that binds a traced function:
    the defining module, each module that imported it by name, and the
    class dict for methods."""
    funcs = traced_functions()
    slots = []
    owners = list(_qdl_modules())
    for mod in _qdl_modules():
        owners += [getattr(mod, c) for c in TRACED_CLASSES.get(
            _short(mod.__name__), ())]
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if id(obj) in funcs:
                slots.append((owner, attr, obj))
    return slots


def unchanged(slots) -> bool:
    """True when every slot still holds the object recorded in `slots`."""
    return all(vars(owner).get(attr) is obj for owner, attr, obj in slots)


# ------------------------------------------------------------ tracer

class Tracer:
    """Span recorder; spans are [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec[4] = probe(bound.arguments, result)
                except Exception:  # a changed signature must not break qdl
                    rec[4] = {"probe_error": 1}
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in traced_functions().items()}
        for owner, attr, obj in bindings():
            setattr(owner, attr, wrappers[id(obj)])
            self._patched.append((owner, attr, obj))

    def remove(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched = []


# ------------------------------------------------------------ metrics

def layer_metrics(spans, window) -> dict:
    """Per-layer metrics from a span list.

    `.s` sums the outermost spans of a name (recursion is not counted
    twice), `.self_s` subtracts each span's direct children, `.calls`
    counts spans.  `window` = (start, end) of the workload pass; the
    shares and the coverage are fractions of it.
    """
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for i, (name, t0, t1, parent, cnt) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += t1 - t0
        for key, val in (cnt or {}).items():
            counts[f"{name}.{key}"] += val

    # grid evaluations are the z_values calls made by find_zeros itself;
    # the single-point ones come from Z(t) inside brentq
    grid_s = grid_passes = grid_points = grid_terms = 0
    for name, t0, t1, parent, cnt in spans:
        if (name == "zeros.z_values" and parent >= 0
                and spans[parent][0] == "zeros.find_zeros"):
            grid_s += t1 - t0
            grid_passes += 1
            grid_points += cnt.get("points", 0)
            grid_terms += cnt.get("terms", 0)

    t_lo, t_hi = window
    wall = t_hi - t_lo
    covered = sum(t1 - t0 for _, t0, t1, parent, _ in spans
                  if parent < 0 and t0 >= t_lo and t1 <= t_hi)

    def in_pass(span_name):
        return sum(t1 - t0 for name, t0, t1, parent, _ in spans
                   if name == span_name and t0 >= t_lo and t1 <= t_hi
                   and (parent < 0 or spans[parent][0] != span_name))

    def ratio(a, b):
        return a / b if b else 0.0

    chars = calls["zeros.find_zeros"]
    loads = calls["zeros.load_zeros"]
    return {
        "arith.build_sieves.s": total["arith.build_sieves"],
        "arith.sieve_limit": max([c.get("limit", 0) for nm, *_, c in spans
                                  if nm == "arith.build_sieves"], default=0),
        "weightfn.mobius_kernels.s": total["weightfn.mobius_kernels"],
        "weightfn.h2_sum_poisson.calls": calls["weightfn.h2_sum_poisson"],
        "weightfn.h2_sum_poisson.s": total["weightfn.h2_sum_poisson"],
        "numutil.quad_checked.calls": calls["numutil.quad_checked"],
        "numutil.quad_checked.s": total["numutil.quad_checked"],
        "explicit.build_family.s": total["explicit.build_family"],
        "explicit.family_size": counts["explicit.build_family.family"],
        "explicit.prime_sums.s": total["explicit.prime_sums"],
        "explicit.primes": counts["explicit.prime_sums.primes"],
        "explicit.char_prime_pairs": counts["explicit.prime_sums.pairs"],
        "explicit.pairs_per_s": ratio(counts["explicit.prime_sums.pairs"],
                                      total["explicit.prime_sums"]),
        "explicit.gamma_integral.s": total["explicit.gamma_integral"],
        "explicit.density.self_s": self_s["explicit.density"],
        "predict.theorem_rhs.self_s": self_s["predict.theorem_rhs"],
        "predict.J_X.s": total["predict.J_X"],
        "predict.euler_prime_sum.s": total["predict.euler_prime_sum"],
        "predict.R_w1.s": total["predict.R_w1"],
        "zeros.find_zeros.self_s": self_s["zeros.find_zeros"],
        "zeros.find_zeros.calls": chars,
        "zeros.lfunction.s": total["zeros.lfunction"],
        "zeros.series_terms": ratio(grid_terms, grid_points),
        "zeros.z_values.s": grid_s,
        "zeros.z_values.points": grid_points,
        "zeros.grid_passes": grid_passes,
        "zeros.grid_yield": ratio(chars, grid_passes),
        "zeros.z_point.s": total["zeros.z_point"],
        "zeros.z_point.calls": calls["zeros.z_point"],
        "zeros.count_zeros.s": total["zeros.count_zeros"],
        "zeros.count_zeros.calls": calls["zeros.count_zeros"],
        "zeros.value.calls": calls["zeros.value"],
        "zeros.save_zeros.s": total["zeros.save_zeros"],
        "zeros.zeros_found": counts["zeros.find_zeros.zeros"],
        "zeros.zeros_per_s": ratio(counts["zeros.find_zeros.zeros"],
                                   total["zeros.find_zeros"]),
        "zeros.load_zeros.s": total["zeros.load_zeros"],
        "zeros.cache_hit_ratio": ratio(counts["zeros.load_zeros.hit"], loads),
        "ffield.squarefree_codes.s": total["ffield.squarefree_codes"],
        "ffield.curves": counts["ffield.squarefree_codes.curves"],
        "ffield.get_field.s": total["ffield.get_field"],
        "ffield.get_field.builds": calls["ffield.finite_field"],
        "ffield.char_sum_block.s": total["ffield.char_sum_block"],
        "ffield.field_points": counts["ffield.char_sum_block.points"],
        "ffield.points_per_s": ratio(counts["ffield.char_sum_block.points"],
                                     total["ffield.char_sum_block"]),
        "ffield.char_sum_single.s": total["ffield.char_sum_single"],
        "ffield.char_sum_single.calls": calls["ffield.char_sum_single"],
        "ffield.validate_family.self_s": self_s["ffield.validate_family"],
        "ffield.ff_one_level_density.self_s":
            self_s["ffield.ff_one_level_density"],
        "ffield.rudnick_rhs.s": total["ffield.rudnick_rhs"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.coverage": ratio(covered, wall),
        "explicit.prime_sums.share": ratio(in_pass("explicit.prime_sums"),
                                           wall),
        "zeros.z_values.share": ratio(grid_s, wall),
        "ffield.char_sum_block.share": ratio(
            in_pass("ffield.char_sum_block"), wall),
    }
