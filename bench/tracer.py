"""Run-time spans around the package's public entry points.

Used only by traced passes.  ``install`` replaces each entry point, in every
loaded ``rank2cluster`` module that holds a reference to it, by a wrapper
that records a span (id, parent span, request id, name, start, end) while
tracing is enabled.  The package source is not touched.  A span's self time
is its duration minus the time covered by its child spans; the time a
wrapper spends on its own counters is excluded from its parent's self time.

A few counters need more than a span:

- ``packed.*.computed_bytes``: the packed operand and result buffers, 3 x
  box slots x slot width, computed from the operands exactly as the kernel
  sizes them (computed, not measured);
- ``rank2.steps_walked``: recurrence steps between the seed and each
  requested x_k; ``rank2.steps_computed``: steps actually divided out,
  counted at ``rank2._maybe_cache``, which sees every computed step;
- ``quiver.subspace_tuples``: sum over ``count_submodules`` calls of
  prod_i [d_i choose e_i]_p; ``quiver.primes_used``: distinct module
  realizations that were point-counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from math import gcd

# layer -> (module, wrapped names); the laurent names are methods of
# LaurentPolynomial.  A span is named "<layer>.<name>".
ENTRY_POINTS = {
    "packed": ("_packed", ["positive_mul", "positive_exact_div"]),
    "laurent": ("laurent", ["__mul__", "exact_div", "to_json_dict"]),
    "rank2": (
        "rank2",
        ["cluster_variable", "expand_in_cluster", "d_vector", "detect_period",
         "check_positivity_range"],
    ),
    "quiver": (
        "quiver",
        ["chi_table", "count_submodules", "generic_module", "euler_characteristic"],
    ),
    "ccmap": (
        "ccmap",
        ["object_for_index", "cc_polynomial", "fold", "verify_folding",
         "verify_exchange_relation"],
    ),
    "cli": ("cli", ["main"]),
}


def _box(terms: dict):
    exps = list(terms)
    n = len(exps[0])
    mins = [min(e[i] for e in exps) for i in range(n)]
    maxs = [max(e[i] for e in exps) for i in range(n)]
    gs = []
    for i in range(n):
        g = 0
        for e in exps:
            g = gcd(g, e[i] - mins[i])
            if g == 1:
                break
        gs.append(g)
    return mins, maxs, gs


def _slot_bytes(sizes, bound: int) -> int:
    total = 1
    for s in sizes:
        total *= s
    return 3 * total * ((bound.bit_length() + 7) // 8)


def mul_bytes(a: dict, b: dict) -> int:
    mins_a, maxs_a, gs_a = _box(a)
    mins_b, maxs_b, gs_b = _box(b)
    steps = [gcd(x, y) or 1 for x, y in zip(gs_a, gs_b)]
    sizes = [
        (maxs_a[i] - mins_a[i] + maxs_b[i] - mins_b[i]) // steps[i] + 1
        for i in range(len(steps))
    ]
    return _slot_bytes(sizes, min(len(a), len(b)) * max(a.values()) * max(b.values()))


def div_bytes(num: dict, den: dict) -> int:
    """0 when the kernel declines before packing (support or lattice check)."""
    mins_n, maxs_n, gs_n = _box(num)
    mins_d, maxs_d, gs_d = _box(den)
    steps = [g or 1 for g in gs_n]
    for i, step in enumerate(steps):
        if maxs_d[i] - mins_d[i] > maxs_n[i] - mins_n[i] or gs_d[i] % step:
            return 0
    sizes = [(maxs_n[i] - mins_n[i]) // steps[i] + 1 for i in range(len(steps))]
    return _slot_bytes(sizes, len(den) * max(num.values()) * max(den.values()))


@functools.lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _steps_between_seed_and(k: int) -> int:
    return k - 2 if k > 2 else (1 - k if k < 1 else 0)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.request = 0
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child seconds]
        self._last_module = None
        self.missing: list[str] = []

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            result = done = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[frame[0]] = (
                    frame[0], parent[0] if parent else None, tracer.request, name, start, end
                )
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - frame[1]
                if after is not None and done:
                    after(args, result)
                if parent is not None:
                    parent[1] += time.perf_counter() - start

        return wrapper

    # -- counters that need the arguments or the result ------------------

    def _after_mul(self, args, result):
        self.counts["packed.positive_mul.computed_bytes"] += mul_bytes(args[0], args[1])

    def _after_div(self, args, result):
        self.counts["packed.positive_exact_div.computed_bytes"] += div_bytes(args[0], args[1])
        if result is None:
            self.counts["packed.positive_exact_div.declined"] += 1

    def _after_cluster_variable(self, args, result):
        self.counts["rank2.steps_walked"] += _steps_between_seed_and(args[1])

    def _after_count(self, args, result):
        module, e = args[0], args[1]
        tuples = 1
        for d_i, e_i in zip(module.dims, e):
            tuples *= gaussian_binomial(d_i, int(e_i), module.p)
        self.counts["quiver.subspace_tuples"] += tuples
        if module is not self._last_module:
            self._last_module = module
            self.counts["quiver.primes_used"] += 1

    def _count_step(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts["rank2.steps_computed"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap every entry point in ENTRY_POINTS, wherever it is referenced."""
        after = {
            "packed.positive_mul": self._after_mul,
            "packed.positive_exact_div": self._after_div,
            "rank2.cluster_variable": self._after_cluster_variable,
            "quiver.count_submodules": self._after_count,
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == package.__name__]
        cls = package.laurent.LaurentPolynomial
        for layer, (module_name, names) in ENTRY_POINTS.items():
            module = getattr(package, module_name)
            for attr in names:
                span = f"{layer}.{attr.strip('_')}"
                owner = cls if layer == "laurent" else module
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.missing.append(span)
                    continue
                wrapped = self.wrap(span, orig, after.get(span))
                for holder in [cls] if owner is cls else modules:
                    for alias, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, alias, wrapped)
        if hasattr(package.rank2, "_maybe_cache"):
            package.rank2._maybe_cache = self._count_step(package.rank2._maybe_cache)
        else:
            self.missing.append("rank2._maybe_cache")

    # -- results ---------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in ENTRY_POINTS}
        for name, seconds in self.self_s.items():
            out[name.split(".")[0]] += seconds
        return out

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
