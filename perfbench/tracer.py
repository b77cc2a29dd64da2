"""Span tracer for one pfzero job, installed from outside the package.

`Tracer.install()` replaces, in each layer module, every binding of a public
pfzero function (the defining module's own and the names other modules
imported) with a wrapper that records a span, plus `scipy`'s `solve_ivp` where
`numerics` calls it. `PolyMatrix.adjugate` and `PolyMatrix.determinant` open a
span only when called from outside `linalg`, so the determinants an adjugate
takes internally count as adjugate time. `restore()` puts every original back.

A span's self time is its duration minus the time of the spans it called; the
job itself is the root span `cli`, so the self times of all spans sum to the
job time. Hooks add counts and sizes at a few boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "pfzero"
LAYERS = ("poly", "linalg", "hamiltonian", "petrov", "pfsystem", "numerics", "zerocount", "cli")

# Sort keys run per term comparison; a span on them would cost more than the work.
HOT = frozenset({"grevlex_key"})

# Third-party functions, named after the layer that calls them.
EXTERNAL = (("numerics", "solve_ivp"),)

# Methods spanned only when another module calls them.
METHODS = (("linalg", "PolyMatrix", "adjugate"), ("linalg", "PolyMatrix", "determinant"))

ROOT = "cli"


def _bits(p) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.terms.values()),
        default=0,
    )


def _system_sizes(tr, args, kwargs, result):
    tr.set_max("pfsystem.dim", result.dim)
    tr.set_max("pfsystem.deg_a", result.a.degree())
    tr.set_max("pfsystem.max_deg_A", result.A.max_degree())
    n = result.dim
    tr.set_max("pfsystem.coeff_bits_A", max(_bits(result.A[i, j]) for i in range(n) for j in range(n)))


def _scalar_order(tr, args, kwargs, result):
    tr.set_max("pfsystem.scalar_order", result.order)


def _sparse_shape(tr, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tr.set_max("linalg.solve_sparse_exact.rows_max", len(rows))
    tr.set_max("linalg.solve_sparse_exact.cols_max", ncols)


def _refine_key(tr, args, kwargs, result):
    cyc = args[0] if args else kwargs["cycle"]
    tr.distinct["numerics.refine_cycle"].add((cyc.kind, complex(cyc.level), len(cyc.points)))


def _nfev(tr, args, kwargs, result):
    tr.add("numerics.solve_ivp.nfev", result.nfev)


def _segments(tr, args, kwargs, result):
    tr.add("zerocount.decompose_simple_domain.segments", len(result.segments))


def _winding_values(tr, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    tr.add("zerocount.winding_count.evals", len(values))


# name -> hook(tracer, args, kwargs, result), run after a span closes
HOOKS = {
    "pfsystem.assemble_pf_system": _system_sizes,
    "pfsystem.derive_scalar_ode": _scalar_order,
    "pfsystem.augment_and_reduce": _scalar_order,
    "linalg.solve_sparse_exact": _sparse_shape,
    "numerics.refine_cycle": _refine_key,
    "numerics.solve_ivp": _nfev,
    "zerocount.decompose_simple_domain": _segments,
    "zerocount.winding_count": _winding_values,
}


class Tracer:
    """Self time and call count per span name, plus named counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self._stack = []  # child time accumulated by each open span
        self._patches = []  # (owner, attribute, original)

    # -- counters ------------------------------------------------------------

    def add(self, name: str, value):
        self.counters[name] += value

    def set_max(self, name: str, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        if name == "zerocount.winding_count" and kwargs.get("refine") is not None:
            kwargs["refine"] = self._counting(kwargs["refine"])
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            self.self_s[name] += dur - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += dur
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def _counting(self, refine):
        def counted(s):
            self.add("zerocount.winding_count.evals", 1)
            return refine(s)

        return counted

    def run_root(self, fn, *args):
        """Run the job as the root span; returns (result, seconds)."""
        t0 = time.perf_counter()
        result = self.call(ROOT, fn, args, {})
        return result, time.perf_counter() - t0

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _function_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _method_wrapper(self, name, fn, home):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)

        return wrapper

    def targets(self):
        """(owner module, attribute, span name, original) for every function binding."""
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        home_of = {m.__name__: layer for layer, m in mods.items()}
        out = []
        for layer, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_") or attr in HOT:
                    continue
                home = home_of.get(obj.__module__)
                if home is None or obj.__name__ != attr:
                    continue
                if home == ROOT and attr != "emit":
                    continue  # the rest of cli is the root span's self time
                out.append((mod, attr, f"{home}.{attr}", obj))
        for layer, attr in EXTERNAL:
            out.append((mods[layer], attr, f"{layer}.{attr}", getattr(mods[layer], attr)))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, attr, name, fn in self.targets():
            self._patch(mod, attr, self._function_wrapper(name, fn))
        for layer, cls_name, attr in METHODS:
            home = f"{PACKAGE}.{layer}"
            cls = getattr(importlib.import_module(home), cls_name)
            self._patch(cls, attr, self._method_wrapper(f"{layer}.{cls_name}.{attr}", vars(cls)[attr], home))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def record(self) -> dict:
        counters = dict(self.counters)
        for name, keys in self.distinct.items():
            counters[f"{name}.distinct"] = len(keys)
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counters": counters}
