"""Per-layer counters for the traced run.

The layers are the package's modules.  ``Tracer.install`` wraps public
functions of each layer and rebinds every name in every ``algebroids``
module (and the package namespace) that refers to the original, so calls
between modules go through the wrapper too.

Each wrapped function gets a call count and an inclusive wall time, taken
over outermost calls only, so a function that reaches itself again is not
counted twice.  Self time, the duration minus the time covered by wrapped
callees, goes to the trace file.  The scalar kernel is called millions of
times, so its wrappers only aggregate (calls, time, output terms, the
largest scalar built); other wrappers also keep a span, for calls at most
``SPAN_DEPTH`` deep below the job, which the trace file lists with the
job they belong to.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from algebroids.scalars import Poly, Scalar

# metric prefix -> (module, attribute)
FUNCTIONS = {
    "linalg.solve_affine": ("algebroids.linalg", "solve_affine"),
    "core.bracket": ("algebroids.core", "bracket"),
    "core.classify": ("algebroids.core", "classify"),
    "core.check_locality_projector": ("algebroids.core", "check_locality_projector"),
    "connection.check_admissible": ("algebroids.connection", "check_admissible"),
    "connection.modified_anholonomy": ("algebroids.connection", "modified_anholonomy"),
    "connection.locality_contraction": ("algebroids.connection", "locality_contraction"),
    "connection.torsion": ("algebroids.connection", "torsion"),
    "connection.curvature": ("algebroids.connection", "curvature"),
    "connection.covariant_derivative": ("algebroids.connection", "covariant_derivative"),
    "calculus.cartan": ("algebroids.calculus", "check_cartan_structure"),
    "calculus.bianchi_algebraic": ("algebroids.calculus", "check_bianchi_algebraic"),
    "calculus.bianchi_differential": ("algebroids.calculus", "check_bianchi_differential"),
    "calculus.ricci": ("algebroids.calculus", "check_ricci"),
    "calculus.magic": ("algebroids.calculus", "check_magic_and_derivations"),
    "calculus.square_laws": ("algebroids.calculus", "check_square_laws"),
    "calculus.leibniz_derivative": ("algebroids.calculus", "leibniz_derivative"),
    "levicivita.solve_torsion_free": ("algebroids.levicivita", "solve_torsion_free"),
    "levicivita.solve_koszul": ("algebroids.levicivita", "solve_koszul"),
    "levicivita.koszul_rows": ("algebroids.levicivita", "koszul_rows"),
    "levicivita.decompose_connection": ("algebroids.levicivita", "decompose_connection"),
    "levicivita.check_levicivita_props": ("algebroids.levicivita", "check_levicivita_props"),
    "documents.load_document": ("algebroids.documents", "load_document"),
    "documents.sparse_to_obj": ("algebroids.documents", "sparse_to_obj"),
    "parsing.parse_scalar": ("algebroids.parsing", "parse_scalar"),
    "cli.main": ("algebroids.cli", "main"),
}
KERNEL = {
    "scalars.poly_mul": (Poly, "__mul__"),
    "scalars.scalar_init": (Scalar, "__init__"),
    "scalars.divide_exact": (Poly, "divide_exact"),
}
SPAN_DEPTH = 2


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for prefix in list(KERNEL) + list(FUNCTIONS):
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s")]
    out += [("scalars.poly_mul.terms_out", "terms"), ("scalars.max_scalar_terms", "terms")]
    return out


class _Stat:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.job = None
        self.stack: list[list[float]] = []  # per open call: time of wrapped callees
        self.stats = {name: _Stat() for name in list(KERNEL) + list(FUNCTIONS)}
        self.terms_out = 0
        self.max_scalar_terms = 0
        self.spans: list[dict] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, (cls, attr) in KERNEL.items():
            setattr(cls, attr, self._kernel_wrapper(name, getattr(cls, attr)))
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._span_wrapper(name, original)
            for modname, mod in list(sys.modules.items()):
                if modname == "algebroids" or modname.startswith("algebroids."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _kernel_wrapper(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        if name == "scalars.scalar_init":
            def wrapper(obj, num, den=None):
                if not self.active:
                    return fn(obj, num, den)
                t0 = clock()
                fn(obj, num, den)
                dt = clock() - t0
                stat.calls += 1
                stat.s += dt
                terms = len(obj.num.terms) + len(obj.den.terms)
                if terms > self.max_scalar_terms:
                    self.max_scalar_terms = terms
                if stack:
                    stack[-1][0] += dt
        else:
            count_terms = name == "scalars.poly_mul"

            def wrapper(a, b):
                if not self.active:
                    return fn(a, b)
                t0 = clock()
                out = fn(a, b)
                dt = clock() - t0
                stat.calls += 1
                stat.s += dt
                if count_terms:
                    self.terms_out += len(out.terms)
                if stack:
                    stack[-1][0] += dt
                return out

        return functools.wraps(fn)(wrapper)

    def _span_wrapper(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if stat.depth == 0:
                    stat.s += dt
                if stack:
                    stack[-1][0] += dt
                if len(stack) < SPAN_DEPTH:
                    self.spans.append({
                        "job": self.job, "name": name, "depth": len(stack) + 1,
                        "start": t0, "end": t1, "self": dt - frame[0],
                    })

        return wrapper

    # -- results --------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric, per pass over the job list."""
        values = {}
        for name, stat in self.stats.items():
            values[f"{name}.calls"] = stat.calls / passes
            values[f"{name}.s"] = stat.s / passes
        values["scalars.poly_mul.terms_out"] = self.terms_out / passes
        values["scalars.max_scalar_terms"] = self.max_scalar_terms
        units = dict(metric_names())
        return {k: {"value": values[k], "unit": units[k]} for k, _ in metric_names()}

    def dump(self, path, header: dict, passes: int) -> None:
        functions = {
            name: {
                "calls": stat.calls / passes,
                "s": stat.s / passes,
                "self_s": (stat.s if name in KERNEL else stat.self_s) / passes,
            }
            for name, stat in self.stats.items()
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(header, functions=functions, spans=self.spans), handle)
