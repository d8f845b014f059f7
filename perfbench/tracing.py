"""Per-layer tracing for the jsalg benchmark, done entirely from outside the
package: each traced function is replaced by a counting, timing wrapper
wherever callers look it up, and put back afterwards.

A function is looked up in three kinds of places, and all are patched:

* the attribute of its defining module (``superpoly.mul``);
* every ``from .x import y`` alias in another jsalg module
  (``brackets.mul``, ``tkk.solve_linear``), found by identity;
* the class attribute, for methods (``Echelon.insert``, ``TKK.__init__``).

Per wrapped function the tracer keeps the call count, busy time (inclusive,
counted once for recursive calls) and self time (busy time minus the time of
nested wrapped calls, from a per-thread stack).  Drivers whose reports carry
a certified span also accumulate the certified tuples of their passing
reports, for the ``tuples_per_s`` rates.
"""

from __future__ import annotations

import threading
import time

from workloads import certified_tuples

# (metric prefix, jsalg module, attribute path, metrics emitted)
TARGETS = [
    ("superpoly.mono_mul", "superpoly", "mono_mul", ("calls", "self_s")),
    ("superpoly.mono_partial", "superpoly", "mono_partial", ("calls", "self_s")),
    ("superpoly.mul", "superpoly", "mul", ("calls", "busy_s", "self_s")),
    ("brackets.bracket_monomials", "brackets", "bracket_monomials",
     ("calls", "busy_s", "self_s")),
    ("brackets.bracket", "brackets", "bracket", ("calls", "busy_s")),
    ("brackets.check_jacobi", "brackets", "check_jacobi", ("busy_s", "self_s")),
    ("brackets.check_gen_leibniz", "brackets", "check_gen_leibniz", ("busy_s", "self_s")),
    ("brackets.check_kmc", "brackets", "check_kmc", ("busy_s", "self_s")),
    ("schouten.gpb_from_ac", "schouten", "gpb_from_ac", ("calls", "busy_s", "self_s")),
    ("schouten.check_s_conditions", "schouten", "check_s_conditions", ("busy_s",)),
    ("jordan.build", "jordan", "build", ("busy_s",)),
    ("jordan.from_json_dict", "jordan", "FiniteSuperAlgebra.from_json_dict", ("busy_s",)),
    ("jordan.to_json_dict", "jordan", "FiniteSuperAlgebra.to_json_dict", ("busy_s",)),
    ("jordan.check_jordan", "jordan", "check_jordan", ("busy_s", "tuples_per_s")),
    ("jordan.check_relation10", "jordan", "check_relation10", ("busy_s", "tuples_per_s")),
    ("jordan.check_simple_report", "jordan", "check_simple_report", ("busy_s",)),
    ("jordan.ideal_closure", "jordan", "ideal_closure", ("calls", "busy_s", "self_s")),
    ("jordan.check_iso", "jordan", "check_iso", ("busy_s",)),
    ("linalg.Echelon.insert", "linalg", "Echelon.insert", ("calls", "busy_s")),
    ("linalg.Echelon.reduce", "linalg", "Echelon.reduce", ("calls", "busy_s")),
    ("linalg.Echelon.solve", "linalg", "Echelon.solve", ("calls", "busy_s")),
    ("linalg.solve_linear", "linalg", "solve_linear", ("calls", "busy_s")),
    ("linalg.nullspace", "linalg", "nullspace", ("calls", "busy_s")),
    ("tkk.TKK.init", "tkk", "TKK.__init__", ("busy_s", "self_s")),
    ("tkk.TKK.round_trip", "tkk", "TKK.round_trip", ("busy_s",)),
    ("tkk.TKK.check_triple", "tkk", "TKK.check_triple", ("busy_s",)),
    ("tkk.TKK.check_minimal", "tkk", "TKK.check_minimal", ("busy_s", "self_s")),
    ("tkk.TKK.assemble", "tkk", "TKK.assemble", ("busy_s", "self_s")),
    ("tkk.check_lie_table", "tkk", "check_lie_table", ("busy_s", "tuples_per_s")),
    ("tkk.check_semidirect", "tkk", "check_semidirect", ("busy_s", "self_s")),
    ("lieclass.classical", "lieclass", "classical", ("busy_s",)),
    ("lieclass.enumerate_short_gradings", "lieclass", "enumerate_short_gradings",
     ("busy_s", "self_s")),
    ("lieclass.find_short_triple", "lieclass", "find_short_triple", ("calls", "busy_s")),
    ("lieclass.example71_iso", "lieclass", "example71_iso", ("busy_s",)),
    ("lieclass.example72_iso", "lieclass", "example72_iso", ("busy_s",)),
    ("report.Report.to_json", "report", "Report.to_json", ("calls", "busy_s")),
]

# the three bracket drivers share one rate, brackets.tuples_per_s
BRACKET_DRIVERS = ("brackets.check_jacobi", "brackets.check_gen_leibniz", "brackets.check_kmc")
COUNTS_TUPLES = {"jordan.check_jordan", "jordan.check_relation10",
                 "tkk.check_lie_table", *BRACKET_DRIVERS}

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "tuples_per_s": "1/s"}


def metric_names():
    """Every per-layer metric the traced run emits, with its unit."""
    out = [(f"{prefix}.{field}", UNITS[field])
           for prefix, _, _, fields in TARGETS for field in fields]
    out.append(("brackets.tuples_per_s", "1/s"))
    return out


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "depth", "tuples", "tuple_busy")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.tuples = 0
        self.tuple_busy = 0.0


class Tracer:
    """Installs wrappers on a loaded jsalg (a mapping of short module name to
    module) and collects per-function statistics while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats = {prefix: _Stat() for prefix, _, _, _ in TARGETS}
        self._local = threading.local()
        self._patched = []  # (holder, attribute, original raw attribute)

    # -- install / restore ---------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for prefix, modname, path, _ in TARGETS:
            mod = self.modules[modname]
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(mod, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(prefix, raw.__func__))
                else:
                    wrapped = self._wrap(prefix, raw)
                self._patch(cls, attr, raw, wrapped)
            else:
                orig = getattr(mod, path)
                wrapped = self._wrap(prefix, orig)
                for holder in self.modules.values():
                    for name, value in list(vars(holder).items()):
                        if value is orig:
                            self._patch(holder, name, orig, wrapped)

    def _patch(self, holder, attr, raw, wrapped):
        self._patched.append((holder, attr, raw))
        setattr(holder, attr, wrapped)

    def restore(self):
        """Put every original back and check that each one is in place."""
        for holder, attr, raw in reversed(self._patched):
            setattr(holder, attr, raw)
        bad = [f"{getattr(h, '__name__', h)}.{a}" for h, a, raw in self._patched
               if vars(h).get(a) is not raw]
        self._patched = []
        if bad:
            raise RuntimeError(f"tracer left wrapped functions behind: {bad}")

    # -- the wrapper -------------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, prefix: str, fn):
        stat = self.stats[prefix]
        stack_of = self._stack
        counts = prefix in COUNTS_TUPLES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += dt - child
                if stat.depth == 0:
                    stat.busy += dt
                if stack:
                    stack[-1] += dt
            if counts and getattr(result, "status", None) == "pass":
                stat.tuples += certified_tuples(result)
                stat.tuple_busy += dt
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", prefix)
        return traced

    # -- results -------------------------------------------------------------------

    def metrics(self, rounds: int = 1) -> dict:
        """Per-round values over ``rounds`` identical traced rounds; a call
        count stays a whole number when every round made the same calls."""
        out = {}
        for prefix, _, _, fields in TARGETS:
            s = self.stats[prefix]
            for field in fields:
                if field == "calls":
                    value = s.calls // rounds if s.calls % rounds == 0 else s.calls / rounds
                elif field == "busy_s":
                    value = s.busy / rounds
                elif field == "self_s":
                    value = s.self_time / rounds
                else:
                    value = s.tuples / s.tuple_busy if s.tuple_busy else 0.0
                out[f"{prefix}.{field}"] = {"value": value, "unit": UNITS[field]}
        tuples = sum(self.stats[p].tuples for p in BRACKET_DRIVERS)
        busy = sum(self.stats[p].tuple_busy for p in BRACKET_DRIVERS)
        out["brackets.tuples_per_s"] = {"value": tuples / busy if busy else 0.0,
                                        "unit": "1/s"}
        return out
