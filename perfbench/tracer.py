"""Outside-in tracer for congform: wraps its functions without editing them.

``Tracer.install()`` replaces every binding of the traced functions, in
every loaded ``congform`` module, with a wrapper that counts calls and
raised exceptions and times the call.  A name is bound in several
places (the package re-exports it, ``from .algebras import ...`` copies
it into ``forms``, ``operators`` and ``reflection``), so bindings are
found by identity of the function object, not by name.  Function-local
imports such as ``from .algebras import join`` inside ``is_minimal``
resolve at call time and pick up the patched module attribute.

Hot leaves (``lifts`` runs some ten million times on verify-quandles5)
only feed aggregate counters.  The coarse calls in ``SPANNED`` also
record one span each: name, start, end, parent span and sample id.
Spans stay in memory until ``dump`` writes them out.

Self time is a call's duration minus the time spent in wrapped calls it
made.  Total time counts only the outermost of nested calls to the same
function, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time

LAYERS = ("algebras", "forms", "operators", "reflection", "terms", "instances", "verify")

SPANNED = frozenset({
    "verify.run_verification",
    "instances.builtin_operator",
    "operators.make_operator",
    "operators.operator_report",
    "instances.corpus",
    "operators.enumerate_operators",
    "operators.universe_from_generators",
})

# (name, unit, better) of every per-layer metric a traced run reports.
# ``<layer>.<function>.<stat>`` names come from the wrappers (calls,
# total_s, self_s, raised) or from the function's ``cache_info()``
# (misses, hit_ratio); the ``trace.*`` names are computed by the harness.
PER_LAYER = (
    ("algebras.generated_congruence.calls", "count", "lower"),
    ("algebras.generated_congruence.self_s", "s", "lower"),
    ("algebras.join.calls", "count", "lower"),
    ("algebras.join.total_s", "s", "lower"),
    ("algebras.con_lattice.misses", "count", "lower"),
    ("algebras.con_lattice.total_s", "s", "lower"),
    ("algebras.con_lattice.hit_ratio", "ratio", "higher"),
    ("algebras.enumerate_homs.calls", "count", "lower"),
    ("algebras.enumerate_homs.misses", "count", "lower"),
    ("algebras.enumerate_homs.total_s", "s", "lower"),
    ("algebras.enumerate_surjections.calls", "count", "lower"),
    ("algebras.enumerate_surjections.total_s", "s", "lower"),
    ("algebras.find_isomorphism.calls", "count", "lower"),
    ("algebras.find_isomorphism.misses", "count", "lower"),
    ("algebras.find_isomorphism.total_s", "s", "lower"),
    ("algebras.canonical_algebra.calls", "count", "lower"),
    ("algebras.canonical_algebra.total_s", "s", "lower"),
    ("algebras.validate_algebra.calls", "count", "lower"),
    ("algebras.validate_algebra.total_s", "s", "lower"),
    ("algebras.quotient.calls", "count", "lower"),
    ("algebras.quotient.self_s", "s", "lower"),
    ("forms.lifts.calls", "count", "lower"),
    ("forms.lifts.self_s", "s", "lower"),
    ("forms.leq.calls", "count", "lower"),
    ("forms.image_congruence.calls", "count", "lower"),
    ("forms.image_congruence.total_s", "s", "lower"),
    ("forms.preimage_congruence.calls", "count", "lower"),
    ("forms.preimage_congruence.self_s", "s", "lower"),
    ("operators.make_operator.calls", "count", "lower"),
    ("operators.make_operator.total_s", "s", "lower"),
    ("operators.make_operator.self_s", "s", "lower"),
    ("operators.make_operator.raised", "count", "lower"),
    ("operators.make_operator.accept_ratio", "ratio", "higher"),
    ("operators.enumerate_operators.total_s", "s", "lower"),
    ("operators.universe_from_generators.total_s", "s", "lower"),
    ("operators.is_minimal.calls", "count", "lower"),
    ("operators.is_minimal.total_s", "s", "lower"),
    ("operators.preserves_cocartesian.calls", "count", "lower"),
    ("operators.preserves_cocartesian.total_s", "s", "lower"),
    ("operators.is_cohereditary.calls", "count", "lower"),
    ("operators.is_cohereditary.total_s", "s", "lower"),
    ("operators.is_idempotent.calls", "count", "lower"),
    ("operators.is_idempotent.total_s", "s", "lower"),
    ("operators.find_member_iso.hit_ratio", "ratio", "higher"),
    ("operators.universe.total_s", "s", "lower"),
    ("reflection.make_reflector.calls", "count", "lower"),
    ("reflection.make_reflector.total_s", "s", "lower"),
    ("reflection.closure_from_reflector.calls", "count", "lower"),
    ("reflection.closure_from_reflector.total_s", "s", "lower"),
    ("reflection.reflector_from_closure.calls", "count", "lower"),
    ("reflection.reflector_from_closure.total_s", "s", "lower"),
    ("reflection.roundtrip_closure.total_s", "s", "lower"),
    ("reflection.roundtrip_reflector.total_s", "s", "lower"),
    ("reflection.oracle_reflector.total_s", "s", "lower"),
    ("reflection.antitone_check.total_s", "s", "lower"),
    ("reflection.closed_under_quotients.total_s", "s", "lower"),
    ("terms.satisfies_equations.calls", "count", "lower"),
    ("terms.satisfies_equations.total_s", "s", "lower"),
    ("instances.corpus.total_s", "s", "lower"),
    ("instances.enumerate_quandles.total_s", "s", "lower"),
    ("instances.enumerate_quandles.self_s", "s", "lower"),
    ("instances.builtin_operator.total_s", "s", "lower"),
    ("verify.run_verification.total_s", "s", "lower"),
    ("verify.run_verification.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

TRACED = frozenset(name.rsplit(".", 1)[0] for name, _, _ in PER_LAYER
                   if not name.startswith("trace.")) | SPANNED


def congform_modules() -> list:
    """The package and every submodule except ``__main__``, imported."""
    import congform

    return [congform] + [
        importlib.import_module(f"congform.{info.name}")
        for info in pkgutil.iter_modules(congform.__path__)
        if info.name != "__main__"
    ]


class Stat:
    __slots__ = ("calls", "raised", "total_s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Counters, spans and cache readers for one traced sample process."""

    def __init__(self, sample_id: str):
        self.sample_id = sample_id
        self.stats: dict[str, Stat] = {}
        self.caches: dict[str, object] = {}
        self.originals: dict[str, object] = {}
        self.spans: list[tuple] = []
        self.origin = time.perf_counter()
        # Time spent in wrapped children, one slot per active wrapped call.
        self._child_s = [0.0]
        self._span_stack = [None]

    # --- installation ---------------------------------------------------------

    def install(self) -> int:
        """Patch every binding of the traced functions; return how many."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"congform.{layer}")
            for attr, obj in vars(mod).items():
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches[f"{layer}.{attr}"] = obj
                name = f"{layer}.{attr}"
                if name in TRACED:
                    self.originals[name] = obj
                    wrappers[id(obj)] = self._wrap(name, obj)
        missing = TRACED - set(self.stats)
        if missing:
            raise RuntimeError(f"traced functions not found in congform: {sorted(missing)}")
        patched = 0
        for mod in congform_modules():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
                    patched += 1
        return patched

    def _wrap(self, name: str, fn):
        st = self.stats[name] = Stat()
        child_s = self._child_s
        clock = time.perf_counter

        if name in SPANNED:
            spans = self.spans
            stack = self._span_stack
            sample = self.sample_id

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                st.calls += 1
                st.active += 1
                child_s.append(0.0)
                span_id = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(span_id)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    st.raised += 1
                    raise
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    stack.pop()
                    spans[span_id] = (span_id, parent, name, t0, t1, sample)
                    st.active -= 1
                    st.self_s += dt - child_s.pop()
                    child_s[-1] += dt
                    if not st.active:
                        st.total_s += dt

            return spanned

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st.calls += 1
            st.active += 1
            child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                dt = clock() - t0
                st.active -= 1
                st.self_s += dt - child_s.pop()
                child_s[-1] += dt
                if not st.active:
                    st.total_s += dt

        return counted

    # --- read-out -------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Every wrapper and cache statistic, keyed ``<layer>.<function>.<stat>``."""
        out: dict[str, float] = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            out[f"{name}.raised"] = st.raised
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.accept_ratio"] = (st.calls - st.raised) / st.calls if st.calls else 0.0
        for name, fn in sorted(self.caches.items()):
            info = fn.cache_info()
            looked_up = info.hits + info.misses
            out[f"{name}.hits"] = info.hits
            out[f"{name}.misses"] = info.misses
            out[f"{name}.currsize"] = info.currsize
            out[f"{name}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        return out

    def dump(self, path, counters: dict) -> None:
        """Write the spans (times relative to tracer start) and ``counters``."""
        doc = {
            "sample": self.sample_id,
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "sample"],
            "spans": [
                [i, parent, name, t0 - self.origin, t1 - self.origin, sample]
                for i, parent, name, t0, t1, sample in self.spans
            ],
            "counters": counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
