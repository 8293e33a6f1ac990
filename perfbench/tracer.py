"""Out-of-program tracer: timing spans around tsirnorm's public functions.

The tracer changes no library code.  ``install`` replaces every module-level
binding of each wrapped function inside the ``tsirnorm`` package (so names
imported with ``from .norms import iterate_norm`` are caught too) and the
``SmallEvaluator`` methods on their class; ``uninstall`` puts the originals
back.

A span records its call, its self time (duration minus the time covered by
child spans) and whether an exception escaped it.  A call that re-enters the
layer of the innermost open span (``eval_phi`` recursion, ``norm_eval`` into
``iterate_norm``, the literal-rule ``limit`` into ``iterate``) belongs to that
span rather than opening a child, so ``calls`` counts entries into a layer
from outside it.  Spans on the engine and the integer DPs also record the
change in counters of the ``EvalSession`` they were handed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

SESSION_COUNTERS = ("ranges_evaluated", "dp_transitions", "tables_built",
                    "families_enumerated")

ROOT = "pass"


def _fastpath_session(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("session")


def _engine_session(args, kwargs):
    return args[0].session


# (span name, module, attribute, session extractor or None).  An attribute
# with a dot is a method patched on its class.
TARGETS = (
    ("cli.main", "tsirnorm.cli", "main", None),
    ("witnesses.inductive_witness", "tsirnorm.witnesses", "inductive_witness", None),
    ("witnesses.ratio_search", "tsirnorm.witnesses", "ratio_search", None),
    ("geometry.order_property_matrix", "tsirnorm.geometry", "order_property_matrix", None),
    ("geometry.distance_lower", "tsirnorm.geometry", "distance_lower", None),
    ("phidsl.eval_phi", "tsirnorm.phidsl", "eval_phi", None),
    ("norms.dispatch", "tsirnorm.norms", "norm_eval", None),
    ("norms.dispatch", "tsirnorm.norms", "iterate_norm", None),
    ("norms.dispatch", "tsirnorm.norms", "tsirelson_norm", None),
    ("fastpaths.level1_runs", "tsirnorm.fastpaths", "level1_runs", None),
    ("fastpaths.level2_top_points", "tsirnorm.fastpaths", "level2_top_points",
     _fastpath_session),
    ("fastpaths.level3_top_points", "tsirnorm.fastpaths", "level3_top_points",
     _fastpath_session),
    ("engine.SmallEvaluator", "tsirnorm.engine", "SmallEvaluator.iterate", _engine_session),
    ("engine.SmallEvaluator", "tsirnorm.engine", "SmallEvaluator.limit", _engine_session),
    ("oracle.brute_force_norm", "tsirnorm.oracle", "brute_force_norm", None),
)

LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS))

# Layers whose inputs are recorded to measure repeated work.
_DP_LAYERS = ("fastpaths.level2_top_points", "fastpaths.level3_top_points")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    work_units: int = 0
    counters: dict = field(default_factory=lambda: dict.fromkeys(SESSION_COUNTERS, 0))


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Span stack plus per-layer totals for one traced stretch of work."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {name: LayerStats() for name in LAYERS + (ROOT,)}
        self.dp_shapes: dict[str, list[int]] = {name: [] for name in _DP_LAYERS}
        # Distinct level-2/3 inputs and calls within the current root span;
        # each root span that made a call adds its share to ``distinct_shares``.
        self.dp_inputs: set = set()
        self.dp_calls = 0
        self.distinct_shares: list[float] = []
        self.root_s = 0.0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, failed: bool) -> float:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += duration
        stats = self.stats[frame.name]
        stats.calls += 1
        stats.self_s += duration - frame.child_s
        stats.errors += failed
        return duration

    def run_root(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span; its self time is time outside every layer."""
        self.dp_inputs = set()
        self.dp_calls = 0
        frame = self._enter(ROOT)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self.root_s += self._exit(frame, failed)
            if self.dp_calls:
                self.distinct_shares.append(len(self.dp_inputs) / self.dp_calls)

    def _wrap(self, name: str, fn, session_of):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            session = session_of(args, kwargs) if session_of else None
            if name in tracer.dp_shapes:
                tracer._note_dp_input(name, args[0], args[1])
            if session is not None:
                before_used = session.used
                before = dict(session.stats)
            frame = tracer._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._exit(frame, failed)
                if session is not None:
                    stats = tracer.stats[name]
                    stats.work_units += session.used - before_used
                    for key in SESSION_COUNTERS:
                        stats.counters[key] += session.stats.get(key, 0) - before.get(key, 0)

        return functools.wraps(fn)(traced)

    def _note_dp_input(self, name: str, pos, weights) -> None:
        self.dp_shapes[name].append(len(pos))
        self.dp_calls += 1
        top = max(weights, default=1) or 1
        self.dp_inputs.add((name, tuple(pos), tuple(w / top for w in weights)))

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tsirnorm" or key.startswith("tsirnorm."))]
        for name, module_name, attr, session_of in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original, session_of))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, session_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), averaged over ``passes`` traced passes."""
    per = 1.0 / passes
    out: dict[str, tuple[float, str]] = {}
    s = tracer.stats
    for name in _DP_LAYERS:
        st = s[name]
        out[f"{name}.calls"] = (st.calls * per, "count")
        out[f"{name}.self_s"] = (st.self_s * per, "s")
        out[f"{name}.errors"] = (st.errors * per, "count")
        out[f"{name}.dp_transitions"] = (st.counters["dp_transitions"] * per, "count")
        out[f"{name}.tables_built"] = (st.counters["tables_built"] * per, "count")
    dp_self = sum(s[name].self_s for name in _DP_LAYERS)
    dp_work = sum(s[name].counters["dp_transitions"] for name in _DP_LAYERS)
    out["fastpaths.dp_rate"] = (dp_work / dp_self if dp_self > 0 else 0.0, "1/s")
    shares = tracer.distinct_shares
    out["fastpaths.distinct_input_share"] = (
        sum(shares) / len(shares) if shares else 1.0, "ratio")
    eng = s["engine.SmallEvaluator"]
    out["engine.SmallEvaluator.calls"] = (eng.calls * per, "count")
    out["engine.SmallEvaluator.self_s"] = (eng.self_s * per, "s")
    for key in ("ranges_evaluated", "dp_transitions", "families_enumerated"):
        out[f"engine.SmallEvaluator.{key}"] = (eng.counters[key] * per, "count")
    out["engine.range_rate"] = (
        eng.counters["ranges_evaluated"] / eng.self_s if eng.self_s > 0 else 0.0, "1/s")
    disp = s["norms.dispatch"]
    out["norms.dispatch.calls"] = (disp.calls * per, "count")
    out["norms.dispatch.self_s"] = (disp.self_s * per, "s")
    out["norms.dispatch.errors"] = (disp.errors * per, "count")
    for name in ("oracle.brute_force_norm", "fastpaths.level1_runs",
                 "witnesses.inductive_witness", "witnesses.ratio_search",
                 "geometry.order_property_matrix", "geometry.distance_lower",
                 "phidsl.eval_phi", "cli.main"):
        out[f"{name}.calls"] = (s[name].calls * per, "count")
        out[f"{name}.self_s"] = (s[name].self_s * per, "s")
    out["session.work_units"] = (sum(st.work_units for st in s.values()) * per, "count")
    return out
