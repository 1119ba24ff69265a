"""In-memory spans around the engine's public layer functions.

The traced run of ``engine-worstcase-m256`` (and the engine-only
reference of the served workload) wraps these functions from outside
the program, records one span per call -- name, start, end, parent and
the fleet it belongs to -- and turns them into per-step layer costs.
Nothing under ``src/`` changes: the wrappers replace class or module
attributes for the duration of a ``with`` block and restore them after.

A span's self time is its duration minus the time its child spans
cover; the engine is driven by one thread, so children never overlap.
"""

from __future__ import annotations

import time

#: (dotted owner, attribute, span name).  Module-level functions are
#: wrapped where the engine looks them up (``repro.engine.session``
#: imports them by name).
ENGINE_LAYERS = (
    ("repro.engine.manager:SessionManager", "open", "engine.open"),
    ("repro.engine.manager:SessionManager", "finish", "engine.finish"),
    ("repro.engine.manager:SessionManager", "step_many", "engine.step_many"),
    ("repro.core.two_world:TwoWorldModel", "propagate_front",
     "two_world.propagate_front"),
    ("repro.core.joint:EventQuantifier", "candidate_bc", "joint.candidate_bc"),
    ("repro.core.joint:EventQuantifier", "commit", "joint.commit"),
    ("repro.engine.session", "sufficient_safe", "theorem.sufficient_safe"),
    ("repro.engine.session", "solve_conditions_batch",
     "qp.solve_conditions_batch"),
)

#: Layers called from inside ``step_many``; with its self time they
#: account for all of its wall time.
STEP_CHILDREN = (
    "two_world.propagate_front",
    "joint.candidate_bc",
    "joint.commit",
    "theorem.sufficient_safe",
    "qp.solve_conditions_batch",
)


def _resolve(dotted: str):
    import importlib

    module_name, _, class_name = dotted.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class SpanRecorder:
    """Collects spans while installed; a context manager.

    ``spans`` holds ``[name, start, end, parent, group, info]`` lists:
    ``parent`` is the index of the enclosing span (-1 at top level),
    ``group`` the fleet id set through :attr:`group`, and ``info`` the
    per-call fact a summary needs (conditions passed to the solver,
    whether ``sufficient_safe`` cleared its condition).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.group = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    recorder.group, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if name == "theorem.sufficient_safe":
                span[5] = bool(result)
            elif name == "qp.solve_conditions_batch":
                span[5] = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "SpanRecorder":
        for dotted, attribute, name in ENGINE_LAYERS:
            owner = _resolve(dotted)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time in seconds (duration minus children)."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def totals(self) -> dict:
        """name -> {"calls", "total_s", "self_s", "info"} over all spans."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(
                span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": 0}
            )
            entry["calls"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += own
            if span[5] is not None:
                entry["info"] += int(span[5])
        return out

    def as_json(self) -> list[dict]:
        """The spans, times in microseconds from the first span."""
        if not self.spans:
            return []
        zero = self.spans[0][1]
        return [
            {
                "name": name,
                "start_us": round((start - zero) * 1e6, 1),
                "end_us": round((end - zero) * 1e6, 1),
                "parent": parent,
                "fleet": group,
                **({} if info is None else {"info": info}),
            }
            for name, start, end, parent, group, info in self.spans
        ]


def engine_layer_metrics(recorder: SpanRecorder, steps: int, sessions: int,
                         attempts: int) -> tuple[dict, dict]:
    """The engine's per-layer metrics from one recorder's spans.

    ``steps`` are the releases made while it recorded, ``sessions`` the
    sessions opened and ``attempts`` the calibration candidates tried.
    Returns ``(metrics, closure)`` where closure compares the layer sum
    with ``step_many`` wall time.
    """
    totals = recorder.totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    per_step = 1e3 / max(steps, 1)
    metrics = {
        "two_world.propagate_front.ms_per_step":
            (get("two_world.propagate_front", "total_s") * per_step, "ms"),
        "two_world.propagate_front.calls_per_step":
            (get("two_world.propagate_front", "calls") / max(steps, 1), "count"),
        "joint.candidate_bc.ms_per_step":
            (get("joint.candidate_bc", "total_s") * per_step, "ms"),
        "joint.candidate_bc.calls_per_step":
            (get("joint.candidate_bc", "calls") / max(steps, 1), "count"),
        "joint.commit.ms_per_step":
            (get("joint.commit", "total_s") * per_step, "ms"),
        "theorem.sufficient_safe.ms_per_step":
            (get("theorem.sufficient_safe", "total_s") * per_step, "ms"),
        "theorem.sufficient_safe.cleared_ratio": (
            get("theorem.sufficient_safe", "info")
            / max(get("theorem.sufficient_safe", "calls"), 1),
            "ratio",
        ),
        "qp.solve_conditions_batch.ms_per_step":
            (get("qp.solve_conditions_batch", "total_s") * per_step, "ms"),
        "qp.conditions_per_step":
            (get("qp.solve_conditions_batch", "info") / max(steps, 1), "count"),
        "engine.step_many.self_ms_per_step":
            (get("engine.step_many", "self_s") * per_step, "ms"),
        "engine.open.ms_per_session":
            (get("engine.open", "total_s") * 1e3 / max(sessions, 1), "ms"),
        "engine.finish.ms_per_session":
            (get("engine.finish", "total_s") * 1e3 / max(sessions, 1), "ms"),
        "engine.calibration.attempts_per_release":
            (attempts / max(steps, 1), "count"),
    }
    layer_sum = sum(get(name, "total_s") for name in STEP_CHILDREN)
    layer_sum += get("engine.step_many", "self_s")
    wall = get("engine.step_many", "total_s")
    closure = {
        "step_many_ms_per_step": wall * per_step,
        "layers_plus_self_ms_per_step": layer_sum * per_step,
        "ratio": layer_sum / wall if wall else 0.0,
        "layer_share": {
            name: (get(name, "total_s") / wall if wall else 0.0)
            for name in STEP_CHILDREN
        },
    }
    return metrics, closure
