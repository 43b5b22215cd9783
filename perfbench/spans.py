"""Outside-in tracing: wrap the engine's public functions and record spans.

A span is one call of a wrapped function: its name, start, end, parent span,
operation id and thread. Spans are kept in memory and written out at the end.

Wrapping happens at the module attribute where each caller looks a function
up. `vit` calls `numerics.matmul` through the `numerics` module, so replacing
`numerics.matmul` covers it; but `vit` binds `patchify_embed` by name, so the
binding in `vit` is replaced as well. Every binding of one original function
gets the same wrapper, and `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: The engine's layers, in the order the per-layer table lists them.
LAYERS = ("numerics", "embed", "vit", "reduce", "diag", "container", "cli")

#: Public names left unwrapped: `as_f32` is a dtype cast called from inside
#: every kernel, and a span around it would double the span count for no
#: layer's benefit.
UNWRAPPED = frozenset({"numerics.as_f32"})

#: Methods wrapped on their class, since callers reach them through instances.
METHODS = (("diag", "RunDiag", "to_dict"),)


def _matmul_counts(args, result) -> dict:
    (m, k), (_, n) = np.shape(args[0]), np.shape(args[1])
    # bytes moved are computed from operand shapes: both inputs read once,
    # the output written once, 4 bytes per float32
    return {"flop": 2 * m * k * n, "bytes": 4 * (m * k + k * n + m * n)}


def _attention_counts(args, result) -> dict:
    n, d = args[0].n_tokens, args[0].dim
    return {"flop": 2 * (4 * n * d * d + 2 * n * n * d)}


def _mlp_counts(args, result) -> dict:
    n, d = args[0].n_tokens, args[0].dim
    return {"flop": 2 * 2 * n * d * args[1].fc1_weight.shape[1]}


#: Work counted at the boundary where it happens, keyed by span name.
COUNTERS: dict[str, Callable] = {
    "numerics.matmul": _matmul_counts,
    "numerics.gelu": lambda args, result: {"elems": int(np.size(args[0]))},
    "vit.mhsa_forward": _attention_counts,
    "vit.mlp_forward": _mlp_counts,
    "reduce.apply_merge": lambda args, result: {"merges": max(0, int(args[2]))},
    "reduce.bipartite_soft_match": lambda args, result: {"edges": len(result.edges)},
    "vit.encoder_forward": lambda args, result: {"tokens_out": result[1].final_output_tokens},
}


@dataclass
class Span:
    id: int
    parent: int | None
    op: object
    thread: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans with one parent stack per thread.

    A span opened on a thread whose stack is empty takes as parent the
    innermost open span of the thread that began the current operation; that
    links the forwards `cli run` fans out to worker threads to the `cmd_run`
    waiting on them. `list.append` and `next()` on a counter are single calls
    into C, so threads may record concurrently without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: object = None
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._op_thread: int | None = None

    def begin_op(self, op) -> None:
        self.op = op
        self._op_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._stacks.get(self._op_thread) or [None]
                parent = owner[-1]
            span = Span(next(self._ids), parent, self.op, threading.get_ident(), name, 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON array per line: id, parent, op, thread, name, start, end, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.op, s.thread, s.name, s.start, s.end, s.counts]))
                fh.write("\n")


def _home(fn) -> str | None:
    """The layer a function is defined in, or None if it is not the engine's."""
    package, _, module = getattr(fn, "__module__", "").rpartition(".")
    return module if package == "repiece" and module in LAYERS else None


class Installation:
    """The wrappers one `install` put in place, and the originals they replaced."""

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []
        self.names: set[str] = set()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(tracer: Tracer, modules: dict[str, object]) -> Installation:
    """Wrap every public engine function at every module binding of it.

    modules maps layer name to the imported module. Returns the installation,
    whose `names` lists every span name a call can record.
    """
    inst = Installation()
    wrappers: dict[object, Callable] = {}
    for layer in LAYERS:
        module = modules[layer]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or _home(fn) is None:
                continue
            name = f"{_home(fn)}.{fn.__name__}"
            if name in UNWRAPPED:
                continue
            if fn not in wrappers:
                wrappers[fn] = tracer.wrap(name, fn)
                inst.names.add(name)
            inst.replaced.append((module, attr, fn))
            setattr(module, attr, wrappers[fn])
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        fn = vars(cls)[method]
        name = f"{layer}.{cls_name}.{method}"
        inst.replaced.append((cls, method, fn))
        inst.names.add(name)
        setattr(cls, method, tracer.wrap(name, fn))
    return inst


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of interval covered by the union of children."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children on other threads may overlap each other; their union counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered((s.start, s.end), children.get(s.id, []))
        for s in spans
    }


def has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False
