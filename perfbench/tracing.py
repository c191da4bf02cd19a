"""Spans around the public functions of each torunits module, from outside the program.

Tracing replaces each traced function by a wrapper in every torunits
module that holds it by name (``cli`` imports ``check_case`` and
``verify_order`` directly), and restores the originals afterwards.
Spans stay in memory as (name, start, end, parent, op id) and are
written out once, at the end of the run.

With ``memory=True`` the wrapper also records, through tracemalloc, how
far allocations rose above their level at entry while the call ran.
That pass is kept apart from the timed ones because tracemalloc slows
every allocation.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute path) of every traced public function
LAYERS = (
    ("cli", "main"),
    ("psl2", "admissible_orders"),
    ("helpengine", "verify_order"),
    ("helpengine", "candidate_divisors"),
    ("helpengine", "check_case"),
    ("helpengine", "enumerate_patterns"),
    ("realbasis", "basis_change_det"),
    ("realbasis", "decompose"),
    ("realbasis", "basis_coeff"),
    ("cyclotomic", "cyclotomic_poly"),
    ("cyclotomic", "CycInt.__mul__"),
    ("divisibility", "check_vanishing"),
    ("divisibility", "cyclotomic_value_divisible"),
)


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__mul__', '.mul')}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    items: int = 0  # values yielded, for generator layers
    peak_bytes: int = 0  # allocation rise above entry, in memory passes only
    arg0: int | None = None  # first argument when it is an integer, to count distinct orders


def _int_arg(args: tuple) -> int | None:
    return args[0] if args and isinstance(args[0], int) else None


@dataclass
class _Open:
    index: int
    base: int = 0
    high: int = 0


@dataclass
class Tracer:
    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    op_id: int = 0
    _stack: list[_Open] = field(default_factory=list)

    def _enter(self, name: str, arg0) -> _Open:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent.index if parent else None, self.op_id, arg0=arg0))
        frame = _Open(index)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.high = max(parent.high, peak)
            tracemalloc.reset_peak()
            frame.base = frame.high = current
        self._stack.append(frame)
        self.spans[index].start = time.perf_counter()
        return frame

    def _exit(self, frame: _Open) -> None:
        span = self.spans[frame.index]
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            frame.high = max(frame.high, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = frame.high - frame.base
            if self._stack:
                self._stack[-1].high = max(self._stack[-1].high, frame.high)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                frame = self._enter(name, _int_arg(args))
                try:
                    for item in fn(*args, **kwargs):
                        self.spans[frame.index].items += 1
                        yield item
                finally:
                    self._exit(frame)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, _int_arg(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def install(self) -> "Patches":
        """Wrap every traced function; the returned object restores the originals."""
        patches = Patches()
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "torunits" or name.startswith("torunits."))
        }
        for module, attr in LAYERS:
            owner = modules[f"torunits.{module}"]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            wrapped = self.wrap(layer_name(module, attr), original)
            patches.set(owner, last, wrapped)
            if path:
                continue  # a method: patching the class reaches every caller
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        patches.set(mod, key, wrapped)
        return patches


class Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


# -- span arithmetic -----------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, cursor, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start) - covered)
    return out


def inclusive_time(spans: list[Span], name: str) -> float:
    """Wall time inside `name`, counting a recursive call once (outermost spans only)."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            total += s.end - s.start
    return total


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op_id}
                )
                + "\n"
            )
