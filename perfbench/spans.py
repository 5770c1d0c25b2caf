"""In-memory spans recorded around calls into smoothcert's public functions.

The program is not edited: a ``Tracer`` replaces a public function by a
wrapper in every loaded ``smoothcert`` module that holds a reference to it
(so ``from .x import f`` call sites are covered too), records one span per
call and puts the originals back on ``uninstall``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Philox4x64 emits four 64-bit words per counter step.
PHILOX_WORDS_PER_BLOCK = 4


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def philox_position(state: dict) -> int:
    """Words a numpy Philox generator has handed out, from its ``state``.

    The 256-bit counter counts refilled blocks of four words and
    ``buffer_pos`` is how many words of the current block are used (4 for a
    fresh generator with an empty buffer, which is position 0).
    """
    counter = 0
    for i, limb in enumerate(state["state"]["counter"]):
        counter |= int(limb) << (64 * i)
    return PHILOX_WORDS_PER_BLOCK * (counter - 1) + int(state["buffer_pos"])


def philox_words(before: dict, after: dict) -> int:
    """Words drawn between two states of the same Philox generator."""
    return philox_position(after) - philox_position(before)


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it covered by its children.

    Children may overlap each other; overlapping parts count once, and the
    parts of a child outside the span do not count.
    """
    covered = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.duration - covered


# An observer sees (span, args, kwargs) before the call and may return a
# callback that sees the call's result afterwards.
Observer = Callable[[Span, tuple, dict], Callable[[object], None] | None]


class Tracer:
    """Records spans in memory; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, observe: Observer | None = None):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            after = observe(span, args, kwargs) if observe else None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets: dict[str, Observer | None]) -> None:
        """Wrap each ``"module.function"`` in ``targets`` everywhere it is bound."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "smoothcert" or n.startswith("smoothcert."))]
        for qualname, observe in targets.items():
            mod_name, fn_name = qualname.rsplit(".", 1)
            original = getattr(sys.modules["smoothcert." + mod_name], fn_name)
            wrapper = self.wrap(original, qualname, observe)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def ancestor(self, span: Span, name: str) -> Span | None:
        p = span.parent
        while p is not None:
            if self.spans[p].name == name:
                return self.spans[p]
            p = self.spans[p].parent
        return None

    def dump(self) -> list[dict]:
        return [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.info} for s in self.spans]
