"""Spans around calls into decoyqkd's public functions.

The traced run replaces each wrapped function in every decoyqkd module
that holds a reference to it (cli imports `analyze_row` by name, link
calls `expected_stats` through its globals), so calls between layers
are seen as well as the benchmark's own. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

Outcome = Callable[[Any], str]
Amount = Callable[[tuple, Any], float]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    outcome: str         # "ok", a tag from the outcome hook, or "raise:<Exception>"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of the functions it is installed on."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, outcome: Outcome | None = None,
             amount: tuple[str, Amount] | None = None, **kwargs):
        """Call fn inside a span; amount=(counter, f(args, result)) adds to a counter."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        tag = "ok"
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if outcome is not None:
                tag = outcome(result)
            if amount is not None:
                self.counts[amount[0]] += amount[1](args, result)
            return result
        except BaseException as exc:
            tag = f"raise:{type(exc).__name__}"
            raise
        finally:
            self.spans[index] = Span(name, start, time.perf_counter(), parent, tag)
            self._stack.pop()

    def install(self, targets: dict[str, tuple[Callable, Outcome | None,
                                               tuple[str, Amount] | None]]) -> None:
        """Wrap each target function wherever a decoyqkd module references it."""
        by_id = {}
        for name, (fn, outcome, amount) in targets.items():
            def wrapper(*args, _n=name, _f=fn, _o=outcome, _a=amount, **kwargs):
                return self.call(_n, _f, *args, outcome=_o, amount=_a, **kwargs)
            by_id[id(fn)] = wrapper
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "decoyqkd" and not mod_name.startswith("decoyqkd."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, by_id[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the name before the first dot) not covered by child spans."""
        spans = self.finished()
        child = [0.0] * len(self.spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        totals: Counter[str] = Counter()
        for i, s in enumerate(self.spans):
            if s is not None:
                totals[s.name.split(".", 1)[0]] += s.duration - child[i]
        return dict(totals)

    def dump(self, path: Path) -> None:
        """Write spans as tab-separated id, parent, name, start, end, outcome."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_s\tend_s\toutcome\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    handle.write(f"{i}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.outcome}\n")
