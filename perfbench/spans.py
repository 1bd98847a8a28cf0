"""Nested span timing: calls, inclusive time and self time per span name.

A span's self time is its duration minus the time covered by the spans
opened inside it.  Inclusive time is counted once per outermost span of a
name, so a span that re-enters itself (or another span of the same name)
is not counted twice.  Single-threaded use only.
"""
from __future__ import annotations

import time
from typing import Callable


class SpanTimer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._open: list[list] = []  # [name, start_ns, child_ns]
        self._depth: dict[str, int] = {}
        self.totals: dict[str, dict[str, int]] = {}

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._open.append([name, self._clock(), 0])

    def exit(self) -> None:
        name, start, child_ns = self._open.pop()
        elapsed = self._clock() - start
        if self._open:
            self._open[-1][2] += elapsed
        self._depth[name] -= 1
        total = self.totals.setdefault(name, {"calls": 0, "inclusive_ns": 0, "self_ns": 0})
        total["calls"] += 1
        total["self_ns"] += elapsed - child_ns
        if self._depth[name] == 0:
            total["inclusive_ns"] += elapsed
