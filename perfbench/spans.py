"""In-memory span recorder.

A span is (name, start, end, parent, run id).  Spans are appended to flat
arrays while a traced pass runs and are only turned into per-name totals,
self times and counts afterwards, so recording stays cheap.  A span's self
time is its duration minus the time its child spans cover; spans nest
strictly on one thread, so the children of a span never overlap and their
covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        # Counters kept at hooked boundaries in addition to the span counts.
        self.counts: Counter = Counter()
        # Per-span annotations for the few spans that need them (solver runs).
        self.tags: dict[int, dict] = {}
        # Identifier shared by the spans of one operation; -1 marks set-up.
        self.run_id = -1
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def lookup(self, name: str):
        """Id of a span name, or None if no span of that name was ever set up."""
        return self._ids.get(name)

    def begin(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span (-1 outside every span)."""
        return self._stack[-1] if self._stack else -1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def wrap(self, name: str, fn):
        """fn wrapped so that every call records one span called ``name``."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def arrays(self) -> dict:
        """Zero-copy numpy views of the span columns; while a view is alive the
        recorder cannot grow, so take them only once recording is over."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    start, end, parent = np.asarray(start), np.asarray(end), np.asarray(parent)
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - covered


def summarize(rec: SpanRecorder, runs=None) -> dict:
    """Per span name: calls, total seconds and self seconds.

    ``runs`` limits the summary to spans whose run id satisfies it, for
    example ``lambda r: r >= 0`` to leave out set-up.
    """
    a = rec.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    keep = np.ones(own.size, dtype=bool) if runs is None else runs(a["run"])
    ids = a["name_id"][keep]
    n = len(rec.names)
    calls = np.bincount(ids, minlength=n)
    total = np.bincount(ids, weights=(a["end"] - a["start"])[keep], minlength=n)
    self_s = np.bincount(ids, weights=own[keep], minlength=n)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(rec.names)
    }
