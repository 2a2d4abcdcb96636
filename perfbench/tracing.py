"""In-memory span tracer that wraps graybox functions from outside the package.

Each wrapped call records one span: name, start, end, parent span and the id
of the CLI invocation it belongs to. Spans live in flat arrays so that a run
with a few hundred thousand `delta_pair` calls stays small, and are written
out as JSON only when the run ends. Wrappers are installed for the traced
rounds only and removed afterwards, so untraced rounds run the original code.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """Spans and counts of the current run; `invocation` tags new records."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_inv = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.invocation = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.peaks: dict[tuple[int, str], float] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.origin = perf_counter()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, value: float) -> None:
        """Add to a count attributed to the current invocation."""
        self.counts[(self.invocation, name)] += value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen in the current invocation."""
        key = (self.invocation, name)
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        `owner` is the module or class whose attribute the caller resolves at
        call time; `on_return(tracer, args, result)` may record counts.
        """
        original = vars(owner)[attr]
        name_id = self._intern(name)
        stack = self._stack
        names, parents, invs = self.span_name, self.span_parent, self.span_inv
        starts, ends = self.span_start, self.span_end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            invs.append(self.invocation)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if on_return is not None:
                on_return(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path, invocations: list[dict]) -> None:
        doc = {
            "names": self.names,
            "time_origin": "seconds since tracer creation",
            "spans": {
                "name": list(self.span_name),
                "start": [round(t - self.origin, 7) for t in self.span_start],
                "end": [round(t - self.origin, 7) for t in self.span_end],
                "parent": list(self.span_parent),
                "invocation": list(self.span_inv),
            },
            "invocations": invocations,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


class Aggregate:
    """Span totals keyed by invocation and name.

    `spans[(inv, name)]` is [total time, self time, calls]; self time is a
    span's duration minus its direct children's, which never overlap in one
    thread. `under[(inv, name, parent name)]` is the total time of the spans
    called directly from a span of the parent name.
    """

    def __init__(self, tracer: Tracer):
        names, parent_of, inv_of = tracer.names, tracer.span_parent, tracer.span_inv
        name_of = [names[i] for i in tracer.span_name]
        dur = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
        child_time = [0.0] * len(dur)
        self._children: dict[int, list[str]] = defaultdict(list)
        self.under: dict[tuple[int, str, str], float] = defaultdict(float)
        for sid, parent in enumerate(parent_of):
            if parent >= 0:
                child_time[parent] += dur[sid]
                self._children[parent].append(name_of[sid])
                self.under[(inv_of[sid], name_of[sid], name_of[parent])] += dur[sid]
        self.spans: dict[tuple[int, str], list[float]] = {}
        self._by_name: dict[tuple[int, str], list[int]] = defaultdict(list)
        for sid, name in enumerate(name_of):
            acc = self.spans.setdefault((inv_of[sid], name), [0.0, 0.0, 0])
            acc[0] += dur[sid]
            acc[1] += dur[sid] - child_time[sid]
            acc[2] += 1
            self._by_name[(inv_of[sid], name)].append(sid)

    def children_of(self, name: str, invocation: int) -> list[list[str]]:
        """For each span called `name`, the names of its direct children in call order."""
        return [self._children[sid] for sid in self._by_name.get((invocation, name), [])]
