"""In-memory span recording around calls into edgetelem's public callables.

Only the traced run installs these wrappers; the untraced run calls the
program unmodified.  A span is (id, parent id, name, start ns, end ns,
request id).  Parents come from a per-thread stack, so nested calls on one
thread link up; spans from the generator and the SUT process join on the
request id ``device/seq``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

from measure import percentile, self_time


def record_request(_args, record):
    return None if record is None else f"{record.snapshot.device.device_id}/{record.snapshot.seq}"


def snapshot_request(_args, snapshot):
    return None if snapshot is None else f"{snapshot.device.device_id}/{snapshot.seq}"


def action_request(args, _result):
    """For callables taking an ActionMessage as their last argument."""
    return f"action/{args[-1].seq}"


def ack_request(_args, ack):
    return None if ack is None else f"rec/{ack['record_id']}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, request_of=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.traced(getattr(owner, attr), name, request_of))

    def traced(self, original, name: str, request_of=None):
        """``original`` wrapped to record a span per call.

        ``request_of(args, result)`` names the request; result is None when
        the call raised.
        """
        tracer = self

        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                request = request_of(args, result) if request_of is not None else None
                tracer.spans.append((span_id, parent, name, start, end, request))

        return traced

    def event(self, name: str, request=None, at=None) -> None:
        """A zero-length span under the current span, if any."""
        stack = self._stack()
        t = time.monotonic_ns() if at is None else at
        self.spans.append((next(self._ids), stack[-1] if stack else 0, name, t, t, request))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def dump(path, tracers_spans: dict) -> int:
    """Write spans of each process as JSON lines; returns the span count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for process, spans in tracers_spans.items():
            for span_id, parent, name, start, end, request in spans:
                fh.write(json.dumps([process, span_id, parent, name, start, end, request]) + "\n")
                n += 1
    return n


class SpanIndex:
    """Durations, children and request ids of one process's spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s[0]: s for s in self.spans}
        self.children: dict = {}
        for s in self.spans:
            if s[1]:
                self.children.setdefault(s[1], []).append(s)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[2] == name]

    def durations_ns(self, name: str) -> list:
        return [s[4] - s[3] for s in self.named(name)]

    def self_times_ns(self, name: str) -> list:
        return [
            self_time(s[3], s[4], [(c[3], c[4]) for c in self.children.get(s[0], ())])
            for s in self.named(name)
        ]

    def child_sum_ns(self, parent_name: str, child_names) -> list:
        """Per parent span, the summed duration of its children with these names."""
        out = []
        for s in self.named(parent_name):
            out.append(sum(c[4] - c[3] for c in self.children.get(s[0], ()) if c[2] in child_names))
        return out

    def within(self, span, ancestor_name: str) -> bool:
        """Whether some ancestor of ``span`` has this name."""
        span = self.by_id.get(span[1])
        while span is not None:
            if span[2] == ancestor_name:
                return True
            span = self.by_id.get(span[1])
        return False

    def request(self, span) -> str | None:
        """The request id of a span or of its nearest ancestor that has one."""
        while span is not None:
            if span[5] is not None:
                return span[5]
            span = self.by_id.get(span[1])
        return None


def median_us(samples_ns) -> float:
    return percentile(samples_ns, 5000) / 1e3 if samples_ns else 0.0
