"""Operation accounting and in-memory span tracing for the benchmark.

Every call the benchmark makes into ``relconvex`` goes through
:meth:`Recorder.call`, named ``"<module>.<function>"``.  The recorder counts
attempted and failed operations by name and error class.  With tracing on it
also records one span per call, parented to the benchmark's own grouping
span: ``instance`` (the timed unit of work) or ``probe`` (extra traced-only
calls, such as the ``skip_verify=True`` twin of each engine, which are kept
out of instance time).  Spans live in memory and are written out once, when
the run ends.  No span is recorded inside the program itself.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

INSTANCE = "instance"
PROBE = "probe"


class Failed:
    """Returned in place of a result when the call raised."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class Recorder:
    """Counts operations and failures; records spans when ``trace`` is set.

    A span is ``(span_id, name, start_ns, end_ns, parent_id, instance_id)``.
    Grouping spans have parent ``None``; spans of calls into the program have
    the enclosing grouping span as parent.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.attempted = 0
        self.rejected = 0
        self.failures: Counter = Counter()  # (op name, error class) -> count
        self.spans: list[tuple] = []
        self._group: tuple | None = None  # (span_id, name, instance_id)
        self._next_id = 0
        self.before_call = None  # called with no arguments before each operation, when set

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, name: str, error: str) -> None:
        """Count a failed operation."""
        self.failures[(name, error)] += 1

    def reject(self, name: str, error: str) -> None:
        """Count a failed operation whose output was produced but is wrong."""
        self.rejected += 1
        self.fail(name, error)

    def call(self, name: str, fn, *args, expect: type | None = None, **kwargs):
        """Run one operation; an exception is returned as :class:`Failed`.

        An exception of class ``expect`` is the documented outcome for the
        input and is not counted as a failure.
        """
        if self.before_call is not None:
            self.before_call()
        self.attempted += 1
        start = time.perf_counter_ns() if self.trace else 0
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # every error class is counted, none stops the run
            out = Failed(exc)
            if expect is None or not isinstance(exc, expect):
                self.fail(name, type(exc).__name__)
        if self.trace:
            self._span(name, start, time.perf_counter_ns())
        return out

    def open(self, name: str, instance_id: int) -> None:
        if self.trace:
            self._group = (self._new_id(), name, instance_id)

    def close(self, start_ns: int, end_ns: int) -> None:
        if self.trace:
            span_id, name, instance_id = self._group
            self.spans.append((span_id, name, start_ns, end_ns, None, instance_id))
            self._group = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _span(self, name: str, start_ns: int, end_ns: int) -> None:
        parent, instance_id = (None, None) if self._group is None else (
            self._group[0], self._group[2])
        self.spans.append((self._new_id(), name, start_ns, end_ns, parent, instance_id))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,name,start_ns,end_ns,parent_id,instance_id\n")
            for span in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in span) + "\n")


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus what its children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def summarize(spans) -> dict:
    """Busy time and call counts per operation, split by grouping span kind.

    Returns ``{"instance": {op: [ns, calls]}, "probe": {op: [ns, calls]},
    "instance_ns": total instance time, "instance_self_ns": benchmark-side
    time inside instances, "instances": count}``.
    """
    own = self_times(spans)
    kind = {s[0]: s[1] for s in spans if s[4] is None}
    out = {INSTANCE: defaultdict(lambda: [0, 0]), PROBE: defaultdict(lambda: [0, 0])}
    instance_ns = instance_self_ns = instances = 0
    for s in spans:
        if s[4] is None:
            if s[1] == INSTANCE:
                instances += 1
                instance_ns += s[3] - s[2]
                instance_self_ns += own[s[0]]
            continue
        acc = out[kind[s[4]]][s[1]]
        acc[0] += own[s[0]]
        acc[1] += 1
    return {
        INSTANCE: dict(out[INSTANCE]),
        PROBE: dict(out[PROBE]),
        "instance_ns": instance_ns,
        "instance_self_ns": instance_self_ns,
        "instances": instances,
    }
