"""Timing and tracing of the benchmark's calls into dyadlab.

:class:`Recorder` times every call the benchmark makes into a dyadlab layer
and decides whether it failed: a call fails when it raises an exception it
was not meant to raise, or does not raise the one it was meant to.

:class:`Tracer` keeps spans in memory during traced passes: name, tag,
pass, start, end and how it ended (``None``, ``"expected"`` or
``"unexpected"`` error).  Counts are recorded at the same boundaries.
Nothing is written until :meth:`Tracer.write` runs at the end of the
benchmark.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN_FIELDS = ("name", "tag", "pass", "start", "end", "error")


class Tracer:
    """Span and count store for one benchmark process."""

    def __init__(self):
        # one list per span, in SPAN_FIELDS order
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_index: int | None = None

    @contextmanager
    def span(self, name: str, tag: str | None = None, expect=()):
        """Time the body; an exception is classed against ``expect`` and re-raised."""
        record = [name, tag, self.pass_index, time.perf_counter(), None, None]
        self.spans.append(record)
        try:
            yield
        except BaseException as exc:
            record[5] = "expected" if isinstance(exc, expect) else "unexpected"
            raise
        finally:
            record[4] = time.perf_counter()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def totals(self, name: str, tag: str | None = None) -> dict[str, float]:
        """Calls, busy seconds and errors by kind of the spans called ``name``."""
        out = {"calls": 0, "busy_s": 0.0, "errors_expected": 0, "errors_unexpected": 0}
        for span_name, span_tag, _pass, start, end, error in self.spans:
            if span_name != name or (tag is not None and span_tag != tag):
                continue
            out["calls"] += 1
            out["busy_s"] += end - start
            if error is not None:
                out[f"errors_{error}"] += 1
        return out

    def pass_busy(self, pass_index: int) -> float:
        """Seconds of one pass covered by spans; spans never nest."""
        return sum(
            end - start for _name, _tag, p, start, end, _err in self.spans if p == pass_index
        )

    def write(self, path) -> None:
        """Write spans, then counts, as JSON lines."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, record))) + "\n")
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": value}) + "\n")


class CaseAborted(Exception):
    """A call failed, so the rest of its case cannot run."""


class Recorder:
    """Times calls into dyadlab, counts attempts and failures, spans when traced."""

    def __init__(self):
        self.tracer: Tracer | None = None
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def call(self, span: str, fn, *args, expect=None, tag=None, repeat=1, **kwargs):
        """Run one operation; returns its result, or the exception it was meant to raise.

        With ``repeat`` above 1 the call runs that many times back to back,
        each run in its own span.  It is still one operation, and its
        latency is its fastest run.
        """
        expected = expect or ()
        self.attempted += 1
        best = math.inf
        for _ in range(repeat):
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    out = fn(*args, **kwargs)
                else:
                    with self.tracer.span(span, tag, expected):
                        out = fn(*args, **kwargs)
            except expected as exc:
                out = exc
            except Exception as exc:
                self.latencies.append(min(best, time.perf_counter() - t0))
                self.failed += 1
                self.problems.append(f"{span}: unexpected {type(exc).__name__}: {exc}")
                raise CaseAborted(span) from exc
            best = min(best, time.perf_counter() - t0)
        self.latencies.append(best)
        if expect is not None and not isinstance(out, expect):
            self.failed += 1
            self.problems.append(f"{span}: did not raise {expect.__name__}")
            raise CaseAborted(span)
        return out

    def probe(self, span: str, fn, *args, **kwargs):
        """Extra measurement made in traced passes only; not an operation."""
        with self.tracer.span(span):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)

