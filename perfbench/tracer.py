"""Span tracing from outside the program, plus the statistics helpers.

A :class:`Tracer` replaces a function or method *where its caller looks
it up* (a class attribute, or a name in the calling module's globals)
with a wrapper that records a span: call count, inclusive time and the
time covered by child spans.  A layer's self time is its inclusive time
minus its children's.  Nothing inside the program changes; the
wrappers are installed by the benchmark process and live only in it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


class Span:
    """Accumulated measurements of one named layer boundary."""

    __slots__ = ("calls", "total", "child", "samples", "returned", "last_return")

    def __init__(self, keep_samples: bool) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        #: per-call inclusive seconds, when requested
        self.samples: Optional[List[float]] = [] if keep_samples else None
        #: sum and last value of integer return values, when requested
        self.returned = 0
        self.last_return = 0

    @property
    def self_time(self) -> float:
        """Inclusive time minus the time child spans cover, seconds."""
        return self.total - self.child


class Tracer:
    """Installs span-recording wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        # One child-time accumulator per open span.
        self._stack: List[float] = []
        self._installed: List[tuple] = []

    def span(self, name: str) -> Span:
        """The span of ``name`` (empty if never called)."""
        return self.spans.get(name) or Span(False)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        samples: bool = False,
        count_return: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``samples`` keeps every call's inclusive duration; with
        ``count_return`` the wrapped callable returns a byte count that
        is summed into :attr:`Span.returned`.
        """
        original: Callable = getattr(owner, attr)
        span = self.spans.setdefault(name, Span(samples))
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                span.calls += 1
                span.total += elapsed
                span.child += stack.pop()
                if stack:
                    stack[-1] += elapsed
                if span.samples is not None:
                    span.samples.append(elapsed)
            if count_return:
                span.returned += int(result)
                span.last_return = int(result)
            return result

        self._install(owner, attr, original, traced)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and sum the byte counts it returns.

        No timing and no span: the calls stay part of their caller's
        self time.
        """
        original: Callable = getattr(owner, attr)
        span = self.spans.setdefault(name, Span(False))

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            span.calls += 1
            span.returned += int(result)
            span.last_return = int(result)
            return result

        self._install(owner, attr, original, counted)

    def _install(self, owner: object, attr: str, original: Callable, wrapper: Callable) -> None:
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a sample."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    """The 50th percentile of a sample."""
    return percentile(values, 50.0)
