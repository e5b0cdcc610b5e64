"""Spans for the traced benchmark run, recorded from outside the program.

The benchmark times calls into public functions of each layer; nothing
under ``src/`` is instrumented.  A :class:`Tracer` keeps the duration of
every span in memory, grouped by span name, and the caller writes them
out when the run ends.  A disabled tracer hands out no-op spans, so the
traced and untraced runs execute the same benchmark code.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List


class Tracer:
    """Span durations in seconds, by span name."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: Dict[str, List[float]] = defaultdict(list)

    def span(self, name: str):
        """Context manager timing one span (a no-op when disabled)."""
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name].append(time.perf_counter() - started)

    def add(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.spans[name].append(seconds)

    def extend(self, spans: Dict[str, Iterable[float]]) -> None:
        """Fold spans recorded elsewhere (a server subprocess) into this one."""
        for name, values in spans.items():
            self.spans[name].extend(values)

    def values(self, name: str) -> List[float]:
        return list(self.spans.get(name, ()))

    def to_dict(self) -> Dict[str, List[float]]:
        return {name: list(values) for name, values in self.spans.items()}

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a timed wrapper recording span
        ``name`` (for the life of the process)."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - started)

        setattr(owner, attribute, timed)
