"""In-memory span recorder for the benchmark's calls into fluxlab modules.

A span covers one call (or one tight group of calls) the benchmark makes into
a module's public functions.  Its name is ``<module>.<operation>``; the
module part is the layer the time is charged to, and the route it served is
its parent.  Spans do not nest, so a module's self time in a pass is the sum
of its spans' durations.  Spans are kept in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass

MODULES = ("landau", "projpair", "gauge", "quadrature", "hall", "lattice", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    route: str
    route_id: int
    pass_index: int

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; a disabled tracer is a no-op.

    The route name and id of the route being run are attached to each span,
    so every span can be traced back to the checked number it helped make.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.route = ""
        self.route_id = -1
        self.pass_index = -1
        self.bookkeeping_s: dict = {}  # tracer's own time per pass

    @contextlib.contextmanager
    def _record(self, name: str):
        t_in = time.perf_counter()
        span = Span(name, 0.0, 0.0, self.route, self.route_id, self.pass_index)
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            own = span.start - t_in + time.perf_counter() - span.end
            self.bookkeeping_s[self.pass_index] = (
                self.bookkeeping_s.get(self.pass_index, 0.0) + own)

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        if name.split(".", 1)[0] not in MODULES:
            raise ValueError(f"span {name!r} names no fluxlab module")
        return self._record(name)

    def self_times(self, pass_index: int) -> dict:
        """Summed self time per module over the spans of one pass."""
        busy = dict.fromkeys(MODULES, 0.0)
        for s in self.spans:
            if s.pass_index == pass_index:
                busy[s.module] += s.seconds
        return busy

    def median(self, name: str, route: str | None = None) -> float:
        """Median seconds per call of one span name, on one route if given;
        0.0 if never called."""
        d = [s.seconds for s in self.spans
             if s.name == name and route in (None, s.route)]
        return statistics.median(d) if d else 0.0

    def write(self, path):
        rows = [{"name": s.name, "start": s.start, "end": s.end, "route": s.route,
                 "route_id": s.route_id, "pass": s.pass_index} for s in self.spans]
        path.write_text(json.dumps({"spans": rows}, indent=1) + "\n")
