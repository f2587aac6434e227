"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces the public entry point of each layer with a
wrapper that times the call with ``perf_counter`` and hands back the
original result unchanged; nothing under ``src/`` is edited.  Spans
nest on a stack (the closed loop has one client thread), so each span
knows the time its child spans covered and its *self time* is its
duration minus that.  Per span name the tracer keeps the call count,
the total duration and the total self time.
"""

from __future__ import annotations

import functools
from time import perf_counter

from repro.execution.engine import ExecutionEngine
from repro.execution.progressive import ProgressiveExecutor
from repro.optimizer.optimizer import Optimizer
from repro.plans.spec import PlanSpec
from repro.serving.plan_cache import PlanCache
from repro.serving.service import QueryResponse, QueryService
from repro.services.base import Service

#: (span name, class, method): the layer boundaries, named after the
#: ``src/repro/`` module each belongs to.
SPANS = (
    ("serving.submit", QueryService, "submit"),
    ("serving.ask_for_more", QueryService, "ask_for_more"),
    ("serving.plan_cache.lookup", PlanCache, "lookup"),
    ("serving.plan_cache.store", PlanCache, "store"),
    ("serving.encode", QueryResponse, "to_json"),
    ("optimizer.optimize", Optimizer, "optimize"),
    ("plans.build", PlanSpec, "build"),
    ("execution.progressive.run", ProgressiveExecutor, "run"),
    ("execution.progressive.more", ProgressiveExecutor, "more"),
    ("execution.engine", ExecutionEngine, "execute"),
    ("services.invoke", Service, "invoke"),
)


class Tracer:
    """Aggregated layer spans: ``totals[name] = [calls, total_s, self_s]``."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}
        # One entry per open span: the time its finished children took.
        self._open: list[float] = []
        self._originals: list[tuple[type, str, object]] = []

    def _wrap(self, name: str, method):
        totals = self.totals[name]
        open_spans = self._open

        @functools.wraps(method)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - children

        return traced

    def __enter__(self) -> "Tracer":
        for name, owner, attribute in SPANS:
            method = owner.__dict__[attribute]
            self._originals.append((owner, attribute, method))
            setattr(owner, attribute, self._wrap(name, method))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, attribute, method = self._originals.pop()
            setattr(owner, attribute, method)
