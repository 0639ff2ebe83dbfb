"""Process-global labelled metrics for the live job service.

:class:`ServiceMetrics` layers *labels* on top of the deliberately
label-free :class:`repro.obs.metrics.MetricsRegistry`: each
``(family, labels)`` pair gets its own registry cell (the cell name
encodes the sorted labels), and a side table remembers the family,
kind, labels and help text so :meth:`render` can group every cell back
under one ``# TYPE`` line per family in the OpenMetrics exposition.

The service keeps exactly one of these per process (module-global
:func:`service_metrics`); the HTTP layer, the job manager and the
resource sampler all write into it, and ``GET /api/v1/metrics`` renders
it.  Child-job registries ship their typed exports over the existing
parent/child event pipe and fold in via :meth:`merge_child` — those
keep their plain dotted names and render through the same
:func:`repro.obs.openmetrics.add_registry_export` path the CLI's
``metrics-dump`` uses, so solver counter names can never drift between
a one-shot dump and a live scrape.

Thread safety matches the underlying registry: cell creation and the
side table are lock-guarded; instrument updates (``inc``/``set``/
``observe``) are the registry's lock-free hot-path primitives.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Mapping, Optional, Tuple

from ..obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from ..obs.openmetrics import (
    ExpositionBuilder,
    add_registry_export,
    histogram_samples,
    sanitize_name,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, Any]]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


def _cell_name(family: str, key: LabelKey) -> str:
    if not key:
        return family
    encoded = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{family}{{{encoded}}}"


class ServiceMetrics:
    """A labelled metrics facade over one private registry."""

    def __init__(self):
        self._registry = MetricsRegistry()
        self._lock = threading.Lock()
        # cell name -> (family, kind, labels-as-dict, help)
        self._cells: Dict[str, Tuple[str, str, Dict[str, str],
                                     Optional[str]]] = {}
        self.started_unix_s = time.time()

    @property
    def uptime_s(self) -> float:
        return max(0.0, time.time() - self.started_unix_s)

    # -- typed accessors ----------------------------------------------------

    def _cell(
        self,
        family: str,
        kind: str,
        labels: Optional[Mapping[str, Any]],
        help_text: Optional[str],
    ) -> str:
        key = _label_key(labels)
        name = _cell_name(family, key)
        with self._lock:
            known = self._cells.get(name)
            if known is None:
                self._cells[name] = (family, kind, dict(key), help_text)
            elif known[1] != kind:
                raise TypeError(
                    f"service metric {family!r} already registered as "
                    f"{known[1]}, not {kind}"
                )
        return name

    def counter(
        self,
        family: str,
        labels: Optional[Mapping[str, Any]] = None,
        help: Optional[str] = None,
    ) -> Counter:
        return self._registry.counter(
            self._cell(family, "counter", labels, help)
        )

    def gauge(
        self,
        family: str,
        labels: Optional[Mapping[str, Any]] = None,
        help: Optional[str] = None,
    ) -> Gauge:
        return self._registry.gauge(
            self._cell(family, "gauge", labels, help)
        )

    def histogram(
        self,
        family: str,
        labels: Optional[Mapping[str, Any]] = None,
        help: Optional[str] = None,
    ) -> Histogram:
        return self._registry.histogram(
            self._cell(family, "histogram", labels, help)
        )

    def discard(
        self, family: str, labels: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Retire one labelled cell (job went terminal: drop its gauges)."""
        name = _cell_name(family, _label_key(labels))
        with self._lock:
            self._cells.pop(name, None)
        self._registry.discard(name)

    # -- child-job merge ----------------------------------------------------

    def merge_child(
        self, exported: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Fold a child's typed registry export into the service registry.

        Child metrics keep their plain dotted names (no labels): job
        children run one flow each, and the merge semantics — counters
        sum, histograms fold, gauges last-write-wins — match the
        sharded-run contract of :meth:`MetricsRegistry.merge_export`.
        """
        self._registry.merge_export(dict(exported))

    # -- exposition ---------------------------------------------------------

    def render(self, builder: Optional[ExpositionBuilder] = None) -> str:
        """The OpenMetrics text exposition of every cell + child metric."""
        builder = builder or ExpositionBuilder()
        exported = self._registry.export()
        with self._lock:
            cells = dict(self._cells)
        plain = {
            name: entry
            for name, entry in exported.items()
            if name not in cells
        }
        # Declare labelled families first, grouped, in first-seen order.
        for cell_name, (family, kind, labels, help_text) in cells.items():
            entry = exported.get(cell_name)
            if entry is None:
                continue
            value = entry.get("value")
            name = sanitize_name(family)
            builder.family(name, kind, help_text)
            if kind == "histogram":
                histogram_samples(builder, name, value, labels or None)
            elif value is not None:
                builder.sample(name, value, labels or None)
        add_registry_export(builder, plain)
        return builder.render()


_default = ServiceMetrics()
_default_lock = threading.Lock()


def service_metrics() -> ServiceMetrics:
    """The process-global service metrics instance."""
    return _default


def reset_service_metrics() -> ServiceMetrics:
    """Replace the process-global instance (test isolation)."""
    global _default
    with _default_lock:
        _default = ServiceMetrics()
        return _default
