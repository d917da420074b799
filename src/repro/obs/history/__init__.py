"""Long-horizon history: columnar retention, range queries, SLOs.

The retention layer of the observability stack (metrics → traces →
profiles → health → forensics → **history**): where the flight
recorder keeps a bounded ring of recent windows, the history store
keeps *every* window — compacted to one columnar row — in chunked
memmap segments with deterministic multi-resolution rollups, so
"what did fleet energy look like last week?" is a < 50 ms range query
instead of a campaign replay.  :class:`History` is the facade that
ties the pieces to a :class:`~repro.stream.engine.StreamEngine` via
``engine.attach(history=history)``; each row is derived from the
:class:`~repro.obs.forensics.recorder.WindowRecord` the engine builds
once per sealed window and shares with every sink:

* :class:`~.store.HistoryStore` — append-only out-of-core columnar
  segments + rollup levels (see ``docs/observability.md``);
* :func:`~.query.select` — the pure range-query engine behind
  ``/v1/query`` and ``repro obs query``;
* :mod:`~.slo` — multi-window burn-rate SLOs over the stored series,
  evaluated per sealed window by a standard
  :class:`~repro.obs.health.rules.AlertEngine` and exported as
  ``slo_*`` gauges.

Everything is a pure read of the window stream: attaching a history
changes no analytic output bit (asserted in ``tests/obs/`` and by
``bench_query.py --check``), and both the stored rows and the SLO
alert timeline are deterministic — same campaign, same bytes, same
transitions, whatever the arrival chunking.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ... import constants
from ..health.rules import AlertEngine, render_events
from .query import QueryResult, auto_level, select, verify_rollups
from .slo import (
    FAST_BURN,
    SLO,
    SLOW_BURN,
    BurnWindow,
    SLOEvaluator,
    default_slos,
    replay,
    slo_rules,
)
from .store import (
    AGGS,
    DEFAULT_CHUNK_ROWS,
    DEFAULT_ROLLUP_FACTORS,
    HistoryStore,
    fold_values,
)

__all__ = [
    "AGGS",
    "BurnWindow",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_POWER_BUDGET_W",
    "DEFAULT_ROLLUP_FACTORS",
    "FAST_BURN",
    "History",
    "HistoryStore",
    "QueryResult",
    "SLO",
    "SLOEvaluator",
    "SLOW_BURN",
    "auto_level",
    "default_slos",
    "fold_values",
    "history_columns",
    "replay",
    "select",
    "slo_rules",
    "verify_rollups",
]

#: Per-GCD power budget backing the ``energy_budget`` SLO: 95 % of the
#: hardware limit — energy charged above it spends the error budget.
DEFAULT_POWER_BUDGET_W = 0.95 * constants.GCD_MAX_POWER_W

#: Requests slower than this spend the ``serve_latency`` SLO budget
#: (a finite bucket bound of ``SERVE_LATENCY_BUCKETS``).
DEFAULT_SLOW_REQUEST_S = 0.005

#: Canonical mode order of the region columns (REGION_NAMES).
_REGION_KEYS = ("idle", "mi", "ci", "pv")


def history_columns() -> List[Tuple[str, str]]:
    """The standard per-window schema: (series name, fold agg).

    One row per sealed window, every field a float64: the
    :class:`~repro.obs.forensics.recorder.WindowRecord` fleet scalars,
    the canonical region split, ingest/alert deltas, the decision in
    force, and the SLO good/bad accounting columns.
    """
    cols: List[Tuple[str, str]] = [
        ("t_start_s", "min"),
        ("t_end_s", "max"),
        ("samples", "sum"),
        ("gpu_samples", "sum"),
        ("nodes", "max"),
        ("energy_j", "sum"),
        ("gpu_hours", "sum"),
        ("max_gpu_power_w", "max"),
        ("over_limit_samples", "sum"),
    ]
    cols += [(f"region_energy_{k}_j", "sum") for k in _REGION_KEYS]
    cols += [(f"region_gpu_hours_{k}", "sum") for k in _REGION_KEYS]
    cols += [
        ("cap_w", "last"),
        ("published_version", "last"),
        ("samples_in_delta", "sum"),
        ("late_dropped_delta", "sum"),
        ("duplicates_delta", "sum"),
        ("alerts_firing", "max"),
        ("alert_transitions_delta", "sum"),
        ("energy_budget_j", "sum"),
        ("energy_over_budget_j", "sum"),
        ("serve_requests", "sum"),
        ("serve_slow_requests", "sum"),
    ]
    return cols


class History:
    """Store + SLO evaluation behind one engine observer.

    Attach to an engine with ``engine.attach(history=history)``;
    every sealed window's record is compacted to one columnar row,
    appended to the store (rolling up as buckets complete), and the
    SLO burn rates are re-evaluated at the window's end time.  A
    control plane additionally wires :meth:`set_registry` (per-window
    serve-latency good/bad counts for the ``serve_latency`` SLO).
    """

    def __init__(
        self,
        *,
        dir: Optional[Union[str, Path]] = None,
        store: Optional[HistoryStore] = None,
        slos: Optional[List[SLO]] = None,
        power_budget_w: float = DEFAULT_POWER_BUDGET_W,
        slow_request_s: float = DEFAULT_SLOW_REQUEST_S,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        rollup_factors=DEFAULT_ROLLUP_FACTORS,
    ) -> None:
        self._dir = None if dir is None else Path(dir)
        self.store = store
        self.slos = list(slos) if slos is not None else default_slos()
        self.power_budget_w = float(power_budget_w)
        self.slow_request_s = float(slow_request_s)
        self.interval_s = float(interval_s)
        self.chunk_rows = int(chunk_rows)
        self.rollup_factors = tuple(rollup_factors)
        self.evaluator = SLOEvaluator(self.slos)
        self.slo_alerts = AlertEngine(slo_rules(self.slos))
        self._registry = None
        self._registry_lock = None
        self._index = 0
        self._prev_serve = (0.0, 0.0)

    # -- wiring -------------------------------------------------------------------

    def bind_engine(self, engine) -> "History":
        """Adopt the engine's stream geometry (called by its attach)."""
        self.interval_s = float(engine.buffer.interval_s)
        if self.store is None:
            self.store = HistoryStore(
                history_columns(),
                dir=self._dir,
                chunk_rows=self.chunk_rows,
                rollup_factors=self.rollup_factors,
                window_s=float(engine.buffer.window_s),
                meta={
                    "schema": "window-record",
                    "interval_s": self.interval_s,
                    "power_limit_w": constants.GCD_MAX_POWER_W,
                    "power_budget_w": self.power_budget_w,
                },
            )
        return self

    def set_registry(self, registry, lock=None) -> "History":
        """Read serve-latency histogram totals from this registry.

        ``lock`` (the plane's ``metrics_lock``) guards the read against
        concurrent request metering.
        """
        self._registry = registry
        self._registry_lock = lock
        return self

    # -- the window observer ------------------------------------------------------

    def _serve_totals(self) -> Tuple[float, float]:
        if self._registry is None:
            return 0.0, 0.0
        if self._registry_lock is not None:
            with self._registry_lock:
                return self._registry.histogram_totals(
                    "serve_request_seconds", self.slow_request_s
                )
        return self._registry.histogram_totals(
            "serve_request_seconds", self.slow_request_s
        )

    def observe_window(self, window, record) -> None:
        """Append one sealed window's row; re-evaluate the SLOs."""
        self._index += 1
        gpus = window.gpu_power_w.shape[1]
        gpu_samples = float(record.samples * gpus)
        gpu_seconds = gpu_samples * self.interval_s
        budget_j = self.power_budget_w * gpu_seconds
        over_j = max(0.0, record.energy_j - budget_j)
        serve_total, serve_fast = self._serve_totals()
        prev_total, prev_fast = self._prev_serve
        self._prev_serve = (serve_total, serve_fast)
        serve_delta = serve_total - prev_total
        slow_delta = serve_delta - (serve_fast - prev_fast)
        row: Dict[str, float] = {
            "t_start_s": record.t_start_s,
            "t_end_s": record.t_end_s,
            "samples": float(record.samples),
            "gpu_samples": gpu_samples,
            "nodes": float(len(record.node_ids)),
            "energy_j": record.energy_j,
            "gpu_hours": record.gpu_hours,
            "max_gpu_power_w": record.max_gpu_power_w,
            "over_limit_samples": float(record.over_limit_samples),
            "cap_w": (
                float("nan") if record.cap is None else float(record.cap)
            ),
            "published_version": (
                float("nan") if record.published_version is None
                else float(record.published_version)
            ),
            "samples_in_delta": float(record.samples_in_delta),
            "late_dropped_delta": float(record.late_dropped_delta),
            "duplicates_delta": float(record.duplicates_delta),
            "alerts_firing": float(record.alerts_firing),
            "alert_transitions_delta": float(
                record.alert_transitions_delta
            ),
            "energy_budget_j": budget_j,
            "energy_over_budget_j": over_j,
            "serve_requests": serve_delta,
            "serve_slow_requests": slow_delta,
        }
        for i, key in enumerate(_REGION_KEYS):
            row[f"region_energy_{key}_j"] = float(
                record.region_energy_j[i]
            )
            row[f"region_gpu_hours_{key}"] = float(
                record.region_gpu_hours[i]
            )
        self.store.append_row(row)
        values = self.evaluator.observe(
            record.t_start_s, record.t_end_s, row
        )
        self.slo_alerts.evaluate(values, record.t_end_s)

    def finalize(self) -> "History":
        """End of stream: flush tails and the manifest to disk."""
        if self.store is not None:
            self.store.sync()
        return self

    # -- views --------------------------------------------------------------------

    @property
    def windows_recorded(self) -> int:
        return self._index

    def metric_values(self) -> Dict[str, float]:
        """``history_*`` + ``slo_*`` gauges for the metric-source hook."""
        values: Dict[str, float] = {}
        if self.store is not None:
            values.update(self.store.metric_values())
        values.update(self.evaluator.last_values)
        values["slo_alerts_firing"] = float(
            len(self.slo_alerts.firing())
        )
        return values

    def slo_rows(self) -> List[dict]:
        """Per-SLO dashboard rows: budget left, burn rates, states."""
        states = {
            row["name"]: row["state"]
            for row in self.slo_alerts.rule_states()
        }
        values = self.evaluator.last_values
        out = []
        for slo in self.slos:
            out.append({
                "name": slo.name,
                "objective": slo.objective,
                "budget_remaining": values.get(
                    f"slo_{slo.name}_budget_remaining", 1.0
                ),
                "burn_fast": values.get(
                    f"slo_{slo.name}_burn_fast", 0.0
                ),
                "burn_slow": values.get(
                    f"slo_{slo.name}_burn_slow", 0.0
                ),
                "fast_state": states.get(
                    f"slo_{slo.name}_fast_burn", "inactive"
                ),
                "slow_state": states.get(
                    f"slo_{slo.name}_slow_burn", "inactive"
                ),
            })
        return out

    def summary(self) -> dict:
        doc = {
            "windows_recorded": self._index,
            "slos": self.slo_rows(),
            "slo_transitions": self.slo_alerts.transitions,
        }
        if self.store is not None:
            doc["store"] = self.store.summary()
        return doc

    def events(self) -> List[dict]:
        """The SLO alert transition timeline (event-time ordered)."""
        return list(self.slo_alerts.history)

    def timeline(self) -> str:
        return render_events(self.events(), title="SLO transitions:")

    def reader_view(self) -> Optional["HistoryView"]:
        """Freeze the readable row counts for a published serve view."""
        if self.store is None:
            return None
        return HistoryView(
            self.store,
            rows=tuple(
                self.store.rows(level)
                for level in range(self.store.n_levels)
            ),
            slo_rows=self.slo_rows(),
        )


class HistoryView:
    """A frozen read handle: store + per-level row counts at publish.

    The store is append-only (and live planes never compact/gc it), so
    bounding every read to the frozen row counts makes each published
    view's answers stable however far ingest advances afterwards —
    the same immutability contract as the rest of
    :class:`~repro.serve.cache.ServeView`.
    """

    def __init__(self, store, *, rows, slo_rows) -> None:
        self.store = store
        self.rows = rows
        self.slo_rows = slo_rows

    def select(self, series, t0, t1, step, *, agg=None, level=None):
        lvl = (
            auto_level(self.store, float(step))
            if level is None else int(level)
        )
        max_row = (
            self.rows[lvl] if 0 <= lvl < len(self.rows) else None
        )
        return select(
            self.store, series, t0, t1, step,
            agg=agg, level=lvl, max_row=max_row,
        )

    def span(self):
        """(first, last) window start of the *frozen* level-0 rows."""
        n = self.rows[0] if self.rows else 0
        if n == 0:
            return None
        first = self.store.column_slice("t_start_s", 0, 0, 1)[0]
        last = self.store.column_slice("t_start_s", 0, n - 1, n)[0]
        return float(first), float(last)

    def series_doc(self) -> dict:
        store = self.store
        span = self.span()
        return {
            "series": [
                {"name": n, "agg": a} for n, a in store.columns
            ],
            "window_s": store.window_s,
            "t_first_s": None if span is None else span[0],
            "t_last_s": None if span is None else span[1],
            "levels": [
                {
                    "level": level,
                    "span_s": store.level_span_s(level),
                    "rows": self.rows[level],
                }
                for level in range(store.n_levels)
            ],
            "slos": self.slo_rows,
        }
