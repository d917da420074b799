"""Declarative alert rules over metric snapshots.

The rule engine is the "noticing" half of the health layer: it turns the
passive gauges of :class:`~repro.obs.metrics.MetricsRegistry` (and the
:class:`~repro.stream.engine.StreamEngine` ingest mirrors) into operator
state.  Three rule kinds cover the paper's operational failure modes:

* ``threshold`` — a metric crossed a bound (watermark lag, drift TV
  distance, resident-sample ceiling);
* ``rate``      — a cumulative counter is growing too fast (late-drop
  spikes, duplicate storms), measured between consecutive evaluations;
* ``absence``   — a metric the pipeline must report stopped appearing
  (telemetry coverage loss).

Each rule runs a Prometheus-style state machine — inactive → pending
(while the condition holds but ``for_s`` has not elapsed) → firing →
resolved — driven entirely by the *event time* passed to
:meth:`AlertEngine.evaluate`, so evaluation is deterministic and tests
never sleep.  Transitions land in a bounded history ring served by the
``/alerts`` endpoint (:mod:`repro.obs.health.server`).
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ...errors import HealthError

#: States of one rule, in increasing severity (gauge encoding).
INACTIVE, PENDING, FIRING = "inactive", "pending", "firing"
_STATE_CODE = {INACTIVE: 0, PENDING: 1, FIRING: 2}

_KINDS = ("threshold", "rate", "absence")
_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

#: The ruleset shipped with the repo (see docs/observability.md for the
#: rationale behind each threshold).
DEFAULT_RULES_PATH = Path(__file__).with_name("default_rules.json")


@dataclass(frozen=True)
class RuleSpec:
    """One declarative alert rule (immutable; state lives in the engine)."""

    name: str
    metric: str
    kind: str                    # threshold | rate | absence
    op: str = ">"                # unused for absence rules
    value: float = 0.0           # unused for absence rules
    for_s: float = 0.0           # condition must hold this long to fire
    severity: str = "warning"
    summary: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise HealthError("alert rule needs a name")
        if not self.metric:
            raise HealthError(f"rule {self.name!r} needs a metric")
        if self.kind not in _KINDS:
            raise HealthError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(_KINDS)})"
            )
        if self.kind != "absence" and self.op not in _OPS:
            raise HealthError(
                f"rule {self.name!r}: unknown op {self.op!r} "
                f"(expected one of {', '.join(_OPS)})"
            )
        if self.for_s < 0:
            raise HealthError(f"rule {self.name!r}: for_s must be >= 0")

    @classmethod
    def from_dict(cls, spec: Mapping) -> "RuleSpec":
        unknown = set(spec) - {
            "name", "metric", "kind", "op", "value", "for_s",
            "severity", "summary",
        }
        if unknown:
            raise HealthError(
                f"rule {spec.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}"
            )
        try:
            return cls(
                name=str(spec["name"]),
                metric=str(spec["metric"]),
                kind=str(spec.get("kind", "threshold")),
                op=str(spec.get("op", ">")),
                value=float(spec.get("value", 0.0)),
                for_s=float(spec.get("for_s", 0.0)),
                severity=str(spec.get("severity", "warning")),
                summary=str(spec.get("summary", "")),
            )
        except KeyError as exc:
            raise HealthError(f"alert rule missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise HealthError(
                f"rule {spec.get('name', '?')!r}: {exc}"
            ) from exc


def parse_rules(doc: Mapping) -> List[RuleSpec]:
    """Parse a rules document: ``{"rules": [{...}, ...]}``."""
    if not isinstance(doc, Mapping) or "rules" not in doc:
        raise HealthError("rules document needs a top-level 'rules' list")
    rules = [RuleSpec.from_dict(spec) for spec in doc["rules"]]
    names = [r.name for r in rules]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise HealthError(f"duplicate rule names: {sorted(dupes)}")
    return rules


def load_rules(path) -> List[RuleSpec]:
    """Load a rules file — JSON always, TOML where tomllib exists (3.11+)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise HealthError(f"cannot read rules file {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py3.10
            raise HealthError(
                "TOML rules need python >= 3.11 (tomllib); use JSON"
            ) from exc
        try:
            return parse_rules(tomllib.loads(raw.decode()))
        except tomllib.TOMLDecodeError as exc:
            raise HealthError(f"bad TOML in {path}: {exc}") from exc
    try:
        return parse_rules(json.loads(raw))
    except json.JSONDecodeError as exc:
        raise HealthError(f"bad JSON in {path}: {exc}") from exc


def default_rules() -> List[RuleSpec]:
    """The shipped default ruleset (``default_rules.json``)."""
    return load_rules(DEFAULT_RULES_PATH)


class _RuleState:
    """Mutable evaluation state of one rule."""

    __slots__ = (
        "state", "pending_since_s", "fired_at_s", "last_value",
        "prev_t", "prev_v", "last_cond",
    )

    def __init__(self) -> None:
        self.state = INACTIVE
        self.pending_since_s: Optional[float] = None
        self.fired_at_s: Optional[float] = None
        self.last_value: Optional[float] = None
        self.prev_t: Optional[float] = None   # rate rules: last sample time
        self.prev_v: Optional[float] = None   # rate rules: last sample value
        self.last_cond = False


class AlertEngine:
    """Evaluate a ruleset against metric snapshots at given event times.

    ``evaluate`` is pure with respect to wall clock: pass the flat value
    snapshot (:meth:`MetricsRegistry.counter_values` shape, unlabelled
    names) and a non-decreasing event-time ``now_s``; it returns the
    transition events this evaluation produced and records them in the
    bounded :attr:`history` ring.
    """

    def __init__(self, rules: Iterable[RuleSpec],
                 *, history_size: int = 256) -> None:
        self.rules: List[RuleSpec] = list(rules)
        self._states: Dict[str, _RuleState] = {
            r.name: _RuleState() for r in self.rules
        }
        if len(self._states) != len(self.rules):
            raise HealthError("duplicate rule names in engine")
        self.history: deque = deque(maxlen=history_size)
        self.evaluations = 0
        self.transitions = 0
        self.last_eval_s: Optional[float] = None
        #: Transition listeners ``fn(event_dict)``, called for every
        #: emitted transition — how the structured event log records
        #: alert state changes (see :meth:`add_listener`).
        self._listeners: List = []

    def add_listener(self, fn) -> "AlertEngine":
        """Call ``fn(event)`` for every transition event, as emitted.

        Listeners observe the same dicts that land in :attr:`history`,
        in the same deterministic evaluation order; they must not
        mutate the event.
        """
        self._listeners.append(fn)
        return self

    # -- evaluation ---------------------------------------------------------------

    def _condition(self, rule: RuleSpec, st: _RuleState,
                   values: Mapping[str, float], now_s: float):
        """(condition, observed value) for one rule at ``now_s``."""
        if rule.kind == "absence":
            return rule.metric not in values, None
        v = values.get(rule.metric)
        if rule.kind == "threshold":
            if v is None:
                return False, None
            st.last_value = float(v)
            return _OPS[rule.op](v, rule.value), float(v)
        # rate: slope of a cumulative series between evaluations.
        if v is None:
            # No report this round: keep the stored sample, hold state.
            return st.last_cond, st.last_value
        if st.prev_t is None:
            st.prev_t, st.prev_v = now_s, float(v)
            return False, None
        if now_s <= st.prev_t:
            # Event time did not advance; nothing new to measure.
            return st.last_cond, st.last_value
        rate = (float(v) - st.prev_v) / (now_s - st.prev_t)
        st.prev_t, st.prev_v = now_s, float(v)
        st.last_value = rate
        return _OPS[rule.op](rate, rule.value), rate

    def evaluate(self, values: Mapping[str, float],
                 now_s: float) -> List[dict]:
        """Advance every rule's state machine to event time ``now_s``."""
        events: List[dict] = []

        def emit(rule: RuleSpec, transition: str, observed) -> None:
            event = {
                "t_s": float(now_s),
                "rule": rule.name,
                "severity": rule.severity,
                "transition": transition,
                "value": observed,
                "summary": rule.summary,
            }
            events.append(event)
            self.history.append(event)
            self.transitions += 1
            for listener in self._listeners:
                listener(event)

        for rule in self.rules:
            st = self._states[rule.name]
            cond, observed = self._condition(rule, st, values, now_s)
            st.last_cond = cond
            if cond:
                if st.state == INACTIVE:
                    st.pending_since_s = now_s
                    if rule.for_s > 0:
                        st.state = PENDING
                        emit(rule, PENDING, observed)
                if st.state in (PENDING, INACTIVE):
                    if now_s - st.pending_since_s >= rule.for_s:
                        st.state = FIRING
                        st.fired_at_s = now_s
                        emit(rule, FIRING, observed)
            else:
                if st.state == FIRING:
                    emit(rule, "resolved", observed)
                st.state = INACTIVE
                st.pending_since_s = None
                st.fired_at_s = None
        self.evaluations += 1
        self.last_eval_s = float(now_s)
        return events

    # -- views --------------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        return not any(
            st.state == FIRING for st in self._states.values()
        )

    @property
    def firing_count(self) -> int:
        """``len(firing())`` without rendering any rule state."""
        return sum(1 for st in self._states.values() if st.state == FIRING)

    def rule_states(self) -> List[dict]:
        """JSON-ready per-rule state (the ``/health`` payload body)."""
        out = []
        for rule in self.rules:
            st = self._states[rule.name]
            out.append({
                "name": rule.name,
                "metric": rule.metric,
                "kind": rule.kind,
                "severity": rule.severity,
                "state": st.state,
                "since_s": st.pending_since_s,
                "fired_at_s": st.fired_at_s,
                "value": st.last_value,
                "threshold": None if rule.kind == "absence" else rule.value,
                "op": None if rule.kind == "absence" else rule.op,
                "for_s": rule.for_s,
                "summary": rule.summary,
            })
        return out

    def firing(self) -> List[dict]:
        return [r for r in self.rule_states() if r["state"] == FIRING]

    def to_health_dict(self) -> dict:
        """The ``/health`` document (readiness-probe shaped)."""
        firing = self.firing()
        return {
            "status": "ok" if not firing else "degraded",
            "firing": len(firing),
            "evaluations": self.evaluations,
            "last_eval_s": self.last_eval_s,
            "rules": self.rule_states(),
        }

    def to_alerts_dict(self) -> dict:
        """The ``/alerts`` document: firing set + transition history."""
        return {
            "firing": self.firing(),
            "transitions": self.transitions,
            "history": list(self.history),
        }

    def export(self, registry) -> None:
        """Mirror rule states into a metrics registry (idempotent gauges)."""
        for name, st in self._states.items():
            registry.gauge(
                "health_rule_state",
                "alert rule state: 0 inactive, 1 pending, 2 firing",
                rule=name,
            ).set(_STATE_CODE[st.state])
        registry.gauge(
            "health_alerts_firing", "number of alert rules currently firing"
        ).set(self.firing_count)
        registry.gauge(
            "health_rule_transitions", "cumulative rule state transitions"
        ).set(self.transitions)


def render_events(events: Sequence[Mapping], *, title: str = "") -> str:
    """Plain-text alert timeline (experiment output, ``obs alerts``)."""
    lines = [title] if title else []
    if not events:
        lines.append("  (no alert transitions)")
        return "\n".join(lines)
    for ev in events:
        value = ev.get("value")
        shown = "-" if value is None else f"{value:g}"
        lines.append(
            f"  t={ev['t_s']:>9.0f} s  {ev['transition']:<9} "
            f"{ev['rule']:<28} [{ev['severity']}] value={shown}"
        )
    return "\n".join(lines)
