"""Declarative alert rules evaluated over campaign time-series samples.

An :class:`AlertRule` watches one sample field (see
:mod:`repro.obs.timeseries` for the schema) through one of three modes:

``level``
    Compare the field's current value against the threshold.
``delta``
    Compare the change since the previous sample (runtime-health
    counters are cumulative, so a spike is a positive delta).
``stall``
    Fire when the field has not changed for ``for_s`` seconds while
    experiments are still pending — the zero-progress deadline.

A rule *fires* on the transition into breach (sustained past ``for_s``
where set) and *resolves* on the transition out; while breached it is
listed as an active alert on ``/status`` and in ``repro top``.  Every
firing is emitted four ways: a structured ``repro.obs.alerts`` log
record, an ``alerts_fired_total{rule=...}`` counter increment, a trace
instant, and — when the campaign journals — an ``alert`` journal line
replayed on resume.

Rule syntax (CLI ``--alert``, one rule per flag)::

    --alert 'slow:throughput<0.5:for=10'
    --alert 'latent_burst:latent>3:mode=delta:severity=critical'

``name:FIELD OP VALUE`` with optional ``:``-separated options
``mode=level|delta|stall``, ``for=SECONDS``, ``severity=LEVEL``.  The
name may be omitted when the first segment already contains a
comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError
from . import metrics as obs_metrics
from .logsetup import get_logger
from .tracing import TRACER

log = get_logger("repro.obs.alerts")

_FIRED = obs_metrics.counter(
    "alerts_fired_total",
    "Alert rule firings over the campaign time series, by rule.")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

MODES = ("level", "delta", "stall")

#: Fields resolved from the nested ``outcomes`` map when absent at the
#: sample's top level (so rules can say ``failure>0`` directly).
_CONDITION_RE = re.compile(
    r"^\s*(?P<field>[A-Za-z_][A-Za-z0-9_.]*)\s*"
    r"(?P<op><=|>=|==|!=|<|>)\s*(?P<value>-?[0-9.]+)\s*$")


@dataclass(frozen=True)
class AlertRule:
    """One threshold rule over the sample stream."""

    name: str
    field: str
    op: str
    value: float
    mode: str = "level"
    #: Breach must be sustained this long before the rule fires.
    for_s: float = 0.0
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ObservabilityError(
                f"alert rule {self.name!r}: unknown comparator "
                f"{self.op!r} (known: {', '.join(sorted(_OPS))})")
        if self.mode not in MODES:
            raise ObservabilityError(
                f"alert rule {self.name!r}: unknown mode {self.mode!r} "
                f"(known: {', '.join(MODES)})")
        if self.for_s < 0:
            raise ObservabilityError(
                f"alert rule {self.name!r}: for_s must be >= 0")

    def observed(self, sample: Dict[str, Any],
                 prev: Optional[Dict[str, Any]]) -> Optional[float]:
        """The value this rule compares for one sample."""
        current = _field_value(sample, self.field)
        if current is None:
            return None
        if self.mode == "level":
            return current
        previous = _field_value(prev, self.field) if prev else None
        if self.mode == "delta":
            return current - (previous if previous is not None else 0.0)
        # stall: seconds since the watched field last changed, tracked
        # by the engine; `observed` reports the raw field so the event
        # message stays meaningful.
        return current

    def describe(self) -> str:
        suffix = "" if self.mode == "level" else f" [{self.mode}]"
        sustain = f" for {self.for_s:g}s" if self.for_s else ""
        return f"{self.field}{self.op}{self.value:g}{suffix}{sustain}"


def _field_value(sample: Optional[Dict[str, Any]],
                 name: str) -> Optional[float]:
    if not sample:
        return None
    if name in sample:
        value = sample[name]
    else:
        value = sample.get("outcomes", {}).get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


@dataclass(frozen=True)
class AlertEvent:
    """One firing of a rule."""

    rule: str
    severity: str
    t: float
    value: float
    threshold: float
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule, "severity": self.severity,
            "t": round(self.t, 4), "value": self.value,
            "threshold": self.threshold, "message": self.message,
        }


def built_in_rules(stall_after_s: float = 30.0) -> List[AlertRule]:
    """The default rule set every live campaign is watched with."""
    return [
        AlertRule("worker_hang_spike", field="hangs", op=">",
                  value=0.0, mode="delta", severity="warning"),
        AlertRule("compile_fallback", field="fallbacks", op=">",
                  value=0.0, mode="delta", severity="warning"),
        AlertRule("quarantine_burst", field="quarantined", op=">",
                  value=0.0, mode="delta", severity="critical"),
        AlertRule("throughput_stall", field="n", op="==", value=0.0,
                  mode="stall", for_s=stall_after_s,
                  severity="critical"),
    ]


def parse_rule_spec(spec: str) -> AlertRule:
    """Parse one ``--alert`` term (see the module docstring)."""
    parts = [part.strip() for part in spec.split(":")]
    if not parts or not parts[0]:
        raise ObservabilityError(f"empty alert rule spec {spec!r}")
    if _CONDITION_RE.match(parts[0]):
        name, condition, options = "", parts[0], parts[1:]
    else:
        if len(parts) < 2:
            raise ObservabilityError(
                f"alert rule {spec!r} has no condition "
                "(expected 'name:FIELD OP VALUE[:options]')")
        name, condition, options = parts[0], parts[1], parts[2:]
    match = _CONDITION_RE.match(condition)
    if match is None:
        raise ObservabilityError(
            f"alert rule {spec!r}: cannot parse condition "
            f"{condition!r} (expected FIELD OP VALUE)")
    kwargs: Dict[str, Any] = {}
    for option in options:
        key, _, value = option.partition("=")
        key = key.strip()
        try:
            if key == "for":
                kwargs["for_s"] = float(value)
            elif key == "mode":
                kwargs["mode"] = value.strip()
            elif key == "severity":
                kwargs["severity"] = value.strip()
            else:
                raise ObservabilityError(
                    f"alert rule {spec!r}: unknown option {key!r}")
        except ValueError as error:
            raise ObservabilityError(
                f"alert rule {spec!r}: malformed option "
                f"{option!r}: {error}") from error
    rule_field = match.group("field")
    if not name:
        name = f"{rule_field}_{match.group('op')}_{match.group('value')}"
        name = re.sub(r"[^A-Za-z0-9_]", "_", name)
    try:
        value = float(match.group("value"))
    except ValueError as error:
        raise ObservabilityError(
            f"alert rule {spec!r}: malformed threshold") from error
    return AlertRule(name=name, field=rule_field, op=match.group("op"),
                     value=value, **kwargs)


@dataclass
class _RuleState:
    breach_since: Optional[float] = None
    active: bool = False
    #: stall mode: (last observed value, t it last changed).
    last_value: Optional[float] = None
    changed_at: float = 0.0


class AlertEngine:
    """Evaluates a rule set over the sample stream, tracking firings.

    ``on_event`` receives every :class:`AlertEvent` as it fires (the
    engine wires this to the journal).  ``history`` accumulates fired
    events — including ones replayed from a resumed journal — and
    ``active`` lists the rules currently in breach.
    """

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None,
                 on_event: Optional[Callable[[AlertEvent], None]] = None):
        self.rules: List[AlertRule] = list(
            built_in_rules() if rules is None else rules)
        names = [rule.name for rule in self.rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ObservabilityError(
                f"duplicate alert rule names: {', '.join(sorted(duplicates))}")
        self._on_event = on_event
        self._states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules}
        self.history: List[Dict[str, Any]] = []

    # -- resume --------------------------------------------------------
    def replay(self, events: Sequence[Dict[str, Any]]) -> None:
        """Adopt journalled alerts (``JournalState.alerts``) from a
        previous run segment."""
        for entry in events:
            self.history.append({**entry, "replayed": True})

    # -- evaluation ----------------------------------------------------
    @property
    def active(self) -> List[Dict[str, Any]]:
        """Currently-firing alerts, most severe information included."""
        out: List[Dict[str, Any]] = []
        by_name = {rule.name: rule for rule in self.rules}
        for name, state in self._states.items():
            if state.active:
                rule = by_name[name]
                out.append({"rule": name, "severity": rule.severity,
                            "condition": rule.describe()})
        return out

    def evaluate(self, sample: Dict[str, Any],
                 prev: Optional[Dict[str, Any]] = None
                 ) -> List[AlertEvent]:
        """Run every rule against one sample; returns fresh firings."""
        fired: List[AlertEvent] = []
        t = float(sample.get("t", 0.0))
        for rule in self.rules:
            state = self._states[rule.name]
            if rule.mode == "stall":
                breached, value = self._stall_breached(rule, state,
                                                       sample, t)
            else:
                observed = rule.observed(sample, prev)
                if observed is None:
                    continue
                value = observed
                breached = _OPS[rule.op](observed, rule.value)
            event = self._transition(rule, state, breached, t, value)
            if event is not None:
                fired.append(event)
        return fired

    def _stall_breached(self, rule: AlertRule, state: _RuleState,
                        sample: Dict[str, Any],
                        t: float) -> Tuple[bool, float]:
        current = _field_value(sample, rule.field)
        if current is None:
            return False, 0.0
        if state.last_value is None or current != state.last_value:
            state.last_value = current
            state.changed_at = t
            return False, 0.0
        stalled_s = t - state.changed_at
        pending = _field_value(sample, "pending")
        breached = (pending is not None and pending > 0
                    and stalled_s >= max(rule.for_s, 0.0))
        return breached, stalled_s

    def _transition(self, rule: AlertRule, state: _RuleState,
                    breached: bool, t: float,
                    value: float) -> Optional[AlertEvent]:
        if not breached:
            state.breach_since = None
            if state.active:
                state.active = False
                log.info("alert resolved: %s", rule.name)
            return None
        if state.breach_since is None:
            state.breach_since = t
        # Stall rules fold their sustain window into the breach test
        # itself; level/delta rules sustain here.
        sustain = 0.0 if rule.mode == "stall" else rule.for_s
        if state.active or t - state.breach_since < sustain:
            return None
        state.active = True
        event = AlertEvent(
            rule=rule.name, severity=rule.severity, t=t, value=value,
            threshold=rule.value,
            message=f"{rule.name}: {rule.describe()} "
                    f"(observed {value:g} at t={t:.1f}s)")
        self._fire(event)
        return event

    def _fire(self, event: AlertEvent) -> None:
        _FIRED.inc(rule=event.rule)
        TRACER.instant("alert", rule=event.rule,
                       severity=event.severity, value=event.value,
                       threshold=event.threshold)
        log.warning("ALERT %s [%s]: %s", event.rule, event.severity,
                    event.message)
        self.history.append(event.to_dict())
        if self._on_event is not None:
            self._on_event(event)
