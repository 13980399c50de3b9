"""Deterministic chaos plans: *which* runtime fault fires *where*.

A :class:`ChaosPlan` is a seeded description of runtime faults to inject
into the campaign infrastructure itself — the same discipline FADES
applies to the device under test, turned on the scheduler, the journal
and the compiled backend.  Decisions are pure functions of
``(seed, point, key, attempt)``: no clocks, no per-process counters in
the decision itself — so a plan fires at the same places whether the
campaign runs serial, sharded or resumed, and a respawned worker
re-deriving the same decision gets the same answer.

Spec syntax (CLI ``--chaos`` / env ``REPRO_CHAOS``)::

    seed=7;worker_hang:index=5;worker_crash:index=3:always;torn_write:p=0.5

``;`` separates terms.  ``seed=<int>`` seeds the decision hash; every
other term names a fault point with ``:``-separated options:

``p=<float>``
    Fire probability per decision (default 1.0).
``index=<int>``
    Restrict the point to one decision key (e.g. one fault index).
``always``
    Fire on every attempt.  The default fires only on attempt 0, so a
    retried shard (or a resumed journal append) runs clean — the chaos
    clears itself exactly like a transient fault.
``limit=<int>``
    Absolute per-process fire cap.
``s=<float>``
    Sleep duration for :data:`SLEEP_POINTS` (default 0.25 s).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..errors import ChaosError

#: The named fault points threaded through the runtime.
POINTS: Tuple[str, ...] = (
    "worker_crash",    # worker process exits mid-shard (scheduler)
    "worker_hang",     # worker stops making progress (scheduler watchdog)
    "slow_result",     # worker delivers late but within the deadline
    "torn_write",      # journal append is cut mid-line and the process dies
    "corrupt_record",  # journal line lands whole but bit-rotted (bad CRC)
    "compile_fail",    # compiled-backend compilation raises (fallback seam)
)

#: Points whose effect is a delay rather than a failure.
SLEEP_POINTS: Tuple[str, ...] = ("slow_result",)

_DEFAULT_SLEEP_S = 0.25


@dataclass(frozen=True)
class ChaosRule:
    """Activation rule for one fault point."""

    point: str
    p: float = 1.0
    index: Optional[int] = None
    always: bool = False
    limit: Optional[int] = None
    seconds: float = _DEFAULT_SLEEP_S

    def term(self) -> str:
        """Render back to one spec term (inverse of :func:`_parse_term`)."""
        parts = [self.point]
        if self.p != 1.0:
            parts.append(f"p={self.p:g}")
        if self.index is not None:
            parts.append(f"index={self.index}")
        if self.always:
            parts.append("always")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.seconds != _DEFAULT_SLEEP_S:
            parts.append(f"s={self.seconds:g}")
        return ":".join(parts)


def _parse_term(term: str) -> ChaosRule:
    name, _, rest = term.partition(":")
    name = name.strip()
    if name not in POINTS:
        raise ChaosError(
            f"unknown chaos point {name!r} (known: {', '.join(POINTS)})")
    rule = ChaosRule(point=name)
    for option in filter(None, (part.strip()
                                for part in rest.split(":") if rest)):
        key, _, value = option.partition("=")
        try:
            if key == "p":
                rule = replace(rule, p=float(value))
            elif key == "index":
                rule = replace(rule, index=int(value, 0))
            elif key == "always":
                rule = replace(rule, always=True)
            elif key == "limit":
                rule = replace(rule, limit=int(value, 0))
            elif key == "s":
                rule = replace(rule, seconds=float(value))
            else:
                raise ChaosError(
                    f"unknown chaos option {key!r} in term {term!r}")
        except ValueError as error:
            raise ChaosError(
                f"malformed chaos option {option!r}: {error}") from error
    if not 0.0 <= rule.p <= 1.0:
        raise ChaosError(f"chaos probability must be in [0, 1], got {rule.p}")
    return rule


def _mix(seed: int, point: str, key: int, attempt: int) -> int:
    """Deterministic 31-bit hash of one decision coordinate."""
    mixed = (seed & 0x7FFFFFFF) * 0x9E3779B1
    mixed ^= zlib.crc32(point.encode("utf-8"))
    mixed = (mixed + (key + 1) * 0x85EBCA6B) & 0xFFFFFFFF
    mixed = (mixed + (attempt + 1) * 0xC2B2AE35) & 0xFFFFFFFF
    mixed ^= mixed >> 15
    mixed = (mixed * 0x2C1B3C6D) & 0xFFFFFFFF
    mixed ^= mixed >> 12
    return mixed & 0x7FFFFFFF


@dataclass
class ChaosPlan:
    """A seeded set of :class:`ChaosRule` activations.

    The per-process ``_fired`` tally only enforces ``limit`` caps and
    feeds diagnostics; the fire/no-fire decision itself is stateless.
    """

    seed: int = 0
    rules: Dict[str, ChaosRule] = field(default_factory=dict)
    _fired: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosPlan":
        """Parse the ``--chaos`` spec syntax (see module docstring)."""
        plan = cls()
        for term in filter(None, (part.strip()
                                  for part in spec.split(";"))):
            if term.startswith("seed="):
                try:
                    plan.seed = int(term[5:], 0)
                except ValueError as error:
                    raise ChaosError(
                        f"malformed chaos seed {term!r}") from error
                continue
            rule = _parse_term(term)
            plan.rules[rule.point] = rule
        if not plan.rules:
            raise ChaosError(f"chaos spec {spec!r} names no fault points")
        return plan

    def to_spec(self) -> str:
        """Canonical spec string (the inverse of :meth:`from_spec`)."""
        terms = [f"seed={self.seed}"]
        terms.extend(self.rules[point].term()
                     for point in sorted(self.rules))
        return ";".join(terms)

    def should_fire(self, point: str, key: int = 0,
                    attempt: int = 0) -> bool:
        """Decide (and account) one fault-point activation."""
        rule = self.rules.get(point)
        if rule is None:
            return False
        if rule.index is not None and key != rule.index:
            return False
        if not rule.always and attempt > 0:
            return False
        fired = self._fired.get(point, 0)
        if rule.limit is not None and fired >= rule.limit:
            return False
        if rule.p < 1.0:
            draw = _mix(self.seed, point, key, attempt) / float(1 << 31)
            if draw >= rule.p:
                return False
        self._fired[point] = fired + 1
        return True

    def sleep_seconds(self, point: str) -> float:
        rule = self.rules.get(point)
        return rule.seconds if rule is not None else 0.0

    def fired(self, point: str) -> int:
        """How many times *point* fired in this process."""
        return self._fired.get(point, 0)
