"""Process-wide chaos activation: the hooks the runtime actually calls.

Instrumented modules never touch :class:`~repro.chaos.plan.ChaosPlan`
directly; they call the free functions here, which consult the active
plan (installed by the CLI, a test, or the ``REPRO_CHAOS`` environment
variable) and do nothing — at near-zero cost — when chaos is off::

    from ..chaos import harness as chaos

    if chaos.fire("worker_crash", key=index, attempt=attempt):
        os._exit(CRASH_EXIT_CODE)

Worker processes are forks of the parent and inherit its plan, so a
plan is active on every process of a campaign: each worker starts a
fresh fire tally (per-process ``limit`` accounting), and the stateless
decisions are identical everywhere.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from ..obs import metrics as obs_metrics
from ..obs.logsetup import get_logger
from ..obs.tracing import TRACER
from .plan import ChaosPlan

log = get_logger("repro.chaos")

_INJECTED = obs_metrics.counter(
    "chaos_injected_total",
    "Runtime faults injected by the chaos harness, by point.")

#: Environment variable consulted when no plan was installed explicitly.
ENV_VAR = "REPRO_CHAOS"

_active: Optional[ChaosPlan] = None
_env_checked = False


def install(plan: Optional[ChaosPlan]) -> None:
    """Install (or, with ``None``, clear) the process-wide plan."""
    global _active, _env_checked
    _active = plan
    _env_checked = True  # an explicit install outranks the environment


def clear() -> None:
    """Deactivate chaos and re-arm the environment lookup."""
    global _active, _env_checked
    _active = None
    _env_checked = False


def active() -> Optional[ChaosPlan]:
    """The installed plan, falling back to ``REPRO_CHAOS`` once."""
    global _active, _env_checked
    if _active is None and not _env_checked:
        _env_checked = True
        spec = os.environ.get(ENV_VAR, "").strip()
        if spec:
            _active = ChaosPlan.from_spec(spec)
    return _active


def fire(point: str, key: int = 0, attempt: int = 0) -> bool:
    """Decide one activation; logs and counts every hit."""
    plan = active()
    if plan is None or not plan.should_fire(point, key, attempt):
        return False
    _INJECTED.inc(point=point)
    TRACER.instant("chaos", point=point, key=key, attempt=attempt)
    log.warning("chaos: injecting %s (key=%d attempt=%d)",
                point, key, attempt)
    return True


def sleep(point: str, key: int = 0, attempt: int = 0) -> None:
    """Delay-style point: sleep the configured duration on a hit."""
    plan = active()
    if plan is None:
        return
    if fire(point, key, attempt):
        time.sleep(plan.sleep_seconds(point))


def check_raise(point: str, key: int = 0, attempt: int = 0) -> None:
    """Exception-style point: raise :class:`ChaosError` on a hit."""
    if fire(point, key, attempt):
        from ..errors import ChaosError
        raise ChaosError(f"chaos-injected failure at point {point!r}")
