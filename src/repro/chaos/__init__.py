"""Deterministic chaos injection for the campaign runtime itself.

FADES injects transient faults into the device under test; this package
injects them into the *infrastructure* — workers that crash or hang,
journal writes torn mid-line, compilations that fail — from a seeded
:class:`ChaosPlan` so every failure is reproducible.  The runtime's
hardening (watchdog deadlines, poison-fault quarantine, journal fsck,
backend fallback) is tested exclusively through these fault points.

Usage::

    from repro import chaos

    chaos.install(chaos.ChaosPlan.from_spec("seed=7;worker_hang:index=5"))
    ...
    chaos.clear()

Instrumented call sites use :func:`fire` / :func:`sleep` /
:func:`check_raise`, which are no-ops when no plan is active.
"""

from .harness import (ENV_VAR, active, check_raise, clear, fire, install,
                      sleep)
from .plan import POINTS, SLEEP_POINTS, ChaosPlan, ChaosRule

__all__ = [
    "ChaosPlan",
    "ChaosRule",
    "POINTS",
    "SLEEP_POINTS",
    "ENV_VAR",
    "install",
    "clear",
    "active",
    "fire",
    "sleep",
    "check_raise",
]
