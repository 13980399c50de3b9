"""Full evaluation report: regenerate every table and figure in one call.

``python -m repro.analysis.report`` prints the whole evaluation section
at the library default of 24 faults per experiment class
(:func:`~repro.analysis.experiments.default_fault_count`).
``EXPERIMENTS.md`` is at the benches' scale of 12; refresh it with
``REPRO_FAULTS=12 python -m repro.analysis.report``.
"""

from __future__ import annotations

from typing import Optional

from ..obs.tracing import span
from .experiments import Evaluation
from .figures import (generate_fig10, generate_fig11, generate_fig12,
                      generate_fig13, generate_fig14, generate_fig15)
from .tables import (generate_table1, generate_table2, generate_table3,
                     generate_table4, render_table1, render_table2,
                     render_table3, render_table4)


def full_report(evaluation: Optional[Evaluation] = None,
                count: Optional[int] = None) -> str:
    """Regenerate tables 1–4 and figures 10–15 as one text report."""
    evaluation = evaluation if evaluation is not None else Evaluation()
    artefacts = [
        ("implementation", lambda: evaluation.fades.impl.describe()),
        ("table1", lambda: render_table1(generate_table1(evaluation))),
        ("table2", lambda: render_table2(generate_table2(evaluation,
                                                         count))),
        ("table3", lambda: render_table3(generate_table3(evaluation,
                                                         count))),
        ("table4", lambda: render_table4(generate_table4(evaluation))),
        ("fig10", lambda: generate_fig10(evaluation, count).render()),
        ("fig11", lambda: generate_fig11(evaluation, count).render()),
        ("fig12", lambda: generate_fig12(evaluation, count).render()),
        ("fig13", lambda: generate_fig13(evaluation, count).render()),
        ("fig14", lambda: generate_fig14(evaluation, count).render()),
        ("fig15", lambda: generate_fig15(evaluation, count).render()),
    ]
    sections = []
    for name, build in artefacts:
        with span("report", artefact=name):
            sections.append(build())
    if evaluation.prune_silent:
        with span("report", artefact="static-pruning"):
            sections.append(_pruning_summary())
    if evaluation.adaptive:
        with span("report", artefact="adaptive-planning"):
            sections.append(_adaptive_summary())
    quarantine = _quarantine_summary()
    if quarantine is not None:
        with span("report", artefact="quarantine"):
            sections.append(quarantine)
    return "\n\n".join(sections)


def _pruning_summary() -> str:
    """The "statically pruned" section of a ``--prune-silent`` report.

    Reads the :mod:`repro.sfa` planning counters accumulated across
    every campaign the report ran — how many faults were resolved
    without emulation, and by which rule.
    """
    from ..obs.metrics import REGISTRY
    lines = ["Statically pruned faults (repro.sfa)",
             "===================================="]
    pruned = REGISTRY.get("faults_pruned_total")
    total = pruned.total() if pruned is not None else 0.0
    lines.append(f"resolved without emulation: {total:.0f} faults")
    if pruned is not None:
        for key, value in sorted(pruned.series().items()):
            rule = dict(key).get("rule", "?")
            lines.append(f"  {rule:<16} {value:.0f}")
    classes = REGISTRY.get("fault_classes_total")
    if classes is not None and classes.total():
        lines.append(f"equivalence classes planned: "
                     f"{classes.total():.0f}")
    return "\n".join(lines)


def _adaptive_summary() -> str:
    """The "statistical planner" section of an adaptive report.

    Reads the :mod:`repro.faultload` counters accumulated across every
    campaign the report ran — how many stopping-rule checks fired and
    how many budgeted experiments were never emulated.
    """
    from ..obs.metrics import REGISTRY
    lines = ["Statistical campaign planning (repro.faultload)",
             "==============================================="]
    saved = REGISTRY.get("experiments_saved_total")
    total = saved.total() if saved is not None else 0.0
    lines.append(f"experiments saved by early stopping: {total:.0f}")
    if saved is not None:
        for key, value in sorted(saved.series().items()):
            reason = dict(key).get("reason", "?")
            lines.append(f"  {reason:<16} {value:.0f}")
    checks = REGISTRY.get("stopping_rule_checks_total")
    if checks is not None and checks.total():
        lines.append(f"stopping-rule checks: {checks.total():.0f}")
    return "\n".join(lines)


def _quarantine_summary() -> Optional[str]:
    """The "quarantined faults" section; ``None`` when no campaign of
    the report excised a poison fault.

    Reads the :mod:`repro.runtime` failure-handling counters — faults
    excised after bisection, worker hangs and shard retries — so a
    report produced under infrastructure failures states plainly which
    results rest on excluded experiments (the quarantined faults are
    out of every rate denominator, see EXPERIMENTS.md).
    """
    from ..obs.metrics import REGISTRY
    quarantined = REGISTRY.get("faults_quarantined_total")
    total = quarantined.total() if quarantined is not None else 0.0
    if not total:
        return None
    lines = ["Quarantined faults (repro.runtime)",
             "=================================="]
    lines.append(f"poison faults excised after bisection: {total:.0f}")
    lines.append("(excluded from every outcome-rate denominator and "
                 "Wilson interval)")
    hangs = REGISTRY.get("worker_hangs_total")
    if hangs is not None and hangs.total():
        lines.append(f"worker hangs detected: {hangs.total():.0f}")
    retries = REGISTRY.get("shard_retries_total")
    if retries is not None and retries.total():
        for key, value in sorted(retries.series().items()):
            reason = dict(key).get("reason", "?")
            lines.append(f"shard retries ({reason}): {value:.0f}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(full_report())
