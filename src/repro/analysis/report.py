"""Full evaluation report: regenerate every table and figure in one call.

``python -m repro.analysis.report`` prints the whole evaluation section
at the library default of 24 faults per experiment class
(:func:`~repro.analysis.experiments.default_fault_count`).
``EXPERIMENTS.md`` is at the benches' scale of 12; refresh it with
``REPRO_FAULTS=12 python -m repro.analysis.report``.

Each distinct experiment class runs once
(:meth:`~repro.analysis.experiments.Evaluation.result`), and so counts
once in the pruning, planner and quarantine sections.
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
            sections.append(_counter_summary(
                "Statically pruned faults (repro.sfa)",
                "faults_pruned_total",
                "resolved without emulation: {:.0f} faults", "rule"))
    if evaluation.adaptive:
        with span("report", artefact="adaptive-planning"):
            sections.append(_counter_summary(
                "Statistical campaign planning (repro.faultload)",
                "experiments_saved_total",
                "experiments saved by early stopping: {:.0f}", "reason",
                "stopping_rule_checks_total", "stopping-rule checks: {:.0f}"))
    quarantine = _quarantine_summary()
    if quarantine is not None:
        with span("report", artefact="quarantine"):
            sections.append(quarantine)
    return "\n\n".join(sections)


def _counter_summary(title: str, counter: str, total_line: str,
                     label: str, extra: Optional[str] = None,
                     extra_line: str = "") -> str:
    """A report section over counters accumulated across every campaign
    the report ran: *counter*'s total, its value per *label*, and the
    *extra* counter's total (if one is named) when it is non-zero.

    The ``--prune-silent`` section reads the :mod:`repro.sfa` pruning
    counter (faults resolved without emulation, by rule); the adaptive
    one reads the :mod:`repro.faultload` counters (budgeted experiments
    never emulated, by reason, and stopping-rule checks).
    """
    from ..obs.metrics import REGISTRY
    metric = REGISTRY.get(counter)
    lines = [title, "=" * len(title), total_line.format(
        metric.total() if metric is not None else 0.0)]
    if metric is not None:
        for key, value in sorted(metric.series().items()):
            lines.append(f"  {dict(key).get(label, '?'):<16} {value:.0f}")
    extra_metric = REGISTRY.get(extra) if extra is not None else None
    if extra_metric is not None and extra_metric.total():
        lines.append(extra_line.format(extra_metric.total()))
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
