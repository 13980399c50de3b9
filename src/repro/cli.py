"""Command-line interface: the experiments setup module, headless.

The paper's FADES prototype exposed "a graphical user interface [that]
allows the user to specify all the parameters required to perform the
experiments... the length of the experiments, the type of fault to be
emulated, the fault location and duration, the observation points"
(section 5, figure 9).  This CLI is that module for the reproduction::

    python -m repro info
    python -m repro campaign --model pulse --pool luts:ALU --count 20
    python -m repro campaign --tool vfit --model bitflip --pool ffs
    python -m repro campaign --model bitflip --workers 4 --journal out.jsonl
    python -m repro campaign --tool vfit --model bitflip --workers 4 \
        --journal vfit.jsonl
    python -m repro campaign --model bitflip --workers 4 --trace t.json \
        --metrics m.prom
    python -m repro campaign --model bitflip --pool ffs --prune-silent
    python -m repro campaign --model bitflip --epsilon 0.05 --budget 3000
    python -m repro campaign --model bitflip --strategy stratified
    python -m repro campaign --model bitflip --workers 4 \
        --journal out.jsonl --chaos 'seed=7;worker_crash:p=0.2' \
        --shard-timeout 5
    python -m repro campaign --model bitflip --workers 4 \
        --journal out.jsonl --serve-obs 9100 --alert 'slow:ewma<0.5:for=10'
    python -m repro top out.jsonl --once
    python -m repro top http://127.0.0.1:9100
    python -m repro resume out.jsonl --workers 4
    python -m repro journal fsck out.jsonl --repair
    python -m repro obs summarize t.json --alerts out.jsonl
    python -m repro lint --fail-on error --json findings.json
    python -m repro screen
    python -m repro seu --count 40 --occupied
    python -m repro report --count 8 --workers 4

All commands run on the 8051 + Bubblesort testbed; ``--values`` changes
the array being sorted (and thereby the workload length).  A campaign of
either tool (``--tool``) runs through the one runtime driver
(:func:`repro.runtime.run_campaign`), so the runtime flags apply to both;
``--backend compiled``, ``--prune-silent`` and a non-uniform
``--strategy`` are FADES settings, which a VFIT campaign refuses.

Output discipline: diagnostics and progress go through the ``repro.*``
loggers to stderr (``--log-level`` / ``--log-json``); stdout carries only
the final deliverable — result tallies, report tables, JSON payloads —
via :func:`repro.obs.logsetup.console`.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Optional, Sequence

from .analysis import Evaluation
from .analysis.report import full_report
from .core import FaultModel, run_config_seu_campaign
from .core.campaign import BACKENDS
from .core.faults import BAND_LABELS, DURATION_BANDS
from .errors import CampaignInterrupted, ReproError
from .obs import console, get_logger, setup_logging
from .obs.metrics import REGISTRY
from .runtime import TOOLS, check_tool

log = get_logger("repro.cli")


def _parse_values(text: str) -> tuple:
    return tuple(int(token, 0) & 0xFF for token in text.split(","))


def _add_liveobs_flags(command: argparse.ArgumentParser) -> None:
    """Live-observability knobs shared by campaign and resume."""
    command.add_argument("--serve-obs", default=None, metavar="[HOST:]PORT",
                         help="serve /metrics, /status and /healthz over "
                              "HTTP for the campaign's lifetime (port 0 "
                              "binds an ephemeral port; host defaults to "
                              "127.0.0.1)")
    command.add_argument("--alert", action="append", default=None,
                         metavar="RULE",
                         help="add an alert rule "
                              "('name:FIELD OP VALUE[:mode=..][:for=..]"
                              "[:severity=..]'); repeatable, supplements "
                              "the built-in rules")


def _add_planner_flags(command: argparse.ArgumentParser) -> None:
    """Statistical campaign planner knobs (repro.faultload)."""
    command.add_argument("--strategy",
                         choices=("uniform", "stratified", "importance"),
                         default="uniform",
                         help="fault sampling strategy: the historical "
                              "uniform draw, proportional per-stratum "
                              "allocation, or SFA-cone importance "
                              "weighting")
    command.add_argument("--confidence", type=float, default=0.95,
                         help="confidence level for stopping decisions "
                              "and reported Wilson intervals")
    command.add_argument("--epsilon", type=float, default=None,
                         help="enable early stopping: halt once every "
                              "outcome rate's Wilson interval is within "
                              "±EPSILON (fraction, e.g. 0.05)")
    command.add_argument("--budget", type=int, default=None,
                         help="hard experiment cap for adaptive "
                              "campaigns (default: --count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FADES reproduction: RTR transient-fault emulation")
    parser.add_argument("--values", type=_parse_values,
                        default=(9, 3, 12, 5),
                        help="workload array to sort (comma-separated)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="stderr logging threshold")
    parser.add_argument("--log-json", action="store_true",
                        help="emit stderr logs as JSON lines")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "info", help="describe the model, implementation and location map")

    campaign = commands.add_parser(
        "campaign", help="run one fault-injection campaign")
    campaign.add_argument("--tool", choices=TOOLS,
                          default="fades")
    campaign.add_argument("--model", required=True,
                          choices=[m.value for m in FaultModel])
    campaign.add_argument("--pool", default="ffs",
                          help="location pool (ffs, luts:ALU, memory:iram, "
                               "nets:seq, ...)")
    campaign.add_argument("--count", type=int, default=20)
    campaign.add_argument("--band", type=int, choices=(0, 1, 2), default=1,
                          help="duration band: 0=<1, 1=1-10, 2=11-20 cycles")
    campaign.add_argument("--oscillate", action="store_true",
                          help="re-randomise indeterminations every cycle")
    campaign.add_argument("--mechanism", default="",
                          help="pin a mechanism (lsr/gsr, fanout/reroute)")
    campaign.add_argument("--backend", choices=BACKENDS,
                          default="reference",
                          help="simulator backend: reference device "
                               "stepping or the bit-parallel compiled "
                               "engine (repro.emu)")
    campaign.add_argument("--prune-silent", action="store_true",
                          help="statically resolve provably-Silent "
                               "faults (repro.sfa) instead of emulating "
                               "them; outcome tallies are unchanged")
    _add_planner_flags(campaign)
    campaign.add_argument("--workers", type=int, default=0,
                          help="parallel worker processes "
                               "(0 = in-process serial)")
    campaign.add_argument("--shard-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="watchdog deadline for parallel shards: "
                               "a worker silent this long is killed and "
                               "its shard re-queued (default: derived "
                               "from observed experiment times)")
    campaign.add_argument("--chaos", default=None, metavar="SPEC",
                          help="deterministic fault injection into the "
                               "runtime itself (repro.chaos), e.g. "
                               "'seed=7;worker_crash:p=0.2;torn_write'; "
                               "also honoured from $REPRO_CHAOS")
    campaign.add_argument("--journal", default=None,
                          help="append-only JSONL result journal; "
                               "re-running skips journaled experiments")
    campaign.add_argument("--trace", default=None, metavar="PATH",
                          help="write a Chrome/Perfetto span trace here "
                               "(inspect with 'repro obs summarize')")
    campaign.add_argument("--metrics", default=None, metavar="PATH",
                          help="export the metrics registry on exit "
                               "(.json for JSON, else Prometheus text)")
    _add_liveobs_flags(campaign)

    resume = commands.add_parser(
        "resume", help="finish a journaled campaign (crash recovery)")
    resume.add_argument("journal", help="journal written by campaign "
                                        "--journal")
    resume.add_argument("--workers", type=int, default=0)
    resume.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="watchdog deadline for parallel shards")
    resume.add_argument("--chaos", default=None, metavar="SPEC",
                        help="deterministic runtime fault injection "
                             "(repro.chaos)")
    resume.add_argument("--trace", default=None, metavar="PATH",
                        help="write a span trace of the resumed portion")
    resume.add_argument("--metrics", default=None, metavar="PATH",
                        help="export the metrics registry on exit")
    _add_liveobs_flags(resume)

    top = commands.add_parser(
        "top", help="live terminal dashboard for a campaign (attach "
                    "via its --serve-obs URL or its journal path)")
    top.add_argument("target", help="http://HOST:PORT of a --serve-obs "
                                    "campaign, or a journal path")
    top.add_argument("--once", action="store_true",
                     help="render one snapshot and exit (no ANSI "
                          "redraw loop)")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS", help="refresh interval")

    journal = commands.add_parser(
        "journal", help="journal maintenance (integrity checking)")
    journal_commands = journal.add_subparsers(dest="journal_command",
                                              required=True)
    fsck = journal_commands.add_parser(
        "fsck", help="verify per-line CRCs; classify clean / torn-tail "
                     "/ corrupt")
    fsck.add_argument("journal", help="journal written by campaign "
                                      "--journal")
    fsck.add_argument("--repair", action="store_true",
                      help="truncate the journal to its last verifiable "
                           "prefix (re-run or resume re-executes the "
                           "dropped experiments)")
    fsck.add_argument("--json", action="store_true",
                      help="emit the scan verdict as JSON")

    obs = commands.add_parser(
        "obs", help="observability tooling (trace summaries)")
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_commands.add_parser(
        "summarize", help="per-phase/per-mechanism time table from a "
                          "trace file (compare with paper Table 2)")
    summarize.add_argument("trace", help="trace written by --trace")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary as JSON")
    summarize.add_argument("--alerts", default=None, metavar="JOURNAL",
                           help="include the alert timeline journalled "
                                "in this campaign journal")

    commands.add_parser(
        "screen", help="find the failure-sensitive flip-flops (paper 6.3)")

    seu = commands.add_parser(
        "seu", help="configuration-memory SEU campaign (extension)")
    seu.add_argument("--count", type=int, default=40)
    seu.add_argument("--occupied", action="store_true",
                     help="restrict upsets to the design's occupied region")

    report = commands.add_parser(
        "report", help="regenerate every table and figure of the paper")
    report.add_argument("--count", type=int, default=None,
                        help="faults per experiment class")
    report.add_argument("--workers", type=int, default=0,
                        help="fan experiment classes out across worker "
                             "processes")
    report.add_argument("--backend", choices=BACKENDS,
                        default="reference",
                        help="simulator backend for the FADES campaigns")
    report.add_argument("--prune-silent", action="store_true",
                        help="statically resolve provably-Silent faults "
                             "in every campaign of the report")
    _add_planner_flags(report)

    lint = commands.add_parser(
        "lint", help="structural lint over bundled designs (repro.sfa)")
    lint.add_argument("designs", nargs="*",
                      help="design names (default: every bundled design)")
    lint.add_argument("--json", default=None, metavar="PATH",
                      help="write machine-readable findings here "
                           "('-' for stdout)")
    lint.add_argument("--fail-on", default=None,
                      choices=("info", "warn", "warning", "error"),
                      help="exit non-zero when any design reaches this "
                           "severity")
    lint.add_argument("--netlist-only", action="store_true",
                      help="skip the synthesised (mapped) variants")

    run_spec = commands.add_parser(
        "run-spec", help="execute a JSON campaign specification file")
    run_spec.add_argument("spec", help="path to the spec file")
    run_spec.add_argument("-o", "--output", default=None,
                          help="write the JSON report here")
    return parser


def cmd_info(evaluation: Evaluation) -> int:
    console(f"workload : {evaluation.workload.description} "
            f"({evaluation.cycles} cycles)")
    stats = evaluation.model.netlist.stats()
    console(f"model    : {stats['gates']} gates, {stats['dffs']} FFs, "
            f"{stats['brams']} memories, depth {stats['depth']}")
    console(f"implement: {evaluation.fades.impl.describe()}")
    locmap = evaluation.fades.locmap
    console(f"locations: {locmap.summary()}")
    for unit in locmap.units():
        if not unit:
            continue
        console(f"  unit {unit:<5} "
                f"{len(locmap.luts_in_unit(unit)):>4} LUTs "
                f"{len(locmap.ffs_in_unit(unit)):>4} FFs")
    return 0


def _progress_printer(total: int):
    """Progress-line callback for engine-backed commands (stderr): a
    line every *total* / 20 records and at the end, each count once (the
    campaign's final snapshot repeats its last record's count)."""
    stride = max(1, total // 20)
    shown = -1

    def show(snapshot) -> None:
        nonlocal shown
        done = snapshot.completed + snapshot.skipped
        if done != shown and (snapshot.completed % stride == 0
                              or done >= snapshot.total):
            shown = done
            log.info(snapshot.render())

    return show


def _export_metrics(path: str) -> None:
    """Write the process-wide registry (JSON or Prometheus text)."""
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".json"):
            handle.write(REGISTRY.render_json() + "\n")
        else:
            handle.write(REGISTRY.render_text())
    log.info("metrics exported to %s", path)


def _render_result(heading: str, result) -> None:
    console(heading)
    console(str(result.counts()))
    console(f"mean emulated time: {result.mean_emulation_s:.3f} s/fault "
            f"(campaign total {result.total_emulation_s:.1f} s)")
    pruned = result.pruned_count()
    if pruned:
        console(f"statically resolved: {pruned} pruned (proven Silent); "
                f"{result.emulated_count()} emulated")
    quarantined = [(position, experiment) for position, experiment
                   in enumerate(result.experiments)
                   if getattr(experiment, "quarantined", False)]
    if quarantined:
        console(f"quarantined: {len(quarantined)} poison "
                f"fault{'s' if len(quarantined) != 1 else ''} excised "
                "after bisection (excluded from the rates above):")
        for position, experiment in quarantined:
            console(f"  index {position}: "
                    f"{experiment.error or 'unknown error'}")
    stop = getattr(result, "stop", None)
    if stop:
        console(f"early stopping: {stop['reason']} after {stop['n']} "
                f"experiments ({stop['checks']} checks, max half-width "
                f"{100 * stop['half_width']:.2f} pts)")
        for outcome in sorted(stop.get("intervals", {})):
            successes, trials, low, high = stop["intervals"][outcome]
            rate = 100.0 * successes / trials if trials else 0.0
            console(f"  {outcome:<8} {rate:5.1f}% "
                    f"[{100 * low:.1f}, {100 * high:.1f}]")
    strata = getattr(result, "strata", None)
    if strata:
        console("per-stratum rates, % [low, high]:")
        for row in strata:
            cells = "  ".join(
                f"{outcome} {rates[0]:.1f} [{rates[1]:.1f},{rates[2]:.1f}]"
                for outcome, rates in sorted(row["rates"].items()))
            console(f"  {row['stratum']:<28} n={row['n']:<5} {cells}")


def cmd_lint(args: argparse.Namespace) -> int:
    """Structural lint gate; exit 1 when --fail-on trips."""
    from .sfa import lint_bundled
    threshold = args.fail_on
    if threshold == "warn":
        threshold = "warning"
    reports = lint_bundled(args.designs or None,
                           mapped=not args.netlist_only)
    if args.json:
        payload = json.dumps([report.to_dict() for report in reports],
                             indent=2, sort_keys=True)
        if args.json == "-":
            console(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            log.info("lint findings written to %s", args.json)
    if args.json != "-":
        for report in reports:
            console(report.render())
    if threshold and any(report.fails(threshold) for report in reports):
        log.error("lint gate tripped: severity >= %s found", threshold)
        return 1
    return 0


def _liveobs_kwargs(args: argparse.Namespace) -> dict:
    """Translate the --serve-obs/--alert flags into engine kwargs."""
    from .obs.alerts import built_in_rules, parse_rule_spec
    extra = [parse_rule_spec(spec) for spec in args.alert or ()]
    return {
        "serve_obs": args.serve_obs,
        "alert_rules": built_in_rules() + extra if extra else None,
    }


def _install_chaos(spec: Optional[str]) -> None:
    """Activate a --chaos plan for this process (workers inherit it)."""
    if spec:
        from . import chaos
        plan = chaos.ChaosPlan.from_spec(spec)
        chaos.install(plan)
        log.warning("chaos plan active: %s", plan.to_spec())


def cmd_journal(args: argparse.Namespace) -> int:
    """Journal integrity tooling; exit 0 only for a clean journal."""
    from .runtime.journal import repair_journal, scan_journal
    if not os.path.exists(args.journal):
        # A missing journal must not certify as clean (a typo'd path
        # would sail through a CI integrity gate).
        log.error("%s: no such journal", args.journal)
        return 2
    if args.repair:
        scan, dropped = repair_journal(args.journal)
        payload = scan.to_dict()
        payload["repaired"] = True
        payload["bytes_dropped"] = dropped
    else:
        scan = scan_journal(args.journal)
        payload = scan.to_dict()
    verdict = scan.verdict()
    if args.json:
        console(json.dumps(payload, indent=2, sort_keys=True))
    else:
        console(f"{args.journal}: {verdict} | {scan.lines} lines "
                f"({scan.checked} verified)")
        for issue in scan.issues:
            console(f"  line {issue.line_no} ({issue.kind}, byte "
                    f"{issue.offset}): {issue.detail}")
        if args.repair and scan.issues:
            console(f"repaired: truncated "
                    f"{payload['bytes_dropped']} bytes; the dropped "
                    "experiments re-run on resume")
        elif verdict == "corrupt":
            console("interior damage: verified lines follow a bad one; "
                    "re-run with --repair to truncate to the last "
                    "verifiable prefix")
    if verdict == "clean" or args.repair:
        return 0
    return 1 if verdict == "torn-tail" else 2


def _configure(evaluation: Evaluation, args: argparse.Namespace) -> None:
    """Copy the campaign settings campaign and report share."""
    for name in ("workers", "backend", "prune_silent", "strategy",
                 "confidence", "epsilon", "budget"):
        setattr(evaluation, name, getattr(args, name))


def cmd_campaign(evaluation: Evaluation, args: argparse.Namespace) -> int:
    _configure(evaluation, args)
    model = FaultModel(args.model)
    spec = evaluation.spec(model, args.pool, band=args.band,
                           count=args.count, oscillate=args.oscillate,
                           mechanism=args.mechanism)
    # The flags describe this one class, so a setting its tool cannot
    # honour is refused as its job spec would (a report's VFIT cells
    # drop the evaluation's FADES settings instead).
    check_tool(args.tool, model, args.backend, args.prune_silent,
               args.strategy)
    _install_chaos(args.chaos)
    result = evaluation.run(
        spec, seed=args.seed, tool=args.tool, journal=args.journal,
        trace=args.trace, shard_timeout=args.shard_timeout,
        progress=_progress_printer(args.budget or args.count),
        **_liveobs_kwargs(args))
    if args.trace:
        log.info("trace written to %s", args.trace)
    if args.metrics:
        _export_metrics(args.metrics)
    _render_result(
        f"{args.tool.upper()} | {model.value} @ {args.pool} | "
        f"duration {BAND_LABELS[args.band]} cycles "
        f"({DURATION_BANDS[args.band][0]:g}-"
        f"{DURATION_BANDS[args.band][1]:g}) | "
        f"n={len(result.experiments)}", result)
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from .runtime import read_journal, resume_campaign
    _install_chaos(args.chaos)
    state = read_journal(args.journal)
    pending = "?"
    if state.header is not None:
        # An adaptive journal with a stop line is done at the achieved
        # n; otherwise the (effective) budget bounds the campaign.
        target = state.jobspec.effective_budget()
        if state.stop is not None and isinstance(state.stop.get("n"),
                                                 int):
            target = state.stop["n"]
        pending = target - len(state.done_indices(target))
        log.info("resuming %s | %d journaled, %s pending",
                 state.jobspec.display_label(), len(state.records),
                 pending)
    result = resume_campaign(
        args.journal, workers=args.workers, trace=args.trace,
        shard_timeout=args.shard_timeout,
        progress=_progress_printer(pending if isinstance(pending, int)
                                   else 1),
        **_liveobs_kwargs(args))
    if args.metrics:
        _export_metrics(args.metrics)
    _render_result(result.spec_label, result)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    from .obs import read_trace, render_summary, summarize_trace
    summary = summarize_trace(read_trace(args.trace))
    alerts = None
    if args.alerts:
        from .runtime.journal import read_journal
        alerts = read_journal(args.alerts).alerts
    if args.json:
        payload = dict(summary)
        if alerts is not None:
            payload["alerts"] = alerts
        console(json.dumps(payload, indent=2, sort_keys=True))
    else:
        console(render_summary(summary, alerts=alerts))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .obs.live import run_top
    return run_top(args.target, once=args.once, interval=args.interval)


def cmd_screen(evaluation: Evaluation, args: argparse.Namespace) -> int:
    sensitive = evaluation.fades.screen_sensitive_ffs(evaluation.cycles,
                                                      seed=args.seed)
    total = len(evaluation.fades.locmap.mapped.ffs)
    console(f"{len(sensitive)} of {total} flip-flops are "
            "failure-sensitive for this workload (paper found 81 of 637):")
    names = [evaluation.fades.locmap.mapped.ffs[i].name for i in sensitive]
    console("  " + ", ".join(names))
    return 0


def cmd_seu(evaluation: Evaluation, args: argparse.Namespace) -> int:
    report = run_config_seu_campaign(
        evaluation.fades, args.count, evaluation.cycles, seed=args.seed,
        occupied_only=args.occupied)
    console(report.render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    setup_logging(level=args.log_level, json_mode=args.log_json)
    try:
        if args.command == "obs":
            return cmd_obs(args)
        if args.command == "top":
            return cmd_top(args)
        evaluation = Evaluation(values=args.values, seed=args.seed)
        if args.command == "info":
            return cmd_info(evaluation)
        if args.command == "campaign":
            return cmd_campaign(evaluation, args)
        if args.command == "resume":
            return cmd_resume(args)
        if args.command == "journal":
            return cmd_journal(args)
        if args.command == "screen":
            return cmd_screen(evaluation, args)
        if args.command == "seu":
            return cmd_seu(evaluation, args)
        if args.command == "lint":
            return cmd_lint(args)
        if args.command == "report":
            _configure(evaluation, args)
            console(full_report(evaluation, count=args.count))
            return 0
        if args.command == "run-spec":
            from .analysis.specfile import run_spec_file
            report = run_spec_file(args.spec, args.output)
            console(json.dumps(report, indent=2))
            return 0
    except CampaignInterrupted as error:
        log.error("%s", error)
        return 130
    except (ReproError, OSError, ValueError) as error:
        log.error("%s", error)
        return 1
    return 2


if __name__ == "__main__":
    import sys
    sys.exit(main())
