"""FADES — the paper's contribution: RTR transient-fault emulation.

Public surface of the fault-emulation core:

* fault models and descriptors (:mod:`repro.core.faults`);
* the RTR injection mechanisms (:mod:`repro.core.injector`) plus the
  permanent-fault extension (:mod:`repro.core.permanent`);
* campaign orchestration per the paper's figure 1
  (:mod:`repro.core.campaign`) with experiment setup in
  :mod:`repro.core.config`;
* Failure/Latent/Silent classification (:mod:`repro.core.classify`);
* the emulation-time model (:mod:`repro.core.timing_model`).

:func:`build_fades` is the one-call entry point: HDL netlist in, a ready
:class:`~repro.core.campaign.FadesCampaign` out.
"""

from __future__ import annotations

from typing import Optional

from ..fpga.architecture import Architecture
from ..fpga.board import Board, BoardParams
from ..fpga.implement import implement
from ..hdl.netlist import Netlist
from ..synth import synthesize
from .campaign import CampaignResult, ExperimentResult, FadesCampaign
from .classify import Outcome, OutcomeCounts, classify
from .config_seu import (CONFIG_PLANES, ConfigBit, ConfigSeuReport,
                         config_seu_fault, occupied_frames, plane_bits,
                         random_config_bit, run_config_seu_campaign,
                         used_route_bit)
from .config import (FaultLoadSpec, candidate_targets, finish_fault,
                     generate_faultload, iter_faultload, pool_size,
                     pool_targets)
from .faults import (BAND_LABELS, DURATION_BANDS, Fault, FaultModel, Target,
                     TargetKind, band_label)
from .injector import FadesInjector, invert_lut_line, stuck_lut_line
from .multiple import (MultiLsrBitflip, MultiMemoryBitflip, PulseEquivalent,
                       adjacent_memory_mbu, multi_ff_bitflip,
                       prepare_multiple, pulse_equivalent_mbu)
from .permanent import bridge_lut_lines, prepare_permanent
from .results import ResultRow, render_table, row_from_campaign
from .timing_model import (EmulationTimeModel, ExperimentCost,
                           FadesTimingParams)


def build_fades(netlist: Netlist, arch: Optional[Architecture] = None,
                board_params: BoardParams = BoardParams(),
                seed: int = 0,
                full_download_delays: bool = True,
                inputs: Optional[dict] = None,
                checkpoint_interval: int = 0,
                backend: str = "reference",
                prune_silent: bool = False) -> FadesCampaign:
    """Synthesise, implement and wrap a design into a FADES campaign.

    ``inputs`` holds constant primary-input values for the whole run
    (self-contained workloads like the 8051 need none);
    ``checkpoint_interval`` enables golden-run snapshots every N cycles so
    experiments fast-forward over their fault-free prefix; ``backend``
    selects the workload simulator (``reference`` or the bit-parallel
    ``compiled`` engine of :mod:`repro.emu`); ``prune_silent`` lets the
    static fault analysis (:mod:`repro.sfa`) resolve provably Silent
    faults without emulating them.
    """
    result = synthesize(netlist)
    impl = implement(result.mapped, arch=arch)
    board = Board(board_params)
    return FadesCampaign(impl, result.locmap, board=board, seed=seed,
                         full_download_delays=full_download_delays,
                         inputs=inputs,
                         checkpoint_interval=checkpoint_interval,
                         backend=backend,
                         prune_silent=prune_silent)


__all__ = [
    "build_fades",
    "CampaignResult",
    "ExperimentResult",
    "FadesCampaign",
    "Outcome",
    "OutcomeCounts",
    "classify",
    "FaultLoadSpec",
    "candidate_targets",
    "finish_fault",
    "generate_faultload",
    "iter_faultload",
    "pool_size",
    "pool_targets",
    "BAND_LABELS",
    "DURATION_BANDS",
    "Fault",
    "FaultModel",
    "Target",
    "TargetKind",
    "band_label",
    "FadesInjector",
    "CONFIG_PLANES",
    "ConfigBit",
    "ConfigSeuReport",
    "config_seu_fault",
    "occupied_frames",
    "plane_bits",
    "random_config_bit",
    "run_config_seu_campaign",
    "used_route_bit",
    "invert_lut_line",
    "stuck_lut_line",
    "MultiLsrBitflip",
    "MultiMemoryBitflip",
    "PulseEquivalent",
    "adjacent_memory_mbu",
    "multi_ff_bitflip",
    "prepare_multiple",
    "pulse_equivalent_mbu",
    "bridge_lut_lines",
    "prepare_permanent",
    "ResultRow",
    "render_table",
    "row_from_campaign",
    "EmulationTimeModel",
    "ExperimentCost",
    "FadesTimingParams",
]
