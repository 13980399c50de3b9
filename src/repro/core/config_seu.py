"""Configuration-memory upsets: faults in the FPGA-manufactured system.

The paper's closing future-work list (section 8) includes faults
"affecting systems manufactured using FPGAs" — where the system under
analysis *is* the FPGA, and a radiation-induced SEU lands in the
configuration memory itself: a LUT truth-table bit, a multiplexer control
bit, a routing pass transistor or a memory-block cell.  This extension
implements that model on the same RTR machinery: the upset is emulated by
a read-modify-write of the affected configuration frame, and the device
decodes the consequence —

* **CB plane**: changed logic function, inverted CB input, asserted local
  set/reset, altered GSR polarity...;
* **routing plane**: an allocated pass transistor knocked *off* breaks its
  net (the line floats low); an unused one knocked *on* adds a phantom
  load to the net crossing that matrix;
* **memory plane**: a data bit-flip, exactly section 4.1's model.

A campaign over uniformly-drawn configuration bits yields the *essential
bits* fraction: how much of the configuration is actually critical for
the design — the headline metric of later SEU-susceptibility literature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import InjectionError
from ..fpga.architecture import FrameAddr, pm_bit
from .campaign import CampaignResult, FadesCampaign
from .faults import Fault, FaultModel, Target, TargetKind
from .injector import FadesInjector, Injection

#: Configuration planes a config-SEU campaign may draw from.
CONFIG_PLANES = ("cb", "route", "bram")


@dataclass(frozen=True)
class ConfigBit:
    """One addressable bit of configuration memory."""

    addr: FrameAddr
    byte_off: int
    bit_off: int

    def describe(self) -> str:
        return f"{self.addr} byte {self.byte_off} bit {self.bit_off}"


def plane_bits(arch, plane: str) -> int:
    """Total configuration bits of one plane on *arch*."""
    total = 0
    for addr in arch.config_frames():
        if addr.kind == plane:
            total += arch.frame_size(addr) * 8
    return total


def random_config_bit(arch, rng: random.Random,
                      planes: Sequence[str] = CONFIG_PLANES,
                      frames: Optional[Sequence[FrameAddr]] = None
                      ) -> ConfigBit:
    """Draw one configuration bit uniformly over the selected planes.

    ``frames`` optionally restricts the draw to a subset (e.g. the
    occupied region of the device).
    """
    if frames is None:
        frames = [addr for addr in arch.config_frames()
                  if addr.kind in planes]
    else:
        frames = [addr for addr in frames if addr.kind in planes]
    if not frames:
        raise InjectionError(f"no configuration frames in planes {planes}")
    weights = [arch.frame_size(addr) for addr in frames]
    addr = rng.choices(frames, weights=weights, k=1)[0]
    size = arch.frame_size(addr)
    offset = rng.randrange(size * 8)
    return ConfigBit(addr=addr, byte_off=offset // 8, bit_off=offset % 8)


def occupied_frames(campaign: FadesCampaign) -> List[FrameAddr]:
    """Configuration frames covering the design's occupied resources.

    SEU campaigns over the whole device are dominated by silent upsets in
    unused fabric (our 8051 occupies ~3% of the paper-class device); this
    subset concentrates the draw on columns hosting placed CBs, routed
    matrices and used memory blocks.
    """
    placement = campaign.impl.placement
    cols = {site[1] for site in placement.sites}
    route_cols = {pm[1] for pm in campaign.impl.routing.pm_used}
    frames: List[FrameAddr] = []
    frames += [FrameAddr("cb", col) for col in sorted(cols)]
    frames += [FrameAddr("route", col) for col in sorted(route_cols)]
    frames += [FrameAddr("bram", block)
               for block in sorted(placement.block_of_bram.values())]
    return frames


def used_route_bit(campaign: FadesCampaign, rng: random.Random,
                   net: Optional[int] = None) -> ConfigBit:
    """Draw a configuration bit that carries an *allocated* pass transistor.

    The worst-case (targeted) variant of the SEU study: upsetting a bit
    the design actually depends on.  Optionally restricted to one net.
    """
    routing = campaign.impl.routing
    nets = [net] if net is not None else list(routing.routes)
    chosen = rng.choice(nets)
    bits = routing.route_of(chosen).pass_transistors()
    if not bits:
        raise InjectionError(f"net {chosen} occupies no pass transistors")
    row, col, index = rng.choice(bits)
    byte_off, bit_off = pm_bit(row, index)
    return ConfigBit(FrameAddr("route", col), byte_off=byte_off,
                     bit_off=bit_off)


def config_seu_fault(bit: ConfigBit, start_cycle: int) -> Fault:
    """Wrap a configuration bit into a fault descriptor."""
    return Fault(
        model=FaultModel.CONFIG_SEU,
        target=Target(TargetKind.CONFIG_BIT, bit.addr.major,
                      addr=bit.byte_off, bit=bit.bit_off),
        start_cycle=start_cycle,
        mechanism=bit.addr.kind,
    )


class ConfigSeuInjection(Injection):
    """Flip one configuration bit via frame read-modify-write.

    Like a memory bit-flip, the upset persists until the configuration is
    rewritten, so no removal reconfiguration happens within the
    experiment; the campaign restores the golden image afterwards
    (scrubbing, in radiation-hardening terms).
    """

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.addr = FrameAddr(fault.mechanism or "cb", fault.target.index)
        # Validate early so bad locations fail at prepare time.
        injector.device.arch.frame_size(self.addr)

    def inject(self) -> None:
        jbits = self.injector.jbits
        frame = bytearray(jbits.read_frame(self.addr))
        target = self.fault.target
        frame[target.addr] ^= 1 << target.bit
        jbits.write_frame(self.addr, bytes(frame))


@dataclass
class ConfigSeuReport:
    """Aggregate of a configuration-SEU campaign."""

    result: CampaignResult
    by_plane: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def essential_fraction(self) -> float:
        """Fraction of upsets with any observable effect (non-silent)."""
        counts = self.result.counts()
        if counts.total == 0:
            return 0.0
        return 1.0 - counts.silent / counts.total

    def render(self) -> str:
        lines = ["Configuration-memory SEU campaign",
                 str(self.result.counts()),
                 f"essential (non-silent) fraction: "
                 f"{100 * self.essential_fraction:.1f}%",
                 f"{'plane':<7} {'n':>4} {'failure':>8} {'latent':>7} "
                 f"{'silent':>7}"]
        for plane, tally in sorted(self.by_plane.items()):
            n = sum(tally.values())
            lines.append(
                f"{plane:<7} {n:>4} {tally.get('failure', 0):>8} "
                f"{tally.get('latent', 0):>7} {tally.get('silent', 0):>7}")
        return "\n".join(lines)


def run_config_seu_campaign(campaign: FadesCampaign, count: int,
                            cycles: int, seed: int = 0,
                            planes: Sequence[str] = CONFIG_PLANES,
                            occupied_only: bool = False
                            ) -> ConfigSeuReport:
    """Inject *count* uniformly-drawn configuration upsets and classify.

    Draws are weighted by plane size, matching the physics: an SEU is
    equally likely in any configuration cell, and the routing plane is by
    far the largest — which is why most upsets are silent on a design
    using a small fraction of the device.  ``occupied_only`` restricts
    the draw to the design's occupied region (see :func:`occupied_frames`).
    """
    rng = random.Random(seed)
    arch = campaign.device.arch
    pool = occupied_frames(campaign) if occupied_only else None
    faults = []
    for _ in range(count):
        bit = random_config_bit(arch, rng, planes, frames=pool)
        faults.append(config_seu_fault(bit, rng.randrange(max(1, cycles))))
    result = campaign.run_faults(faults, cycles, label="config-seu")
    by_plane: Dict[str, Dict[str, int]] = {}
    for experiment in result.experiments:
        plane = experiment.fault.mechanism
        tally = by_plane.setdefault(plane, {})
        key = experiment.outcome.value
        tally[key] = tally.get(key, 0) + 1
    return ConfigSeuReport(result=result, by_plane=by_plane)
