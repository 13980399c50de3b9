"""HDL modelling substrate: logic values, netlist IR, RTL builder, simulators.

This package is substrate **S1** of the reproduction (see ``DESIGN.md``): it
stands in for the VHDL front-end and simulator of the paper's tool chain.
"""

from . import logic
from .netlist import Bram, Dff, Gate, Netlist
from .rtl import Mem, Reg, Rtl, Word
from .simulator import FourValuedSim, NetlistSim
from .trace import Trace, capture_run
from .vcd import VcdWriter, dump_run

__all__ = [
    "logic",
    "Bram",
    "Dff",
    "Gate",
    "Netlist",
    "Mem",
    "Reg",
    "Rtl",
    "Word",
    "FourValuedSim",
    "NetlistSim",
    "Trace",
    "capture_run",
    "VcdWriter",
    "dump_run",
]
