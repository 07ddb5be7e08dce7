"""Packet-level interconnection-network simulator (SST/macro SNAPPR stand-in).

See DESIGN.md for the substitution notes: store-and-forward packet switching
with per-VC output queues and measured (not blocking) buffer occupancy,
which preserves the congestion behaviour the paper's Section VI compares
while staying tractable in Python.
"""

from repro.sim.packet import Packet
from repro.sim.batched import BatchedSimulator
from repro.sim.channel import ChannelConfig
from repro.sim.faults import FaultEvent, FaultSchedule
from repro.sim.network import NetworkSimulator, SimConfig
from repro.sim.traffic import (
    BitComplementTraffic,
    BitReverseTraffic,
    BitShuffleTraffic,
    TransposeTraffic,
    UniformRandomTraffic,
    make_traffic,
)
from repro.sim.placement import place_ranks
from repro.sim.stats import SimStats

__all__ = [
    "Packet",
    "BatchedSimulator",
    "NetworkSimulator",
    "SimConfig",
    "SimStats",
    "ChannelConfig",
    "FaultEvent",
    "FaultSchedule",
    "UniformRandomTraffic",
    "BitShuffleTraffic",
    "BitReverseTraffic",
    "TransposeTraffic",
    "BitComplementTraffic",
    "make_traffic",
    "place_ranks",
]
