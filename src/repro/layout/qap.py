"""Heuristic QAP solver for cabinet placement (Table II).

Minimising total wire length over cabinet placements is a Quadratic
Assignment Problem.  The paper uses "an expectation minimization approach
combined with a greedy refinement process"; we implement the same two-stage
idea:

1. **EM/softassign stage** — iterate: place every cabinet at the weighted
   barycentre of its neighbours' current positions, then round the soft
   placement back to a permutation with the Hungarian algorithm
   (``scipy.optimize.linear_sum_assignment``).
2. **Greedy refinement** — randomized 2-swap hill climbing with vectorised
   delta evaluation until a budget of non-improving sweeps is exhausted.

The result is a :class:`LayoutResult` with per-link wire lengths, the inputs
for the power and latency models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.layout.machine_room import MachineRoom
from repro.layout.matching import cabinet_pairing
from repro.topology.base import Topology
from repro.utils.rng import as_rng


@dataclass
class LayoutResult:
    """A physical layout of a topology in a machine room.

    Attributes
    ----------
    topology:
        The laid-out topology.
    room:
        Machine-room geometry.
    cabinet_of:
        Cabinet id per router.
    slot_of:
        Grid slot per cabinet (permutation).
    wire_lengths:
        Length in metres of every link, aligned with
        ``topology.graph.edge_array()``.
    """

    topology: Topology
    room: MachineRoom
    cabinet_of: np.ndarray
    slot_of: np.ndarray
    wire_lengths: np.ndarray

    @property
    def total_wire_m(self) -> float:
        return float(self.wire_lengths.sum())

    @property
    def mean_wire_m(self) -> float:
        return float(self.wire_lengths.mean())

    @property
    def max_wire_m(self) -> float:
        return float(self.wire_lengths.max())


def _cabinet_graph(g: CSRGraph, cabinet_of: np.ndarray) -> np.ndarray:
    """Dense inter-cabinet link-count matrix W (diagonal zeroed)."""
    nc = int(cabinet_of.max()) + 1
    edges = g.edge_array()
    cu, cv = cabinet_of[edges[:, 0]], cabinet_of[edges[:, 1]]
    w = np.zeros((nc, nc), dtype=np.float64)
    np.add.at(w, (cu, cv), 1.0)
    np.add.at(w, (cv, cu), 1.0)
    np.fill_diagonal(w, 0.0)
    return w


def _layout_cost(w: np.ndarray, d: np.ndarray, slot_of: np.ndarray) -> float:
    """Total weighted wire length of a placement (each link once)."""
    dd = d[np.ix_(slot_of, slot_of)]
    return float((w * dd).sum() / 2.0)


def _em_stage(
    w: np.ndarray,
    grid_pos: np.ndarray,
    slot_of: np.ndarray,
    iters: int,
) -> np.ndarray:
    """Barycentre + Hungarian rounding iterations."""
    from scipy.optimize import linear_sum_assignment

    nc = len(slot_of)
    phys = grid_pos.astype(np.float64) * np.array([2.0, 0.6])
    deg = w.sum(axis=1)
    deg[deg == 0] = 1.0
    for _ in range(iters):
        cur = phys[slot_of]
        target = (w @ cur) / deg[:, None]
        # Cost of putting cabinet i at slot s = rectilinear distance from
        # its barycentre target to the slot.
        cost = np.abs(target[:, None, :] - phys[None, :, :]).sum(axis=2)
        _, assign = linear_sum_assignment(cost)
        slot_of = assign
    return slot_of


def _swap_refine(
    w: np.ndarray,
    d: np.ndarray,
    slot_of: np.ndarray,
    rng: np.random.Generator,
    sweeps: int,
) -> np.ndarray:
    """Randomized 2-swap hill climbing with vectorised delta rows."""
    nc = len(slot_of)
    slot_of = slot_of.copy()
    for _sweep in range(sweeps):
        improved = False
        order = rng.permutation(nc)
        dd = d[np.ix_(slot_of, slot_of)]
        for a in order:
            # Delta of swapping cabinet a with every other cabinet b:
            # sum_k W[a,k] (dd[b,k] - dd[a,k]) + W[b,k] (dd[a,k] - dd[b,k]),
            # k != a, b.  Computed for all b at once, then the k in {a, b}
            # terms (which the row sums wrongly include) are subtracted.
            wa = w[a]
            da = dd[a]
            delta = (wa[None, :] * (dd - da[None, :])).sum(axis=1) + (
                w * (da[None, :] - dd)
            ).sum(axis=1)
            delta -= wa * (np.diag(dd) + dd[a, a] - 2.0 * dd[:, a])
            delta[a] = 0.0
            b = int(np.argmin(delta))
            if delta[b] < -1e-9:
                slot_of[[a, b]] = slot_of[[b, a]]
                # Incremental update: only rows/cols a and b of dd change.
                dd[[a, b], :] = d[slot_of[[a, b]]][:, slot_of]
                dd[:, [a, b]] = dd[[a, b], :].T
                improved = True
        if not improved:
            break
    return slot_of


def native_layout(topo: Topology, room: MachineRoom | None = None) -> LayoutResult:
    """Wire lengths under the *generation-order* placement (no optimisation).

    Router ``r`` sits in cabinet ``r // 2`` at grid slot ``r // 2``.  This is
    the layout SkyWalk-style topologies are generated in — they are built
    around the machine room, so re-optimising their placement would
    double-count the short-cable preference (see Table II methodology).
    """
    g = topo.graph
    if room is None:
        room = MachineRoom(g.n)
    cabinet_of = np.arange(g.n, dtype=np.int64) // room.routers_per_cabinet
    nc = int(cabinet_of.max()) + 1
    slot_of = np.arange(nc, dtype=np.int64)
    d = room.cabinet_distance_matrix()[:nc, :nc]
    edges = g.edge_array()
    cu = cabinet_of[edges[:, 0]]
    cv = cabinet_of[edges[:, 1]]
    lengths = d[cu, cv].copy()
    lengths[cu == cv] = 2.0
    return LayoutResult(
        topology=topo,
        room=room,
        cabinet_of=cabinet_of,
        slot_of=slot_of,
        wire_lengths=lengths,
    )


def layout_topology(
    topo: Topology,
    seed: int | np.random.Generator | None = 0,
    em_iters: int = 8,
    refine_sweeps: int = 6,
    room: MachineRoom | None = None,
) -> LayoutResult:
    """Place ``topo`` in a machine room, heuristically minimising wire length.

    Returns per-link wire lengths (matched router pairs share a cabinet, so
    their link is the 2 m intra-cabinet wire).
    """
    rng = as_rng(seed)
    g = topo.graph
    if room is None:
        room = MachineRoom(g.n)
    cabinet_of = cabinet_pairing(g, rng)
    w = _cabinet_graph(g, cabinet_of)
    nc = w.shape[0]
    d = room.cabinet_distance_matrix()[:nc, :nc]
    grid = room.cabinet_grid_positions()[:nc]

    slot_of = rng.permutation(nc)
    slot_of = _em_stage(w, grid, slot_of, em_iters)
    slot_of = _swap_refine(w, d, slot_of, rng, refine_sweeps)

    edges = g.edge_array()
    cu = slot_of[cabinet_of[edges[:, 0]]]
    cv = slot_of[cabinet_of[edges[:, 1]]]
    lengths = d[cu, cv].copy()
    same = cabinet_of[edges[:, 0]] == cabinet_of[edges[:, 1]]
    lengths[same] = 2.0
    return LayoutResult(
        topology=topo,
        room=room,
        cabinet_of=cabinet_of,
        slot_of=slot_of,
        wire_lengths=lengths,
    )
