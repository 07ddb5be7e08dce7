"""End-to-end latency analysis over physical layouts (Fig. 11).

Per the paper (following SkyWalk [40]): cable delay is 5 ns/m; switches add
a uniform per-hop latency.  For a layout we compute latency-weighted
shortest paths between all router pairs and report the average and maximum
end-to-end latency; Fig. 11 sweeps the switch latency from 0 to 250 ns and
plots LPS/SlimFly latencies relative to SkyWalk instantiated in the same
machine room.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.layout.qap import LayoutResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    import scipy.sparse as sp

CABLE_NS_PER_M = 5.0


def _edge_latency_graph(layout: LayoutResult, switch_latency_ns: float) -> sp.csr_matrix:
    """Weighted adjacency: per-hop latency = cable + one switch traversal."""
    import scipy.sparse as sp

    g = layout.topology.graph
    edges = g.edge_array()
    w = CABLE_NS_PER_M * layout.wire_lengths + switch_latency_ns
    n = g.n
    mat = sp.csr_matrix(
        (
            np.concatenate([w, w]),
            (
                np.concatenate([edges[:, 0], edges[:, 1]]),
                np.concatenate([edges[:, 1], edges[:, 0]]),
            ),
        ),
        shape=(n, n),
    )
    return mat


def latency_statistics(
    layout: LayoutResult, switch_latency_ns: float
) -> tuple[float, float]:
    """Return (average, maximum) end-to-end latency in ns over router pairs."""
    from scipy.sparse.csgraph import shortest_path

    mat = _edge_latency_graph(layout, switch_latency_ns)
    dist = shortest_path(mat, method="D", directed=False)
    n = dist.shape[0]
    off_diag = dist[~np.eye(n, dtype=bool)]
    if np.isinf(off_diag).any():
        raise ValueError("layout graph is disconnected")
    return float(off_diag.mean()), float(off_diag.max())


def latency_sweep(
    layout: LayoutResult, switch_latencies_ns: list[float]
) -> list[dict]:
    """Fig. 11 series: average/max latency at each switch latency."""
    rows = []
    for s in switch_latencies_ns:
        avg, mx = latency_statistics(layout, s)
        rows.append(
            {
                "name": layout.topology.name,
                "switch_ns": s,
                "avg_latency_ns": round(avg, 2),
                "max_latency_ns": round(mx, 2),
            }
        )
    return rows
