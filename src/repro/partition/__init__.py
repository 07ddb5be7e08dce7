"""Graph bisection (METIS stand-in).

The paper approximates bisection bandwidth with METIS; this package provides
the same capability from scratch: a multilevel scheme (heavy-edge-matching
coarsening, spectral/greedy initial partitions, Fiduccia--Mattheyses
refinement) plus a Kernighan--Lin baseline.  ``bisection_bandwidth`` returns
the best (smallest) balanced cut over repeated randomised runs — an upper
bound on the true bisection width, exactly as METIS is used in Fig. 4 and
Table II.
"""

from repro.partition.multilevel import bisect, bisection_bandwidth
from repro.partition.kl import kernighan_lin_bisection
from repro.partition.weighted import WeightedGraph

__all__ = [
    "bisect",
    "bisection_bandwidth",
    "kernighan_lin_bisection",
    "WeightedGraph",
]
