"""Planar disjoint paths toolkit.

Solves the vertex-disjoint paths problem on planar graphs: it deletes at
most one irrelevant vertex (certified, or heuristic by default) when a wide
enough grid minor exists, decides an instance from one face when it can,
and else runs dynamic programming on a tree decomposition of an exact
kernel. It ships the structural machinery (concentric cycles, cheap
linkages, segment trees, tilted grids, grid rerouting) behind the reduction.
"""

from .plane import (
    CheckResult,
    Cycle,
    DiskRegion,
    EmbeddingError,
    GridMinorModel,
    PlaneGraph,
    PlaneGraphError,
    TopologicalMinorModel,
    centers,
    closed_interior,
    make_grid,
    plane_graph_from_edges,
    verify_minor_model,
)

__all__ = [
    "CheckResult",
    "Cycle",
    "DiskRegion",
    "EmbeddingError",
    "GridMinorModel",
    "PlaneGraph",
    "PlaneGraphError",
    "TopologicalMinorModel",
    "centers",
    "closed_interior",
    "make_grid",
    "plane_graph_from_edges",
    "verify_minor_model",
]
