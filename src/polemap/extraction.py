"""Landmark cluster extraction from a labeled scan.

Pole and trunk points are kept, grouped per label class by Euclidean
connected components, and each surviving group becomes a cluster with its
centroid. Output order is lexicographic by 2D centroid so repeated runs
over permuted input produce identical cluster lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cluster_map import POLE, TRUNK, Cluster, Frame


@dataclass(frozen=True)
class ExtractionParams:
    cluster_distance: float = 0.5
    min_points: int = 10

    def __post_init__(self):
        if not self.cluster_distance > 0:
            raise ValueError("cluster_distance must be positive")
        if not self.min_points >= 1:
            raise ValueError("min_points must be at least 1")


def _component_roots(n: int, pairs: np.ndarray) -> np.ndarray:
    """Smallest member index of each point's connected component.

    Vectorized min-label union-find over an (m, 2) edge array: every round
    hooks the larger root of each edge whose roots differ onto the smaller
    one, then pointer-jumps until every parent is a root. A root hooked by
    several edges takes the smallest of their roots, so a star whose hub has
    the highest index joins in two rounds whatever order its edges come in.
    An edge whose ends share a root keeps sharing it, so each round drops
    those edges. A non-root always points at a smaller index, so the root
    of a component is its smallest member.
    """
    parent = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        ra, rb = parent[a], parent[b]
        differ = ra != rb
        if not differ.any():
            return parent
        a, b, ra, rb = a[differ], b[differ], ra[differ], rb[differ]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def euclidean_cluster(points, params: ExtractionParams | None = None) -> list[np.ndarray]:
    """Group (n, 3) points into connected components under 3D distance <= cluster_distance.

    Components smaller than min_points are dropped. Groups come back ordered
    by their smallest member index in the input, members in input order.
    """
    params = params or ExtractionParams()
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if n == 0:
        return []
    pairs = cKDTree(points).query_pairs(params.cluster_distance, output_type="ndarray")
    roots = _component_roots(n, pairs)
    # Sorting by root orders groups by smallest member; stability keeps
    # each group's members in input order.
    order = np.argsort(roots, kind="stable")
    starts = np.flatnonzero(np.diff(roots[order])) + 1
    return [points[g] for g in np.split(order, starts) if len(g) >= params.min_points]


def extract_clusters(frame: Frame, params: ExtractionParams | None = None) -> list[Cluster]:
    """All landmark clusters of a frame, ids 0..n-1 in canonical centroid order.

    Each landmark label is clustered on its own, so every cluster holds
    points of a single label.
    """
    params = params or ExtractionParams()
    clusters = [
        # Frame already rejected non-finite points, so build the clusters directly.
        Cluster(0, label, group, group.mean(axis=0))
        for label in (POLE, TRUNK)
        for group in euclidean_cluster(frame.xyz[frame.labels == label], params)
    ]
    clusters.sort(key=lambda c: (float(c.centroid2d[0]), float(c.centroid2d[1])))
    for i, cluster in enumerate(clusters):
        cluster.cluster_id = i
    return clusters
