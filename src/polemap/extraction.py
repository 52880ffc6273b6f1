"""Landmark cluster extraction from a labeled scan.

Pole and trunk points are kept, grouped per label class by Euclidean
connected components, and each surviving group becomes a cluster with its
centroid. Output order is lexicographic by 2D centroid so repeated runs
over permuted input produce identical cluster lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .cluster_map import POLE, TRUNK, Cluster, Frame, label_code


@dataclass(frozen=True)
class ExtractionParams:
    cluster_distance: float = 0.5
    min_points: int = 10

    def __post_init__(self):
        if self.cluster_distance <= 0:
            raise ValueError("cluster_distance must be positive")
        if self.min_points < 1:
            raise ValueError("min_points must be at least 1")


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
    tree = cKDTree(points)
    pairs = tree.query_pairs(params.cluster_distance, output_type="ndarray")
    if len(pairs):
        data = np.ones(len(pairs), dtype=bool)
        graph = coo_matrix((data, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    else:
        graph = coo_matrix((n, n), dtype=bool)
    _, component = connected_components(graph, directed=False)
    order = np.argsort(component, kind="stable")
    _, starts = np.unique(component[order], return_index=True)
    groups = sorted(np.split(order, starts[1:]), key=lambda g: g[0])
    return [points[g] for g in groups if len(g) >= params.min_points]


def extract_clusters(frame: Frame, params: ExtractionParams | None = None) -> list[Cluster]:
    """All landmark clusters of a frame, ids 0..n-1 in canonical centroid order.

    Each landmark label is clustered on its own, so every cluster holds
    points of a single label.
    """
    params = params or ExtractionParams()
    clusters = [
        Cluster.from_points(0, label, group)
        for label in (POLE, TRUNK)
        for group in euclidean_cluster(frame.xyz[frame.labels == label_code(label)], params)
    ]
    clusters.sort(key=lambda c: (float(c.centroid2d[0]), float(c.centroid2d[1])))
    for i, cluster in enumerate(clusters):
        cluster.cluster_id = i
    return clusters
