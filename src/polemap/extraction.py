"""Landmark cluster extraction from a labeled scan.

Pole and trunk points are kept, grouped per label class by Euclidean
connected components, and each surviving group becomes a cluster with its
centroid. Output order is lexicographic by 2D centroid so repeated runs
over permuted input produce identical cluster lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .cluster_map import POLE, TRUNK, Cluster, Frame, kdtree, segment_sums


@dataclass(frozen=True)
class ExtractionParams:
    cluster_distance: float = bounded(0.5, 0, above=True)
    min_points: int = bounded(10, 1)

    __post_init__ = check_bounds


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
            if (grand == parent).all():
                break
            parent = grand


def _groups(points: np.ndarray, params: ExtractionParams) -> tuple[np.ndarray, np.ndarray]:
    """(index, sizes): the rows of every component of at least min_points,
    each component's rows contiguous, components ordered by their smallest
    member index, members in input order; and the component sizes."""
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    # query_pairs reports every pair within the distance whatever the tree's
    # shape, so take the tree that builds fastest for one query: kdtree's
    # sliding-midpoint splits, node boxes not shrunk to their points.
    tree = kdtree(points, compact_nodes=False)
    pairs = tree.query_pairs(params.cluster_distance, output_type="ndarray")
    roots = _component_roots(n, pairs)
    # Sorting by root orders groups by smallest member; stability keeps
    # each group's members in input order.
    order = np.argsort(roots, kind="stable")
    ordered = roots[order]
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    sizes = bounds[1:] - bounds[:-1]
    keep = sizes >= params.min_points
    return order[np.repeat(keep, sizes)], sizes[keep]


def extract_clusters(frame: Frame, params: ExtractionParams | None = None) -> list[Cluster]:
    """All landmark clusters of a frame, ids 0..n-1 in canonical centroid order.

    Each landmark label is clustered on its own, so every cluster holds
    points of a single label. Every centroid comes from one segment_sums
    call over the grouped points, and one stable lexsort on (x, y) orders
    the clusters, ties keeping pole clusters first, then group order.
    """
    params = params or ExtractionParams()
    grouped, sizes, labels = [], [], []
    for label in (POLE, TRUNK):
        points = frame.xyz[frame.labels == label]
        index, counts = _groups(points, params)
        grouped.append(points[index])
        sizes.append(counts)
        labels += [label] * len(counts)
    points, sizes = np.concatenate(grouped), np.concatenate(sizes)
    # Frame already rejected non-finite points, so build the clusters directly.
    centroids = segment_sums(points, sizes) / sizes[:, None]
    stops = np.cumsum(sizes).tolist()
    starts = [0, *stops[:-1]]
    order = np.lexsort((centroids[:, 1], centroids[:, 0])).tolist()
    return [
        Cluster(i, labels[k], points[starts[k]:stops[k]], centroids[k])
        for i, k in enumerate(order)
    ]
