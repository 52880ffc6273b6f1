"""Geometric cluster association between two cluster maps.

Association works on the planar neighborhood structure of each cluster. Every
cluster anchors a star of edges to the neighbors inside its search radius.
When an edge from the local map is compared against a candidate edge from the
global map, the remaining edges of both stars become sub-edges, described
relative to their edge by length and clockwise angle. Two clusters match when
enough of their edges find a well-aligned candidate, which makes the whole
test invariant to rigid motions of either map and independent of any pose
prior.

Thresholds follow the parameter defaults in AssociationParams; distances are
meters and angles degrees throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster_map import Cluster, ClusterMap, SemanticLabel, label_code

# Sentinel for an edge pair that does not reach the minimum sub-edge support.
# Using infinity keeps minimum and threshold comparisons natural.
UNMATCHED = math.inf


@dataclass(frozen=True)
class AssociationParams:
    search_radius: float = 50.0
    length_tolerance: float = 0.3
    angle_tolerance: float = 10.0
    sub_edge_tolerance: float = 0.2
    edge_tolerance: float = 0.25
    min_sub_edge_matches: int = 5
    min_edge_matches: int = 5
    candidate_count: int = 5

    def __post_init__(self):
        if self.search_radius <= 0:
            raise ValueError("search_radius must be positive")
        for name in ("length_tolerance", "angle_tolerance", "sub_edge_tolerance", "edge_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("min_sub_edge_matches", "min_edge_matches", "candidate_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True, eq=False)
class Edge:
    """Directed 2D segment from an anchor cluster to one of its neighbors."""

    anchor_id: int
    neighbor_id: int
    length: float
    direction: np.ndarray
    neighbor_label: SemanticLabel


@dataclass(frozen=True)
class SubEdgeFeature:
    """Sub-edge described relative to its matching edge.

    d is the sub-edge length; theta the clockwise angle in degrees, in
    [0, 360), from the matching edge's direction to the sub-edge's direction.
    """

    d: float
    theta: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("sub-edge length must be positive")
        if not 0.0 <= self.theta < 360.0:
            raise ValueError("theta must lie in [0, 360)")


@dataclass(frozen=True)
class MatchPair:
    """Accepted correspondence between a local and a global cluster id."""

    local_id: int
    global_id: int
    matched_edges: int


@dataclass(frozen=True)
class _EdgeData:
    """Array form of one anchor's edge star, ordered by (length, neighbor id)."""

    neighbor_ids: np.ndarray
    lengths: np.ndarray
    phis: np.ndarray  # absolute direction angles, degrees
    labels: np.ndarray
    directions: np.ndarray

    @property
    def count(self) -> int:
        return len(self.lengths)


def _edge_data(cluster_map: ClusterMap, cluster_id: int, search_radius: float) -> _EdgeData:
    anchor = cluster_map.get(cluster_id)
    ids = cluster_map.radius_search(anchor.centroid2d, search_radius, exclude=cluster_id)
    nids, lengths, phis, labels, dirs = [], [], [], [], []
    for nid in ids:
        neighbor = cluster_map.get(nid)
        vec = neighbor.centroid2d - anchor.centroid2d
        length = float(np.hypot(vec[0], vec[1]))
        if length == 0.0:
            continue  # coincident centroids leave the direction undefined
        nids.append(nid)
        lengths.append(length)
        phis.append(math.degrees(math.atan2(vec[1], vec[0])))
        labels.append(label_code(neighbor.label))
        dirs.append(vec / length)
    return _EdgeData(
        np.array(nids, dtype=int),
        np.array(lengths, dtype=float),
        np.array(phis, dtype=float),
        np.array(labels, dtype=int),
        np.array(dirs, dtype=float).reshape(len(nids), 2),
    )


def _edge_data_from_edges(edges) -> _EdgeData:
    return _EdgeData(
        np.array([e.neighbor_id for e in edges], dtype=int),
        np.array([e.length for e in edges], dtype=float),
        np.array(
            [math.degrees(math.atan2(e.direction[1], e.direction[0])) for e in edges],
            dtype=float,
        ),
        np.array([label_code(e.neighbor_label) for e in edges], dtype=int),
        np.array([np.asarray(e.direction, dtype=float) for e in edges]).reshape(len(edges), 2),
    )


def neighbor_edges(cluster_map: ClusterMap, cluster_id: int, search_radius: float) -> list[Edge]:
    """Edges from a cluster to every neighbor within search_radius, by length."""
    data = _edge_data(cluster_map, cluster_id, search_radius)
    return [
        Edge(
            anchor_id=cluster_id,
            neighbor_id=int(data.neighbor_ids[i]),
            length=float(data.lengths[i]),
            direction=data.directions[i].copy(),
            neighbor_label=cluster_map.get(int(data.neighbor_ids[i])).label,
        )
        for i in range(data.count)
    ]


def sub_edge_feature(reference: Edge, other: Edge) -> SubEdgeFeature:
    """Describe other relative to reference (clockwise angle convention)."""
    cross = reference.direction[0] * other.direction[1] - reference.direction[1] * other.direction[0]
    dot = float(np.dot(reference.direction, other.direction))
    theta = (-math.degrees(math.atan2(cross, dot))) % 360.0
    return SubEdgeFeature(d=other.length, theta=theta)


def sub_edge_distance(a: SubEdgeFeature, b: SubEdgeFeature) -> float:
    """Distance between two sub-edge features via the law of cosines.

    Equals the Euclidean distance between the 2D vectors the features
    describe; the angle difference is taken on the circle.
    """
    diff = abs(a.theta - b.theta) % 360.0
    diff = min(diff, 360.0 - diff)
    sq = a.d * a.d + b.d * b.d - 2.0 * a.d * b.d * math.cos(math.radians(diff))
    return math.sqrt(max(sq, 0.0))


def match_sub_edges(
    a: SubEdgeFeature,
    b: SubEdgeFeature,
    label_a: SemanticLabel,
    label_b: SemanticLabel,
    params: AssociationParams | None = None,
) -> bool:
    """Whether two sub-edges agree in label, length, angle and feature distance."""
    params = params or AssociationParams()
    if label_a != label_b:
        return False
    if abs(a.d - b.d) >= params.length_tolerance:
        return False
    diff = abs(a.theta - b.theta) % 360.0
    if min(diff, 360.0 - diff) >= params.angle_tolerance:
        return False
    return sub_edge_distance(a, b) < params.sub_edge_tolerance


def candidate_edges(target: Edge, global_edges, count: int) -> list[Edge]:
    """Up to count edges closest to the target in length, stable order."""
    ordered = sorted(global_edges, key=lambda e: abs(e.length - target.length))
    return ordered[:count]


@dataclass(frozen=True)
class _PairTables:
    """Per anchor-pair matrices reused across every candidate evaluation."""

    G: np.ndarray  # pairwise direction angle differences, local x global
    SS: np.ndarray  # squared-length sums
    DD: np.ndarray  # length products
    base: np.ndarray  # label equality and length gap check


def _pair_tables(local: _EdgeData, global_: _EdgeData, params: AssociationParams) -> _PairTables:
    dl = local.lengths[:, None]
    dg = global_.lengths[None, :]
    return _PairTables(
        G=local.phis[:, None] - global_.phis[None, :],
        SS=dl * dl + dg * dg,
        DD=dl * dg,
        base=(local.labels[:, None] == global_.labels[None, :])
        & (np.abs(dl - dg) < params.length_tolerance),
    )


def _candidate_distance(
    local: _EdgeData,
    global_: _EdgeData,
    tables: _PairTables,
    i: int,
    j: int,
    params: AssociationParams,
) -> float:
    """Distance between local edge i and global candidate j.

    Sub-edges of both stars are paired one-to-one greedily by increasing
    feature distance; with enough pairs the distance is the mean paired
    feature distance scaled by the log of the unmatched fraction, otherwise
    UNMATCHED.
    """
    n_sub_local = local.count - 1
    if n_sub_local < params.min_sub_edge_matches or global_.count - 1 < params.min_sub_edge_matches:
        return UNMATCHED
    delta = tables.G - tables.G[i, j]
    circ = np.abs((delta + 180.0) % 360.0 - 180.0)
    dist = np.sqrt(np.maximum(tables.SS - 2.0 * tables.DD * np.cos(np.radians(delta)), 0.0))
    ok = tables.base & (circ < params.angle_tolerance) & (dist < params.sub_edge_tolerance)
    ok[i, :] = False
    ok[:, j] = False
    ps, qs = np.nonzero(ok)
    if ps.size < params.min_sub_edge_matches:
        return UNMATCHED
    dvals = dist[ps, qs]
    order = np.lexsort((qs, ps, dvals))
    used_p = np.zeros(local.count, dtype=bool)
    used_q = np.zeros(global_.count, dtype=bool)
    k_se = 0
    total = 0.0
    for t in order:
        p, q = ps[t], qs[t]
        if used_p[p] or used_q[q]:
            continue
        used_p[p] = True
        used_q[q] = True
        k_se += 1
        total += float(dvals[t])
    if k_se < params.min_sub_edge_matches:
        return UNMATCHED
    return math.log(n_sub_local / k_se) * total / k_se


def edge_pair_distance(
    edge: Edge,
    candidate: Edge,
    local_edges,
    global_edges,
    params: AssociationParams | None = None,
) -> float:
    """Distance between a local edge and a global candidate, or UNMATCHED.

    edge must be a member of local_edges and candidate of global_edges; the
    remaining edges of each list act as the sub-edges.
    """
    params = params or AssociationParams()
    i = local_edges.index(edge)
    j = global_edges.index(candidate)
    local = _edge_data_from_edges(local_edges)
    global_ = _edge_data_from_edges(global_edges)
    tables = _pair_tables(local, global_, params)
    return _candidate_distance(local, global_, tables, i, j, params)


def _max_tolerance_matching(a_sorted: np.ndarray, b_sorted: np.ndarray, tol: float) -> int:
    """Maximum one-to-one matching size between sorted values at |a-b| < tol."""
    i = j = count = 0
    na, nb = len(a_sorted), len(b_sorted)
    while i < na and j < nb:
        d = a_sorted[i] - b_sorted[j]
        if abs(d) < tol:
            count += 1
            i += 1
            j += 1
        elif d <= -tol:
            i += 1
        else:
            j += 1
    return count


def _length_support(local: _EdgeData, global_: _EdgeData, params: AssociationParams) -> int:
    """Upper bound on sub-edge pairs available between the two stars."""
    support = 0
    for code in np.unique(local.labels):
        a = local.lengths[local.labels == code]
        b = global_.lengths[global_.labels == code]
        support += _max_tolerance_matching(a, b, params.length_tolerance)
    return support


def _match_from_data(local: _EdgeData, global_: _EdgeData, params: AssociationParams) -> tuple[bool, int]:
    if local.count - 1 < params.min_sub_edge_matches:
        return False, 0
    if global_.count - 1 < params.min_sub_edge_matches:
        return False, 0
    # Cheap exact reject: no candidate pair can collect min_sub_edge_matches
    # one-to-one sub-edge pairs if the full length multisets cannot.
    if _length_support(local, global_, params) < params.min_sub_edge_matches:
        return False, 0
    tables = _pair_tables(local, global_, params)
    gaps = np.abs(local.lengths[:, None] - global_.lengths[None, :])
    matched = 0
    for i in range(local.count):
        order = np.argsort(gaps[i], kind="stable")[: params.candidate_count]
        best = UNMATCHED
        for j in order:
            d = _candidate_distance(local, global_, tables, i, int(j), params)
            if d < best:
                best = d
        if best < params.edge_tolerance:
            matched += 1
    return matched >= params.min_edge_matches, matched


def match_clusters(
    local_cluster: Cluster,
    global_cluster: Cluster,
    local_map: ClusterMap,
    global_map: ClusterMap,
    params: AssociationParams | None = None,
) -> tuple[bool, int]:
    """Decide whether two clusters correspond; returns (matched, edge count).

    Labels must agree, then every local edge is scored against its best
    length-ranked candidates from the global star; the pair matches when at
    least min_edge_matches local edges find a candidate below edge_tolerance.
    """
    params = params or AssociationParams()
    if local_cluster.label != global_cluster.label:
        return False, 0
    local = _edge_data(local_map, local_cluster.cluster_id, params.search_radius)
    global_ = _edge_data(global_map, global_cluster.cluster_id, params.search_radius)
    return _match_from_data(local, global_, params)


def associate_maps(
    local_map: ClusterMap,
    global_map: ClusterMap,
    params: AssociationParams | None = None,
) -> list[MatchPair]:
    """Best global correspondence for every local cluster that finds one.

    Each local cluster keeps the global candidate with the highest matched
    edge count, ties resolved toward the lowest global id; output is ordered
    by local id. Deterministic for identical inputs.
    """
    params = params or AssociationParams()
    local_data = {
        cid: _edge_data(local_map, cid, params.search_radius) for cid in local_map.ids()
    }
    global_data = {
        cid: _edge_data(global_map, cid, params.search_radius) for cid in global_map.ids()
    }
    pairs: list[MatchPair] = []
    for lid in local_map.ids():
        local_label = local_map.get(lid).label
        best: tuple[int, int] | None = None  # (matched edges, global id)
        for gid in global_map.ids():
            if global_map.get(gid).label != local_label:
                continue
            ok, k_e = _match_from_data(local_data[lid], global_data[gid], params)
            if ok and (best is None or k_e > best[0]):
                best = (k_e, gid)
        if best is not None:
            pairs.append(MatchPair(local_id=lid, global_id=best[1], matched_edges=best[0]))
    return pairs
