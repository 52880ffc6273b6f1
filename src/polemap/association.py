"""Geometric cluster association between two cluster maps.

Association works on the planar neighborhood structure of each cluster. Every
cluster anchors a star of edges to the neighbors inside its search radius.
When an edge from the local map is compared against a candidate edge from the
global map, the remaining edges of both stars become sub-edges, described
relative to their edge by length and angle. Two clusters match when
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

from .cluster_map import ClusterMap, label_code

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

    @property
    def count(self) -> int:
        return len(self.lengths)


def _edge_data(cluster_map: ClusterMap, cluster_id: int, search_radius: float) -> _EdgeData:
    anchor = cluster_map.get(cluster_id)
    ids = cluster_map.radius_search(anchor.centroid2d, search_radius, exclude=cluster_id)
    nids, lengths, phis, labels = [], [], [], []
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
    return _EdgeData(
        np.array(nids, dtype=int),
        np.array(lengths, dtype=float),
        np.array(phis, dtype=float),
        np.array(labels, dtype=int),
    )


def _law(ss, dd, delta_deg):
    """Law of cosines from squared-length sums, length products and angle gaps."""
    return np.sqrt(np.maximum(ss - 2.0 * dd * np.cos(np.radians(delta_deg)), 0.0))


def sub_edge_distance(d_a, theta_a, d_b, theta_b):
    """Distance between two sub-edge features (length, angle in degrees).

    Equals the Euclidean distance between the 2D vectors the features
    describe. Accepts scalars or broadcastable arrays; this is the law the
    association kernel applies to every sub-edge pair.
    """
    return _law(d_a * d_a + d_b * d_b, d_a * d_b, theta_a - theta_b)


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
    dist = _law(tables.SS, tables.DD, delta)
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


def _star_index(star: _EdgeData, edge: tuple[int, int]) -> int:
    hits = np.flatnonzero(star.neighbor_ids == edge[1])
    if hits.size == 0:
        raise ValueError(f"cluster {edge[1]} is not in the star of cluster {edge[0]}")
    return int(hits[0])


def edge_pair_distance(
    local_map: ClusterMap,
    global_map: ClusterMap,
    local_edge: tuple[int, int],
    global_edge: tuple[int, int],
    params: AssociationParams | None = None,
) -> float:
    """Distance between a local edge and a global candidate, or UNMATCHED.

    Each edge is an (anchor_id, neighbor_id) pair; the anchor's other edges
    within search_radius act as the sub-edges. Raises ValueError when the
    neighbor is not in the anchor's star.
    """
    params = params or AssociationParams()
    local = _edge_data(local_map, local_edge[0], params.search_radius)
    global_ = _edge_data(global_map, global_edge[0], params.search_radius)
    i = _star_index(local, local_edge)
    j = _star_index(global_, global_edge)
    return _candidate_distance(local, global_, _pair_tables(local, global_, params), i, j, params)


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
