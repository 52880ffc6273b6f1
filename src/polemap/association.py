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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .cluster_map import ClusterMap, kdtree

# Sentinel for an edge pair that does not reach the minimum sub-edge support.
# Using infinity keeps minimum and threshold comparisons natural.
UNMATCHED = math.inf


@dataclass(frozen=True)
class AssociationParams:
    search_radius: float = bounded(50.0, 0, above=True)
    length_tolerance: float = bounded(0.3, 0, above=True)
    angle_tolerance: float = bounded(10.0, 0, above=True)
    sub_edge_tolerance: float = bounded(0.2, 0, above=True)
    edge_tolerance: float = bounded(0.25, 0, above=True)
    min_sub_edge_matches: int = bounded(5, 1)
    min_edge_matches: int = bounded(5, 1)
    candidate_count: int = bounded(5, 1)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class MatchPair:
    """Accepted correspondence between a local and a global cluster id."""

    local_id: int
    global_id: int
    matched_edges: int


@dataclass(frozen=True)
class _EdgeData:
    """Array form of one anchor's edge star, ordered by (length, neighbor id)
    with length the stored np.hypot value."""

    neighbor_ids: np.ndarray
    lengths: np.ndarray
    phis: np.ndarray  # absolute direction angles, degrees
    labels: np.ndarray

    @property
    def count(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class _Stars:
    """Every cluster's edge star in one map, with all edges also laid end to
    end: edge e of lengths and labels belongs to star owners[e], and
    by_length is the stable order of lengths."""

    ids: tuple[int, ...]  # ascending
    stars: tuple[_EdgeData, ...]
    anchor_labels: np.ndarray  # label code of each anchor
    counts: np.ndarray
    owners: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    by_length: np.ndarray

    def star(self, cluster_id: int) -> _EdgeData:
        """The star anchored at cluster_id; KeyError when there is none."""
        if cluster_id not in self.ids:
            raise KeyError(cluster_id)
        return self.stars[self.ids.index(cluster_id)]


def _stars(cluster_map: ClusterMap, search_radius: float) -> _Stars:
    """The map's stars at search_radius, built once and kept until the map
    changes. This is the only star builder: one batched kd-tree query, then
    every star as slices of arrays sorted by (anchor, length, neighbor id)."""

    def build(m: ClusterMap) -> _Stars:
        tree_ids, cents, anchor_labels = m.centroid_table()  # row r is cluster tree_ids[r]
        ids = tree_ids.tolist()
        if not ids:
            empty = np.empty(0, dtype=int)
            return _Stars((), (), anchor_labels, empty, empty, np.empty(0), empty, empty)
        hits = kdtree(cents).query_ball_point(cents, search_radius)  # inclusive cutoff
        n_hits = [len(h) for h in hits]
        rows = np.repeat(np.arange(len(ids)), n_hits)
        cols = np.fromiter(itertools.chain.from_iterable(hits), dtype=int, count=sum(n_hits))
        vec = cents[cols] - cents[rows]
        lengths = np.hypot(vec[:, 0], vec[:, 1])
        # Drops each anchor's own row; coincident centroids likewise leave
        # the direction undefined.
        kept = np.flatnonzero(lengths != 0.0)
        # tree rows follow ascending ids, so cols orders ties like the ids
        kept = kept[np.lexsort((cols[kept], lengths[kept], rows[kept]))]
        rows, cols, vec, lengths = rows[kept], cols[kept], vec[kept], lengths[kept]
        # math.atan2, not np.arctan2: the two differ in the last bit on some inputs.
        phis = np.array([math.degrees(math.atan2(y, x)) for x, y in vec.tolist()], dtype=float)
        nids = tree_ids[cols]
        labels = anchor_labels[cols]
        counts = np.bincount(rows, minlength=len(ids))
        offsets = np.cumsum(counts) - counts
        stars = tuple(
            _EdgeData(nids[a : a + n], lengths[a : a + n], phis[a : a + n], labels[a : a + n])
            for a, n in zip(offsets.tolist(), counts.tolist())
        )
        by_length = np.argsort(lengths, kind="stable")
        return _Stars(tuple(ids), stars, anchor_labels, counts, rows, lengths, labels, by_length)

    return cluster_map.derived(("stars", search_radius), build)


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


def _candidate_distances(
    local: _EdgeData,
    global_: _EdgeData,
    i: np.ndarray,
    j: np.ndarray,
    params: AssociationParams,
) -> list[float]:
    """Distance between local edge i[k] and global candidate j[k], for each k.

    Sub-edges of both stars are paired one-to-one greedily by increasing
    feature distance; with enough pairs a candidate's distance is the mean
    paired feature distance scaled by the log of the unmatched fraction,
    otherwise UNMATCHED. Every candidate is scored at once over the sub-edge
    pairs that pass the label and length gates, which no candidate changes.
    """
    need = params.min_sub_edge_matches
    out = [UNMATCHED] * len(i)
    n_sub_local = local.count - 1
    if n_sub_local < need or global_.count - 1 < need:
        return out
    ps, qs = np.nonzero(
        (local.labels[:, None] == global_.labels[None, :])
        & (np.abs(local.lengths[:, None] - global_.lengths[None, :]) < params.length_tolerance)
    )
    g = local.phis[:, None] - global_.phis[None, :]
    # one row per candidate, one column per gated sub-edge pair
    delta = g[ps, qs][None, :] - g[i, j][:, None]
    circ = np.abs((delta + 180.0) % 360.0 - 180.0)
    dl, dg = local.lengths[ps], global_.lengths[qs]
    dist = _law(dl * dl + dg * dg, dl * dg, delta)
    ok = (
        (circ < params.angle_tolerance)
        & (dist < params.sub_edge_tolerance)
        & (ps[None, :] != i[:, None])
        & (qs[None, :] != j[:, None])
    )
    ks, ts = np.nonzero(ok)
    enough = np.bincount(ks, minlength=len(i))[ks] >= need
    ks, ts = ks[enough], ts[enough]
    d, p, q = dist[ks, ts], ps[ts], qs[ts]
    order = np.lexsort((q, p, d, ks))
    entries = zip(ks[order].tolist(), p[order].tolist(), q[order].tolist(), d[order].tolist())
    for k, group in itertools.groupby(entries, key=lambda e: e[0]):
        used_p: set[int] = set()
        used_q: set[int] = set()
        k_se = 0
        total = 0.0
        for _, pk, qk, dk in group:
            if pk in used_p or qk in used_q:
                continue
            used_p.add(pk)
            used_q.add(qk)
            k_se += 1
            total += dk
        if k_se >= need:
            out[k] = math.log(n_sub_local / k_se) * total / k_se
    return out


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
    within search_radius act as the sub-edges. Raises KeyError when an
    anchor is not in its map and ValueError when the neighbor is not in the
    anchor's star.
    """
    params = params or AssociationParams()
    local = _stars(local_map, params.search_radius).star(local_edge[0])
    global_ = _stars(global_map, params.search_radius).star(global_edge[0])
    i = _star_index(local, local_edge)
    j = _star_index(global_, global_edge)
    return _candidate_distances(local, global_, np.array([i]), np.array([j]), params)[0]


def _length_gate(local: _Stars, glob: _Stars, tol: float) -> np.ndarray:
    """Upper bound, per (local star, global star), on one-to-one pairs of
    their edges with equal labels and a length gap below tol: min(na, nb),
    na counting local edges with a partner in the global star and nb the
    reverse; 0 for empty stars. A 2 * tol window only bounds the search."""
    n_local, n_glob, n_edges = len(local.counts), len(glob.counts), len(glob.lengths)
    ordered = glob.lengths[glob.by_length]
    lo = np.searchsorted(ordered, local.lengths - 2.0 * tol, side="left")
    width = np.searchsorted(ordered, local.lengths + 2.0 * tol, side="right") - lo
    a = np.repeat(np.arange(len(local.lengths)), width)
    b = glob.by_length[np.arange(len(a)) - np.repeat(np.cumsum(width) - width - lo, width)]
    close = (np.abs(local.lengths[a] - glob.lengths[b]) < tol) & (local.labels[a] == glob.labels[b])
    a, b = a[close], b[close]
    ea = np.sort(a * n_glob + glob.owners[b])  # (local edge, global star) keys
    eb = np.sort(local.owners[a] * n_edges + b)  # (local star, global edge) keys
    # np.sort plus a neighbour compare: np.unique (numpy 2.4) is ~10x slower here
    ea, eb = ea[np.diff(ea, prepend=-1) != 0], eb[np.diff(eb, prepend=-1) != 0]
    na = np.bincount(local.owners[ea // n_glob] * n_glob + ea % n_glob, minlength=n_local * n_glob)
    nb = np.bincount(eb // n_edges * n_glob + glob.owners[eb % n_edges], minlength=n_local * n_glob)
    return np.minimum(na, nb).reshape(n_local, n_glob)


def _matched_edges(local: _EdgeData, global_: _EdgeData, params: AssociationParams) -> int:
    """Local edges whose best candidate scores below edge_tolerance.

    Each local edge's candidates are the candidate_count global edges nearest
    in length, ties kept in star order.
    """
    gaps = np.abs(local.lengths[:, None] - global_.lengths[None, :])
    j = np.argsort(gaps, axis=1, kind="stable")[:, : params.candidate_count]
    i = np.repeat(np.arange(local.count), j.shape[1])
    scores = np.reshape(_candidate_distances(local, global_, i, j.ravel(), params), j.shape)
    return int(np.count_nonzero(scores.min(axis=1) < params.edge_tolerance))


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
    need = params.min_sub_edge_matches
    local = _stars(local_map, params.search_radius)
    glob = _stars(global_map, params.search_radius)
    # Stars too small to collect enough sub-edge pairs are never scored.
    live = glob.counts - 1 >= need
    # Cheap exact reject: no candidate pair can collect need one-to-one
    # sub-edge pairs when the length bound says fewer exist.
    bounds = _length_gate(local, glob, params.length_tolerance)
    pairs: list[MatchPair] = []
    for lid, star, label, bound in zip(local.ids, local.stars, local.anchor_labels, bounds):
        if star.count - 1 < need:
            continue
        keep = live & (glob.anchor_labels == label) & (bound >= need)
        best: tuple[int, int] | None = None  # (matched edges, global id)
        for s in np.flatnonzero(keep):
            k_e = _matched_edges(star, glob.stars[s], params)
            if k_e >= params.min_edge_matches and (best is None or k_e > best[0]):
                best = (k_e, glob.ids[s])
        if best is not None:
            pairs.append(MatchPair(local_id=lid, global_id=best[1], matched_edges=best[0]))
    return pairs
