"""Pose recovery from associated cluster pairs.

The accepted pipeline is association, pairwise-distance consistency
filtering, RANSAC over two-point hypotheses on cluster centroids, scored by
planar distance, a closed-form fit, and point-to-point ICP refinement over
the member points of the surviving pairs, which re-queries only the points
whose nearest target can have changed. ICP searches a kd-tree of
cluster_map.kdtree's sliding-midpoint layout, and takes the lowest row
among equally near targets, so its poses do not depend on the layout. The
returned pose maps local-map coordinates into global-map coordinates. Every
fit solves a yaw about z and a planar translation, and keeps the height of
the estimate the local map is posed at: pole and trunk centroids sit at
nearly one height and hold roll and pitch poorly, so both maps are taken as
gravity-aligned, and relocalize_frame keeps the roll and pitch of that
estimate. Vertical poles barely fix height either, and point-to-point ICP
would slide along them step after step. So fit_pairs sets the height once
per fix, on the coarse fit before ICP: the median over the inlier pairs of
the global cluster's lowest member z minus the local cluster's. That rule
assumes that cluster bases reach the ground in both maps.

One closed-form fit serves RANSAC, the coarse fit and every ICP step. It
fits a stack of correspondence sets at once: RANSAC passes the pair
centroids of its two-point hypotheses, and estimate_rigid_transform,
which coarse_align and ICP call, passes one set. RANSAC fits hypothesis
(0, 1) first and stops there when every pair supports it, with the same
result; otherwise one call fits every hypothesis. It works on C-ordered
copies of the stacks, so the layout of its input cannot change the order of
any sum, and so it equals the batched mean/ptp form that tests/oracles.py
keeps bit for bit under the numpy release that constraints.txt pins.

fit_pairs runs every stage after association on any candidate pairs. Two
sources feed it: prior-free star association, and, when a caller that
tracks a pose estimate passes relocalize guided=True, guided pairs that
match each local cluster to the nearest same-label global centroid within
TRACK_GATE, by the global map's nearest_within. A guided attempt that fails,
or whose inliers lie along a line (which cannot tell the periods of a
regular row apart), falls back to star association within the same
relocalize call; RelocResult.path names the source that served.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .association import AssociationParams, MatchPair, associate_maps
from .bounds import ANY_NUMBER, bounded, check_bounds
from .cluster_map import ClusterMap, kdtree
from .geometry import PoseSE3

FAILURE_NO_MATCHES = "no-matches"
FAILURE_CONSISTENCY = "consistency-collapse"
FAILURE_RANSAC = "ransac-failure"
FAILURE_DEGENERATE = "degenerate-fit"
FAILURE_NO_CLUSTERS = "no-clusters"


class RelocalizationFailure(Exception):
    """Relocalization could not produce a pose; reason names the stage."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# 50x the default. RANSAC scores at most this many hypotheses at once, in
# per-coordinate arrays of hypotheses x pairs floats.
MAX_RANSAC_ITERATIONS = 10_000


@dataclass(frozen=True)
class RelocParams:
    consistency_tolerance: float = bounded(0.5, 0, above=True)
    ransac_threshold: float = bounded(0.5, 0, above=True)
    ransac_iterations: int = bounded(200, 1, MAX_RANSAC_ITERATIONS)
    min_pairs: int = bounded(4, 3)
    icp_max_iterations: int = bounded(30, 0)
    icp_convergence: float = bounded(1e-4, *ANY_NUMBER)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class RelocResult:
    pose: PoseSE3
    inlier_pairs: tuple[MatchPair, ...]
    residual_rms: float
    path: str = "star"  # the pairs that served: "guided" or "star"

    def __post_init__(self):
        object.__setattr__(self, "inlier_pairs", tuple(self.inlier_pairs))


def _pair_centroids(pairs, local_map: ClusterMap, global_map: ClusterMap) -> tuple[np.ndarray, np.ndarray]:
    src = np.array([local_map.get(p.local_id).centroid3d for p in pairs])
    dst = np.array([global_map.get(p.global_id).centroid3d for p in pairs])
    return src.reshape(len(pairs), 3), dst.reshape(len(pairs), 3)


def geometric_consistency_filter(
    pairs,
    local_map: ClusterMap,
    global_map: ClusterMap,
    tolerance: float,
) -> list[MatchPair]:
    """Largest found subset of pairs with mutually consistent distances.

    Two pairs are compatible when the centroid distance between their local
    clusters matches the distance between their global clusters within the
    tolerance. A greedy clique expansion from the highest-degree vertex keeps
    one pairwise-compatible subset; with fewer than two pairs the input is
    returned unchanged. Output order is canonical (sorted by local id).
    """
    pairs = sorted(pairs, key=lambda p: (p.local_id, p.global_id))
    n = len(pairs)
    if n < 2:
        return pairs
    src, dst = _pair_centroids(pairs, local_map, global_map)
    d_local = np.linalg.norm(src[:, None, :] - src[None, :, :], axis=2)
    d_global = np.linalg.norm(dst[:, None, :] - dst[None, :, :], axis=2)
    adj = np.abs(d_local - d_global) <= tolerance
    np.fill_diagonal(adj, False)
    degree = adj.sum(axis=1)
    # One walk by falling degree, ties to the lowest index: a vertex joins when
    # it is compatible with every member so far. A vertex passed over stays
    # out, since the compatible set only shrinks, so each join is the
    # highest-ranked vertex compatible with the clique.
    clique = []
    compatible = np.ones(n, dtype=bool)
    for v in np.argsort(-degree, kind="stable").tolist():
        if compatible[v]:
            clique.append(v)
            compatible &= adj[v]
    clique.sort()
    return [pairs[i] for i in clique]


def _fit_yaw(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fits of a yaw about z and a planar translation to a
    stack of correspondence sets.

    src and dst are (m, n, 3). Each yaw is the atan2 of the summed planar
    cross and dot products of its centred sets. Returns the rotations
    (m, 3, 3), the translations (m, 3), whose z is 0, and an (m,) mask of
    the fits in which both sets hold two distinct planar points; without
    them a fit's rotation and translation are meaningless.
    """
    # Every sum below runs over C-ordered copies, so the input layout cannot
    # change its order.
    src, dst = np.ascontiguousarray(src), np.ascontiguousarray(dst)
    c_src, c_dst = src.mean(axis=1), dst.mean(axis=1)
    a = src[:, :, :2] - c_src[:, None, :2]
    b = dst[:, :, :2] - c_dst[:, None, :2]
    cross = (a[:, :, 0] * b[:, :, 1] - a[:, :, 1] * b[:, :, 0]).sum(axis=1)
    dot = (a * b).sum(axis=(1, 2))
    yaw = np.arctan2(cross, dot)
    rot = np.zeros((len(yaw), 3, 3))
    rot[:, 0, 0] = rot[:, 1, 1] = np.cos(yaw)
    rot[:, 1, 0] = np.sin(yaw)
    rot[:, 0, 1] = -rot[:, 1, 0]
    rot[:, 2, 2] = 1.0
    trans = c_dst - np.matmul(rot, c_src[:, :, None])[:, :, 0]
    trans[:, 2] = 0.0
    xy_src, xy_dst = src[:, :, :2], dst[:, :, :2]
    valid = (xy_src != xy_src[:, :1]).any(axis=(1, 2)) & (xy_dst != xy_dst[:, :1]).any(axis=(1, 2))
    return rot, trans, valid


def estimate_rigid_transform(src: np.ndarray, dst: np.ndarray) -> PoseSE3:
    """Least-squares yaw and planar translation with dst ~= Rz(yaw) @ src + t,
    t = (tx, ty, 0): the fit never moves a point in z.

    Requires at least two correspondences; when either set's points all
    coincide in xy, no yaw is fixed and the fit raises.
    """
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    if len(src) != len(dst) or len(src) < 2:
        raise ValueError("degenerate correspondences")
    rot, trans, valid = _fit_yaw(src[None], dst[None])
    if not valid[0]:
        raise ValueError("degenerate correspondences")
    return PoseSE3(rot[0], trans[0])


def _ransac_masks(
    src: np.ndarray, dst: np.ndarray, hypotheses: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fit each (i, j) row of hypotheses to the pair centroids src and dst,
    (n, 3) each. Returns _fit_yaw's (m,) validity mask and the (m, n) masks
    of the pairs whose global centroid sits within threshold of the
    transformed local centroid in the plane."""
    rot, trans, valid = _fit_yaw(src[hypotheses], dst[hypotheses])
    cos, sin = rot[:, 0, 0, None], rot[:, 1, 0, None]
    tx, ty = trans[:, 0, None], trans[:, 1, None]
    s, d = src.T[:2], dst.T[:2]
    # Planar residuals of every pair under every hypothesis, one (m, n) plane
    # per coordinate.
    ex = d[0] - ((cos * s[0] - sin * s[1]) + tx)
    ey = d[1] - ((sin * s[0] + cos * s[1]) + ty)
    return valid, np.sqrt(ex * ex + ey * ey) < threshold


def ransac_filter(
    pairs,
    local_map: ClusterMap,
    global_map: ClusterMap,
    params: RelocParams | None = None,
) -> list[MatchPair]:
    """Largest inlier subset of pairs under a two-point hypothesis.

    Each two pairs (i, j), i < j, in np.triu_indices order, give a yaw and
    planar translation fit; a pair is an inlier when its global centroid
    sits within ransac_threshold of the transformed local centroid in the
    plane. Above ransac_iterations hypotheses, that many are scored, at
    evenly spaced positions of that order. The first hypothesis with the
    most inliers wins, and a degenerate one never does.

    Hypothesis (0, 1) is fitted first, and when it is valid and every pair
    supports it the pairs return as given: no hypothesis keeps more, and it
    comes first in the order. Otherwise one call fits every hypothesis.
    """
    params = params or RelocParams()
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("insufficient pairs")
    src, dst = _pair_centroids(pairs, local_map, global_map)
    valid, masks = _ransac_masks(src, dst, np.array([[0, 1]]), params.ransac_threshold)
    if valid[0] and masks.all():
        return pairs
    hypotheses = np.column_stack(np.triu_indices(len(pairs), 1))
    cap = params.ransac_iterations
    if len(hypotheses) > cap:
        hypotheses = hypotheses[np.arange(cap) * len(hypotheses) // cap]
    valid, masks = _ransac_masks(src, dst, hypotheses, params.ransac_threshold)
    # Degenerate hypotheses never win.
    inliers = np.where(valid, masks.sum(axis=1), -1)
    best = int(np.argmax(inliers))
    if inliers[best] < 3:
        raise ValueError("insufficient pairs")
    return [p for p, keep in zip(pairs, masks[best]) if keep]


def coarse_align(pairs, local_map: ClusterMap, global_map: ClusterMap) -> PoseSE3:
    """Closed-form yaw and planar translation fit over the surviving pairs'
    centroids."""
    src, dst = _pair_centroids(list(pairs), local_map, global_map)
    return estimate_rigid_transform(src, dst)


def _stacked_points(pairs, local_map: ClusterMap, global_map: ClusterMap) -> tuple[np.ndarray, np.ndarray]:
    src = np.vstack([local_map.get(p.local_id).points for p in pairs])
    dst = np.vstack([global_map.get(p.global_id).points for p in pairs])
    return src, dst


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances, summed in the kd-tree's own order, so a
    distance is bit-equal to the one a kd-tree query returns for the pair."""
    sq = (a - b) ** 2
    return np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])


def _query_two(tree, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest distances and rows, and each point's second-nearest distance
    (inf when the tree holds one point). Among equally near targets the
    nearest row is the lowest, whatever the tree's layout."""
    d, i = tree.query(points, k=2)
    nearest = i[:, 0]
    tied = np.flatnonzero(d[:, 0] == d[:, 1])
    if len(tied):
        # k=2 may list equal distances in either order and leave out a third,
        # and which one k=1 names depends on the layout. A slightly wider
        # ball holds every tied target, in ascending row order; _distances
        # tells the tied ones apart exactly.
        radii = d[tied, 0] * (1.0 + 1e-9)
        hits = tree.query_ball_point(points[tied], radii, return_sorted=True)
        for row, near in zip(tied, hits):
            near = np.asarray(near)
            exact = _distances(tree.data[near], points[row]) == d[row, 0]
            nearest[row] = near[np.argmax(exact)]
    return d[:, 0], nearest, d[:, 1]


def fine_align(
    pairs,
    local_map: ClusterMap,
    global_map: ClusterMap,
    init: PoseSE3,
    params: RelocParams | None = None,
) -> tuple[PoseSE3, float]:
    """Point-to-point ICP over the member points of the matched clusters.

    Starts at init and never returns a residual above the starting one.
    Empty pairs raise ValueError.

    Each source point keeps its nearest target while its distance to it stays
    strictly below a lower bound on every other target's: the second-nearest
    distance of its last query, less how far it has moved since. Only the
    other points are queried again; results equal a full query per step.
    """
    params = params or RelocParams()
    pairs = list(pairs)
    if not pairs:
        raise ValueError("insufficient pairs")
    src, dst = _stacked_points(pairs, local_map, global_map)

    tree = kdtree(dst)
    moved = init.apply(src)
    dist, idx, second = _query_two(tree, moved)
    queried_at = moved.copy()
    best_rms = float(np.sqrt(np.mean(dist * dist)))
    best_pose = init
    prev = best_rms
    pose = init
    for _ in range(params.icp_max_iterations):
        matched = dst[idx]
        try:
            delta = estimate_rigid_transform(moved, matched)
        except ValueError:
            break
        pose = delta @ pose
        moved = pose.apply(src)
        dist = _distances(moved, matched)
        # Take off a rounding slack of 1e-9 * (1 + second), written so that
        # the inf bound of a single target stays inf.
        bound = second * (1.0 - 1e-9) - 1e-9 - _distances(moved, queried_at)
        stale = ~(dist < bound)
        if stale.any():
            dist[stale], idx[stale], second[stale] = _query_two(tree, moved[stale])
            queried_at[stale] = moved[stale]
        current = float(np.sqrt(np.mean(dist * dist)))
        if current < best_rms:
            best_pose, best_rms = pose, current
        if current > prev or prev - current < params.icp_convergence:
            break
        prev = current
    return best_pose, best_rms


def fit_pairs(
    pairs,
    local_map: ClusterMap,
    global_map: ClusterMap,
    params: RelocParams | None = None,
) -> RelocResult:
    """Pose from candidate pairs: consistency filter, RANSAC, the coarse fit,
    the height step (_base_height_offset) and ICP.

    Raises RelocalizationFailure with an enumerated reason when any stage
    leaves fewer than min_pairs correspondences or the fit degenerates.
    """
    params = params or RelocParams()
    pairs = list(pairs)
    if len(pairs) < params.min_pairs:
        raise RelocalizationFailure(FAILURE_NO_MATCHES)

    pairs = geometric_consistency_filter(pairs, local_map, global_map, params.consistency_tolerance)
    if len(pairs) < params.min_pairs:
        raise RelocalizationFailure(FAILURE_CONSISTENCY)
    try:
        pairs = ransac_filter(pairs, local_map, global_map, params)
    except ValueError:
        raise RelocalizationFailure(FAILURE_RANSAC) from None
    if len(pairs) < params.min_pairs:
        raise RelocalizationFailure(FAILURE_RANSAC)

    try:
        coarse = coarse_align(pairs, local_map, global_map)
    except ValueError:
        raise RelocalizationFailure(FAILURE_DEGENERATE) from None
    # The coarse fit keeps the local map's height, and ICP keeps its start's,
    # so the offset does not depend on the planar pose; setting it first lets
    # ICP pair points at the right height.
    lift = _base_height_offset(pairs, local_map, global_map)
    coarse = PoseSE3(coarse.rotation, coarse.translation + (0.0, 0.0, lift))
    pose, residual = fine_align(pairs, local_map, global_map, coarse, params)
    return RelocResult(pose=pose, inlier_pairs=tuple(pairs), residual_rms=residual)


def _base_height_offset(pairs, local_map: ClusterMap, global_map: ClusterMap) -> float:
    """Height that makes the matched cluster bases meet: the median over
    pairs of the global cluster's lowest member z minus the local cluster's.
    """
    gaps = _lowest_z(global_map, [p.global_id for p in pairs]) - _lowest_z(
        local_map, [p.local_id for p in pairs]
    )
    return float(np.median(gaps))


def _lowest_z(cluster_map: ClusterMap, ids) -> np.ndarray:
    """Lowest member z of each listed cluster, in one reduction."""
    points = [cluster_map.get(i).points for i in ids]
    starts = np.cumsum([0] + [len(p) for p in points[:-1]])
    return np.minimum.reduceat(np.concatenate(points)[:, 2], starts)


# Meters within which a guided attempt pairs clusters posed at the estimate.
# Below half the default scene's 6 m minimum landmark spacing, so a cluster
# cannot reach its neighbour's landmark while the estimate is within the gate
# of the truth.
TRACK_GATE = 2.0
# A guided fit serves only when the planar centroids of its inliers span the
# plane: the smaller singular value of those centred xy centroids must be at
# least this share of the larger. Pairs along one line, such as a row of
# poles, still fix a yaw, but they do not tell which period of a regular row
# the estimate sits in.
GUIDED_MIN_SPREAD = 0.1


def _spans_plane(pairs, global_map: ClusterMap) -> bool:
    xy = np.array([global_map.get(p.global_id).centroid3d[:2] for p in pairs])
    s = np.linalg.svd(xy - xy.mean(axis=0), compute_uv=False)
    return bool(s[1] >= GUIDED_MIN_SPREAD * s[0])


def guided_pairs(local_map: ClusterMap, global_map: ClusterMap, gate: float) -> list[MatchPair]:
    """Each local cluster paired with the nearest same-label global centroid
    at a planar distance of at most gate meters, ties to the lowest global id,
    by one global_map.nearest_within query. The local map must already be
    posed at the estimate. A guided pair has no matched edges, so it
    carries 0.
    """
    ids, cents, labels = local_map.centroid_table()
    hits = global_map.nearest_within(cents, gate, labels)
    return [MatchPair(lid, gid, 0) for lid, gid in zip(ids.tolist(), hits.tolist()) if gid >= 0]


def relocalize(
    local_map: ClusterMap,
    global_map: ClusterMap,
    assoc_params: AssociationParams | None = None,
    reloc_params: RelocParams | None = None,
    *,
    guided: bool = False,
) -> RelocResult:
    """Full relocalization of a local map inside a global map: star
    association, then fit_pairs.

    With guided set, fit_pairs first runs on guided_pairs within TRACK_GATE,
    which needs the local map posed at a good estimate; on any
    RelocalizationFailure, or when the guided inliers do not span the plane
    (GUIDED_MIN_SPREAD), the call falls back to star association. Raises
    RelocalizationFailure with an enumerated reason when any stage of the
    star path leaves fewer than min_pairs correspondences or the fit
    degenerates.
    """
    if guided:
        pairs = guided_pairs(local_map, global_map, TRACK_GATE)
        try:
            result = fit_pairs(pairs, local_map, global_map, reloc_params)
        except RelocalizationFailure:
            pass
        else:
            if _spans_plane(result.inlier_pairs, global_map):
                return replace(result, path="guided")
    pairs = associate_maps(local_map, global_map, assoc_params or AssociationParams())
    return fit_pairs(pairs, local_map, global_map, reloc_params)
