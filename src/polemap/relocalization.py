"""Pose recovery from associated cluster pairs.

The accepted pipeline is association, pairwise-distance consistency
filtering, RANSAC over cluster centroids, a closed-form rigid fit, and
point-to-point ICP refinement over the member points of the surviving pairs,
which re-queries only the points whose nearest target can have changed. The
returned pose maps local-map coordinates into global-map coordinates.

fit_pairs runs every stage after association on any candidate pairs. Two
sources feed it: prior-free star association, and, when a caller that
tracks a pose estimate passes relocalize guided=True, guided pairs that
match each local cluster to the nearest same-label global centroid within
TRACK_GATE, by the global map's nearest_each. A guided attempt that fails,
or whose inliers lie along a line, falls back to star association within
the same relocalize call; RelocResult.path names the source that served.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .association import AssociationParams, MatchPair, associate_maps
from .cluster_map import ClusterMap
from .geometry import PoseSE3

FAILURE_NO_MATCHES = "no-matches"
FAILURE_CONSISTENCY = "consistency-collapse"
FAILURE_RANSAC = "ransac-failure"
FAILURE_DEGENERATE = "degenerate-fit"


class RelocalizationFailure(Exception):
    """Relocalization could not produce a pose; reason names the stage."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# 50x the default; the sample memo then holds at most 15 MB.
MAX_RANSAC_ITERATIONS = 10_000


@dataclass(frozen=True)
class RelocParams:
    consistency_tolerance: float = 0.5
    ransac_threshold: float = 0.5
    ransac_iterations: int = 200
    min_pairs: int = 4
    icp_max_iterations: int = 30
    icp_convergence: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("consistency_tolerance", "ransac_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.min_pairs >= 3:
            raise ValueError("min_pairs must be at least 3")
        if not 1 <= self.ransac_iterations <= MAX_RANSAC_ITERATIONS:
            raise ValueError(f"ransac_iterations must lie in 1..{MAX_RANSAC_ITERATIONS}")
        if not self.icp_max_iterations >= 0:
            raise ValueError("icp_max_iterations must be non-negative")
        if not self.seed >= 0:
            raise ValueError("seed must be non-negative")


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
    seed = int(np.argmax(degree))  # ties resolve to the lowest index
    clique = [seed]
    candidates = set(np.nonzero(adj[seed])[0].tolist())
    while candidates:
        pick = max(candidates, key=lambda v: (degree[v], -v))
        clique.append(pick)
        candidates &= set(np.nonzero(adj[pick])[0].tolist())
    clique.sort()
    return [pairs[i] for i in clique]


def _fit_rigid(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares rigid fits of a stack of correspondence sets.

    src and dst are (m, n, 3). Returns rotations (m, 3, 3), translations
    (m, 3) and a mask of the fits whose points span a non-degenerate
    configuration; the other fits hold meaningless values.
    """
    c_src = src.mean(axis=1)
    c_dst = dst.mean(axis=1)
    h = np.matmul((src - c_src[:, None, :]).transpose(0, 2, 1), dst - c_dst[:, None, :])
    u, s, vt = np.linalg.svd(h)
    valid = ~((s[:, 0] <= 0.0) | (s[:, 1] <= 1e-9 * s[:, 0]))
    v = vt.transpose(0, 2, 1)
    ut = u.transpose(0, 2, 1)
    flip = np.zeros((len(h), 3, 3))
    flip[:, 0, 0] = flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rot = v @ flip @ ut
    return rot, c_dst - np.matmul(rot, c_src[:, :, None])[:, :, 0], valid


def estimate_rigid_transform(src: np.ndarray, dst: np.ndarray) -> PoseSE3:
    """Least-squares rigid transform with dst ~= R @ src + t.

    Requires at least three correspondences spanning a non-degenerate
    configuration; collinear or coincident points raise.
    """
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    if len(src) != len(dst) or len(src) < 3:
        raise ValueError("degenerate correspondences")
    rot, trans, valid = _fit_rigid(src[None], dst[None])
    if not valid[0]:
        raise ValueError("degenerate correspondences")
    return PoseSE3(rot[0], trans[0])


@functools.lru_cache(maxsize=64)
def _ransac_samples(seed: int, n: int, iterations: int) -> np.ndarray:
    """The (iterations, 3) int64 table of three-of-n index samples that a
    generator seeded with seed draws, one rng.choice per row; read-only.

    Kept for the 64 most recent (seed, n, iterations) keys, so the memo holds
    at most 64 x iterations x 3 int64 values: 300 KB at the default 200
    iterations. A hit returns the table a fresh draw would give.
    """
    rng = np.random.default_rng(seed)
    samples = np.array([rng.choice(n, size=3, replace=False) for _ in range(iterations)])
    samples.flags.writeable = False
    return samples


def ransac_filter(
    pairs,
    local_map: ClusterMap,
    global_map: ClusterMap,
    params: RelocParams | None = None,
) -> list[MatchPair]:
    """Largest inlier subset of pairs under a sampled rigid transform.

    Samples of three centroid correspondences seed candidate transforms; a
    pair is an inlier when its global centroid sits within ransac_threshold
    of the transformed local centroid. Deterministic for a given seed.
    """
    params = params or RelocParams()
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("insufficient pairs")
    src, dst = _pair_centroids(pairs, local_map, global_map)
    samples = _ransac_samples(params.seed, len(pairs), params.ransac_iterations)
    rot, trans, valid = _fit_rigid(src[samples], dst[samples])
    moved = np.matmul(src[None], rot.transpose(0, 2, 1)) + trans[:, None, :]
    masks = np.linalg.norm(dst[None] - moved, axis=2) < params.ransac_threshold
    # The first sample with the most inliers wins; degenerate samples never do.
    inliers = np.where(valid, masks.sum(axis=1), -1)
    best = int(np.argmax(inliers))
    if inliers[best] < 3:
        raise ValueError("insufficient pairs")
    return [p for p, keep in zip(pairs, masks[best]) if keep]


def coarse_align(pairs, local_map: ClusterMap, global_map: ClusterMap) -> PoseSE3:
    """Closed-form rigid fit over the centroids of the surviving pairs."""
    src, dst = _pair_centroids(list(pairs), local_map, global_map)
    return estimate_rigid_transform(src, dst)


def _stacked_points(pairs, local_map: ClusterMap, global_map: ClusterMap) -> tuple[np.ndarray, np.ndarray]:
    src = np.vstack([local_map.get(p.local_id).points for p in pairs])
    dst = np.vstack([global_map.get(p.global_id).points for p in pairs])
    return src, dst


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances, summed in the kd-tree's own order, so a
    distance is bit-equal to the one cKDTree.query returns for the pair."""
    sq = (a - b) ** 2
    return np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])


def _query_two(tree: cKDTree, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest distances and rows as tree.query(points) returns them, and each
    point's second-nearest distance (inf when the tree holds one point)."""
    d, i = tree.query(points, k=2)
    nearest = i[:, 0]
    tied = d[:, 0] == d[:, 1]
    if tied.any():
        # k=2 may list equal distances in either order; k=1 breaks the tie.
        nearest[tied] = tree.query(points[tied])[1]
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

    tree = cKDTree(dst)
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
    """Pose from candidate pairs: consistency filter, RANSAC, the coarse fit
    and ICP.

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
    pose, residual = fine_align(pairs, local_map, global_map, coarse, params)
    return RelocResult(pose=pose, inlier_pairs=tuple(pairs), residual_rms=residual)


# Meters within which a guided attempt pairs clusters posed at the estimate.
# Below half the default scene's 6 m minimum landmark spacing, so a cluster
# cannot reach its neighbour's landmark while the estimate is within the gate
# of the truth.
TRACK_GATE = 2.0
# A guided fit serves only when the planar centroids of its inliers span the
# plane: the smaller singular value of those centred xy centroids must be at
# least this share of the larger, so the roll about their main axis is held
# at least a tenth as firmly as the pitch along it. Pairs along one line,
# such as a row of poles, hold neither that roll nor which period of a
# regular row the estimate sits in.
GUIDED_MIN_SPREAD = 0.1


def _spans_plane(pairs, global_map: ClusterMap) -> bool:
    xy = np.array([global_map.get(p.global_id).centroid3d[:2] for p in pairs])
    s = np.linalg.svd(xy - xy.mean(axis=0), compute_uv=False)
    return bool(s[1] >= GUIDED_MIN_SPREAD * s[0])


def guided_pairs(local_map: ClusterMap, global_map: ClusterMap, gate: float) -> list[MatchPair]:
    """Each local cluster paired with the nearest same-label global centroid
    at a planar distance of at most gate meters, ties to the lowest global id,
    by one global_map.nearest_each query. The local map must already be
    posed at the estimate. A guided pair has no matched edges, so it
    carries 0.
    """
    ids, cents, labels = local_map.centroid_table()
    return [
        MatchPair(lid, hit[0], 0)
        for lid, hit in zip(ids.tolist(), global_map.nearest_each(cents, labels))
        if hit is not None and hit[1] <= gate
    ]


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
