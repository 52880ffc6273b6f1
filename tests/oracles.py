"""Brute-force reference implementations used to cross-check the package.

Everything here favors clarity over speed: linear scans instead of spatial
indexes, a scalar union-find over an all-pairs distance scan where
production runs a vectorized one over kd-tree pairs, an association
routine written as plain nested loops over explicit feature tuples, edge
stars built one anchor and one neighbor at a time, a consistency filter
that grows its clique over Python sets, a yaw fit of a stack of sets in
mean/ptp form, a RANSAC that fits one two-pair hypothesis at a time, an
ICP that queries its kd-tree twice per step, and registration, extraction
and local maps built one cluster at a time. The production code must agree
with these exactly on the same inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from polemap import POLE, TRUNK, Cluster, ClusterMap, estimate_rigid_transform


def circ_diff(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def embed(d: float, theta_deg: float) -> tuple[float, float]:
    """Sub-edge feature as a plane vector; clockwise angles point down."""
    t = math.radians(theta_deg)
    return (d * math.cos(t), -d * math.sin(t))


def embedding_distance(d1: float, t1: float, d2: float, t2: float) -> float:
    x1, y1 = embed(d1, t1)
    x2, y2 = embed(d2, t2)
    return math.hypot(x1 - x2, y1 - y2)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def oracle_components(coords, threshold: float) -> list[list[int]]:
    """Connected components under pairwise distance <= threshold.

    coords is a sequence of (x, y, z) triples. Groups come back ordered by
    their smallest member index, members ascending.
    """
    n = len(coords)
    uf = UnionFind(n)
    for i in range(n):
        xi, yi, zi = coords[i]
        for j in range(i + 1, n):
            xj, yj, zj = coords[j]
            dist = math.sqrt((xi - xj) ** 2 + (yi - yj) ** 2 + (zi - zj) ** 2)
            if dist <= threshold:
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def oracle_radius_search(centroids, center, radius: float):
    """ids within radius of center (inclusive), ordered by (np.linalg.norm
    distance, id).

    centroids is a mapping id -> (x, y).
    """
    hits = []
    for cid, (x, y) in centroids.items():
        dist = float(np.linalg.norm(np.subtract((x, y), center)))
        if dist <= radius:
            hits.append((dist, cid))
    hits.sort()
    return [cid for _, cid in hits]


class _Star:
    """One cluster's edges with relative-angle tables, all precomputed."""

    def __init__(self, neighbor_ids, lengths, phis, label_codes):
        self.neighbor_ids = neighbor_ids
        self.lengths = lengths
        self.phis = phis
        self.label_codes = label_codes
        self.count = len(lengths)
        # theta[i][p]: clockwise angle of edge p measured from edge i
        self.theta = [
            [(phis[i] - phis[p]) % 360.0 for p in range(self.count)]
            for i in range(self.count)
        ]
        self.vec = [
            [embed(lengths[p], self.theta[i][p]) for p in range(self.count)]
            for i in range(self.count)
        ]


def _build_stars(cluster_map, search_radius: float) -> dict[int, _Star]:
    clusters = list(cluster_map)
    stars = {}
    for anchor in clusters:
        ax, ay = float(anchor.centroid2d[0]), float(anchor.centroid2d[1])
        edges = []
        for other in clusters:
            if other.cluster_id == anchor.cluster_id:
                continue
            dx = float(other.centroid2d[0]) - ax
            dy = float(other.centroid2d[1]) - ay
            length = math.hypot(dx, dy)
            if length == 0.0 or length > search_radius:
                continue
            phi = math.degrees(math.atan2(dy, dx))
            edges.append((length, other.cluster_id, phi, other.label))
        edges.sort(key=lambda e: (e[0], e[1]))
        stars[anchor.cluster_id] = _Star(
            [e[1] for e in edges],
            [e[0] for e in edges],
            [e[2] for e in edges],
            [e[3] for e in edges],
        )
    return stars


def _static_pairs(local: _Star, global_: _Star, length_tolerance: float):
    """Sub-edge pairs passing the anchor-independent label and length tests."""
    pairs = []
    for p in range(local.count):
        for q in range(global_.count):
            if local.label_codes[p] != global_.label_codes[q]:
                continue
            if abs(local.lengths[p] - global_.lengths[q]) >= length_tolerance:
                continue
            pairs.append((p, q))
    return pairs


def _oracle_candidate_distance(local, global_, static_pairs, i, j, params):
    """Score one local edge against one global candidate, or None."""
    if local.count - 1 < params.min_sub_edge_matches:
        return None
    if global_.count - 1 < params.min_sub_edge_matches:
        return None
    scored = []
    for p, q in static_pairs:
        if p == i or q == j:
            continue
        if circ_diff(local.theta[i][p], global_.theta[j][q]) >= params.angle_tolerance:
            continue
        lx, ly = local.vec[i][p]
        gx, gy = global_.vec[j][q]
        dist = math.hypot(lx - gx, ly - gy)
        if dist >= params.sub_edge_tolerance:
            continue
        scored.append((dist, p, q))
    scored.sort()
    used_p: set[int] = set()
    used_q: set[int] = set()
    k_se = 0
    total = 0.0
    for dist, p, q in scored:
        if p in used_p or q in used_q:
            continue
        used_p.add(p)
        used_q.add(q)
        k_se += 1
        total += dist
    if k_se < params.min_sub_edge_matches:
        return None
    return math.log((local.count - 1) / k_se) * total / k_se


def _oracle_match(local: _Star, global_: _Star, params) -> tuple[bool, int]:
    static_pairs = _static_pairs(local, global_, params.length_tolerance)
    matched = 0
    for i in range(local.count):
        order = sorted(
            range(global_.count),
            key=lambda j: abs(global_.lengths[j] - local.lengths[i]),
        )
        best = None
        for j in order[: params.candidate_count]:
            d = _oracle_candidate_distance(local, global_, static_pairs, i, j, params)
            if d is not None and (best is None or d < best):
                best = d
        if best is not None and best < params.edge_tolerance:
            matched += 1
    return matched >= params.min_edge_matches, matched


def oracle_associate(local_map, global_map, params) -> set[tuple[int, int, int]]:
    """Reference association: set of (local_id, global_id, matched_edges)."""
    local_stars = _build_stars(local_map, params.search_radius)
    global_stars = _build_stars(global_map, params.search_radius)
    out = set()
    for lc in local_map:
        best = None  # (matched_edges, global_id)
        for gc in global_map:
            if gc.label != lc.label:
                continue
            ok, k_e = _oracle_match(
                local_stars[lc.cluster_id], global_stars[gc.cluster_id], params
            )
            if ok and (best is None or k_e > best[0]):
                best = (k_e, gc.cluster_id)
        if best is not None:
            out.add((lc.cluster_id, best[1], best[0]))
    return out


def oracle_length_matching(a_lengths, a_labels, b_lengths, b_labels, tol: float) -> int:
    """Maximum one-to-one pairing of equal-label lengths with |a - b| < tol.

    Greedy over each label's sorted lengths, which is optimal for interval
    tolerance matching.
    """
    count = 0
    for code in set(a_labels):
        a = sorted(x for x, c in zip(a_lengths, a_labels) if c == code)
        b = sorted(x for x, c in zip(b_lengths, b_labels) if c == code)
        i = j = 0
        while i < len(a) and j < len(b):
            d = a[i] - b[j]
            if abs(d) < tol:
                count += 1
                i += 1
                j += 1
            elif d <= -tol:
                i += 1
            else:
                j += 1
    return count


def oracle_length_bounds(local_lengths, local_labels, stars, tol: float) -> np.ndarray:
    """The length bound of one local star against every star of a map, from
    a dense (local edge x map edge) matrix.

    stars is an association._Stars whose edges lie star after star. The
    bound per star is min(na, nb): na counts local edges with an equal-label
    partner in the star whose length gap is below tol, nb the star's edges
    with such a local partner. Empty stars get 0.
    """
    local_lengths = np.asarray(local_lengths, dtype=float)
    local_labels = np.asarray(local_labels, dtype=int)
    close = (np.abs(local_lengths[:, None] - stars.lengths[None, :]) < tol) & (
        local_labels[:, None] == stars.labels[None, :]
    )
    bounds = np.zeros(len(stars.counts), dtype=int)
    filled = stars.counts > 0
    if filled.any():
        # reduceat gives a[start] for an empty segment, so empty stars get no start
        starts = (np.cumsum(stars.counts) - stars.counts)[filled]
        na = np.logical_or.reduceat(close, starts, axis=1).sum(axis=0)
        nb = np.add.reduceat(close.any(axis=0), starts)
        bounds[filled] = np.minimum(na, nb)
    return bounds


def oracle_consistency_filter(pairs, local_map, global_map, tolerance: float):
    """Reference consistency filter: a greedy clique over Python sets.

    Two pairs are compatible when their local and global centroid distances
    differ by at most tolerance. The clique starts at the highest-degree
    pair and keeps adding the highest-degree pair compatible with every
    member so far, ties to the lowest index in (local id, global id) order.
    """
    pairs = sorted(pairs, key=lambda p: (p.local_id, p.global_id))
    n = len(pairs)
    if n < 2:
        return pairs
    src = [local_map.get(p.local_id).centroid3d.tolist() for p in pairs]
    dst = [global_map.get(p.global_id).centroid3d.tolist() for p in pairs]

    def dist(a, b):
        dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    adj = [
        {j for j in range(n) if j != i and abs(dist(src[i], src[j]) - dist(dst[i], dst[j])) <= tolerance}
        for i in range(n)
    ]
    rank = {v: (len(adj[v]), -v) for v in range(n)}
    seed = max(range(n), key=rank.get)
    clique = [seed]
    candidates = set(adj[seed])
    while candidates:
        pick = max(candidates, key=rank.get)
        clique.append(pick)
        candidates &= adj[pick]
    return [pairs[i] for i in sorted(clique)]


def oracle_batched_yaw_fit(src, dst):
    """Yaw and planar translation fits of a stack of correspondence sets, in
    the mean/ptp form the single-set fit must equal bit for bit.

    src and dst are (m, n, 3). Returns rotations (m, 3, 3), translations
    (m, 3) whose z is 0, and a mask of the fits in which both sets hold two
    distinct planar points; the other fits hold meaningless values.
    """
    c_src = src.mean(axis=1)
    c_dst = dst.mean(axis=1)
    a = src[:, :, :2] - c_src[:, None, :2]
    b = dst[:, :, :2] - c_dst[:, None, :2]
    cross = (a[:, :, 0] * b[:, :, 1] - a[:, :, 1] * b[:, :, 0]).sum(axis=1)
    dot = (a * b).sum(axis=(1, 2))
    valid = np.ptp(src[:, :, :2], axis=1).any(axis=1) & np.ptp(dst[:, :, :2], axis=1).any(axis=1)
    yaw = np.arctan2(cross, dot)
    cos, sin, zero, one = np.cos(yaw), np.sin(yaw), np.zeros_like(yaw), np.ones_like(yaw)
    rot = np.stack([cos, -sin, zero, sin, cos, zero, zero, zero, one], axis=1).reshape(-1, 3, 3)
    trans = c_dst - np.matmul(rot, c_src[:, :, None])[:, :, 0]
    trans[:, 2] = 0.0
    return rot, trans, valid


def _oracle_yaw_fit(src, dst):
    """Yaw and planar translation fit of one set as (rotation, translation),
    from the complex planar offsets of the centred sets, with a translation
    whose z is 0; None when the points of either side all share one planar
    position."""
    if min(len({(p[0], p[1]) for p in points}) for points in (src, dst)) < 2:
        return None
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    total = 0j
    for u, v in zip(src - c_src, dst - c_dst):
        total += complex(u[0], u[1]).conjugate() * complex(v[0], v[1])
    yaw = math.atan2(total.imag, total.real)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    trans = c_dst - rot @ c_src
    trans[2] = 0.0
    return rot, trans


def oracle_ransac_filter(pairs, local_map, global_map, params):
    """Reference RANSAC: one fit per two-pair hypothesis, scored by planar
    distance; the first strictly best mask wins.

    Hypotheses run over i < j in nested-loop order; above ransac_iterations
    of them only the k-th, for k = t * total // ransac_iterations, is scored.
    Raises ValueError when no hypothesis leaves three inliers.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("insufficient pairs")
    src = np.array([local_map.get(p.local_id).centroid3d for p in pairs])
    dst = np.array([global_map.get(p.global_id).centroid3d for p in pairs])
    hypotheses = [(i, j) for i in range(len(pairs)) for j in range(i + 1, len(pairs))]
    cap = params.ransac_iterations
    if len(hypotheses) > cap:
        hypotheses = [hypotheses[t * len(hypotheses) // cap] for t in range(cap)]
    best_mask = None
    for i, j in hypotheses:
        fit = _oracle_yaw_fit(src[[i, j]], dst[[i, j]])
        if fit is None:
            continue
        rot, trans = fit
        residuals = np.linalg.norm((dst - (src @ rot.T + trans))[:, :2], axis=1)
        mask = residuals < params.ransac_threshold
        if best_mask is None or mask.sum() > best_mask.sum():
            best_mask = mask
    if best_mask is None or best_mask.sum() < 3:
        raise ValueError("insufficient pairs")
    return [p for p, keep in zip(pairs, best_mask) if keep]


def oracle_edge_stars(cluster_map, search_radius: float):
    """Reference stars: (ids, stars, anchor label codes) with one star per id,
    each a tuple of (neighbor_ids, lengths, phis, labels) arrays.

    One linear radius scan per anchor, then one neighbor at a time in its
    (np.linalg.norm distance, id) order.
    """
    ids = cluster_map.ids()
    coords = {cid: tuple(cluster_map.get(cid).centroid2d) for cid in ids}
    stars = []
    for cid in ids:
        anchor = cluster_map.get(cid)
        nids, lengths, phis, labels = [], [], [], []
        for nid in oracle_radius_search(coords, anchor.centroid2d, search_radius):
            if nid == cid:
                continue
            neighbor = cluster_map.get(nid)
            vec = neighbor.centroid2d - anchor.centroid2d
            length = float(np.hypot(vec[0], vec[1]))
            if length == 0.0:
                continue
            nids.append(nid)
            lengths.append(length)
            phis.append(math.degrees(math.atan2(vec[1], vec[0])))
            labels.append(neighbor.label)
        stars.append((
            np.array(nids, dtype=int),
            np.array(lengths, dtype=float),
            np.array(phis, dtype=float),
            np.array(labels, dtype=int),
        ))
    anchor_labels = np.array([cluster_map.get(cid).label for cid in ids], dtype=int)
    return ids, stars, anchor_labels


def oracle_fine_align(pairs, local_map, global_map, init, params):
    """Reference ICP over the member points of the pairs: one kd-tree query
    for each residual and another for each step's correspondences, which
    lists every target by distance and takes the lowest row among the
    equally near ones.

    Returns (pose, residual, exit) with exit one of "converged", "rose",
    "degenerate" or "iterations".
    """
    src = np.vstack([local_map.get(p.local_id).points for p in pairs])
    dst = np.vstack([global_map.get(p.global_id).points for p in pairs])
    tree = cKDTree(dst)

    def rms(pose):
        d, _ = tree.query(pose.apply(src))
        return float(np.sqrt(np.mean(d * d)))

    best_pose = init
    best_rms = rms(init)
    prev = best_rms
    pose = init
    for _ in range(params.icp_max_iterations):
        moved = pose.apply(src)
        d, rows = tree.query(moved, k=list(range(1, len(dst) + 1)))
        idx = np.where(d == d[:, :1], rows, len(dst)).min(axis=1)
        try:
            delta = estimate_rigid_transform(moved, dst[idx])
        except ValueError:
            return best_pose, best_rms, "degenerate"
        pose = delta @ pose
        current = rms(pose)
        if current < best_rms:
            best_pose, best_rms = pose, current
        if current > prev:
            return best_pose, best_rms, "rose"
        if prev - current < params.icp_convergence:
            return best_pose, best_rms, "converged"
        prev = current
    return best_pose, best_rms, "iterations"


def oracle_build_map(frames, merge_radius: float, voxel_size: float) -> dict:
    """Registration as specified, one point at a time: {id: (label, members,
    centroid3d, observed)} after registering each (clusters, pose) frame.

    Each frame cluster is posed on its own. Its posed centroid picks the
    nearest map centroid, as the map stood before the frame, by a linear
    scan (lowest id on ties); within merge_radius it merges, else it founds
    the next id with its own label. A centroid is the mean of every point
    its cluster observed, re-meaned from the full list. A point becomes a
    member only if no member of its cluster has the same (floor(x / s),
    floor(y / s), floor(z / s)) cell, s = voxel_size.
    """
    clusters: dict[int, dict] = {}
    for frame_clusters, pose in frames:
        before = {cid: c["centroid"][:2] for cid, c in clusters.items()}
        for frame_cluster in frame_clusters:
            center = pose.apply(frame_cluster.centroid3d)[:2]
            best = None
            for cid in sorted(before):
                dist = float(np.linalg.norm(before[cid] - center))
                if best is None or dist < best[0]:
                    best = (dist, cid)
            if best is not None and best[0] <= merge_radius:
                target = clusters[best[1]]
            else:
                target = clusters[len(clusters)] = {
                    "label": frame_cluster.label, "all": [], "members": [], "cells": set()
                }
            for point in pose.apply(frame_cluster.points):
                target["all"].append(point)
                cell = tuple(math.floor(v / voxel_size) for v in point)
                if cell not in target["cells"]:
                    target["cells"].add(cell)
                    target["members"].append(point)
            target["centroid"] = np.array(target["all"]).mean(axis=0)
    return {
        cid: (c["label"], np.array(c["members"]), c["centroid"], len(c["all"]))
        for cid, c in clusters.items()
    }


def oracle_register_frame(cluster_map, frame_clusters, pose, merge_radius: float = 1.0) -> None:
    """register_frame one cluster at a time: every target looked up before
    the map changes, then each cluster in frame order landed by a one-run
    capped absorb on its slice of the posed frame, merged into its target
    or, where there is none (-1), stored as a new cluster."""
    frame_clusters = list(frame_clusters)
    if not frame_clusters:
        return
    points = pose.apply(np.concatenate([cluster.points for cluster in frame_clusters]))
    targets = cluster_map.nearest_within(
        [pose.apply(cluster.centroid3d)[:2] for cluster in frame_clusters], merge_radius
    )
    stop = 0
    for cluster, target in zip(frame_clusters, targets.tolist()):
        start, stop = stop, stop + cluster.n_points
        cluster_map.absorb([target], [cluster.label], points[start:stop], [cluster.n_points], capped=True)


def oracle_extract_clusters(frame, params) -> list:
    """extract_clusters from one mean per group: each label's groups from
    oracle_components, those of at least min_points kept with members in
    input order, pole groups first, sorted by (x, y) centroid with Python's
    stable sort, then numbered."""
    clusters = []
    for label in (POLE, TRUNK):
        points = frame.xyz[frame.labels == label]
        for group in oracle_components(points.tolist(), params.cluster_distance):
            if len(group) >= params.min_points:
                members = points[group]
                clusters.append(Cluster(0, label, members, members.mean(axis=0)))
    clusters.sort(key=lambda c: (float(c.centroid2d[0]), float(c.centroid2d[1])))
    for i, cluster in enumerate(clusters):
        cluster.cluster_id = i
    return clusters


def oracle_local_map(frame_clusters, pose):
    """build_local_map one cluster at a time: add(label, pose.apply(points))."""
    local = ClusterMap()
    for cluster in frame_clusters:
        local.add(cluster.label, pose.apply(cluster.points))
    return local
