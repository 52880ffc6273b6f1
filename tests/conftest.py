"""Shared builders for synthetic maps and poses."""

from __future__ import annotations

import math

import numpy as np
import pytest

from polemap import POLE, TRUNK, ClusterMap, PoseSE3
from polemap.geometry import rotation_about_z


def cluster_points(rng, center, n=8, spread=0.15):
    """A tight (n, 3) blob of n points whose mean lands near center."""
    return np.asarray(center, dtype=float) + spread * rng.standard_normal((n, 3))


def map_from_centers(rng, centers, labels=None) -> ClusterMap:
    """Build a map with one small cluster per (x, y) center."""
    cluster_map = ClusterMap()
    for k, (x, y) in enumerate(centers):
        label = labels[k] if labels is not None else (POLE if k % 2 == 0 else TRUNK)
        cluster_map.add(label, cluster_points(rng, (x, y, 2.0)))
    return cluster_map


def scatter_centers(rng, n, extent, min_spacing):
    """Rejection-sample n centers in [0, extent)^2 at pairwise min_spacing."""
    centers = []
    attempts = 0
    while len(centers) < n:
        attempts += 1
        if attempts > 200 * n + 1000:
            raise RuntimeError("scatter spec too dense")
        x, y = rng.uniform(0.0, extent, size=2)
        if all(math.hypot(x - cx, y - cy) >= min_spacing for cx, cy in centers):
            centers.append((float(x), float(y)))
    return centers


def random_map(rng, n, extent=45.0, min_spacing=3.0) -> ClusterMap:
    centers = scatter_centers(rng, n, extent, min_spacing)
    labels = [POLE if rng.random() < 0.5 else TRUNK for _ in range(n)]
    return map_from_centers(rng, centers, labels)


def planar_pose(rng, max_angle_deg=180.0, max_shift=50.0) -> PoseSE3:
    angle = math.radians(rng.uniform(-max_angle_deg, max_angle_deg))
    shift = rng.uniform(-max_shift, max_shift, size=2)
    return PoseSE3(rotation_about_z(angle), np.array([shift[0], shift[1], 0.0]))


def moved_copy(cluster_map, pose, rng=None, sigma=0.0) -> ClusterMap:
    """New map with every cluster's points rigidly moved, ids reassigned 0..n-1.

    Optional Gaussian jitter shifts each cluster by one shared offset so the
    centroid moves without reshaping the blob.
    """
    out = ClusterMap()
    rot, trans = pose.rotation, pose.translation
    for cluster in cluster_map:
        offset = np.zeros(3) if sigma == 0.0 else sigma * rng.standard_normal(3)
        moved = [rot @ p + trans + offset for p in cluster.points]
        out.add(cluster.label, moved)
    return out


def association_scene(rng):
    """A (local, global) map pair with partial overlap for association tests.

    The local map keeps a random subset of the global clusters, rigidly moved
    with mild per-cluster jitter, plus a couple of fresh clusters with no
    global counterpart.
    """
    n_global = int(rng.integers(7, 19))
    global_map = random_map(rng, n_global)

    keep = [c for c in global_map if rng.random() < 0.8]
    pose = planar_pose(rng, max_shift=20.0)
    sigma = float(rng.choice([0.0, 0.01, 0.03]))

    subset = ClusterMap()
    for cluster in keep:
        subset.add(cluster.label, cluster.points)
    local = moved_copy(subset, pose, rng, sigma)

    n_extra = int(rng.integers(0, 4))
    if n_extra:
        for x, y in scatter_centers(rng, n_extra, 45.0, 3.0):
            label = POLE if rng.random() < 0.5 else TRUNK
            local.add(label, cluster_points(rng, (x + 60.0, y, 2.0)))
    return local, global_map


def reference_star_scene(partner_offsets=(0.1, 0.1, 0.1, 0.1)):
    """Hand-built star pair with a known sub-edge pairing outcome.

    The local map holds an anchor, a reference neighbor at (10, 0), and eight
    sub-edge neighbors fanned out every 40 degrees. The global map repeats the
    anchor and reference but keeps only the four sub-edges at 40..160 degrees,
    each pushed outward by its entry in partner_offsets. With offsets of 0.1
    the reference edges pair with exactly four sub-edge matches of feature
    distance 0.1 each.

    Returns (local_map, global_map); ids: anchor 0, reference neighbor 1.
    """
    local_polar = [(40, 5.0), (80, 6.0), (120, 7.0), (160, 8.0),
                   (200, 5.5), (240, 6.5), (280, 7.5), (320, 8.5)]
    local_centers = [(0.0, 0.0), (10.0, 0.0)] + [
        (r * math.cos(math.radians(a)), r * math.sin(math.radians(a)))
        for a, r in local_polar
    ]
    global_polar = [
        (a, r + off) for (a, r), off in zip(local_polar[:4], partner_offsets)
    ]
    global_centers = [(0.0, 0.0), (10.0, 0.0)] + [
        (r * math.cos(math.radians(a)), r * math.sin(math.radians(a)))
        for a, r in global_polar
    ]

    def build(centers):
        m = ClusterMap()
        for x, y in centers:
            m.add(POLE, [(x, y, 2.0)])
        return m

    return build(local_centers), build(global_centers)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance checklist after the test summary."""
    import sys

    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None) if module else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in results:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
