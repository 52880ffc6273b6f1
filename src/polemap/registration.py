"""Growing a global cluster map from posed frames.

Each frame's clusters are moved into the map frame and either merged into the
nearest existing cluster (within merge_radius) or inserted as new landmarks.
A merged cluster keeps the map side's id and label; the incoming points are
absorbed and the centroid becomes the mean of every point observed. A
cluster keeps at most one member per voxel of the cluster_map.VOXEL_SIZE
grid (0.1 m), the first point seen, so members stop growing once a landmark
has been covered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster_map import ClusterMap, voxel_keys
from .geometry import PoseSE3


@dataclass(frozen=True)
class RegistrationParams:
    merge_radius: float = 1.0

    def __post_init__(self):
        if not self.merge_radius > 0:
            raise ValueError("merge_radius must be positive")


@dataclass(frozen=True)
class RegistrationStats:
    inserted: int
    merged: int


def register_frame(
    cluster_map: ClusterMap,
    frame_clusters,
    pose: PoseSE3,
    params: RegistrationParams | None = None,
) -> RegistrationStats:
    """Merge or insert one frame's clusters; returns insert/merge counts.

    Every merge target is looked up before the map changes, so merges within
    the same frame do not shift the search targets. The frame's points are
    moved with one pose.apply and given their voxel keys in one pass; each
    cluster takes its slice of both. An invalid pose raises ValueError
    before the map is touched.
    """
    params = params or RegistrationParams()
    pose.require_valid()
    frame_clusters = list(frame_clusters)
    if not frame_clusters:
        return RegistrationStats(inserted=0, merged=0)
    points = pose.apply(np.concatenate([cluster.points for cluster in frame_clusters]))
    keys = voxel_keys(points)
    nearest = cluster_map.nearest_each(
        [pose.apply(cluster.centroid3d)[:2] for cluster in frame_clusters]
    )
    inserted = 0
    merged = 0
    stop = 0
    for cluster, hit in zip(frame_clusters, nearest):
        start, stop = stop, stop + cluster.n_points
        rows = slice(start, stop)
        if hit is not None and hit[1] <= params.merge_radius:
            cluster_map.merge_points(hit[0], points[rows], keys[rows])
            merged += 1
        else:
            cluster_map.add(cluster.label, points[rows], keys[rows])
            inserted += 1
    return RegistrationStats(inserted=inserted, merged=merged)


def build_local_map(frame_clusters, pose: PoseSE3) -> ClusterMap:
    """Fresh map holding one frame's clusters posed into the odometry frame.

    An invalid pose raises ValueError.
    """
    pose.require_valid()
    local = ClusterMap()
    for cluster in frame_clusters:
        local.add(cluster.label, pose.apply(cluster.points))
    return local
