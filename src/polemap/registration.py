"""Growing a global cluster map from posed frames.

Each frame's clusters are moved into the map frame and either merged into the
nearest existing cluster (within merge_radius) or inserted as new landmarks.
A merged cluster keeps the map side's id and label; the incoming points are
absorbed and the centroid becomes the mass-weighted mean of all members.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster_map import Cluster, ClusterMap
from .geometry import PoseSE3


@dataclass(frozen=True)
class RegistrationParams:
    merge_radius: float = 1.0

    def __post_init__(self):
        if self.merge_radius <= 0:
            raise ValueError("merge_radius must be positive")


@dataclass(frozen=True)
class RegistrationStats:
    inserted: int
    merged: int


def transform_clusters(clusters, pose: PoseSE3) -> list[Cluster]:
    """Map clusters rigidly into another frame, ids and labels untouched."""
    pose.require_valid()
    return [
        Cluster(c.cluster_id, c.label, pose.apply(c.points), pose.apply(c.centroid3d))
        for c in clusters
    ]


def register_frame(
    cluster_map: ClusterMap,
    frame_clusters,
    pose: PoseSE3,
    params: RegistrationParams | None = None,
) -> RegistrationStats:
    """Merge or insert one frame's clusters; returns insert/merge counts.

    Every merge target is looked up before the map changes, so merges within
    the same frame do not shift the search targets. An invalid pose raises
    ValueError (from transform_clusters) before the map is touched.
    """
    params = params or RegistrationParams()
    moved = transform_clusters(frame_clusters, pose)
    nearest = cluster_map.nearest_each([cluster.centroid2d for cluster in moved])
    inserted = 0
    merged = 0
    for cluster, hit in zip(moved, nearest):
        if hit is not None and hit[1] <= params.merge_radius:
            cluster_map.merge_points(hit[0], cluster.points)
            merged += 1
        else:
            cluster_map.add(cluster.label, cluster.points)
            inserted += 1
    return RegistrationStats(inserted=inserted, merged=merged)


def build_local_map(frame_clusters, pose: PoseSE3) -> ClusterMap:
    """Fresh map holding one frame's clusters posed into the odometry frame."""
    local = ClusterMap()
    for cluster in transform_clusters(frame_clusters, pose):
        local.add(cluster.label, cluster.points)
    return local
