"""Growing a global cluster map from posed frames.

Each frame's clusters are moved into the map frame and either merged into the
nearest existing cluster (within merge_radius) or inserted as new landmarks.
A merged cluster keeps the map side's id and label; the incoming points are
absorbed and the centroid becomes the mean of every point observed. A
cluster keeps at most one member per voxel of the cluster_map.VOXEL_SIZE
grid (0.1 m), the first point seen, so members stop growing once a landmark
has been covered.

register_frame and build_local_map pose a frame through one shared step:
its members concatenated and moved with one pose.apply. The frame then lands
in one ClusterMap.absorb, each cluster in exactly one map cluster: its merge
target, or a new cluster under the next free id in frame order. The frame
is atomic: it is checked whole before the map changes. A local map is all
new clusters, every point a member; register_frame's absorb is capped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .cluster_map import ClusterMap
from .geometry import PoseSE3


@dataclass(frozen=True)
class RegistrationParams:
    merge_radius: float = bounded(1.0, 0, above=True)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class RegistrationStats:
    inserted: int
    merged: int


def _posed(frame_clusters: list, pose: PoseSE3):
    """(labels, points, counts) of frame_clusters as ClusterMap.absorb takes
    them, every member moved into the map frame by one pose.apply. An
    invalid pose raises ValueError."""
    pose.require_valid()
    members = [cluster.points for cluster in frame_clusters]
    return (
        [cluster.label for cluster in frame_clusters],
        pose.apply(np.concatenate(members or [np.empty((0, 3))])),
        [len(points) for points in members],
    )


def register_frame(
    cluster_map: ClusterMap,
    frame_clusters,
    pose: PoseSE3,
    params: RegistrationParams | None = None,
) -> RegistrationStats:
    """Merge or insert one frame's clusters; returns insert/merge counts.

    Every merge target is looked up before the map changes, so merges within
    the same frame do not shift the search targets. The frame is posed by
    the step build_local_map shares, and lands whole in one capped
    ClusterMap.absorb: each cluster in its target, or in a new cluster under
    the next id in frame order. The frame is atomic: an invalid pose, a
    non-finite point or an overflowing sum raises ValueError before the map
    is touched.
    """
    params = params or RegistrationParams()
    frame_clusters = list(frame_clusters)
    labels, points, counts = _posed(frame_clusters, pose)
    # A (k, 1, 3) stack multiplies each centroid as its own 1-row product,
    # so every row is bitwise pose.apply(centroid3d).
    centroids = np.array([cluster.centroid3d for cluster in frame_clusters]).reshape(-1, 1, 3)
    targets = cluster_map.nearest_within(pose.apply(centroids)[:, 0, :2], params.merge_radius)
    cluster_map.absorb(targets, labels, points, counts, capped=True)
    inserted = int((targets < 0).sum())
    return RegistrationStats(inserted=inserted, merged=len(targets) - inserted)


def build_local_map(frame_clusters, pose: PoseSE3) -> ClusterMap:
    """Fresh map holding one frame's clusters posed into the odometry frame.

    The frame is posed by the step register_frame shares and lands in one
    ClusterMap.absorb of new clusters, every point a member. An invalid pose
    raises ValueError.
    """
    frame_clusters = list(frame_clusters)
    local = ClusterMap()
    local.absorb([-1] * len(frame_clusters), *_posed(frame_clusters, pose))
    return local
