"""Growing a global cluster map from posed frames.

Each frame's clusters are moved into the map frame and either merged into the
nearest existing cluster (within merge_radius) or inserted as new landmarks.
A merged cluster keeps the map side's id and label; the incoming points are
absorbed and the centroid becomes the mean of every point observed. A
cluster keeps at most one member per voxel of the cluster_map.VOXEL_SIZE
grid (0.1 m), the first point seen, so members stop growing once a landmark
has been covered.

A frame is posed with one pose.apply and goes to the map in one capped
ClusterMap.absorb: merges grouped by target and summed in one segment_sums
call, inserts taking the next ids in frame order. The frame is atomic: it
is checked whole before the map changes. A local map is posed the same way
and stored whole, every point a member, with one absorb of new clusters.
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


def register_frame(
    cluster_map: ClusterMap,
    frame_clusters,
    pose: PoseSE3,
    params: RegistrationParams | None = None,
) -> RegistrationStats:
    """Merge or insert one frame's clusters; returns insert/merge counts.

    Every merge target is looked up before the map changes, so merges within
    the same frame do not shift the search targets. The frame's points are
    moved with one pose.apply, and the whole frame goes to the map in one
    capped ClusterMap.absorb, which keys their voxels in one pass: the merges
    grouped by target, the inserts taking the next ids in frame order. The
    frame is atomic: an invalid pose, a non-finite point or an overflowing
    sum raises ValueError before the map is touched.
    """
    params = params or RegistrationParams()
    pose.require_valid()
    frame_clusters = list(frame_clusters)
    if not frame_clusters:
        return RegistrationStats(inserted=0, merged=0)
    points = pose.apply(np.concatenate([cluster.points for cluster in frame_clusters]))
    # A (k, 1, 3) stack multiplies each centroid as its own 1-row product,
    # so every row is bitwise pose.apply(centroid3d).
    centroids = np.array([cluster.centroid3d for cluster in frame_clusters])[:, None, :]
    targets = cluster_map.nearest_within(pose.apply(centroids)[:, 0, :2], params.merge_radius)
    cluster_map.absorb(
        targets,
        [cluster.label for cluster in frame_clusters],
        points,
        [cluster.n_points for cluster in frame_clusters],
        capped=True,
    )
    inserted = int((targets < 0).sum())
    return RegistrationStats(inserted=inserted, merged=len(targets) - inserted)


def build_local_map(frame_clusters, pose: PoseSE3) -> ClusterMap:
    """Fresh map holding one frame's clusters posed into the odometry frame.

    The frame's points are moved with one pose.apply and stored with one
    ClusterMap.absorb, which checks them once. An invalid pose raises
    ValueError.
    """
    pose.require_valid()
    local = ClusterMap()
    frame_clusters = list(frame_clusters)
    if frame_clusters:
        local.absorb(
            [-1] * len(frame_clusters),
            [cluster.label for cluster in frame_clusters],
            pose.apply(np.concatenate([cluster.points for cluster in frame_clusters])),
            [cluster.n_points for cluster in frame_clusters],
        )
    return local
