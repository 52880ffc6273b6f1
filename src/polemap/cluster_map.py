"""Semantic cluster data model and planar spatial queries.

A cluster map stores labeled landmark clusters addressable by integer id and
answers nearest-centroid queries in 2D, optionally restricted to one label per
query, from one exact distance matrix per call. Data derived from the
clusters is built on first use and kept until the next mutation: the
read-only centroid table (ids, 2D centroids and label codes in ascending id
order) that every query and association's edge stars read, and those stars.
Readers may share a map freely; mutation requires exclusive access.
Points are numpy arrays throughout: a Frame holds (n, 3) coordinates with one
label code per point, a Cluster its (n, 3) member coordinates.

A merge updates the centroid at the cost of the new points only. numpy's mean
over axis 0 of a C-ordered (n, 3) array adds the rows one after another, so
the map keeps each cluster's coordinate sum and folds new rows onto it in the
same order: the centroid stays bitwise equal to the mean of every point the
cluster observed. merge_points, and add when given the voxel keys of its
points, keep only the first point seen in each VOXEL_SIZE voxel as a member,
so members stay bounded while the centroid and the observed count still
cover every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist


# Label codes as stored in Frame.labels and Cluster.label. Only pole and
# trunk are landmark-eligible.
POLE = 0
TRUNK = 1


def other_label(category: int) -> int:
    """Code of a point class that never becomes a landmark: 2 + category."""
    return 2 + category


def _finite_points(xyz) -> np.ndarray:
    """Coordinates as a C-ordered (n, 3) float64 array; rejects NaN and inf."""
    arr = np.ascontiguousarray(np.asarray(xyz, dtype=float).reshape(-1, 3))
    if not np.isfinite(arr).all():
        raise ValueError("non-finite point coordinate")
    return arr


# Edge of the voxel grid, in meters, on which a capped cluster keeps one
# member per voxel.
VOXEL_SIZE = 0.1
# A cell coordinate from this magnitude on is no longer an exact integer.
_EXACT_CELL = 2.0**53


def voxel_keys(points) -> list:
    """Hashable key of the VOXEL_SIZE voxel of each row of (n, 3) points.

    A key is the bytes of the floored float64 cell coordinates, so no index
    is ever cast to an integer and none can wrap. A point whose cell
    coordinate is not exact (2**53 cells or more from the origin, or past
    the float range) gets a key equal to no other, so it is always kept.
    """
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        cells = np.floor(np.asarray(points, dtype=float).reshape(-1, 3) / VOXEL_SIZE)
    cells += 0.0  # -0.0 becomes 0.0
    keys = np.ascontiguousarray(cells).view(np.dtype((np.void, 24))).ravel().tolist()
    for row in np.flatnonzero(~(np.abs(cells) < _EXACT_CELL)) // 3:
        keys[row] = object()
    return keys


def _claim(occupied: set, keys, points: np.ndarray) -> np.ndarray:
    """Rows of points whose key is not yet in occupied, the first row of
    each key; their keys are added to occupied. keys must be
    voxel_keys(points)."""
    if len(keys) != len(points):
        raise ValueError("one voxel key per point required")
    if occupied.issuperset(keys):  # the common case once a landmark is covered
        return points[:0]
    rows = []
    for row, key in enumerate(keys):
        if key not in occupied:
            occupied.add(key)
            rows.append(row)
    return points[rows]


@dataclass(frozen=True, eq=False)
class Frame:
    """One labeled scan: a timestamp, (n, 3) sensor-frame points and their
    (n,) label codes (POLE, TRUNK or other_label(c))."""

    timestamp: float
    xyz: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        xyz = _finite_points(self.xyz)
        labels = np.asarray(self.labels, dtype=int).reshape(-1)
        if len(labels) != len(xyz):
            raise ValueError(f"{len(labels)} labels for {len(xyz)} points")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "labels", labels)


@dataclass
class Cluster:
    """A group of same-landmark points, (n, 3) float64, with their centroid.

    observed counts every point the centroid averages; it is at least the
    number of members and defaults to it. Treated as immutable outside
    ClusterMap; registration appends points through the owning map so the
    centroid and the map's derived data stay consistent.
    """

    cluster_id: int
    label: int  # POLE or TRUNK
    points: np.ndarray = field(repr=False)
    centroid3d: np.ndarray = field(repr=False)
    observed: int | None = None

    def __post_init__(self):
        if self.observed is None:
            self.observed = len(self.points)

    @classmethod
    def from_points(cls, cluster_id: int, label: int, points) -> "Cluster":
        if label not in (POLE, TRUNK):
            raise ValueError(f"cluster label must be pole or trunk, got {label!r}")
        points = _finite_points(points)
        if len(points) == 0:
            raise ValueError("empty cluster")
        with np.errstate(over="ignore"):  # an overflow to inf raises below
            centroid = points.mean(axis=0)
        if not np.isfinite(centroid).all():
            raise ValueError("coordinate sum overflows")
        return cls(cluster_id, label, points, centroid)

    @property
    def centroid2d(self) -> np.ndarray:
        return self.centroid3d[:2]

    @property
    def n_points(self) -> int:
        return len(self.points)


class ClusterMap:
    """Id-addressable cluster store with exact 2D nearest-centroid queries."""

    def __init__(self):
        self._clusters: dict[int, Cluster] = {}
        self._next_id = 0
        # Values computed from the clusters; every mutation clears them.
        self._derived: dict = {}
        # Coordinate sum of every point each cluster observed. A cluster
        # stored by insert starts from centroid3d * observed on its first merge.
        self._sums: dict[int, np.ndarray] = {}
        # Voxel keys of each cluster's members; a cluster stored by insert,
        # or by add without keys, gets its set from its members on its first
        # merge.
        self._voxels: dict[int, set] = {}

    def __len__(self) -> int:
        return len(self._clusters)

    def __iter__(self):
        for cid in sorted(self._clusters):
            yield self._clusters[cid]

    def ids(self) -> list[int]:
        return sorted(self._clusters)

    def get(self, cluster_id: int) -> Cluster:
        return self._clusters[cluster_id]

    def derived(self, key, build):
        """build(self), computed on first use and kept under key until the
        map next changes. Callers must not modify the returned value."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def add(self, label: int, points, keys=None) -> Cluster:
        """Create a cluster from points, assign the next free id, store it.

        Every point becomes a member, or, given keys = voxel_keys(points),
        only the first point in each voxel; the centroid and observed count
        cover every point.
        """
        cluster = Cluster.from_points(self._next_id, label, points)
        cid = cluster.cluster_id
        self._sums[cid] = cluster.points.sum(axis=0)
        if keys is not None:
            self._voxels[cid] = set()
            cluster.points = _claim(self._voxels[cid], keys, cluster.points)
        self._clusters[cid] = cluster
        self._next_id += 1
        self._derived.clear()
        return cluster

    def insert(self, cluster: Cluster) -> None:
        """Store a pre-built cluster under its own id (used when loading)."""
        if cluster.cluster_id in self._clusters:
            raise ValueError(f"duplicate cluster id {cluster.cluster_id}")
        self._clusters[cluster.cluster_id] = cluster
        self._next_id = max(self._next_id, cluster.cluster_id + 1)
        self._derived.clear()

    def merge_points(self, cluster_id: int, new_points, keys) -> Cluster:
        """Fold points into an existing cluster and update its centroid.

        The centroid becomes the mean of every point observed, bitwise equal
        to the mean of all of them in order, at a cost that grows with the
        new points only: the new rows are folded one by one onto the kept
        coordinate sum. A cluster stored by insert (a loaded one) starts that
        sum from centroid3d * observed, so its stored weight carries over.
        keys must be voxel_keys(new_points): only the new points in a voxel
        the cluster has no member in yet become members, the first point
        seen winning. Non-finite points or an overflowing sum raise
        ValueError and leave the cluster unchanged.
        """
        cluster = self._clusters[cluster_id]
        new_points = _finite_points(new_points)
        total = self._sums.get(cluster_id)
        with np.errstate(over="ignore"):  # an overflow to inf raises below
            if total is None:
                total = cluster.centroid3d * cluster.observed
            total = np.concatenate([total[None], new_points]).sum(axis=0)
        if not np.isfinite(total).all():
            raise ValueError("coordinate sum overflows")
        if cluster_id not in self._voxels:
            self._voxels[cluster_id] = set(voxel_keys(cluster.points))
        kept = _claim(self._voxels[cluster_id], keys, new_points)
        self._sums[cluster_id] = total
        if len(kept):
            cluster.points = np.concatenate([cluster.points, kept])
        cluster.observed += len(new_points)
        cluster.centroid3d = total / cluster.observed
        self._derived.clear()
        return cluster

    def centroid_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, (n, 2) centroids, label codes) in ascending id order, built
        on first use and kept until the map next changes; read-only."""

        def build(m: ClusterMap):
            clusters = list(m)
            ids = np.array([c.cluster_id for c in clusters], dtype=int)
            cents = np.array([c.centroid3d for c in clusters], dtype=float).reshape(-1, 3)[:, :2]
            labels = np.array([c.label for c in clusters], dtype=int)
            for column in (ids, cents, labels):
                column.flags.writeable = False
            return ids, cents, labels

        return self.derived("centroid_table", build)

    def centroids_2d(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, 2D centroids) columns of the centroid table."""
        ids, cents, _ = self.centroid_table()
        return ids, cents

    def nearest_each(self, centers, labels=None) -> list[tuple[int, float] | None]:
        """Closest cluster to each row of (m, 2) centers as (id, distance),
        ties to the lowest id, from one distance matrix over the centroids.

        Given one label code per center, a row considers only the clusters
        of its own label. A row is None when no such cluster lies at a finite
        distance: an empty map, no cluster of the label, or a squared
        distance that overflows.
        """
        centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        if labels is not None:
            labels = np.asarray(labels, dtype=int).reshape(-1)
            if len(labels) != len(centers):
                raise ValueError(f"{len(labels)} labels for {len(centers)} centers")
        if not self._clusters:
            return [None] * len(centers)
        ids, cents, codes = self.centroid_table()
        dists = cdist(centers, cents)
        if labels is not None:
            dists[labels[:, None] != codes[None, :]] = np.inf
        # Columns ascend with id, so the first minimum is the lowest tied id.
        cols = dists.argmin(axis=1)
        best = dists.min(axis=1)
        return [
            (int(ids[c]), d) if d < np.inf else None
            for c, d in zip(cols.tolist(), best.tolist())
        ]
