"""Semantic cluster data model and planar spatial queries.

A cluster map stores labeled landmark clusters addressable by integer id and
answers gated nearest-centroid queries in 2D: the id of the closest cluster
within a radius, or -1, the id absorb reads as a new cluster, optionally
restricted to one label per query, from one exact distance matrix per call.
Data derived from the clusters is built on first use and kept until the
next mutation: the read-only centroid table (ids, 2D centroids and label
codes in ascending id order) that every query and association's edge stars
read, and those stars.
Readers may share a map freely; mutation requires exclusive access.
Points are numpy arrays throughout: a Frame holds (n, 3) coordinates with one
label code per point, a Cluster its (n, 3) member coordinates.

A merge updates the centroid at the cost of the new points only. numpy's mean
over axis 0 of a C-ordered (n, 3) array adds the rows one after another, so
the map keeps each cluster's coordinate sum and folds new rows onto it in the
same order: the centroid stays bitwise equal to the mean of every point the
cluster observed. segment_sums adds each run of rows of one array in that
order, one np.add.reduce per run, so a run's sum divided by its length is
bitwise its mean. absorb is the one write path for points, and every run
it takes lands in exactly one cluster: its target or, for -1, a new one
under the next free id in run order. Each landing cluster is one segment
of a single segment_sums call, its kept sum (if it exists) before its
runs' rows in run order. Every run is checked before anything changes;
add is absorb's one-run case. A landing in an existing cluster, and in a
new one when absorb is told capped, keeps only the first point seen in each
VOXEL_SIZE voxel as a member, so members stay bounded while the centroid
and the observed count still cover every point. The map computes those
voxel keys itself, one voxel_keys call per absorb call.

kdtree is the package's one kd-tree constructor. It imports scipy.spatial
when it builds its first tree, so a process that builds none never loads it.
Its trees split at sliding midpoints, not scipy's default medians. Every
query the package makes is exact whatever the layout: fine_align's k=1 and
k=2 nearest (equally near targets resolved to the lowest row), extraction's
query_pairs and association's query_ball_point, whose hits are lexsorted
afterwards. So the layout only sets the speed, and sliding midpoints build
and search faster on points bunched along thin poles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


# Label codes as stored in Frame.labels and Cluster.label. Only pole and
# trunk are landmark-eligible.
POLE = 0
TRUNK = 1
# Highest cluster id, so that int64 holds both every id and the next free id.
MAX_CLUSTER_ID = 2**63 - 2


def other_label(category: int) -> int:
    """Code of a point class that never becomes a landmark: 2 + category."""
    return 2 + category


def kdtree(points, **options):
    """scipy's cKDTree over points, split at sliding midpoints
    (balanced_tree=False) and imported on the first call; options go to
    cKDTree. The layout only sets the speed (see the module docstring)."""
    from scipy.spatial import cKDTree

    return cKDTree(points, **{"balanced_tree": False, **options})


def _finite_points(xyz) -> np.ndarray:
    """Coordinates as a C-ordered (n, 3) float64 array; rejects NaN and inf."""
    arr = np.ascontiguousarray(np.asarray(xyz, dtype=float).reshape(-1, 3))
    if not np.isfinite(arr).all():
        raise ValueError("non-finite point coordinate")
    return arr


def _check_label(label) -> None:
    if label not in (POLE, TRUNK):
        raise ValueError(f"cluster label must be pole or trunk, got {label!r}")


def segment_sums(points: np.ndarray, counts) -> np.ndarray:
    """Coordinate sum of each run of rows of C-ordered (n, 3) points, as a
    (len(counts), 3) array; run i is the next counts[i] rows.

    Each run is one np.add.reduce along axis 0, which adds its rows one
    after another, so row i is bitwise points[s:e].sum(axis=0) and row i
    divided by counts[i] is bitwise points[s:e].mean(axis=0).
    np.add.reduceat does not add in that order.
    """
    sums = np.empty((len(counts), 3))
    stop = 0
    for row, count in enumerate(np.asarray(counts).tolist()):
        start, stop = stop, stop + count
        np.add.reduce(points[start:stop], axis=0, out=sums[row])
    return sums


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
    """Rows of points whose key (keys[row]) is not yet in occupied, the
    first row of each key; their keys are added to occupied."""
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
        # Coordinate sum of every point each cluster observed; insert sets a
        # loaded cluster's to centroid3d * observed.
        self._sums: dict[int, np.ndarray] = {}
        # Voxel keys of each cluster's members; a cluster stored by insert,
        # or by an absorb that was not capped, gets its set from its members
        # on its first merge.
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

    def add(self, label: int, points) -> Cluster:
        """Create a cluster from points, assign the next free id, store it.

        Every point becomes a member.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        return self.absorb([-1], [label], points, [len(points)])[0]

    def insert(self, cluster: Cluster) -> None:
        """Store a pre-built cluster under its own id (used when loading).

        A duplicate id, an id outside 0 to MAX_CLUSTER_ID (int64 holds both
        it and the next free id) or a label other than POLE or TRUNK raises
        ValueError and leaves the map as it was.
        """
        if not 0 <= cluster.cluster_id <= MAX_CLUSTER_ID:
            raise ValueError(f"cluster id {cluster.cluster_id} outside 0 to {MAX_CLUSTER_ID}")
        if cluster.cluster_id in self._clusters:
            raise ValueError(f"duplicate cluster id {cluster.cluster_id}")
        _check_label(cluster.label)
        self._clusters[cluster.cluster_id] = cluster
        with np.errstate(over="ignore"):  # an infinite sum fails the first merge
            self._sums[cluster.cluster_id] = cluster.centroid3d * cluster.observed
        self._next_id = max(self._next_id, cluster.cluster_id + 1)
        self._derived.clear()

    def absorb(self, targets, labels, points, counts, capped=False) -> list[Cluster]:
        """Land each run of rows of points in exactly one cluster; returns
        the new clusters in run order.

        Run i is the next counts[i] rows. It lands in cluster targets[i],
        or, where targets[i] is -1, in a new cluster of labels[i] under the
        next free id, in run order (every run has a label, but those of
        runs with a target are ignored). Each landing cluster's coordinate
        sum is one segment of one segment_sums call, its kept sum first if
        it exists, then its runs' rows in run order, so the centroid stays
        bitwise the mean of every point observed. A cluster stored by
        insert (a loaded one) holds the sum centroid3d * observed, so its
        weight carries over.

        A point landing in an existing cluster becomes a member only if the
        cluster has no member in its VOXEL_SIZE voxel yet, the first point
        seen winning; new clusters do so when capped, and keep every point
        otherwise. The voxel keys come from one voxel_keys call over all of
        points. One walk over the runs assigns the landings and checks them
        before the first change: an unknown target (KeyError), a label other
        than POLE or TRUNK, a non-finite point, a label or run count that
        differs from the target count, run counts that do not cover the
        points, an empty new cluster, a new cluster that would need an id
        above MAX_CLUSTER_ID or an overflowing sum (ValueError) leaves the
        map as it was.
        """
        targets, labels, counts = [int(t) for t in targets], list(labels), [int(c) for c in counts]
        points = _finite_points(points)
        if (not len(labels) == len(counts) == len(targets)
                or min(counts, default=0) < 0 or sum(counts) != len(points)):
            raise ValueError("one label and one run count per target, covering every point, required")
        landing: dict[int, list[int]] = {}  # landing cluster id -> its runs, in order
        next_id = self._next_id
        for run, target in enumerate(targets):
            if target < 0:
                _check_label(labels[run])
                if counts[run] == 0:
                    raise ValueError("empty cluster")
                if next_id > MAX_CLUSTER_ID:
                    raise ValueError(f"cluster id {next_id} outside 0 to {MAX_CLUSTER_ID}")
                target, next_id = next_id, next_id + 1
            elif target not in self._clusters:
                raise KeyError(target)
            landing.setdefault(target, []).append(run)
        bounds = list(itertools.accumulate(counts, initial=0))
        rows = [points[start:stop] for start, stop in zip(bounds, bounds[1:])]

        parts, sizes = [], []
        for cid, runs in landing.items():
            prior = [self._sums[cid][None]] if cid in self._clusters else []
            parts += prior + [rows[run] for run in runs]
            sizes.append(len(prior) + sum(counts[run] for run in runs))
        with np.errstate(over="ignore", invalid="ignore"):  # overflows raise below
            sums = segment_sums(np.concatenate(parts or [points]), sizes)
        if not np.isfinite(sums).all():
            raise ValueError("coordinate sum overflows")
        keys = voxel_keys(points) if capped or max(targets, default=-1) >= 0 else None

        created = []
        for (cid, runs), total, size in zip(landing.items(), sums, sizes):
            cluster = self._clusters.get(cid)
            if cluster is None:  # a new cluster lands exactly one run
                (run,) = runs
                members = rows[run]
                if capped:
                    self._voxels[cid] = set()
                    members = _claim(self._voxels[cid], keys[bounds[run]:bounds[run + 1]], members)
                cluster = Cluster(cid, labels[run], members, total / size, size)
                self._clusters[cid] = cluster
                created.append(cluster)
            else:
                occupied = self._voxels.get(cid)
                if occupied is None:
                    occupied = self._voxels[cid] = set(voxel_keys(cluster.points))
                added = [cluster.points]
                for run in runs:
                    kept = _claim(occupied, keys[bounds[run]:bounds[run + 1]], rows[run])
                    if len(kept):
                        added.append(kept)
                if len(added) > 1:
                    cluster.points = np.concatenate(added)
                cluster.observed += size - 1
                cluster.centroid3d = total / cluster.observed
            self._sums[cid] = total
        self._next_id = next_id
        self._derived.clear()
        return created

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

    def nearest_within(self, centers, radius, labels=None) -> np.ndarray:
        """Id of the closest cluster to each row of (m, 2) centers at a planar
        distance of at most radius, ties to the lowest id, or -1 where there
        is none, as an (m,) int array from one distance matrix over the
        centroids.

        Given one label code per center, a row considers only the clusters
        of its own label. A distance that is not finite (a squared distance
        that overflows, or no cluster of the label) never qualifies, even
        for an infinite radius.
        """
        centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        if labels is not None:
            labels = np.asarray(labels, dtype=int).reshape(-1)
            if len(labels) != len(centers):
                raise ValueError(f"{len(labels)} labels for {len(centers)} centers")
        if not self._clusters:
            return np.full(len(centers), -1)
        ids, cents, codes = self.centroid_table()
        # scipy's cdist arithmetic, so distances stay bit-equal to it; an
        # overflow to inf reads as no cluster.
        with np.errstate(over="ignore"):
            dx = centers[:, :1] - cents[:, 0]
            dy = centers[:, 1:] - cents[:, 1]
            dists = np.sqrt(dx * dx + dy * dy)
        if labels is not None:
            dists[labels[:, None] != codes[None, :]] = np.inf
        # Columns ascend with id, so the first minimum is the lowest tied id.
        best = dists.min(axis=1)
        return np.where((best < np.inf) & (best <= radius), ids[dists.argmin(axis=1)], -1)
