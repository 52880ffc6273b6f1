"""Cluster map serialization.

The map file is a versioned text document:

    polemap-map 3
    labels pole=5 trunk=6
    cluster <id> <pole|trunk> <cx> <cy> <cz> <npoints> <observed> <k>

An id is an integer from 0 to 2**63 - 2, so that int64 holds both it and
the next free id; load_map rejects any other. Centroids are written with
shortest round-trip decimals, so save/load preserves them exactly. npoints
counts the cluster's member points and observed every point its centroid
averages (at least npoints; more once registration keeps one member per
voxel). A loaded cluster resumes its running coordinate sum from
centroid * observed, so a save, load and merge weighs the stored centroid
exactly.

Member points live in a binary sidecar (<path>.points, clusters in file
order) that save_map always writes. Each member is stored as little-endian
int16 steps q = rint((p - c) / 2**k) per axis (x y z, ties to even) from its
cluster's centroid c, and loads as c + q * 2**k. k is the smallest integer
from MIN_STEP_EXPONENT up for which the cluster's largest |p - c| lies below
32767.5 * 2**k, so |q| <= 32767, and it lies in MIN_STEP_EXPONENT to
MAX_STEP_EXPONENT because save_map refuses members beyond MAX_COORDINATE. A
member is then within max(largest |p - c| / 32767.5, 2**(MIN_STEP_EXPONENT -
1)) of its value, wherever the map sits. The 32767.5 threshold lies halfway
between representable steps, and a step is at least eight float64 spacings
of any coordinate within MAX_COORDINATE, so re-saving a loaded map writes
the same k and q.

A map read without its sidecar reloads each cluster with a single synthetic
point at its centroid and keeps its observed count.

Versions 1 and 2 still load. Their lines carry the 2D centroid after the
3D one, and it must equal the 3D one's x and y; they have no k. A version 2
line ends "<npoints> <observed>", a version 1 line at npoints, which loads
with observed = npoints. Their sidecar stores absolute float32 x y z per
member.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cluster_map import POLE, TRUNK, Cluster, ClusterMap
from .dataset_io import MAX_COORDINATE, LabelMap, write_files
from .errors import MapFormatError

FORMAT_NAME = "polemap-map"
FORMAT_VERSION = 3
# observed stays an exact float64 integer, so centroid * observed is exact
# in its weight.
MAX_OBSERVED = 2**53
# A step of 2**-20 m is eight float64 spacings at MAX_COORDINATE, and
# 32767.5 steps of 2**16 m span 2 * MAX_COORDINATE, the widest
# |member - centroid| that save_map lets through.
MIN_STEP_EXPONENT = -20
MAX_STEP_EXPONENT = 16
_STEP_LIMIT = 32767.5

_LABEL_WORDS = {POLE: "pole", TRUNK: "trunk"}
_WORD_LABELS = {"pole": POLE, "trunk": TRUNK}


def _step_exponents(widest: np.ndarray) -> np.ndarray:
    """k per cluster: the smallest integer from MIN_STEP_EXPONENT up with
    widest < 32767.5 * 2**k, widest being its largest |member - centroid|."""
    widest = np.maximum(widest, np.ldexp(_STEP_LIMIT, MIN_STEP_EXPONENT - 1))
    # frexp's exponent is that k, or one more when widest / 32767.5 rounds
    # up to a power of two; the comparison is exact
    k = np.frexp(widest / _STEP_LIMIT)[1]
    return k - (widest < np.ldexp(_STEP_LIMIT, k - 1))


def map_files(cluster_map: ClusterMap, path, label_map: LabelMap | None = None) -> dict:
    """The map file and its point sidecar, path -> contents; refuses what
    load_map rejects. Nothing is written."""
    label_map = label_map or LabelMap()
    path = Path(path)
    clusters = list(cluster_map)
    for cluster in clusters:
        if not (np.abs(cluster.centroid3d) <= MAX_COORDINATE).all():
            raise MapFormatError(
                f"{path}: cluster {cluster.cluster_id}: centroid beyond {MAX_COORDINATE:g} m"
            )
        if not cluster.n_points:
            raise MapFormatError(f"{path}: cluster {cluster.cluster_id}: no member points")
    points = np.concatenate([cluster.points for cluster in clusters] or [np.empty((0, 3))])
    if not (np.abs(points) <= MAX_COORDINATE).all():
        raise MapFormatError(f"{path}: member point beyond {MAX_COORDINATE:g} m")
    centroids = np.array([cluster.centroid3d for cluster in clusters]).reshape(-1, 3)
    counts = np.array([cluster.n_points for cluster in clusters], dtype=int)
    offsets = points - np.repeat(centroids, counts, axis=0)
    starts = np.cumsum(counts) - counts
    widest = np.maximum.reduceat(np.abs(offsets).max(axis=1), starts) if clusters else np.zeros(0)
    exponents = _step_exponents(widest)
    # the offsets become their steps in place
    np.ldexp(offsets, -np.repeat(exponents, counts)[:, None], out=offsets)
    steps = np.rint(offsets, out=offsets)

    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"labels pole={label_map.pole_id} trunk={label_map.trunk_id}",
    ]
    for cluster, c3, k in zip(clusters, centroids, exponents.tolist()):
        cx, cy, cz = (repr(v) for v in c3.tolist())
        lines.append(
            f"cluster {cluster.cluster_id} {_LABEL_WORDS[cluster.label]} {cx} {cy} {cz} "
            f"{cluster.n_points} {cluster.observed} {k}"
        )
    return {
        path: ("\n".join(lines) + "\n").encode("ascii"),
        path.with_name(path.name + ".points"): steps.astype("<i2").tobytes(),
    }


def save_map(cluster_map: ClusterMap, path, label_map: LabelMap | None = None) -> None:
    """Serialize a map and its point sidecar; refuse, before writing, what load_map rejects."""
    write_files(map_files(cluster_map, path, label_map))


def load_map(path) -> ClusterMap:
    """Decode a map file, restoring ids, labels, centroids and points.

    Reads versions 1 to 3. Raises MapFormatError on any other version,
    malformed or trailing content, inconsistent centroids or ones beyond
    MAX_COORDINATE, an observed count below the point count, a step exponent
    outside MIN_STEP_EXPONENT..MAX_STEP_EXPONENT, or a sidecar whose size
    disagrees with the declared point counts. Nothing is returned partially
    decoded.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise MapFormatError(f"{path}: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MapFormatError(f"{path}: empty map file")

    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise MapFormatError(f"{path}:1: not a {FORMAT_NAME} file")
    try:
        version = int(header[1])
    except ValueError:
        raise MapFormatError(f"{path}:1: bad version {header[1]!r}") from None
    if version not in (1, 2, FORMAT_VERSION):
        raise MapFormatError(f"{path}:1: unsupported map version {version}")
    if len(lines) < 2 or not lines[1].startswith("labels "):
        raise MapFormatError(f"{path}:2: missing labels line")

    records = []
    # the 3D centroid, then before version 3 the 2D one; after them come
    # npoints, then from version 2 observed, then from version 3 k
    centroid_end = 6 if version == FORMAT_VERSION else 8
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if not parts:
            raise MapFormatError(f"{path}:{lineno}: blank line inside map body")
        if parts[0] != "cluster" or len(parts) != centroid_end + version:
            raise MapFormatError(f"{path}:{lineno}: unexpected line")
        try:
            cid = int(parts[1])
            label = _WORD_LABELS[parts[2]]
            centroids = np.array([float(v) for v in parts[3:centroid_end]])
            count = int(parts[centroid_end])
            observed = int(parts[centroid_end + 1]) if version > 1 else count
            exponent = int(parts[centroid_end + 2]) if version > 2 else None
        except (ValueError, KeyError):
            raise MapFormatError(f"{path}:{lineno}: unparseable cluster record") from None
        if count < 1:
            raise MapFormatError(f"{path}:{lineno}: point count must be positive")
        if not count <= observed <= MAX_OBSERVED:
            raise MapFormatError(
                f"{path}:{lineno}: observed count must lie in npoints..{MAX_OBSERVED}"
            )
        if not np.isfinite(centroids).all():
            raise MapFormatError(f"{path}:{lineno}: non-finite centroid")
        if (np.abs(centroids) > MAX_COORDINATE).any():
            raise MapFormatError(f"{path}:{lineno}: centroid beyond {MAX_COORDINATE:g} m")
        if version < FORMAT_VERSION and (centroids[3:] != centroids[:2]).any():
            raise MapFormatError(f"{path}:{lineno}: 2D centroid disagrees with 3D centroid")
        if exponent is not None and not MIN_STEP_EXPONENT <= exponent <= MAX_STEP_EXPONENT:
            raise MapFormatError(
                f"{path}:{lineno}: step exponent must lie in "
                f"{MIN_STEP_EXPONENT}..{MAX_STEP_EXPONENT}"
            )
        records.append((cid, label, centroids[:3], count, observed, exponent))

    counts = [rec[3] for rec in records]
    centroids = np.array([rec[2] for rec in records]).reshape(-1, 3)
    sidecar = path.with_name(path.name + ".points")
    if sidecar.exists():
        raw = sidecar.read_bytes()
        # int16 steps from version 3 on, absolute float32 coordinates before
        width = 6 if version == FORMAT_VERSION else 12
        expected = sum(counts) * width
        if len(raw) != expected:
            raise MapFormatError(
                f"{sidecar}: size {len(raw)} does not match declared counts ({expected})"
            )
        if version == FORMAT_VERSION:
            flat = np.frombuffer(raw, dtype="<i2").reshape(-1, 3).astype(float)
            exponents = np.repeat(np.array([rec[5] for rec in records], dtype=int), counts)
            np.ldexp(flat, exponents[:, None], out=flat)
            flat += np.repeat(centroids, counts, axis=0)
        else:
            flat = np.frombuffer(raw, dtype="<f4").reshape(-1, 3).astype(float)
            if not np.isfinite(flat).all():
                raise MapFormatError(f"{sidecar}: non-finite point coordinate")
        points = np.split(flat, np.cumsum(counts)[:-1])
    else:
        points = [c3.reshape(1, 3) for c3 in centroids]

    cluster_map = ClusterMap()
    for (cid, label, c3, _, observed, _), pts in zip(records, points):
        try:
            cluster_map.insert(Cluster(cid, label, pts, c3, observed))
        except ValueError as exc:
            raise MapFormatError(f"{path}: {exc}") from None
    return cluster_map
