"""Cluster map serialization.

The map file is a versioned text document:

    polemap-map 2
    labels pole=5 trunk=6
    cluster <id> <pole|trunk> <cx> <cy> <cz> <c2x> <c2y> <npoints> <observed>

Centroids are written with shortest round-trip decimals, so save/load
preserves them exactly. npoints counts the cluster's member points and
observed every point its centroid averages (at least npoints; more once
registration keeps one member per voxel). A loaded cluster resumes its
running coordinate sum from centroid * observed, so a save, load and merge
weighs the stored centroid exactly. Version 1 files, whose cluster lines end
at npoints, still load, with observed = npoints.

Member points live in a binary sidecar (<path>.points, float32 x y z per
point, clusters in file order) that save_map always writes. A map read
without its sidecar reloads each cluster with a single synthetic point at its
centroid and keeps its observed count.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cluster_map import POLE, TRUNK, Cluster, ClusterMap
from .dataset_io import MAX_COORDINATE, LabelMap
from .errors import MapFormatError

FORMAT_NAME = "polemap-map"
FORMAT_VERSION = 2
# observed stays an exact float64 integer, so centroid * observed is exact
# in its weight.
MAX_OBSERVED = 2**53

_LABEL_WORDS = {POLE: "pole", TRUNK: "trunk"}
_WORD_LABELS = {"pole": POLE, "trunk": TRUNK}


def save_map(cluster_map: ClusterMap, path, label_map: LabelMap | None = None) -> None:
    """Serialize a map and its point sidecar; refuse, before writing, what load_map rejects."""
    label_map = label_map or LabelMap()
    path = Path(path)
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"labels pole={label_map.pole_id} trunk={label_map.trunk_id}",
    ]
    for cluster in cluster_map:
        c3 = cluster.centroid3d
        c2 = cluster.centroid2d
        if not (np.abs(c3) <= MAX_COORDINATE).all():
            raise MapFormatError(
                f"{path}: cluster {cluster.cluster_id}: centroid beyond {MAX_COORDINATE:g} m"
            )
        lines.append(
            "cluster {} {} {} {} {} {} {} {} {}".format(
                cluster.cluster_id,
                _LABEL_WORDS[cluster.label],
                repr(float(c3[0])),
                repr(float(c3[1])),
                repr(float(c3[2])),
                repr(float(c2[0])),
                repr(float(c2[1])),
                cluster.n_points,
                cluster.observed,
            )
        )
    points = np.concatenate([cluster.points for cluster in cluster_map] or [np.empty((0, 3))])
    if not (np.abs(points) <= np.finfo("<f4").max).all():
        raise MapFormatError(f"{path}: member point beyond the float32 range")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    path.with_name(path.name + ".points").write_bytes(points.astype("<f4").tobytes())


def load_map(path) -> ClusterMap:
    """Decode a map file, restoring ids, labels, centroids and points.

    Reads versions 1 and 2. Raises MapFormatError on any other version,
    malformed or trailing content, inconsistent centroids or ones beyond
    MAX_COORDINATE, an observed count below the point count, or a sidecar
    whose size disagrees with the declared point counts. Nothing is returned
    partially decoded.
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
    if version not in (1, FORMAT_VERSION):
        raise MapFormatError(f"{path}:1: unsupported map version {version}")
    if len(lines) < 2 or not lines[1].startswith("labels "):
        raise MapFormatError(f"{path}:2: missing labels line")

    records = []
    fields = 9 if version == 1 else 10
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if not parts:
            raise MapFormatError(f"{path}:{lineno}: blank line inside map body")
        if parts[0] != "cluster" or len(parts) != fields:
            raise MapFormatError(f"{path}:{lineno}: unexpected line")
        try:
            cid = int(parts[1])
            label = _WORD_LABELS[parts[2]]
            centroids = np.array([float(v) for v in parts[3:8]])  # c3 then c2
            count = int(parts[8])
            observed = int(parts[9]) if version > 1 else count
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
        if (centroids[3:] != centroids[:2]).any():
            raise MapFormatError(f"{path}:{lineno}: 2D centroid disagrees with 3D centroid")
        records.append((cid, label, centroids[:3], count, observed))

    counts = [rec[3] for rec in records]
    sidecar = path.with_name(path.name + ".points")
    if sidecar.exists():
        raw = sidecar.read_bytes()
        expected = sum(counts) * 12
        if len(raw) != expected:
            raise MapFormatError(
                f"{sidecar}: size {len(raw)} does not match declared counts ({expected})"
            )
        flat = np.frombuffer(raw, dtype="<f4").reshape(-1, 3).astype(float)
        if not np.isfinite(flat).all():
            raise MapFormatError(f"{sidecar}: non-finite point coordinate")
        points = np.split(flat, np.cumsum(counts)[:-1])
    else:
        points = [c3.reshape(1, 3) for _, _, c3, _, _ in records]

    cluster_map = ClusterMap()
    for (cid, label, c3, _, observed), pts in zip(records, points):
        try:
            cluster_map.insert(Cluster(cid, label, pts, c3, observed))
        except ValueError as exc:
            raise MapFormatError(f"{path}: {exc}") from None
    return cluster_map
