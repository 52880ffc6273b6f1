"""Flat key=value configuration covering every parameter group.

Lines look like "association.search_radius = 50.0"; blank lines and
#-comments are ignored. Unknown or duplicate keys are rejected so typos fail
loudly; keys left out keep their defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .association import AssociationParams
from .dataset_io import LabelMap
from .errors import ConfigError
from .extraction import ExtractionParams
from .localization import PipelineConfig
from .registration import RegistrationParams
from .relocalization import RelocParams
from .simulate import DriftSpec, SceneSpec, SensorSpec, TrajectorySpec


@dataclass(frozen=True)
class Config:
    extraction: ExtractionParams
    registration: RegistrationParams
    association: AssociationParams
    reloc: RelocParams
    pipeline: PipelineConfig
    scene: SceneSpec
    trajectory: TrajectorySpec
    drift: DriftSpec
    sensor: SensorSpec
    labels: LabelMap


def default_config() -> Config:
    return Config(
        extraction=ExtractionParams(),
        registration=RegistrationParams(),
        association=AssociationParams(),
        reloc=RelocParams(),
        pipeline=PipelineConfig(),
        scene=SceneSpec(),
        trajectory=TrajectorySpec(),
        drift=DriftSpec(),
        sensor=SensorSpec(),
        labels=LabelMap(),
    )


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _opt_float(raw: str):
    if raw.lower() == "none":
        return None
    return _float(raw)


# key -> (group attribute, constructor kwarg, caster)
_SCHEMA: dict[str, tuple[str, str, object]] = {
    "extraction.cluster_distance": ("extraction", "cluster_distance", _float),
    "extraction.min_points": ("extraction", "min_points", int),
    "registration.merge_radius": ("registration", "merge_radius", _float),
    "registration.strict_labels": ("registration", "strict_labels", _bool),
    "association.search_radius": ("association", "search_radius", _float),
    "association.length_tolerance": ("association", "length_tolerance", _float),
    "association.angle_tolerance": ("association", "angle_tolerance", _float),
    "association.sub_edge_tolerance": ("association", "sub_edge_tolerance", _float),
    "association.edge_tolerance": ("association", "edge_tolerance", _float),
    "association.min_sub_edge_matches": ("association", "min_sub_edge_matches", int),
    "association.min_edge_matches": ("association", "min_edge_matches", int),
    "association.candidate_count": ("association", "candidate_count", int),
    "reloc.consistency_tolerance": ("reloc", "consistency_tolerance", _float),
    "reloc.ransac_threshold": ("reloc", "ransac_threshold", _float),
    "reloc.ransac_iterations": ("reloc", "ransac_iterations", int),
    "reloc.min_pairs": ("reloc", "min_pairs", int),
    "reloc.icp_max_iterations": ("reloc", "icp_max_iterations", int),
    "reloc.icp_convergence": ("reloc", "icp_convergence", _float),
    "reloc.seed": ("reloc", "seed", int),
    "reloc.ransac_first": ("reloc", "ransac_first", _bool),
    "pipeline.reloc_period": ("pipeline", "reloc_period", _float),
    "pipeline.reloc_enabled": ("pipeline", "reloc_enabled", _bool),
    "pipeline.max_fix_jump": ("pipeline", "max_fix_jump", _opt_float),
    "scene.width": ("scene", "width", _float),
    "scene.height": ("scene", "height", _float),
    "scene.n_clusters": ("scene", "n_clusters", int),
    "scene.label_mix": ("scene", "label_mix", _float),
    "scene.min_spacing": ("scene", "min_spacing", _float),
    "scene.points_per_cluster": ("scene", "points_per_cluster", int),
    "scene.point_noise_sigma": ("scene", "point_noise_sigma", _float),
    "scene.seed": ("scene", "seed", int),
    "trajectory.start_x": ("trajectory", "start_x", _float),
    "trajectory.start_y": ("trajectory", "start_y", _float),
    "trajectory.heading_deg": ("trajectory", "heading_deg", _float),
    "trajectory.speed": ("trajectory", "speed", _float),
    "trajectory.length": ("trajectory", "length", _float),
    "trajectory.frame_period": ("trajectory", "frame_period", _float),
    "trajectory.turn_rate_deg_per_m": ("trajectory", "turn_rate_deg_per_m", _float),
    "drift.translational_drift": ("drift", "translational_drift", _float),
    "drift.rotational_drift": ("drift", "rotational_drift", _float),
    "drift.noise_sigma": ("drift", "noise_sigma", _float),
    "drift.seed": ("drift", "seed", int),
    "sensor.radius": ("sensor", "radius", _float),
    "sensor.label_flip_rate": ("sensor", "label_flip_rate", _float),
    "sensor.clutter_points": ("sensor", "clutter_points", int),
    "labels.pole": ("labels", "pole_id", int),
    "labels.trunk": ("labels", "trunk_id", int),
}

_GROUP_TYPES = {
    "extraction": ExtractionParams,
    "registration": RegistrationParams,
    "association": AssociationParams,
    "reloc": RelocParams,
    "pipeline": PipelineConfig,
    "scene": SceneSpec,
    "trajectory": TrajectorySpec,
    "drift": DriftSpec,
    "sensor": SensorSpec,
    "labels": LabelMap,
}


def parse_config(text: str, source: str = "<config>") -> Config:
    overrides: dict[str, dict[str, object]] = {}
    seen: set[str] = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        group, field_name, caster = _SCHEMA[key]
        try:
            value = caster(raw)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
        overrides.setdefault(group, {})[field_name] = value

    groups = {}
    for group, cls in _GROUP_TYPES.items():
        kwargs = overrides.get(group, {})
        if group == "scene":
            defaults = SceneSpec()
            width = kwargs.pop("width", defaults.area[0])
            height = kwargs.pop("height", defaults.area[1])
            kwargs["area"] = (width, height)
        elif group == "trajectory":
            defaults = TrajectorySpec()
            sx = kwargs.pop("start_x", defaults.start[0])
            sy = kwargs.pop("start_y", defaults.start[1])
            kwargs["start"] = (sx, sy)
        try:
            groups[group] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from None
    return Config(**groups)


def load_config(path) -> Config:
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config(text, source=str(path))


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(config: Config) -> str:
    """Render every key with its current value, grouped by section."""
    lines = []
    previous_group = None
    for key, (group, field_name, _) in _SCHEMA.items():
        if group != previous_group:
            if previous_group is not None:
                lines.append("")
            previous_group = group
        obj = getattr(config, group)
        if key == "scene.width":
            value = obj.area[0]
        elif key == "scene.height":
            value = obj.area[1]
        elif key == "trajectory.start_x":
            value = obj.start[0]
        elif key == "trajectory.start_y":
            value = obj.start[1]
        else:
            value = getattr(obj, field_name)
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


# Parameter groups must stay in sync with the schema above.
def _schema_is_complete() -> bool:
    for group, cls in _GROUP_TYPES.items():
        covered = {
            field_name for key, (g, field_name, _) in _SCHEMA.items() if g == group
        }
        if group == "scene":
            covered |= {"area"}
            covered -= {"width", "height"}
        if group == "trajectory":
            covered |= {"start"}
            covered -= {"start_x", "start_y"}
        for f in fields(cls):
            if f.name not in covered:
                return False
    return True
