"""Flat key=value configuration covering every parameter group.

Lines look like "association.search_radius = 50.0"; blank lines and
#-comments are ignored. Unknown or duplicate keys are rejected so typos fail
loudly; keys left out keep their defaults.

The keys are derived from the parameter dataclasses: each field of each
group of Config is one "group.field" key, cast by its annotation, so adding
a field adds its key. Only the spellings in _KEY_NAMES differ. Every value
is a number: a finite float or an int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

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
    return Config(**{name: group() for name, group in get_type_hints(Config).items()})


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


_CASTERS = {float: _float, int: int}

# Key names that are not the field name: a tuple field gets one key per
# element, and the label ids drop their "_id".
_KEY_NAMES = {
    ("scene", "area"): ("width", "height"),
    ("trajectory", "start"): ("start_x", "start_y"),
    ("labels", "pole_id"): ("pole",),
    ("labels", "trunk_id"): ("trunk",),
}


def _schema() -> dict[str, tuple[str, str, int | None, object]]:
    """key -> (group, field, tuple element index or None, caster)."""
    schema = {}
    for group, group_type in get_type_hints(Config).items():
        hints = get_type_hints(group_type)
        for f in fields(group_type):
            hint = hints[f.name]
            names = _KEY_NAMES.get((group, f.name), (f.name,))
            if get_origin(hint) is tuple:
                for index, (name, item) in enumerate(zip(names, get_args(hint), strict=True)):
                    schema[f"{group}.{name}"] = (group, f.name, index, _CASTERS[item])
            else:
                (name,) = names
                schema[f"{group}.{name}"] = (group, f.name, None, _CASTERS[hint])
    return schema


_SCHEMA = _schema()


def parse_config(text: str, source: str = "<config>") -> Config:
    defaults = default_config()
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
        group, field_name, index, caster = _SCHEMA[key]
        try:
            value = caster(raw)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
        kwargs = overrides.setdefault(group, {})
        if index is not None:
            items = list(kwargs.get(field_name, getattr(getattr(defaults, group), field_name)))
            items[index] = value
            value = tuple(items)
        kwargs[field_name] = value

    groups = {}
    for f in fields(Config):
        try:
            groups[f.name] = replace(getattr(defaults, f.name), **overrides.get(f.name, {}))
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


def dump_config(config: Config) -> str:
    """Render every key with its current value, grouped by section."""
    lines = []
    previous_group = None
    for key, (group, field_name, index, _) in _SCHEMA.items():
        if group != previous_group:
            if previous_group is not None:
                lines.append("")
            previous_group = group
        value = getattr(getattr(config, group), field_name)
        if index is not None:
            value = value[index]
        lines.append(f"{key} = {value}")  # str(float) is its shortest round-trip repr
    return "\n".join(lines) + "\n"
