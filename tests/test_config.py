import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from polemap import ConfigError
from polemap.bounds import declared_bounds, describe
from polemap.config import (
    _SCHEMA,
    Config,
    default_config,
    dump_config,
    load_config,
    parse_config,
)


def test_empty_text_yields_defaults():
    assert parse_config("") == default_config()
    assert parse_config("# only a comment\n\n") == default_config()


def test_overrides_land_in_the_right_groups():
    cfg = parse_config(
        "\n".join(
            [
                "association.search_radius = 35.5",
                "pipeline.reloc_period = 2.0",
                "scene.width = 250.0",
                "scene.height = 180.0",
                "trajectory.start_x = 12.0",
                "labels.pole = 80",
            ]
        )
    )
    assert cfg.association.search_radius == 35.5
    assert cfg.pipeline.reloc_period == 2.0
    assert cfg.scene.area == (250.0, 180.0)
    assert cfg.trajectory.start == (12.0, 150.0)
    assert cfg.labels.pole_id == 80
    # untouched groups keep their defaults
    assert cfg.extraction == default_config().extraction


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'assoc\.radius'"):
        parse_config("sensor.radius = 50.0\nassoc.radius = 1.0\n")


def test_duplicate_key_rejected():
    text = "sensor.radius = 50.0\nsensor.radius = 51.0\n"
    with pytest.raises(ConfigError, match=":2: duplicate key"):
        parse_config(text)


def test_bad_values_rejected_with_location():
    with pytest.raises(ConfigError, match=":1: bad value for extraction.min_points"):
        parse_config("extraction.min_points = many")
    with pytest.raises(ConfigError, match=":1: expected key = value"):
        parse_config("just some words")
    for text, key in (
        ("extraction.cluster_distance = nan", "extraction.cluster_distance"),
        ("association.search_radius = NaN", "association.search_radius"),
        ("trajectory.length = inf", "trajectory.length"),
        ("scene.width = -inf", "scene.width"),
        ("pipeline.reloc_period = inf", "pipeline.reloc_period"),
    ):
        with pytest.raises(ConfigError, match=f"cfg:2: bad value for {key}"):
            parse_config("# non-finite\n" + text, source="cfg")


def test_group_validation_errors_become_config_errors():
    with pytest.raises(ConfigError, match="reloc_period"):
        parse_config("pipeline.reloc_period = -1.0")
    for text, message in (
        # class ids beyond the low 16 bits of a label word never match
        ("labels.pole = -1", r"label ids must lie in \[0, 65535\]"),
        ("labels.pole = 70000", r"label ids must lie in \[0, 65535\]"),
        ("labels.trunk = 65536", r"label ids must lie in \[0, 65535\]"),
        ("labels.pole = 6", "pole and trunk label ids must differ"),
        ("scene.seed = -1", "seed must be non-negative"),
        ("drift.seed = -1", "seed must be non-negative"),
        ("scene.width = -5", r"scene width and height must lie in \(0, 1e\+09\]"),
        ("scene.width = 0", r"scene width and height must lie in \(0, 1e\+09\]"),
        ("scene.height = 0.0", r"scene width and height must lie in \(0, 1e\+09\]"),
        ("scene.min_spacing = 1e300", r"min_spacing must lie in \[0, 1e\+09\]"),
        ("sensor.radius = -60", r"sensor radius must lie in \(0, 1e\+09\]"),
        ("sensor.radius = 0", r"sensor radius must lie in \(0, 1e\+09\]"),
        ("sensor.label_flip_rate = 1.5", r"label_flip_rate must lie in \[0, 1\]"),
        ("sensor.label_flip_rate = -0.1", r"label_flip_rate must lie in \[0, 1\]"),
        ("sensor.clutter_points = -5", r"clutter_points must lie in \[0, 100000\]"),
        ("scene.point_noise_sigma = -0.03", "point_noise_sigma must be non-negative"),
        ("drift.noise_sigma = -1", r"noise_sigma must lie in \[0, 1e\+09\]"),
    ):
        with pytest.raises(ConfigError, match=f"^cfg: {message}"):
            parse_config(text, source="cfg")
    assert parse_config("labels.pole = 0\nlabels.trunk = 65535").labels.trunk_id == 65535
    edges = parse_config("sensor.label_flip_rate = 1\nsensor.clutter_points = 0\ndrift.noise_sigma = 0")
    assert (edges.sensor.label_flip_rate, edges.sensor.clutter_points) == (1.0, 0)


NAN = float("nan")


def _declared_ranges():
    """(group, key name, field, tuple index or None, (low, high, above)) of
    every config key whose field declares a range, in config order."""
    defaults = default_config()
    ranges = []
    for key, (group, field_name, index, _) in _SCHEMA.items():
        for name, _, bounds in declared_bounds(type(getattr(defaults, group))):
            if name == field_name:
                ranges.append((group, key.split(".", 1)[1], field_name, index, bounds))
    return ranges


DECLARED = _declared_ranges()
# Every other field, each a number: a new field must either declare its range
# or join this list. Every field declares one, if only that it is finite
# (bounds.FINITE) or not NaN (bounds.ANY_NUMBER).
UNBOUNDED = set()


def _group_with(group, field_name, index, value):
    """The default group with one field, or one element of a tuple field, set."""
    default = getattr(default_config(), group)
    if group == "trajectory":
        default = replace(default, length=0.0)  # needs no frames at any speed or period
    if index is not None:
        items = list(getattr(default, field_name))
        items[index] = value
        value = tuple(items)
    return replace(default, **{field_name: value})


def test_every_field_declares_a_range_or_is_listed_unbounded():
    defaults = default_config()
    every = {(g.name, f.name) for g in fields(defaults) for f in fields(getattr(defaults, g.name))}
    assert every - {(group, field_name) for group, _, field_name, _, _ in DECLARED} == UNBOUNDED


@pytest.mark.parametrize(
    "group, field_name, index",
    [(group, field_name, index) for group, _, field_name, index, _ in DECLARED],
    ids=[f"{group}-{key}-nan" for group, key, *_ in DECLARED],
)
def test_nan_fails_every_range_check(group, field_name, index):
    # config files reject non-finite values; the Python API meets these checks
    with pytest.raises(ValueError):
        _group_with(group, field_name, index, NAN)


@pytest.mark.parametrize(
    "group, field_name, index, bounds",
    [(group, field_name, index, bounds) for group, _, field_name, index, bounds in DECLARED],
    ids=[f"{group}-{key}" for group, key, *_ in DECLARED],
)
def test_every_declared_bound_is_exact(group, field_name, index, bounds):
    # each finite bound admits itself and refuses the next number outside it,
    # or, when exclusive, refuses itself and admits the next number inside
    default = getattr(getattr(default_config(), group), field_name)
    integer = isinstance(default if index is None else default[index], int)

    def step(value, direction):
        return value + direction if integer else math.nextafter(value, direction * math.inf)

    low, high, above = bounds
    edges = [(low, -1, above)] if low > -math.inf else []
    if high < math.inf:
        edges.append((high, 1, False))
    for edge, outward, exclusive in edges:
        inside, outside = (step(edge, -outward), edge) if exclusive else (edge, step(edge, outward))
        _group_with(group, field_name, index, inside)
        with pytest.raises(ValueError, match=re.escape(f" must {describe(*bounds)}")):
            _group_with(group, field_name, index, outside)


def test_dump_parse_round_trip_is_identity():
    cfg = parse_config(
        "\n".join(
            [
                "extraction.cluster_distance = 0.75",
                "association.candidate_count = 7",
                "drift.noise_sigma = 0.012",
                "trajectory.start_y = 33.0",
                "pipeline.reloc_period = 2.5",
            ]
        )
    )
    assert parse_config(dump_config(cfg)) == cfg
    assert parse_config(dump_config(default_config())) == default_config()


def test_dump_mentions_every_schema_key():
    text = dump_config(default_config())
    from polemap.config import _SCHEMA

    for key in _SCHEMA:
        assert f"{key} = " in text
    # every value is a plain number
    for line in filter(None, text.split("\n")):
        float(line.split(" = ")[1])


def test_load_config_reads_files_and_reports_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sensor.radius = 45.0\n", encoding="ascii")
    assert load_config(path).sensor.radius == 45.0
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key = 1\n", encoding="ascii")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        load_config(bad)
    with pytest.raises(ConfigError, match="missing.cfg"):
        load_config(tmp_path / "missing.cfg")


def _changed(value):
    if isinstance(value, tuple):
        return tuple(_changed(item) for item in value)
    return value + (1 if isinstance(value, int) else 0.5)


def test_every_field_round_trips_a_non_default_value():
    defaults = default_config()
    groups = {}
    for group in fields(Config):
        default_group = getattr(defaults, group.name)
        changes = {f.name: _changed(getattr(default_group, f.name)) for f in fields(default_group)}
        groups[group.name] = replace(default_group, **changes)
    cfg = Config(**groups)
    assert parse_config(dump_config(cfg)) == cfg
    for group in fields(Config):
        default_group, changed_group = getattr(defaults, group.name), getattr(cfg, group.name)
        for f in fields(default_group):
            assert getattr(changed_group, f.name) != getattr(default_group, f.name), f.name


def test_readme_lists_exactly_the_dumped_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    documented = [
        f"{section}.{key}"
        for section, keys in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M)
        for key in re.findall(r"`(\w+)`", keys)
    ]
    dumped = [line.split(" = ")[0] for line in dump_config(default_config()).split("\n") if line]
    assert documented == dumped


def test_readme_lists_every_declared_range():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    documented = [
        (rule, re.findall(r"`([\w.]+)`", keys))
        for rule, keys in re.findall(r"^\| ((?:be|lie in) [^|]*) \| (.*) \|$", table, re.M)
    ]
    declared = {}
    for group, key, _, _, bounds in DECLARED:
        declared.setdefault(describe(*bounds), []).append(f"{group}.{key}")
    assert documented == list(declared.items())
