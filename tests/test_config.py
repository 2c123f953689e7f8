"""Configuration tests: the knob table's defaults, length bound and README table."""

import re
from pathlib import Path

import pytest

from brepforge.assembly import BuildingConfig
from brepforge.config import KNOBS, GeneratorConfig
from brepforge.dataset import FilterConfig
from brepforge.geom2d import Rect
from brepforge.grammar import GrammarConfig
from brepforge.storey import WindowSpec, WindowTable


def test_gen_defaults_equal_dataclass_defaults():
    # The default sections, in grid units of 0.1 m.
    cfg = GeneratorConfig.build()
    assert cfg.grammar() == GrammarConfig(
        core_tube=Rect(0, 0, 40, 40), room_side_min=24, room_side_max=60, max_rooms=10,
        notch_gap=5, min_exterior_gap=4, retry_budget=16,
    )
    assert cfg.building() == BuildingConfig(
        storey_height=30, slab_thickness=2, wall_thickness=2, ground_offset=30,
        entrance_min_wall=40, entrance_width=12, entrance_height=24,
        window_table=WindowTable(
            bins=(12, 30, 50),
            ns=(WindowSpec(9, 14, 9), WindowSpec(18, 15, 9), WindowSpec(24, 15, 9)),
            ew=(WindowSpec(6, 12, 10), WindowSpec(9, 12, 10), WindowSpec(12, 12, 10)),
        ),
    )
    assert cfg.filters() == FilterConfig(
        min_room_area=8.0, max_room_area=80.0, min_room_side=2.0, max_aspect_ratio=4.0
    )


def test_default_config_hash():
    assert GeneratorConfig.build().config_hash() == (
        "0b3d048059880f34a9bf0d6c0fc1b1d1c379ecbd3bf464d14ce8146233c791ec"
    )


def test_readme_config_table_equals_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.M)
    assert len(rows) == len(KNOBS)
    assert dict(rows) == {key: knob.default for key, knob in KNOBS.items()}


@pytest.mark.parametrize("value", ["1000.0", "-1000.0"])
def test_length_bound_is_inclusive(value):
    assert GeneratorConfig.build(None, {"ground_offset": value}).building().ground_offset == 10 * float(value)
