"""Configuration tests: the knob table's defaults, bounds and README table."""

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from brepforge import config
from brepforge.assembly import BuildingConfig
from brepforge.config import KNOBS, GeneratorConfig
from brepforge.geom2d import Rect
from brepforge.grammar import GrammarConfig
from brepforge.records import FilterConfig
from brepforge.storey import WindowSpec, WindowTable


def test_gen_defaults_equal_dataclass_defaults():
    # The default sections, in grid units of 0.1 m.
    cfg = GeneratorConfig.build()
    assert cfg.grammar() == GrammarConfig(
        core_tube=Rect(0, 0, 40, 40), room_side_min=24, room_side_max=60, max_rooms=10,
        min_exterior_gap=4, retry_budget=16,
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
        "8b629f9722323d463395ebd582e93d9cede88294fe1e72ddccbf22d4f6dc585c"
    )


# The README's words for the values each parser accepts.
ACCEPTS = {
    config.metres: "length",
    config.even_metres: "even length",
    int: "integer",
    config.finite: "number",
    config.core_tube: "lengths x0,y0,x1,y1 with x0 < x1, y0 < y1",
    config.ascending: "3 ascending lengths",
    config.window: "lengths width,height > 0, sill ≥ 0",
}


def allowed(knob) -> str:
    """The README's "allowed" cell of a knob: its parser's words and its bounds."""
    if knob.low is not None and knob.high is not None:
        return f"{ACCEPTS[knob.parse]} {knob.low}..{knob.high}"
    if knob.low is not None:
        return f"{ACCEPTS[knob.parse]} ≥ {knob.low}"
    if knob.high is not None:
        return f"{ACCEPTS[knob.parse]} ≤ {knob.high}"
    return ACCEPTS[knob.parse]


def test_readme_config_table_equals_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \| ([^|]*) \|", section, flags=re.M)
    assert len(rows) == len(KNOBS)
    assert {key: default for key, default, _ in rows} == {key: knob.default for key, knob in KNOBS.items()}
    assert {key: cell for key, _, cell in rows} == {key: allowed(knob) for key, knob in KNOBS.items()}


@pytest.mark.parametrize(
    "overrides",
    [
        # Each of these is at the edge of a rule, and each could export.
        {"max_rooms": "2", "retry_budget": "1", "room_side_min": "3.0", "room_side_max": "3.0"},
        {"max_aspect_ratio": "1", "min_room_side": "6.0", "min_room_area": "36.0"},
        {"min_room_area": "0", "max_room_area": "5.76"},
        {"min_room_area": "20.0", "max_room_area": "20.0", "ground_offset": "0", "wall_thickness": "2.2"},
        {"slab_thickness": "0.1", "entrance_width": "0.1", "entrance_height": "0.1", "window_ns_small": "0.1,0.1,0"},
    ],
)
def test_config_at_the_limits_is_accepted(overrides):
    GeneratorConfig.build(None, overrides).sections()


@pytest.mark.parametrize("value", ["1000.0", "-1000.0"])
def test_length_bound_is_inclusive(value):
    # A core tube corner is a length that may be negative.
    lo, hi = sorted((0.0, float(value)))
    tube = GeneratorConfig.build(None, {"core_tube": f"{lo},{lo},{hi},{hi}"}).grammar().core_tube
    assert (tube.x0, tube.x1) == (10 * lo, 10 * hi)


DEFAULT_ROOMS = {
    "side_min": 24, "side_max": 60, "min_room_area": 80, "max_room_area": 800, "min_room_side": 20,
    "max_aspect_ratio": 40,
}


# Each example broke one of the six rules on the room filters that
# `_some_room_passes` now decides alone, and the last breaks none of them.
@example(**DEFAULT_ROOMS | {"side_min": 70})
@example(**DEFAULT_ROOMS | {"max_aspect_ratio": 9})
@example(**DEFAULT_ROOMS | {"min_room_side": 61})
@example(**DEFAULT_ROOMS | {"min_room_area": 361})
@example(**DEFAULT_ROOMS | {"max_room_area": 57})
@example(**DEFAULT_ROOMS | {"min_room_area": 300, "max_room_area": 200})
@example(**DEFAULT_ROOMS | {"min_room_side": 50, "max_room_area": 200})
@settings(max_examples=500, deadline=None)
@given(
    # Room sides in grid units, most often with side_min below side_max.
    side_min=st.integers(3, 100),
    side_max=st.integers(11, 100).map(lambda n: 111 - n),
    # The filter knobs in tenths, from ranges where rooms of 0.3 m to 10 m
    # both pass and fail, often exactly at a room's area or side.
    min_room_area=st.integers(-10, 400),
    max_room_area=st.integers(0, 1200).map(lambda n: 1200 - n),
    min_room_side=st.integers(-10, 110),
    max_aspect_ratio=st.integers(0, 80).map(lambda n: 80 - n),
)
def test_room_filter_refusal_is_some_room_passes(
    side_min, side_max, min_room_area, max_room_area, min_room_side, max_aspect_ratio
):
    # Room sides from 0.3 m and up to at least 1.1 m, with every other knob
    # at its default, break no rule but the room filters' one.
    overrides = {
        "room_side_min": str(side_min / 10),
        "room_side_max": str(side_max / 10),
        "min_room_area": str(min_room_area / 10),
        "max_room_area": str(max_room_area / 10),
        "min_room_side": str(min_room_side / 10),
        "max_aspect_ratio": str(max_aspect_ratio / 10),
    }
    cfg = GeneratorConfig.build(None, overrides)
    passes = config._some_room_passes(side_min, side_max, cfg.filters())
    try:
        cfg.sections()
    except ValueError:
        assert not passes
    else:
        assert passes
