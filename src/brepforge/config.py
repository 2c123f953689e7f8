"""Generator configuration: the knob table, key=value file parsing, stable hashing.

Each knob is declared once, in `KNOBS`: its default text, the section it
configures, the parser of its text, its field in the section and its
bounds; rules across keys are in `GeneratorConfig.sections`.  Config
files are flat `key = value` lines (# comments allowed).  CLI overrides
merge on top of the file, which merges on top of the defaults; the
canonical serialized form is hashed into the run manifest so any run can
be reproduced from (config hash, seed range).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .records import check_rooms, to_units

# A section's types are imported when the section is built, so `validate`,
# which builds only the room filters, loads no grammar, storey, assembly or
# footprint kernel.
if TYPE_CHECKING:
    from .assembly import BuildingConfig
    from .geom2d import Rect
    from .grammar import GrammarConfig
    from .records import FilterConfig
    from .storey import WindowSpec

# Bound on the magnitude of every configured length.  The core, 10 rooms,
# the apron and 10 storeys then come to about 13 km at most, well inside
# records.MAX_COORDINATE_M.
MAX_LENGTH_M = 1000.0


def metres(text: str) -> int:
    """A length in metres on the 0.1 m grid, in grid units."""
    value = float(text)
    if not abs(value) <= MAX_LENGTH_M:
        raise ValueError(f"{text} is not a length within {MAX_LENGTH_M:g} m")
    return to_units(value)


def lengths(text: str, n: int) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated lengths")
    return tuple(metres(p) for p in parts)


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def even_metres(text: str) -> int:
    """A length on the 0.2 m grid: a wall is centred on its 0.1 m grid line."""
    if (units := metres(text)) % 2:
        raise ValueError(f"{text} is not an even number of 0.1 m grid units")
    return units


def core_tube(text: str) -> Rect:
    """The core rectangle: x0,y0,x1,y1."""
    from .geom2d import Rect

    return Rect(*lengths(text, 4))


def ascending(text: str) -> tuple[int, ...]:
    """Three strictly ascending lengths: the window bins' thresholds."""
    bins = lengths(text, 3)
    if not bins[0] < bins[1] < bins[2]:
        raise ValueError(f"{text} is not ascending")
    return bins


def window(text: str) -> WindowSpec:
    """A window spec: width,height,sill."""
    from .storey import WindowSpec

    width, height, sill = lengths(text, 3)
    if min(width, height) <= 0:
        raise ValueError("window width and height must be positive")
    if sill < 0:
        raise ValueError("window sill must not be negative")
    return WindowSpec(width, height, sill)


class Knob(NamedTuple):
    default: str
    section: str  # "grammar", "building", "window" or "filters"
    parse: Callable[[str], object]
    field: object = None  # the key when None; a window spec's is its (group, bin)
    low: str | None = None  # the least value, as text read by `parse`
    high: str | None = None  # the largest value, likewise

    def read(self, text: str):
        """The parsed value of ``text``, checked against the bounds."""
        value = self.parse(text)
        if self.low is not None and value < self.parse(self.low):
            raise ValueError(f"{text} is below {self.low}")
        if self.high is not None and value > self.parse(self.high):
            raise ValueError(f"{text} is above {self.high}")
        return value


KNOBS: dict[str, Knob] = {
    "core_tube": Knob("0,0,4,4", "grammar", core_tube),
    "room_side_min": Knob("2.4", "grammar", metres, low="0.1"),
    "room_side_max": Knob("6.0", "grammar", metres),
    # `grow` discards a growth of fewer than two rooms.
    "max_rooms": Knob("10", "grammar", int, low="2", high="10"),
    "min_exterior_gap": Knob("0.4", "grammar", metres),
    "retry_budget": Knob("16", "grammar", int, low="1"),
    "storey_height": Knob("3.0", "building", metres),
    "slab_thickness": Knob("0.2", "building", metres, low="0.1"),
    "wall_thickness": Knob("0.2", "building", even_metres, low="0.2"),
    "ground_offset": Knob("3.0", "building", metres, low="0"),
    "entrance_min_wall": Knob("4.0", "building", metres),
    "entrance_width": Knob("1.2", "building", metres, low="0.1"),
    "entrance_height": Knob("2.4", "building", metres, low="0.1"),
    "window_bins": Knob("1.2,3.0,5.0", "window", ascending, "bins"),
    "window_ns_small": Knob("0.9,1.4,0.9", "window", window, ("ns", 0)),
    "window_ns_mid": Knob("1.8,1.5,0.9", "window", window, ("ns", 1)),
    "window_ns_large": Knob("2.4,1.5,0.9", "window", window, ("ns", 2)),
    "window_ew_small": Knob("0.6,1.2,1.0", "window", window, ("ew", 0)),
    "window_ew_mid": Knob("0.9,1.2,1.0", "window", window, ("ew", 1)),
    "window_ew_large": Knob("1.2,1.2,1.0", "window", window, ("ew", 2)),
    "min_room_area": Knob("8.0", "filters", finite),
    "max_room_area": Knob("80.0", "filters", finite),
    "min_room_side": Knob("2.0", "filters", finite),
    "max_aspect_ratio": Knob("4.0", "filters", finite),
}


@dataclass(frozen=True)
class GeneratorConfig:
    values: tuple[tuple[str, str], ...]  # sorted (key, value) pairs

    @classmethod
    def build(cls, file: Path | None = None, overrides: dict[str, str] | None = None):
        merged = {key: knob.default for key, knob in KNOBS.items()}
        if file is not None:
            merged.update(parse_config_file(file))
        for key, value in (overrides or {}).items():
            if key not in KNOBS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = value
        return cls(tuple(sorted(merged.items())))

    def _section(self, section: str) -> dict:
        """The parsed values of the section's knobs, by field."""
        out = {}
        for key, text in self.values:
            knob = KNOBS[key]
            if knob.section == section:
                try:
                    out[knob.field or key] = knob.read(text)
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from exc
        return out

    def grammar(self) -> GrammarConfig:
        from .grammar import GrammarConfig

        return GrammarConfig(**self._section("grammar"))

    def building(self) -> BuildingConfig:
        from .assembly import BuildingConfig
        from .storey import WindowTable

        w = self._section("window")
        table = WindowTable(w["bins"], *(tuple(w[group, b] for b in range(3)) for group in ("ns", "ew")))
        return BuildingConfig(**self._section("building"), window_table=table)

    def filters(self) -> FilterConfig:
        from .records import FilterConfig

        return FilterConfig(**self._section("filters"))

    def sections(self) -> tuple[GrammarConfig, BuildingConfig, FilterConfig]:
        """The grammar, building and filter sections, checked against each
        other: the grammar draws room sides from room_side_min to
        room_side_max; a room's void and the core shaft are their
        rectangles eroded by half a wall a side, so walls must be thinner
        than the shortest room side and than each side of the core; every
        storey has doors and the ground storey an entrance, whose heads
        must stay under the slab soffit; and the room filters must pass
        some room the grammar draws, its sides read in metres as the
        building's metadata holds them (`_some_room_passes`, the one rule
        on the six room keys).  The top storey is the core and one room,
        which covers at most one side of the core, so when the first window
        bin is no longer than a side of the core, its core walls get
        windows and keep at least one: some window head must then stay
        under the soffit.  A door needs an interior wall of MIN_DOOR_WALL,
        so room_side_max must reach it.  A config that breaks one of these
        could export no building."""
        from .storey import DOOR_HEIGHT, MIN_DOOR_WALL

        grammar, building, filters = self.grammar(), self.building(), self.filters()
        wall, core, table = building.wall_thickness, grammar.core_tube, building.window_table
        soffit = building.storey_height - building.slab_thickness
        for broken, message in (
            (wall >= grammar.room_side_min, "wall_thickness must be less than room_side_min"),
            (wall >= min(core.width, core.height), "wall_thickness must be less than each side of core_tube"),
            (DOOR_HEIGHT > soffit, f"storey_height less slab_thickness must leave room for a {DOOR_HEIGHT / 10} m door"),
            (building.entrance_height > soffit, "entrance_height must not exceed storey_height less slab_thickness"),
            (
                not _some_room_passes(grammar.room_side_min, grammar.room_side_max, filters),
                "no room with sides from room_side_min to room_side_max passes "
                "min_room_area, max_room_area, min_room_side and max_aspect_ratio",
            ),
            (
                table.bins[0] <= min(core.width, core.height)
                and all(s.sill + s.height > soffit for s in (*table.ns, *table.ew)),
                "the top storey's core walls, as long as the sides of core_tube, reach the first "
                "window_bins threshold, and every window head (sill plus height of window_ns_small, "
                "window_ns_mid, window_ns_large, window_ew_small, window_ew_mid and window_ew_large) "
                "is above storey_height less slab_thickness",
            ),
            (
                grammar.room_side_max < MIN_DOOR_WALL,
                f"room_side_max must be at least {MIN_DOOR_WALL / 10} m, the shortest wall a door fits in",
            ),
        ):
            if broken:
                raise ValueError(message)
        return grammar, building, filters

    def canonical_text(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.values) + "\n"

    def config_hash(self) -> str:
        # Imported here: `validate` builds a config but hashes none, and
        # `hashlib` loads OpenSSL's libcrypto.
        import hashlib

        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _some_room_passes(side_min: int, side_max: int, filters: FilterConfig) -> bool:
    """Whether the room filters pass a room whose sides are whole grid units
    from side_min to side_max.  With the shorter side w fixed, area and
    aspect ratio only grow with the longer side, so the one candidate is the
    least h >= w whose area, computed as `check_rooms` does, reaches
    min_room_area."""
    for w in range(side_min, side_max + 1):
        longer = range(w, side_max + 1)
        i = bisect.bisect_left(longer, True, key=lambda h: w / 10.0 * (h / 10.0) >= filters.min_room_area)
        if i < len(longer) and check_rooms([[(w / 10.0, longer[i] / 10.0)]], filters)[0]:
            return True
    return False


def parse_config_file(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KNOBS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out
