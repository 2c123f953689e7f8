"""Generator configuration: the knob table, key=value file parsing, stable hashing.

Each knob is declared once, in `KNOBS`: its default text, the section it
configures, the parser of its text, and its field in the section.  Config
files are flat `key = value` lines (# comments allowed).  CLI overrides
merge on top of the file, which merges on top of the defaults; the
canonical serialized form is hashed into the run manifest so any run can
be reproduced from (config hash, seed range).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .records import to_units

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


def core_tube(text: str) -> Rect:
    """The core rectangle: x0,y0,x1,y1."""
    from .geom2d import Rect

    return Rect(*lengths(text, 4))


def window(text: str) -> WindowSpec:
    """A window spec: width,height,sill."""
    from .storey import WindowSpec

    return WindowSpec(*lengths(text, 3))


class Knob(NamedTuple):
    default: str
    section: str  # "grammar", "building", "window" or "filters"
    parse: Callable[[str], object]
    field: object = None  # the key when None; a window spec's is its (group, bin)


KNOBS: dict[str, Knob] = {
    "core_tube": Knob("0,0,4,4", "grammar", core_tube),
    "room_side_min": Knob("2.4", "grammar", metres),
    "room_side_max": Knob("6.0", "grammar", metres),
    "max_rooms": Knob("10", "grammar", int),
    "min_exterior_gap": Knob("0.4", "grammar", metres),
    "retry_budget": Knob("16", "grammar", int),
    "storey_height": Knob("3.0", "building", metres),
    "slab_thickness": Knob("0.2", "building", metres),
    "wall_thickness": Knob("0.2", "building", metres),
    "ground_offset": Knob("3.0", "building", metres),
    "entrance_min_wall": Knob("4.0", "building", metres),
    "entrance_width": Knob("1.2", "building", metres),
    "entrance_height": Knob("2.4", "building", metres),
    "window_bins": Knob("1.2,3.0,5.0", "window", lambda text: lengths(text, 3), "bins"),
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


class ConfigError(ValueError):
    pass


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
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
        return cls(tuple(sorted(merged.items())))

    def _section(self, section: str) -> dict:
        """The parsed values of the section's knobs, by field."""
        out = {}
        for key, text in self.values:
            knob = KNOBS[key]
            if knob.section == section:
                try:
                    out[knob.field or key] = knob.parse(text)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from exc
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
        other: a room's void and the core shaft are their rectangles eroded
        by half a wall a side, so walls must be thinner than the shortest
        room side and than each side of the core, and every storey has
        doors and the ground storey an entrance, whose heads must stay
        under the slab soffit.  A config that breaks one of these could
        export no building."""
        from .storey import DOOR_HEIGHT

        grammar, building = self.grammar(), self.building()
        wall, core = building.wall_thickness, grammar.core_tube
        if wall >= grammar.room_side_min:
            raise ConfigError("wall_thickness must be less than room_side_min")
        if wall >= min(core.width, core.height):
            raise ConfigError("wall_thickness must be less than each side of core_tube")
        soffit = building.storey_height - building.slab_thickness
        if DOOR_HEIGHT > soffit:
            raise ConfigError(
                f"storey_height less slab_thickness must leave room for a {DOOR_HEIGHT / 10} m door"
            )
        if building.entrance_height > soffit:
            raise ConfigError("entrance_height must not exceed storey_height less slab_thickness")
        return grammar, building, self.filters()

    def canonical_text(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.values) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def parse_config_file(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KNOBS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out
