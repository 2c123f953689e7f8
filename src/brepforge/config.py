"""Generator configuration: defaults, key=value file parsing, stable hashing.

Config files are flat `key = value` lines (# comments allowed).  CLI
overrides merge on top of the file, which merges on top of the defaults;
the canonical serialized form is hashed into the run manifest so any run
can be reproduced from (config hash, seed range).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .assembly import BuildingConfig
from .dataset import FilterConfig
from .geom2d import Rect, to_units
from .grammar import GrammarConfig
from .storey import WindowSpec, WindowTable

DEFAULTS: dict[str, str] = {
    "core_tube": "0,0,4,4",
    "room_side_min": "2.4",
    "room_side_max": "6.0",
    "max_rooms": "10",
    "notch_gap": "0.5",
    "min_exterior_gap": "0.4",
    "retry_budget": "16",
    "storey_height": "3.0",
    "slab_thickness": "0.2",
    "wall_thickness": "0.2",
    "ground_offset": "3.0",
    "entrance_min_wall": "4.0",
    "entrance_width": "1.2",
    "entrance_height": "2.4",
    "window_bins": "1.2,3.0,5.0",
    "window_ns_small": "0.9,1.4,0.9",
    "window_ns_mid": "1.8,1.5,0.9",
    "window_ns_large": "2.4,1.5,0.9",
    "window_ew_small": "0.6,1.2,1.0",
    "window_ew_mid": "0.9,1.2,1.0",
    "window_ew_large": "1.2,1.2,1.0",
    "min_room_area": "8.0",
    "max_room_area": "80.0",
    "min_room_side": "2.0",
    "max_aspect_ratio": "4.0",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    values: tuple[tuple[str, str], ...]  # sorted (key, value) pairs

    @classmethod
    def build(cls, file: Path | None = None, overrides: dict[str, str] | None = None):
        merged = dict(DEFAULTS)
        if file is not None:
            merged.update(parse_config_file(file))
        for key, value in (overrides or {}).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
        return cls(tuple(sorted(merged.items())))

    def get(self, key: str) -> str:
        return dict(self.values)[key]

    def _metres(self, key: str) -> int:
        try:
            return to_units(float(self.get(key)))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    def _int(self, key: str) -> int:
        try:
            return int(self.get(key))
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer") from exc

    def _float(self, key: str) -> float:
        try:
            return float(self.get(key))
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number") from exc

    def _spec(self, key: str) -> WindowSpec:
        parts = self.get(key).split(",")
        if len(parts) != 3:
            raise ConfigError(f"{key}: expected width,height,sill")
        w, h, s = (to_units(float(p)) for p in parts)
        return WindowSpec(w, h, s)

    def grammar(self) -> GrammarConfig:
        core = [to_units(float(p)) for p in self.get("core_tube").split(",")]
        if len(core) != 4:
            raise ConfigError("core_tube: expected x0,y0,x1,y1")
        return GrammarConfig(
            core_tube=Rect(*core),
            room_side_min=self._metres("room_side_min"),
            room_side_max=self._metres("room_side_max"),
            max_rooms=self._int("max_rooms"),
            notch_gap=self._metres("notch_gap"),
            min_exterior_gap=self._metres("min_exterior_gap"),
            retry_budget=self._int("retry_budget"),
        )

    def building(self) -> BuildingConfig:
        bins = [to_units(float(p)) for p in self.get("window_bins").split(",")]
        if len(bins) != 3:
            raise ConfigError("window_bins: expected three thresholds")
        table = WindowTable(
            bins=tuple(bins),
            ns=(self._spec("window_ns_small"), self._spec("window_ns_mid"), self._spec("window_ns_large")),
            ew=(self._spec("window_ew_small"), self._spec("window_ew_mid"), self._spec("window_ew_large")),
        )
        return BuildingConfig(
            storey_height=self._metres("storey_height"),
            slab_thickness=self._metres("slab_thickness"),
            wall_thickness=self._metres("wall_thickness"),
            ground_offset=self._metres("ground_offset"),
            entrance_min_wall=self._metres("entrance_min_wall"),
            entrance_width=self._metres("entrance_width"),
            entrance_height=self._metres("entrance_height"),
            window_table=table,
        )

    def filters(self) -> FilterConfig:
        return FilterConfig(
            min_room_area=self._float("min_room_area"),
            max_room_area=self._float("max_room_area"),
            min_room_side=self._float("min_room_side"),
            max_aspect_ratio=self._float("max_aspect_ratio"),
        )

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
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out
