"""Configuration tests: the `gen` defaults agree with the dataclass defaults."""

from brepforge.assembly import BuildingConfig
from brepforge.config import GeneratorConfig
from brepforge.dataset import FilterConfig
from brepforge.grammar import GrammarConfig


def test_gen_defaults_equal_dataclass_defaults():
    # Tests build the dataclasses directly; `gen` builds them from DEFAULTS.
    cfg = GeneratorConfig.build()
    assert cfg.grammar() == GrammarConfig()
    assert cfg.building() == BuildingConfig()
    assert cfg.filters() == FilterConfig()
