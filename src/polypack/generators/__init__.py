"""Deterministic, seeded instance generators: random, jigsaw, atris, satris."""
from .config import GenConfig, GenerationFailed
from .jigsaw import gen_jigsaw
from .randpoly import gen_random
from .tetro import CATEGORIES, gen_atris, gen_satris, shear_polygon

FAMILIES = {
    "random": gen_random,
    "jigsaw": gen_jigsaw,
    "atris": gen_atris,
    "satris": gen_satris,
}

__all__ = [
    "GenConfig", "GenerationFailed", "FAMILIES", "CATEGORIES",
    "gen_random", "gen_jigsaw", "gen_atris", "gen_satris", "shear_polygon",
]
