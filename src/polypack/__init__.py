"""polypack: a self-contained toolkit for the maximum polygon packing problem.

Generate challenge instances (random, jigsaw, atris, satris), assign item
values, solve with a greedy + local-search baseline, verify solutions with
exact integer arithmetic accelerated by a sort-and-sweep broad phase, score
competing teams with the squared-ratio rule, and curate diverse benchmark
subsets.
"""

__version__ = "0.1.0"

from .geom import Polygon
from .model import (Instance, Item, Placement, Solution, load_instance,
                    load_solution, read_instance, read_solution,
                    save_instance, save_solution, write_instance,
                    write_solution)
from .generators import GenConfig, gen_atris, gen_jigsaw, gen_random, gen_satris
from .valuation import ValueKind, ValueSpec, assign_values
from .verifier import BoxIndex, QuadTree, VerifyReport, build_index, verify
from .scoring import SubmissionRecord, build_leaderboard, instance_score
from .selection import SelectionConfig, compute_metrics, select_from_features
from .solver import SolverConfig, improve_local, shelf_pack, solve, solve_greedy

__all__ = [
    "__version__", "Polygon",
    "Instance", "Item", "Placement", "Solution",
    "read_instance", "write_instance", "read_solution", "write_solution",
    "load_instance", "save_instance", "load_solution", "save_solution",
    "GenConfig", "gen_random", "gen_jigsaw", "gen_atris", "gen_satris",
    "ValueKind", "ValueSpec", "assign_values",
    "BoxIndex", "QuadTree", "VerifyReport", "build_index", "verify",
    "SubmissionRecord", "build_leaderboard", "instance_score",
    "SelectionConfig", "compute_metrics", "select_from_features",
    "SolverConfig", "solve", "solve_greedy", "improve_local", "shelf_pack",
]
