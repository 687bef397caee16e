"""Per-layer tracing from outside the program.

The tracer swaps chosen public functions and methods of polypack's modules
for timing wrappers, in every polypack module that holds a reference to
them, and restores the originals on `uninstall`.  A wrapper records calls,
inclusive seconds (outermost activation only) and, for some functions, a
count taken from the arguments or the result.  Exact predicate calls made
while `PlacementState.can_place` is active are counted apart, as the
solver's exact tests.
"""
from __future__ import annotations

import sys
import time

# (layer.name, module, class or None, attribute, extra count or None)
#   "true": calls that returned True; "len": total len() of the results;
#   "bytes": total len() of the first argument; "items": total n_items of
#   the returned instances.
TARGETS = (
    ("solver.solve_greedy", "solver", None, "solve_greedy", None),
    ("solver.improve_local", "solver", None, "improve_local", None),
    ("solver.find_offset", "solver", None, "find_offset", None),
    ("solver.can_place", "solver", "PlacementState", "can_place", "true"),
    ("solver.place", "solver", "PlacementState", "place", None),
    ("solver.remove", "solver", "PlacementState", "remove", None),
    ("verifier.verify", "verifier", None, "verify", None),
    ("verifier.build_index", "verifier", None, "build_index", None),
    ("verifier.candidate_pairs", "verifier", "QuadTree", "candidate_pairs", "len"),
    ("verifier.quadtree_insert", "verifier", "QuadTree", "insert", None),
    ("verifier.quadtree_query", "verifier", "QuadTree", "query", "len"),
    ("verifier.quadtree_remove", "verifier", "QuadTree", "remove", None),
    ("geom.interiors_overlap", "geom", None, "interiors_overlap", "true"),
    ("geom.contained_in_convex", "geom", None, "contained_in_convex", None),
    ("geom.polygon_init", "geom", "Polygon", "__init__", None),
    ("geom.convex_hull", "geom", None, "convex_hull", None),
    ("model.read_instance", "model", None, "read_instance", "bytes"),
    ("model.read_solution", "model", None, "read_solution", "bytes"),
    ("model.write_instance", "model", None, "write_instance", None),
    ("model.write_solution", "model", None, "write_solution", None),
    ("generators.gen_random", "generators", None, "gen_random", "items"),
    ("generators.gen_jigsaw", "generators", None, "gen_jigsaw", "items"),
    ("generators.gen_atris", "generators", None, "gen_atris", "items"),
    ("generators.gen_satris", "generators", None, "gen_satris", "items"),
    ("valuation.assign_values", "valuation", None, "assign_values", None),
    ("selection.compute_metrics", "selection", None, "compute_metrics", None),
    ("selection.select_from_features", "selection", None, "select_from_features", None),
    ("scoring.build_leaderboard", "scoring", None, "build_leaderboard", None),
)

EXACT = ("geom.interiors_overlap", "geom.contained_in_convex")



def _calls(key):
    return lambda c: c[key][0]


def _secs(key):
    return lambda c: c[key][1]


def _extra(key):
    return lambda c: c[key][2]


def _ratio(num, den):
    return lambda c: num(c) / den(c) if den(c) else 0.0


# Per-layer metrics as named in BENCHMARK.json: name -> (unit, getter).
# A getter reads one round's counters.
PER_LAYER = {
    "solver.solve_greedy.s": ("s", _secs("solver.solve_greedy")),
    "solver.improve_local.s": ("s", _secs("solver.improve_local")),
    "solver.find_offset.calls": ("count", _calls("solver.find_offset")),
    "solver.find_offset.s": ("s", _secs("solver.find_offset")),
    "solver.can_place.calls": ("count", _calls("solver.can_place")),
    "solver.can_place.s": ("s", _secs("solver.can_place")),
    "solver.can_place.accept_ratio": (
        "ratio", _ratio(_extra("solver.can_place"), _calls("solver.can_place"))),
    "solver.place.calls": ("count", _calls("solver.place")),
    "solver.remove.calls": ("count", _calls("solver.remove")),
    "solver.exact_tests_per_placed": (
        "ratio", _ratio(lambda c: c["exact_in_can_place"],
                        lambda c: c["items_placed"])),
    "verifier.verify.calls": ("count", _calls("verifier.verify")),
    "verifier.verify.s": ("s", _secs("verifier.verify")),
    "verifier.build_index.s": ("s", _secs("verifier.build_index")),
    "verifier.candidate_pairs.s": ("s", _secs("verifier.candidate_pairs")),
    "verifier.candidate_pairs.pairs": ("count", _extra("verifier.candidate_pairs")),
    "verifier.quadtree_insert.calls": ("count", _calls("verifier.quadtree_insert")),
    "verifier.quadtree_insert.s": ("s", _secs("verifier.quadtree_insert")),
    "verifier.quadtree_query.calls": ("count", _calls("verifier.quadtree_query")),
    "verifier.quadtree_query.s": ("s", _secs("verifier.quadtree_query")),
    "verifier.quadtree_query.candidates": ("count", _extra("verifier.quadtree_query")),
    "verifier.quadtree_remove.calls": ("count", _calls("verifier.quadtree_remove")),
    "verifier.quadtree_remove.s": ("s", _secs("verifier.quadtree_remove")),
    "geom.interiors_overlap.calls": ("count", _calls("geom.interiors_overlap")),
    "geom.interiors_overlap.s": ("s", _secs("geom.interiors_overlap")),
    "geom.interiors_overlap.hit_ratio": (
        "ratio", _ratio(_extra("geom.interiors_overlap"),
                        _calls("geom.interiors_overlap"))),
    "geom.contained_in_convex.calls": ("count", _calls("geom.contained_in_convex")),
    "geom.contained_in_convex.s": ("s", _secs("geom.contained_in_convex")),
    "geom.polygon_init.calls": ("count", _calls("geom.polygon_init")),
    "geom.polygon_init.s": ("s", _secs("geom.polygon_init")),
    "geom.convex_hull.calls": ("count", _calls("geom.convex_hull")),
    "geom.convex_hull.s": ("s", _secs("geom.convex_hull")),
    "model.read_instance.s": ("s", _secs("model.read_instance")),
    "model.read_solution.s": ("s", _secs("model.read_solution")),
    "model.bytes_parsed": (
        "bytes", lambda c: c["model.read_instance"][2] + c["model.read_solution"][2]),
    "model.write_instance.s": ("s", _secs("model.write_instance")),
    "model.write_solution.s": ("s", _secs("model.write_solution")),
    "generators.gen_random.s": ("s", _secs("generators.gen_random")),
    "generators.gen_jigsaw.s": ("s", _secs("generators.gen_jigsaw")),
    "generators.gen_atris.s": ("s", _secs("generators.gen_atris")),
    "generators.gen_satris.s": ("s", _secs("generators.gen_satris")),
    "generators.items": (
        "count", lambda c: sum(c[k][2] for k in (
            "generators.gen_random", "generators.gen_jigsaw",
            "generators.gen_atris", "generators.gen_satris"))),
    "valuation.assign_values.s": ("s", _secs("valuation.assign_values")),
    "selection.compute_metrics.calls": ("count", _calls("selection.compute_metrics")),
    "selection.compute_metrics.s": ("s", _secs("selection.compute_metrics")),
    "selection.select_from_features.s": ("s", _secs("selection.select_from_features")),
    "scoring.build_leaderboard.s": ("s", _secs("scoring.build_leaderboard")),
}


class Tracer:
    """Counters per traced function: [calls, inclusive seconds, extra]."""

    def __init__(self, program):
        self.program = program
        self.counters = {}
        self._active = {}
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.counters = {t[0]: [0, 0.0, 0] for t in TARGETS}
        self.counters["exact_in_can_place"] = 0
        self.counters["items_placed"] = 0
        self._active = {t[0]: 0 for t in TARGETS}

    def _wrap(self, key, fn, extra):
        clock = time.perf_counter
        exact = key in EXACT

        def traced(*args, **kwargs):
            # looked up per call: reset() replaces both dicts
            c = self.counters[key]
            depth = self._active
            if exact and depth["solver.can_place"]:
                self.counters["exact_in_can_place"] += 1
            outer = depth[key] == 0
            depth[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[key] -= 1
                if outer:
                    c[1] += clock() - t0
            c[0] += 1
            if extra == "true":
                c[2] += result is True
            elif extra == "len":
                c[2] += len(result)
            elif extra == "bytes":
                c[2] += len(args[0])
            elif extra == "items":
                c[2] += len(result.items)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "polypack" or name.startswith("polypack."))]
        for key, mod, cls, attr, extra in TARGETS:
            owner = getattr(self.program, mod)
            if cls is not None:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(key, original, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original, extra)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def snapshot(self, items_placed: int = 0) -> dict:
        """Per-layer metric values of the counters since the last reset."""
        c = self.counters
        c["items_placed"] = items_placed
        return {name: getter(c) for name, (_, getter) in PER_LAYER.items()}

