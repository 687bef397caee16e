import dataclasses
import random
import time

import pytest

from polypack.generators import GenConfig, gen_atris, gen_jigsaw, gen_random, gen_satris
from polypack.geom import Polygon
from polypack.model import Instance, Item, Solution
from polypack.solver import (Ordering, SolverConfig, improve_local,
                             priority_order, shelf_pack, solution_value,
                             solve, solve_greedy)
from polypack.verifier import verify

FAST = SolverConfig(time_budget=10.0, seed=1)


def box_instance(side, items, name="s"):
    container = Polygon([(0, 0), (side, 0), (side, side), (0, side)])
    return Instance(name, container, tuple(items))


def square_item(s, value=None):
    return Item(Polygon([(0, 0), (s, 0), (s, s), (0, s)]), value or s * s)


class TestSolverConfig:
    def test_fields_are_budget_and_seed(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == \
            ["time_budget", "seed"]

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="time_budget"):
            SolverConfig(time_budget=budget)


class TestGreedy:
    def test_single_fitting_item(self):
        inst = box_instance(10, [square_item(4)])
        sol = solve_greedy(inst, FAST)
        assert sol.n_placed == 1
        rep = verify(inst, sol)
        assert rep.valid and rep.packed_value == 16

    def test_oversized_item_skipped(self):
        inst = box_instance(5, [square_item(9)])
        sol = solve_greedy(inst, FAST)
        assert sol.n_placed == 0
        assert verify(inst, sol).valid

    def test_bottom_left_preference(self):
        inst = box_instance(20, [square_item(5)])
        sol = solve_greedy(inst, FAST)
        assert sol.placements[0].offset == (0, 0)

    def test_output_always_verifies(self):
        for seed in range(10):
            inst = gen_random(GenConfig(seed=seed, n_target=12))
            sol = solve_greedy(inst, FAST)
            assert verify(inst, sol).valid

    def test_priority_orderings_differ(self):
        items = [square_item(3, value=1), square_item(2, value=50),
                 square_item(6, value=10)]
        inst = box_instance(30, items)
        assert priority_order(inst, Ordering.VALUE_DESC)[0] == 1
        assert priority_order(inst, Ordering.AREA_DESC)[0] == 2
        # density: 50/4 > 10/36 > 1/9
        assert priority_order(inst, Ordering.VALUE_DENSITY)[0] == 1

    def test_deterministic_bytes(self):
        from polypack.model import write_solution
        inst = gen_atris(GenConfig(seed=3, n_target=25))
        cfg = SolverConfig(time_budget=30.0, seed=7)
        a = write_solution(solve(inst, cfg))
        b = write_solution(solve(inst, cfg))
        assert a == b


class TestShelfMode:
    def test_moon_moser_random_square_sets(self):
        rng = random.Random(91)
        for trial in range(50):
            side = rng.randint(20, 60)
            budget = side * side / 2
            items = []
            total = 0
            while True:
                s = rng.randint(1, max(1, side // 3))
                if total + s * s > budget:
                    break
                items.append(square_item(s))
                total += s * s
            if not items:
                continue
            inst = box_instance(side, items, name=f"mm{trial}")
            sol = shelf_pack(inst)
            assert sol.n_placed == len(items), f"trial {trial}: shelf left items out"
            assert verify(inst, sol).valid

    def test_shelf_requires_rect_container(self):
        tri = Polygon([(0, 0), (30, 0), (0, 30)])
        inst = Instance("tri", tri, (square_item(3),))
        with pytest.raises(ValueError, match="rectangular"):
            shelf_pack(inst)

    def test_past_deadline_places_nothing(self):
        inst = box_instance(10, [square_item(3), square_item(2)])
        assert shelf_pack(inst, deadline=time.monotonic() - 1).n_placed == 0
        assert shelf_pack(inst).n_placed == 2


class TestJigsawBaseline:
    def test_greedy_recovers_most_of_single_copy(self):
        # regression floor: >= 60% of total value on unperturbed jigsaws
        for seed in (0, 1, 2):
            inst = gen_jigsaw(GenConfig(seed=seed, jigsaw_line_count=5,
                                        jigsaw_perturb_amplitude=0))
            total = sum(it.value for it in inst.items)
            sol = solve(inst, SolverConfig(time_budget=15.0, seed=2))
            rep = verify(inst, sol)
            assert rep.valid
            assert rep.packed_value >= total * 60 // 100


class TestLocalSearch:
    def test_monotone_from_empty(self):
        inst = gen_random(GenConfig(seed=5, n_target=15))
        out = improve_local(inst, Solution(inst.name), FAST)
        assert verify(inst, out).valid
        assert solution_value(inst, out) >= 0

    def test_forced_insert(self):
        inst = box_instance(10, [square_item(4), square_item(3)])
        # start with only item 0 placed; insert must add item 1
        from polypack.model import Placement
        partial = Solution(inst.name, (Placement(0, (0, 0)),))
        out = improve_local(inst, partial, FAST)
        assert out.n_placed == 2

    def test_invalid_start_rejected(self):
        from polypack.model import Placement
        inst = box_instance(10, [square_item(4), square_item(4)])
        bad = Solution(inst.name, (Placement(0, (0, 0)), Placement(1, (1, 1))))
        with pytest.raises(ValueError, match="verify"):
            improve_local(inst, bad, FAST)

    def test_never_decreases_and_often_improves(self):
        improved = 0
        total = 0
        for seed in range(20):
            family = (gen_random, gen_jigsaw, gen_atris)[seed % 3]
            if family is gen_jigsaw:
                inst = family(GenConfig(seed=seed, jigsaw_line_count=6,
                                        jigsaw_copies=2))
            else:
                inst = family(GenConfig(seed=seed, n_target=60))
            assert inst.n_items <= 160
            cfg = SolverConfig(time_budget=12.0, seed=seed)
            greedy = solve_greedy(inst, cfg)
            g_val = solution_value(inst, greedy)
            out = improve_local(inst, greedy, cfg)
            o_val = solution_value(inst, out)
            assert verify(inst, out).valid
            assert o_val >= g_val
            improved += o_val > g_val
            total += 1
        assert improved >= total // 2, f"local search improved only {improved}/{total}"


class TestSolveDispatch:
    def test_empty_instance(self):
        inst = box_instance(10, [])
        sol = solve(inst, FAST)
        assert sol.n_placed == 0
        assert verify(inst, sol).valid

    def test_single_oversized(self):
        inst = box_instance(4, [square_item(9)])
        sol = solve(inst, FAST)
        assert sol.n_placed == 0
        assert verify(inst, sol).valid

    def test_small_dispatch_uses_multiple_orderings(self):
        items = [square_item(s, value=v) for s, v in
                 [(6, 10), (5, 40), (4, 35), (3, 20), (2, 9), (2, 8)]]
        inst = box_instance(9, items)
        sol = solve(inst, SolverConfig(time_budget=10.0, seed=3))
        assert verify(inst, sol).valid
        assert solution_value(inst, sol) >= 75  # 40 + 35 at least

    def test_solutions_verify_across_families(self):
        for seed, family in enumerate((gen_random, gen_jigsaw, gen_atris)):
            if family is gen_jigsaw:
                inst = family(GenConfig(seed=seed, jigsaw_line_count=5))
            else:
                inst = family(GenConfig(seed=seed, n_target=30))
            sol = solve(inst, SolverConfig(time_budget=12.0, seed=4))
            assert verify(inst, sol).valid

    @pytest.mark.parametrize("family", [gen_random, gen_satris])
    def test_returns_within_budget(self, family):
        # a 60-item instance keeps local search busy well past 2 s, so the
        # budget, not convergence, ends the solve
        inst = family(GenConfig(seed=3, n_target=60))
        start = time.monotonic()
        sol = solve(inst, SolverConfig(time_budget=2.0, seed=1))
        assert time.monotonic() - start < 2.0 + 0.3
        assert verify(inst, sol).valid


class TestSkippedItemSoundness:
    def test_nongrid_only_fit_is_skipped_without_error(self):
        # diamond container: the unit square fits only at half-integer offsets
        diamond = Polygon([(1, 0), (2, 1), (1, 2), (0, 1)])
        inst = Instance("diamond", diamond,
                        (Item(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 5),))
        sol = solve(inst, FAST)
        assert sol.n_placed == 0  # skipped, not an error
        assert verify(inst, sol).valid
