import dataclasses
import hashlib
import math
import random
import time

import pytest

from polypack.generators import GenConfig, gen_atris, gen_jigsaw, gen_random, gen_satris
import polypack.solver as solver_module
from polypack.geom import Polygon, containment_range, inner_fit
from polypack.model import Instance, Item, Solution, write_solution
from polypack.rng import Rng
from polypack.solver import (Ordering, PlacementState,
                             SolverConfig, find_offset, improve_local,
                             priority_order, shelf_pack, solve, solve_greedy)
from polypack.verifier import BoxIndex, verify

import oracles
from test_verifier import float_offset_starts

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
        assert priority_order(inst, Ordering.AREA_DESC)[0] == 2
        # density: 50/4 > 10/36 > 1/9
        assert priority_order(inst, Ordering.VALUE_DENSITY)[0] == 1

    @pytest.mark.parametrize("order", [[-1], [99], [0, 0], [2, 0, 2]])
    def test_order_must_be_distinct_item_indices(self, order):
        inst = gen_random(GenConfig(seed=3, n_target=6))
        assert inst.n_items < 99
        start = solve_greedy(inst, FAST, order=[0])
        with pytest.raises(ValueError, match="order"):
            solve_greedy(inst, FAST, order=order)
        with pytest.raises(ValueError, match="order"):
            improve_local(inst, start, FAST, order=order)

    def test_zero_deadline_places_nothing(self):
        # 0.0 is a deadline long past, not "no deadline"
        inst = gen_random(GenConfig(seed=3, n_target=6))
        assert solve_greedy(inst, FAST, deadline=0.0).n_placed == 0
        assert solve_greedy(inst, FAST).n_placed > 0

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

    @pytest.mark.parametrize("w, h", [(2, 11), (11, 4)])
    def test_item_larger_than_box_opens_no_shelf(self, w, h):
        # an item that sits on no shelf must not size or open one, or the
        # nine 3-squares no longer all find room
        big = Item(Polygon([(0, 0), (w, 0), (w, h), (0, h)]), 1)
        inst = box_instance(10, [square_item(3)] * 9 + [big])
        sol = shelf_pack(inst)
        assert {p.item_index for p in sol.placements} == set(range(9))
        assert verify(inst, sol).valid

    def test_past_deadline_places_nothing(self):
        inst = box_instance(10, [square_item(3), square_item(2)])
        assert shelf_pack(inst, deadline=time.monotonic() - 1).n_placed == 0
        assert shelf_pack(inst).n_placed == 2


class TestSolverPinnedOutput:
    """SHA-256 of write_solution for the benchmark's solve corpus and for
    120-item greedy fills: any change to where the solver puts an item
    shows up here."""

    @pytest.mark.parametrize("family, fields, sha256", [
        (gen_random, dict(seed=1, n_target=6),
         "14781588fa6e14c488730a04c24edb9d3204b70ebc02bcc76ffaf544771cc61b"),
        (gen_random, dict(seed=2, n_target=6),
         "3d26267b9b47114f766a855cdbfd83d101b327225458af3d22cd39d502ed90dd"),
        (gen_random, dict(seed=3, n_target=6),
         "115da357b870d5f644839e27604a46bc9fe642595216006eb87153dc82d768a2"),
        (gen_random, dict(seed=4, n_target=6),
         "58aa4ecf243894a0cf7927e4a54f75260d5575f5836cca95b3e86843640aeeb0"),
        (gen_atris, dict(seed=3, n_target=8),
         "16ed4470f376b257944467b5eddafee8505ca2589ef14e21c1784c0178158463"),
        (gen_atris, dict(seed=4, n_target=8),
         "186fe17182498008fda6f8bc9cc014908f3b722866b30388b6d4bdb6e2fcd9ed"),
        (gen_satris, dict(seed=3, n_target=8),
         "f06d73e87b7f25f9021a4b349af8c26ae510a09cfff6618187add291cba32360"),
        (gen_satris, dict(seed=4, n_target=8),
         "169fe0f6ee894ee07b1b033cbdc16a4c96a7406bb823d54875d651b63901175d"),
        (gen_jigsaw, dict(seed=9, jigsaw_line_count=5, jigsaw_copies=3),
         "1faea56695a9f8e0f27ab269848e5570db671eb2631872a550103371a9078957"),
        (gen_jigsaw, dict(seed=10, jigsaw_line_count=5, jigsaw_copies=3),
         "4e447dcc28a5900e139afd101d63d920506f66d5b23cd9483037cfbb8fcd9a15"),
        (gen_jigsaw, dict(seed=9, jigsaw_line_count=8, jigsaw_copies=3),
         "e48581bbb84faf4b0899545e62c610bb6e602282352da5ed988d409054ba7e94"),
        (gen_jigsaw, dict(seed=10, jigsaw_line_count=8, jigsaw_copies=3),
         "2148350aba7842a14a858ce8f542054851c458482a7a3b9448d40d243666ba2a"),
        (gen_jigsaw, dict(seed=11, jigsaw_line_count=8, jigsaw_copies=3),
         "57f9922f6e1f10c58b9cc4abbfde104b64889bc2b70350853518dd33e7032f1c"),
        (gen_jigsaw, dict(seed=12, jigsaw_line_count=8, jigsaw_copies=3),
         "af028f4d683e710d816c1833af37ccf23d376fb847f10f2f22e6c1111a12488c"),
    ])
    def test_solve_bytes(self, family, fields, sha256):
        sol = solve(family(GenConfig(**fields)), SolverConfig(time_budget=60.0, seed=1))
        assert hashlib.sha256(write_solution(sol)).hexdigest() == sha256

    # corpus configs whose local search path depends on the solver seed
    @pytest.mark.parametrize("family, fields, seed, sha256", [
        (gen_random, dict(seed=3, n_target=6), 2,
         "42068057172795f68d0f6e814cc2649220d5846949d26e769058c4bf05f02e0b"),
        (gen_random, dict(seed=3, n_target=6), 3,
         "0e443155b7ad01bc92c08ef757b8a0462b754132a1e9ee8e3e64c8f09ae26fb7"),
        (gen_atris, dict(seed=4, n_target=8), 2,
         "911e9d755f7f5eb349e25cde8efc6b8c330fe2b629b12eacac419e136fa10b37"),
        (gen_atris, dict(seed=4, n_target=8), 3,
         "911e9d755f7f5eb349e25cde8efc6b8c330fe2b629b12eacac419e136fa10b37"),
        (gen_satris, dict(seed=4, n_target=8), 2,
         "dbf615445f53aa4bab0ccf52bafed3c88610c12affa0aa6067481207d04595ec"),
        (gen_satris, dict(seed=4, n_target=8), 3,
         "e224ca68d03083a7e5f71c1e0198019907ad77dda6f162140e81787559257518"),
        (gen_jigsaw, dict(seed=9, jigsaw_line_count=8, jigsaw_copies=3), 2,
         "631317195d1a08ccdb0c0893df994ab2b1a491ec2c9c0ea1e2c7aa2c52617302"),
        (gen_jigsaw, dict(seed=9, jigsaw_line_count=8, jigsaw_copies=3), 3,
         "df582e1aa07ec61c6de742e8908abea7ab366ab7fd6c6c9deac9252f7e41140d"),
    ])
    def test_solve_bytes_other_seeds(self, family, fields, seed, sha256):
        sol = solve(family(GenConfig(**fields)), SolverConfig(time_budget=60.0, seed=seed))
        assert hashlib.sha256(write_solution(sol)).hexdigest() == sha256

    @pytest.mark.parametrize("family, sha256", [
        (gen_random, "ed95d57ab90232d133c7c0a0d33e23a61b9d1502313dd9f52ce7d53ad4653703"),
        (gen_atris, "fa390c78509cd8bb6ac9542dd83b5fab09eb338fcf6dbb3d7a48adefc53fb672"),
        (gen_satris, "7f71d59826e6dbabb9474e607995f6148fac7c887a1685474a9d566ce1b35579"),
    ])
    def test_greedy_bytes(self, family, sha256):
        inst = family(GenConfig(seed=1, n_target=120))
        sol = solve_greedy(inst, SolverConfig(time_budget=60.0, seed=0))
        assert hashlib.sha256(write_solution(sol)).hexdigest() == sha256

    def test_four_family_solves_pinned(self):
        """One SHA-256 over full solves of all four families for seeds 0-7,
        each under solver seed + 11: a change to any scan, exit or reused
        outcome that moves one item shows up here."""
        digest = hashlib.sha256()
        for seed in range(8):
            for inst in (gen_random(GenConfig(seed=seed, n_target=40)),
                         gen_atris(GenConfig(seed=seed, n_target=40)),
                         gen_satris(GenConfig(seed=seed, n_target=40)),
                         gen_jigsaw(GenConfig(seed=seed, jigsaw_line_count=6,
                                              jigsaw_copies=2))):
                sol = solve(inst, SolverConfig(time_budget=60.0, seed=seed + 11))
                digest.update(write_solution(sol))
        assert digest.hexdigest() == \
            "ab8348bd14e7ec03b4458afb9eec5fe56fa8879c065e3ca0e817e794908d19c2"


def cell_by_cell_find_offset(state, idx, coarse_cells):
    """Reference: the bottom-left grid scan that tests every cell with
    can_place, refined around the hit as find_offset does.  It passes no
    memo, so every cell's overlap test derives its no-fit half-planes
    afresh, against which find_offset's memoised scan is compared."""
    if state.polys[idx].area2 > state.free_area2:
        return None
    cb, b = state.instance.container.bbox, state.bboxes[idx]
    lox, hix, loy, hiy = cb[0] - b[0], cb[2] - b[2], cb[1] - b[1], cb[3] - b[3]
    if lox > hix or loy > hiy:
        return None

    def scan(x0, x1, y0, y1, step):
        for ty in range(y0, y1 + 1, step):
            for tx in range(x0, x1 + 1, step):
                if state.can_place(idx, (tx, ty)):
                    return (tx, ty)
        return None

    step = max(1, -(-max(hix - lox, hiy - loy) // coarse_cells))
    best = scan(lox, hix, loy, hiy, step)
    if best is None:
        return None
    while step > 1:
        prev, step = step, step // 2
        cand = scan(max(lox, best[0] - prev), min(hix, best[0] + prev),
                    max(loy, best[1] - prev), min(hiy, best[1] + prev), step)
        if cand is not None:
            best = cand
    return best


def transformed(inst, scale, shift):
    def move(poly):
        return Polygon([(x * scale + shift, y * scale + shift) for x, y in poly.coords])
    return Instance(inst.name, move(inst.container),
                    tuple(Item(move(it.polygon), it.value) for it in inst.items))


SCALE_SHIFTS = pytest.mark.parametrize("scale, shift", [
    (1, 0), (1, -(10 ** 9) - 7), (2 ** 30, 0), (2 ** 30, -(2 ** 45) - 3)])


def reference_instances():
    return [gen_random(GenConfig(seed=1, n_target=16)),
            gen_atris(GenConfig(seed=2, n_target=16)),
            gen_satris(GenConfig(seed=3, n_target=16)),
            gen_jigsaw(GenConfig(seed=4, jigsaw_line_count=5, jigsaw_copies=2))]


def grow(state, idx, hit, rng):
    """Place item idx at a random feasible offset, else at `hit` if any."""
    cb, b = state.instance.container.bbox, state.bboxes[idx]
    xs, ys = (cb[0] - b[0], cb[2] - b[2]), (cb[1] - b[1], cb[3] - b[3])
    off = hit
    if xs[0] <= xs[1] and ys[0] <= ys[1]:
        for _ in range(10):
            cand = (rng.randint(*xs), rng.randint(*ys))
            if state.can_place(idx, cand):
                off = cand
                break
    if off is not None:
        state.place(idx, off)


class TestFindOffsetReference:
    """find_offset skips the cells exact arithmetic rules out; it must return
    the cell the cell-by-cell scan returns, on any state."""

    @SCALE_SHIFTS
    def test_matches_cell_by_cell_scan(self, scale, shift, monkeypatch):
        rng = random.Random(scale + shift)
        compared = found = 0
        for base in reference_instances():
            inst = transformed(base, scale, shift)
            state = PlacementState(inst)
            order = list(range(inst.n_items))
            rng.shuffle(order)
            for idx in order:
                for cells in (7, 24, 48):
                    monkeypatch.setattr(solver_module, "COARSE_CELLS", cells)
                    got = find_offset(state, idx)
                    assert got == cell_by_cell_find_offset(state, idx, cells), \
                        (inst.name, idx, cells)
                    compared += 1
                    found += got is not None
                grow(state, idx, got, rng)
        assert compared > 150 and 0 < found < compared

    @SCALE_SHIFTS
    def test_matches_after_removals(self, scale, shift, monkeypatch):
        # swap-shaped states: items removed from a grown state leave holes
        # among the remaining blockers, as a swap move does
        rng = random.Random(scale + shift + 1)
        compared = found = 0
        for base in reference_instances():
            inst = transformed(base, scale, shift)
            state = PlacementState(inst)
            order = list(range(inst.n_items))
            rng.shuffle(order)
            for idx in order:
                grow(state, idx, find_offset(state, idx), rng)
            for _ in range(2):
                removed = rng.sample(sorted(state.offsets), rng.randint(1, 2))
                offsets = [state.offsets[i] for i in removed]
                for i in removed:
                    state.remove(i)
                others = [i for i in range(inst.n_items)
                          if i not in state.offsets and i not in removed]
                for idx in removed + rng.sample(others, min(2, len(others))):
                    for cells in (24, 48):
                        monkeypatch.setattr(solver_module, "COARSE_CELLS", cells)
                        got = find_offset(state, idx)
                        assert got == cell_by_cell_find_offset(state, idx, cells), \
                            (inst.name, removed, idx, cells)
                        compared += 1
                        found += got is not None
                monkeypatch.undo()
                for i, off in zip(removed, offsets):
                    state.place(i, off)
        assert compared >= 40 and found > 0

    def test_one_box_query_per_scan(self, monkeypatch):
        # a find_offset call that scans queries the box index exactly once,
        # not once per refinement scan or per probed cell
        queries = []
        probes = set()
        real_query, real_exit = BoxIndex.query, solver_module.no_fit_exit

        def counting_query(self, box):
            queries.append(box)
            return real_query(self, box)

        def recording_exit(aparts, bparts, tx, dx, dy, memo=None):
            # the probed cell (tx, ty): the blocker owning bparts is at ty + dy
            oy, = [state.offsets[j][1] for j in state.offsets
                   if state.polys[j].parts is bparts]
            probes.add((tx, oy - dy))
            return real_exit(aparts, bparts, tx, dx, dy, memo)

        monkeypatch.setattr(BoxIndex, "query", counting_query)
        monkeypatch.setattr(solver_module, "no_fit_exit", recording_exit)
        inst = gen_atris(GenConfig(seed=3, n_target=60))
        state = PlacementState(inst)
        most_probes = most_scans = 0
        for idx in priority_order(inst, Ordering.VALUE_DENSITY):
            queries.clear()
            probes.clear()
            # the coarse scan, then one per halving of its step down to 1
            lox, hix, loy, hiy, _ = state.fits[idx]
            scans = max(1, -(-max(hix - lox, hiy - loy) // 24)).bit_length()
            scanned = (lox <= hix and loy <= hiy
                       and state.polys[idx].area2 <= state.free_area2)
            off = find_offset(state, idx)
            assert len(queries) == scanned, (idx, len(queries), scans)
            most_probes = max(most_probes, len(probes))
            most_scans = max(most_scans, scans)
            if off is not None:
                state.place(idx, off)
        # a query per probed cell would have broken the bound above
        assert most_probes > 10 * most_scans

    @pytest.mark.parametrize("scale, most_exits", [(1, 3), (10 ** 4, 16)])
    def test_blocked_rows_are_skipped(self, scale, most_exits, monkeypatch):
        # a full-width 100x60 rectangle in a 100x100 container: the no-fit
        # polygon of the first probe holds both end columns of every row
        # below 60, so each scan jumps there instead of probing each row
        exits = []
        real_exit = solver_module.no_fit_exit

        def counting_exit(*args):
            exits.append(args)
            return real_exit(*args)

        def rect(w, h):
            return Polygon([(0, 0), (w * scale, 0), (w * scale, h * scale), (0, h * scale)])

        inst = Instance("rows", rect(100, 100), (Item(rect(100, 60), 1), Item(rect(10, 10), 1)))
        state = PlacementState(inst)
        state.place(0, (0, 0))
        monkeypatch.setattr(solver_module, "no_fit_exit", counting_exit)
        assert find_offset(state, 1) == (0, 60 * scale)
        assert len(exits) <= most_exits
        if scale == 1:
            assert cell_by_cell_find_offset(state, 1, 24) == (0, 60)

    @pytest.mark.parametrize("side, blocker, shift", [
        (5_000, 1_001, 0), (5_000, 1_001, -(10 ** 9) - 7),
        (10 ** 6 + 3, 123_457, 2 ** 40 + 1)])
    def test_refines_to_step_one_at_large_coordinates(self, side, blocker, shift):
        # a coarse step of 128 or more takes over six halvings to reach 1;
        # the item must still land exactly against the blocker's right side
        def square(s):
            return Polygon([(shift, shift), (shift + s, shift),
                            (shift + s, shift + s), (shift, shift + s)])

        inst = Instance("wide", square(side),
                        (Item(square(blocker), 1), Item(square(999), 1)))
        state = PlacementState(inst)
        state.place(0, (0, 0))
        lox, hix, loy, hiy, _ = state.fits[1]
        assert -(-max(hix - lox, hiy - loy) // 24) >= 128
        got = find_offset(state, 1)
        assert got == (blocker, 0)
        assert got == cell_by_cell_find_offset(state, 1, 24)


class TestRowRange:
    """The scan reads each row from `geom.inner_fit` (the offset box plus the
    slanted edges' half-planes), built once per item in `PlacementState`;
    every row, including those just outside the box, must equal the row an
    independent oracle computes from every container edge and item vertex."""

    CONTAINERS = {
        "rectangle": [(0, 0), (40, 0), (40, 30), (0, 30)],
        "trapezoid": [(0, 0), (50, 0), (38, 30), (9, 30)],
        "hexagon": [(20, 0), (40, 10), (40, 30), (20, 40), (0, 30), (0, 10)],
        # one slanted edge: a vertical side is the other tx bound
        "left-triangle": [(0, 0), (40, 0), (0, 30)],
        "right-triangle": [(0, 0), (40, 0), (40, 30)],
    }
    ITEMS = [[(0, 0), (5, 0), (5, 5), (0, 5)],
             [(0, 0), (9, 0), (2, 4)],
             [(0, 0), (8, 0), (8, 2), (2, 2), (2, 7), (0, 7)],
             [(0, 0), (13, 0), (13, 1), (0, 1)]]

    @pytest.mark.parametrize("scale, shift", [(1, 0), (2 ** 30, -(2 ** 45) - 3)])
    def test_rows_match_full_inner_fit(self, scale, shift):
        def move(pts):
            return [(x * scale + shift, y * scale + shift) for x, y in pts]

        rng = random.Random(scale)
        for name, pts in self.CONTAINERS.items():
            container = move(pts)
            inst = Instance(name, Polygon(container),
                            tuple(Item(Polygon(move(it)), 1) for it in self.ITEMS))
            state = PlacementState(inst)
            for idx, item in enumerate(inst.items):
                fit = state.fits[idx]
                assert fit == inner_fit(inst.container, item.polygon)
                planes = fit[4]
                if name == "rectangle":
                    assert planes == ()
                else:
                    assert planes and all(ex and ey for ex, ey, _ in planes)
                loy = min(y for _, y in container) - min(y for _, y in item.polygon.coords)
                hiy = max(y for _, y in container) - max(y for _, y in item.polygon.coords)
                if scale == 1:
                    rows = range(loy - 1, hiy + 2)
                else:
                    marks = [loy + k * (hiy - loy) // 40 for k in range(41)]
                    rows = sorted({min(hiy, max(loy, m + d))
                                   for m in marks for d in (-1, 0, 1)} |
                                  {rng.randint(loy, hiy) for _ in range(100)} |
                                  {loy - 1, hiy + 1})
                for ty in rows:
                    ref = oracles.containment_row(container, item.polygon.coords, ty)
                    assert containment_range(fit, ty) == ref, (name, idx, ty)


class TestKnownOutcomes:
    """The exact facts local search's order search rests on: an item that
    found no offset keeps failing as items are added, so the fill of the
    default order is a density-order greedy start itself; and an order
    already filled is not filled again."""

    def test_failed_item_keeps_failing_as_items_are_added(self, monkeypatch):
        # placing an item only blocks cells, so a find_offset failure stands
        rng = random.Random(11)
        instances = [gen_random(GenConfig(seed=1, n_target=16)),
                     gen_atris(GenConfig(seed=2, n_target=16)),
                     gen_satris(GenConfig(seed=3, n_target=16)),
                     gen_jigsaw(GenConfig(seed=4, jigsaw_line_count=5, jigsaw_copies=2))]
        rechecked = 0
        for inst in instances:
            state = PlacementState(inst)
            cb = inst.container.bbox
            failed = set()
            order = list(range(inst.n_items))
            rng.shuffle(order)
            for idx in order:
                for other in [i for i in range(inst.n_items) if i not in state.offsets]:
                    for cells in (24, 48):
                        monkeypatch.setattr(solver_module, "COARSE_CELLS", cells)
                        got = find_offset(state, other)
                        if (other, cells) in failed:
                            assert got is None, (inst.name, other, cells)
                            rechecked += 1
                        elif got is None:
                            failed.add((other, cells))
                # add a random feasible item
                b = state.bboxes[idx]
                xs, ys = (cb[0] - b[0], cb[2] - b[2]), (cb[1] - b[1], cb[3] - b[3])
                if xs[0] > xs[1] or ys[0] > ys[1]:
                    continue
                for _ in range(20):
                    off = (rng.randint(*xs), rng.randint(*ys))
                    if state.can_place(idx, off):
                        state.place(idx, off)
                        break
        assert rechecked > 100

    def test_order_already_filled_is_not_filled_again(self, monkeypatch):
        # two items have two orders: the start's, and the one every swap
        # draws; each is filled at most once, however many steps swap
        inst = box_instance(10, [square_item(4), square_item(3)])
        start = solve_greedy(inst, FAST)
        fills = 0
        real_fill = solver_module._fill

        def counting_fill(*args):
            nonlocal fills
            fills += 1
            return real_fill(*args)

        monkeypatch.setattr(solver_module, "_fill", counting_fill)
        for seed in range(20):
            fills = 0
            out = improve_local(inst, start, SolverConfig(time_budget=60.0, seed=seed))
            assert out.n_placed == 2
            assert fills == 1, seed


class TestCertificates:
    """A find_offset outcome is reused, without a call, on any placed set
    that holds every blocker of its certificate at its recorded offset and
    meets the item at none of its hits; solve keeps one record of these
    certificates across all its fills."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        real_find_offset = solver_module.find_offset

        def counting_find_offset(state, idx):
            calls.append(idx)
            return real_find_offset(state, idx)

        monkeypatch.setattr(solver_module, "find_offset", counting_find_offset)
        return calls

    @staticmethod
    def fill(inst, order, record=None):
        state = PlacementState(inst, record)
        solver_module._fill(state, order, math.inf)
        return state

    @pytest.mark.parametrize("scale, shift", [(1, 0), (2 ** 30, -(2 ** 45) - 3)])
    def test_record_answers_equal_find_offset(self, scale, shift, monkeypatch):
        # every certificate that holds, not only the first, must give the
        # outcome a from-scratch find_offset gives on the same placed set
        held = {True: 0, False: 0}  # by whether the outcome is a cell
        moved = 0  # rounds that put a removed item back elsewhere
        real_certified = solver_module._certified
        own = None  # the current instance's record, which no fill reads

        def checking_certified(state, idx):
            # the fresh call runs on a copy of the placed set with its own
            # record, so the shared record gains no certificate from it
            probe = PlacementState(state.instance, own)
            for j, off in state.offsets.items():
                probe.place(j, off)
            fresh = find_offset(probe, idx)
            certs = state.record.certs
            every = certs[idx]
            for cert in every:
                certs[idx] = [cert]
                if real_certified(state, idx) is not None:
                    assert cert[0] == fresh, (state.instance.name, idx)
                    held[fresh is not None] += 1
            certs[idx] = every
            return real_certified(state, idx)

        monkeypatch.setattr(solver_module, "_certified", checking_certified)
        rng = random.Random(scale + shift + 13)
        for base in reference_instances():
            inst = transformed(base, scale, shift)
            record, own = solver_module.Record(inst), solver_module.Record(inst)
            density = priority_order(inst, Ordering.VALUE_DENSITY)
            # the multi-start orders, each filled on the shared record
            starts = [density, priority_order(inst, Ordering.AREA_DESC)]
            for _ in range(3):
                starts.append(rng.sample(density, len(density)))
            fills = [self.fill(inst, tuple(o), record) for o in starts]
            for o, got in zip(starts, fills):
                assert got.offsets == self.fill(inst, o).offsets, inst.name
            # then a chain of swaps, each refilled on the shared record
            order, current = tuple(density), fills[0]
            n = len(order)
            for _ in range(12):
                i = rng.randrange(n)
                j = min(n - 1, max(0, i + rng.randint(-8, 8)))
                cand = list(order)
                cand[i], cand[j] = cand[j], cand[i]
                cand = tuple(cand)
                got = self.fill(inst, cand, record)
                assert got.offsets == self.fill(inst, cand).offsets, (inst.name, i, j)
                if got.value >= current.value:
                    order, current = cand, got
            # then rounds on the current state itself, whose certificates are
            # on the record: remove one or two items, try one at a random
            # feasible offset, and refill the rest; a blocker gone or moved
            # must fail its check
            for _ in range(5):
                gone = rng.sample(sorted(current.offsets), min(2, len(current.offsets)))
                old = {k: current.offsets[k] for k in gone}
                for k in gone:
                    current.remove(k)
                grow(current, gone[0], None, rng)
                moved += current.offsets.get(gone[0], old[gone[0]]) != old[gone[0]]
                rest = [k for k in order if k not in current.offsets]
                apart = PlacementState(inst)
                for k, off in current.offsets.items():
                    apart.place(k, off)
                solver_module._fill(current, rest, math.inf)
                solver_module._fill(apart, rest, math.inf)
                assert current.offsets == apart.offsets, inst.name
                assert verify(inst, current.to_solution()).valid, inst.name
        # 239 and 374 at plain coordinates, 252 and 371 scaled and shifted
        assert held[True] > 30 and held[False] > 60, held
        assert moved >= 4, moved  # 7 of 20 rounds, and 8 scaled and shifted

    def test_moved_blocker_fails_its_check(self):
        # the 3-square's certificate has the 6-square at (0, 0) as its one
        # blocker; once the 6-square moves to (4, 0) on the same state, the
        # certificate must not hold, or the 3-square would overlap it
        inst = box_instance(10, [square_item(6), square_item(3)])
        state = self.fill(inst, (0, 1), solver_module.Record(inst))
        assert state.offsets == {0: (0, 0), 1: (6, 0)}
        state.remove(0)
        state.remove(1)
        state.place(0, (4, 0))
        solver_module._fill(state, (1,), math.inf)
        assert state.offsets == {0: (4, 0), 1: (0, 0)}
        assert verify(inst, state.to_solution()).valid

    def test_covered_hit_calls_find_offset(self, monkeypatch):
        # the 3-square's certificate has the 6-square as its one blocker and
        # its hit at (6, 0); in the second fill the 6-square is in place but
        # the 2-square covers that hit, so the certificate must not hold
        inst = box_instance(10, [square_item(6), square_item(3), square_item(2)])
        record = solver_module.Record(inst)
        first = self.fill(inst, (0, 1), record)
        assert first.offsets == {0: (0, 0), 1: (6, 0)}
        assert [c[1] for c in record.certs[1]] == [(0,)]
        calls = self.counting(monkeypatch)
        second = self.fill(inst, (0, 2, 1), record)
        assert calls == [2, 1]
        assert second.offsets == {0: (0, 0), 2: (6, 0), 1: (6, 2)}
        assert verify(inst, second.to_solution()).valid

    def test_known_outcomes_cost_no_call(self, monkeypatch):
        # the 6-square leaves an L of width 4, where the 5-square fails with
        # the 6-square as its one blocker; with the 2-square added too, the
        # failure is reused without a call
        inst = box_instance(10, [square_item(6), square_item(5), square_item(2)])
        record = solver_module.Record(inst)
        first = self.fill(inst, (0, 1), record)
        assert first.offsets == {0: (0, 0)}
        assert [c[:2] for c in record.certs[1]] == [(None, (0,))]
        calls = self.counting(monkeypatch)
        second = self.fill(inst, (0, 2, 1), record)
        assert calls == [2]
        assert second.offsets == {0: (0, 0), 2: (6, 0)}
        # a second identical fill on the same record makes no call at all
        for base in reference_instances():
            record = solver_module.Record(base)
            order = tuple(priority_order(base, Ordering.VALUE_DENSITY))
            calls.clear()
            first = self.fill(base, order, record)
            assert len(calls) > 5
            calls.clear()
            assert self.fill(base, order, record).offsets == first.offsets
            assert calls == []

    def test_swap_of_two_failing_items_costs_no_call(self, monkeypatch):
        # the 6-square leaves an L of width 4, where both 5-squares fail with
        # the 6-square as their one blocker; after the fill of (0, 1, 2, 3),
        # every outcome of the swapped order is certified on the record
        inst = box_instance(10, [square_item(6), square_item(5),
                                 square_item(5), square_item(2)])
        record = solver_module.Record(inst)
        first = self.fill(inst, (0, 1, 2, 3), record)
        assert set(first.offsets) == {0, 3}
        calls = self.counting(monkeypatch)
        second = self.fill(inst, (0, 2, 1, 3), record)
        assert calls == []
        assert second.offsets == first.offsets

    def test_area_failure_is_not_recorded(self):
        # after the 8-square the 7-square fails the free-area test, which
        # depends on no blocker: on an empty container it must still fit
        inst = box_instance(10, [square_item(8), square_item(7)])
        record = solver_module.Record(inst)
        assert self.fill(inst, (0, 1), record).offsets == {0: (0, 0)}
        assert record.certs[1] == []
        assert self.fill(inst, (1, 0), record).offsets == {1: (0, 0)}

    def test_solve_builds_one_record_and_verifies_nothing(self, monkeypatch):
        # solve fills every start and refill on one record and hands its own
        # fill to the search unverified; solve_greedy on each start order and
        # improve_local from the first best, each on a record of its own,
        # give the same output with more find_offset calls
        inst = gen_jigsaw(GenConfig(seed=9, jigsaw_line_count=5, jigsaw_copies=3))
        assert inst.n_items <= 25  # the multi-start runs
        cfg = SolverConfig(time_budget=60.0, seed=1)
        calls = self.counting(monkeypatch)
        records, verified = [], []
        real_record, real_verify = solver_module.Record, solver_module.verify

        def counting_record(instance):
            records.append(instance)
            return real_record(instance)

        def counting_verify(*args):
            verified.append(args)
            return real_verify(*args)

        monkeypatch.setattr(solver_module, "Record", counting_record)
        monkeypatch.setattr(solver_module, "verify", counting_verify)
        shared = write_solution(solve(inst, cfg))
        assert len(records) == 1 and verified == []
        shared_calls = len(calls)
        base = priority_order(inst, Ordering.VALUE_DENSITY)
        orders = [base, priority_order(inst, Ordering.AREA_DESC)]
        shuffle_rng = Rng(cfg.seed, stream=0x5132)
        for _ in range(3):
            orders.append(list(base))
            shuffle_rng.shuffle(orders[-1])
        calls.clear()
        starts = [solve_greedy(inst, cfg, order=o) for o in orders]
        values = [verify(inst, s).packed_value for s in starts]
        k = values.index(max(values))
        apart = write_solution(improve_local(inst, starts[k], cfg, order=orders[k]))
        assert apart == shared and shared_calls < len(calls)
        assert len(records) == 1 + len(orders) + 1 and len(verified) == 1

    def test_solve_output_equals_solve_without_certificates(self, monkeypatch):
        # a certificate only saves a find_offset call: with none held, every
        # position of every fill and refill scans, and solve writes the same
        # bytes; both sides of the n <= 25 multi-start rule are covered
        instances = reference_instances() + [
            gen_jigsaw(GenConfig(seed=9, jigsaw_line_count=8, jigsaw_copies=3)),
            gen_random(GenConfig(seed=3, n_target=40))]
        assert {inst.n_items <= 25 for inst in instances} == {True, False}
        cfgs = [SolverConfig(time_budget=60.0, seed=seed) for seed in range(3)]
        certified = [write_solution(solve(inst, cfg))
                     for inst in instances for cfg in cfgs]
        monkeypatch.setattr(solver_module, "_certified", lambda state, idx: None)
        scanned = [write_solution(solve(inst, cfg))
                   for inst in instances for cfg in cfgs]
        assert scanned == certified


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
        assert verify(inst, out).packed_value >= 0

    def test_forced_insert(self):
        inst = box_instance(10, [square_item(4), square_item(3)])
        # start with only item 0 placed; insert must add item 1
        from polypack.model import Placement
        partial = Solution(inst.name, (Placement(0, (0, 0)),))
        out = improve_local(inst, partial, FAST)
        assert out.n_placed == 2

    def test_zero_deadline_returns_start(self):
        inst = gen_random(GenConfig(seed=3, n_target=6))
        start = solve_greedy(inst, FAST, order=[0])
        assert start.n_placed == 1
        assert improve_local(inst, start, FAST, deadline=0.0) == start
        assert improve_local(inst, start, FAST).n_placed > 1

    def test_order_must_hold_every_placed_item(self):
        # every refill tries only the items of `order`, so one the start
        # places but `order` leaves out could never be placed again
        inst = gen_atris(GenConfig(seed=3, n_target=20))
        density = priority_order(inst, Ordering.VALUE_DENSITY)
        start = solve_greedy(inst, FAST, order=density)
        placed = {p.item_index for p in start.placements}
        first = next(i for i in density if i in placed)
        with pytest.raises(ValueError, match="order"):
            improve_local(inst, start, FAST, order=[i for i in density if i != first])
        # leaving out an unplaced item is legal
        unplaced = next(i for i in density if i not in placed)
        out = improve_local(inst, start, FAST, order=[i for i in density if i != unplaced])
        assert verify(inst, out).valid
        assert verify(inst, out).packed_value >= verify(inst, start).packed_value

    def test_invalid_start_rejected(self):
        from polypack.model import Placement
        for side, placements in [
            (10, (Placement(0, (0, 0)), Placement(1, (1, 1)))),  # overlap
            (20, (Placement(0, (0, 0)), Placement(0, (10, 10)))),  # duplicated item
        ]:
            inst = box_instance(side, [square_item(4), square_item(4)])
            bad = Solution(inst.name, placements)
            with pytest.raises(ValueError, match="verify"):
                improve_local(inst, bad, FAST)
        inst, float_starts = float_offset_starts()
        for bad in float_starts:
            with pytest.raises(TypeError):
                improve_local(inst, bad, FAST)


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
        assert verify(inst, sol).packed_value >= 75  # 40 + 35 at least

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
        # unbudgeted, solve takes 1.4 s (random, 300 items) and 1.7 s (satris,
        # 271 items) on these instances on a 2-core VM, 5-7 times the budget,
        # so the clock, not convergence, ends the solve
        n_target = {gen_random: 300, gen_satris: 300}[family]
        inst = family(GenConfig(seed=3, n_target=n_target))
        start = time.monotonic()
        sol = solve(inst, SolverConfig(time_budget=0.25, seed=1))
        assert 0.25 <= time.monotonic() - start < 0.25 + 0.3
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
