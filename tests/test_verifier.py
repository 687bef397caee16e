import json
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import polypack

from polypack.geom import (Polygon, boxes_interior_overlap, contained_in_convex,
                           interiors_overlap)
from polypack.model import Instance, Item, Placement, Solution
from polypack.verifier import (BoxIndex, InstanceMismatch, ViolationKind,
                               build_index, placement_box, verify)

from test_geom import random_star_polygon

SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]


def brute_force_verify(instance, solution):
    """Reference verifier: same exact predicates, no spatial index, all pairs."""
    n = instance.n_items
    seen = set()
    for pl in solution.placements:
        if not 0 <= pl.item_index < n or pl.item_index in seen:
            return False, 0
        seen.add(pl.item_index)
    for pl in solution.placements:
        if not contained_in_convex(instance.container,
                                   instance.items[pl.item_index].polygon, pl.offset):
            return False, 0
    pls = solution.placements
    for i in range(len(pls)):
        for j in range(i + 1, len(pls)):
            if interiors_overlap(instance.items[pls[i].item_index].polygon, pls[i].offset,
                                 instance.items[pls[j].item_index].polygon, pls[j].offset):
                return False, 0
    return True, sum(instance.items[p.item_index].value for p in pls)


def make_instance(rng, n_items, name="t"):
    cloud = [(rng.randint(0, 120), rng.randint(0, 120)) for _ in range(14)]
    from polypack.geom import convex_hull
    container = convex_hull(cloud)
    items = []
    for k in range(n_items):
        if rng.random() < 0.4:
            s = rng.randint(2, 8)
            poly = Polygon([(0, 0), (s, 0), (s, s), (0, s)])
        else:
            poly = Polygon(random_star_polygon(rng, rng.randint(3, 9),
                                               radius=rng.randint(4, 12),
                                               center=(15, 15)))
        items.append(Item(poly, rng.randint(1, 100)))
    return Instance(name, container, tuple(items))


def random_solution(rng, instance, adversarial=True):
    n = instance.n_items
    k = rng.randint(0, min(n, 40))
    idx = rng.sample(range(n), k)
    placements = [Placement(i, (rng.randint(-10, 110), rng.randint(-10, 110)))
                  for i in idx]
    if adversarial and placements and rng.random() < 0.5:
        roll = rng.random()
        if roll < 0.3 and len(placements) >= 2:
            # exact same offset: guaranteed interior overlap
            placements[1] = Placement(placements[1].item_index, placements[0].offset)
        elif roll < 0.6 and len(placements) >= 2:
            # boundary touch: shift by the first item's bbox width
            a = placements[0]
            w = instance.items[a.item_index].polygon.bbox[2]
            placements[1] = Placement(placements[1].item_index,
                                      (a.offset[0] + w, a.offset[1]))
        elif roll < 0.8:
            placements.append(Placement(placements[0].item_index, (0, 0)))  # duplicate
        else:
            placements.append(Placement(n + rng.randint(0, 5), (0, 0)))  # out of range
    return Solution(instance.name, tuple(placements))


class TestBoxIndex:
    def test_empty(self):
        tree = BoxIndex()
        assert tree.candidate_pairs() == []
        assert tree.query((0, 0, 100, 100)) == set()

    def test_far_apart_items_no_pairs(self):
        tree = BoxIndex()
        tree.insert(0, (0, 0, 5, 5))
        tree.insert(1, (90, 90, 95, 95))
        assert tree.candidate_pairs() == []

    def test_touching_boxes_are_not_candidates(self):
        tree = BoxIndex()
        tree.insert(0, (0, 0, 5, 5))
        tree.insert(1, (5, 0, 10, 5))
        assert tree.candidate_pairs() == []

    def test_candidates_superset_of_brute_force(self):
        rng = random.Random(31)
        for trial in range(200):
            n = rng.randint(2, 60)
            boxes = []
            for i in range(n):
                x, y = rng.randint(0, 200), rng.randint(0, 200)
                boxes.append((x, y, x + rng.randint(1, 30), y + rng.randint(1, 30)))
            tree = BoxIndex()
            for i, b in enumerate(boxes):
                tree.insert(i, b)
            brute = {(i, j) for i in range(n) for j in range(i + 1, n)
                     if boxes_interior_overlap(boxes[i], boxes[j])}
            cand = set(tree.candidate_pairs())
            assert brute <= cand
            # with exact box filtering the candidate set is tight
            assert cand == brute

    def test_query_superset(self):
        rng = random.Random(32)
        boxes = []
        tree = BoxIndex()
        for i in range(300):
            x, y = rng.randint(0, 280), rng.randint(0, 280)
            b = (x, y, x + rng.randint(1, 25), y + rng.randint(1, 25))
            boxes.append(b)
            tree.insert(i, b)
        for _ in range(100):
            x, y = rng.randint(0, 280), rng.randint(0, 280)
            q = (x, y, x + rng.randint(1, 40), y + rng.randint(1, 40))
            expected = {i for i, b in enumerate(boxes) if boxes_interior_overlap(b, q)}
            assert expected == tree.query(q)

    def test_remove(self):
        tree = BoxIndex()
        tree.insert(0, (0, 0, 10, 10))
        tree.insert(1, (5, 5, 15, 15))
        assert tree.candidate_pairs() == [(0, 1)]
        tree.remove(0, (0, 0, 10, 10))
        assert tree.candidate_pairs() == []
        assert tree.query((0, 0, 20, 20)) == {1}

    def test_random_insert_remove_matches_brute_force(self):
        rng = random.Random(36)
        for trial in range(30):
            index = BoxIndex()
            live: dict[int, tuple] = {}
            for step in range(300):
                if live and rng.random() < 0.35:
                    ident = rng.choice(sorted(live))
                    index.remove(ident, live.pop(ident))
                else:
                    ident = step
                    x, y = rng.randint(-50, 200), rng.randint(-50, 200)
                    # mostly small boxes, now and then a long one
                    w = rng.randint(1, 15) if rng.random() < 0.9 else rng.randint(50, 250)
                    live[ident] = (x, y, x + w, y + rng.randint(1, 15))
                    index.insert(ident, live[ident])
                if step % 25 == 0:
                    x, y = rng.randint(-50, 200), rng.randint(-50, 200)
                    q = (x, y, x + rng.randint(1, 60), y + rng.randint(1, 60))
                    assert index.query(q) == {i for i, b in live.items()
                                              if boxes_interior_overlap(b, q)}
            ids = sorted(live)
            assert index.candidate_pairs() == [
                (a, b) for k, a in enumerate(ids) for b in ids[k + 1:]
                if boxes_interior_overlap(live[a], live[b])]


def simple_instance():
    box = Polygon([(0, 0), (20, 0), (20, 20), (0, 20)])
    sq = Polygon(SQUARE)
    return Instance("demo", box, (Item(sq, 10), Item(sq, 20), Item(sq, 30)))


def float_offset_starts():
    """Solutions built in memory with non-integer offsets in a 10x10 box: two
    2x2 squares at y=2 and y=0.5, which overlap, and one at y=8.5, which
    sticks out of the top.  Truncated to integers, both would verify."""
    box = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    sq = Item(Polygon([(0, 0), (2, 0), (2, 2), (0, 2)]), 4)
    inst = Instance("f", box, (sq, sq))
    return inst, [Solution("f", (Placement(0, (0, 2)), Placement(1, (0, 0.5)))),
                  Solution("f", (Placement(0, (0, 8.5)),))]


class TestVerify:
    def test_empty_solution_valid(self):
        inst = simple_instance()
        rep = verify(inst, Solution("demo"))
        assert rep.valid and rep.packed_value == 0 and rep.violation is None

    def test_single_item(self):
        inst = simple_instance()
        rep = verify(inst, Solution("demo", (Placement(1, (0, 0)),)))
        assert rep.valid and rep.packed_value == 20

    def test_boundary_touch_legal(self):
        inst = simple_instance()
        sol = Solution("demo", (Placement(0, (0, 0)), Placement(1, (4, 0)),
                                Placement(2, (8, 0))))
        rep = verify(inst, sol)
        assert rep.valid and rep.packed_value == 60

    def test_duplicate_item(self):
        inst = simple_instance()
        rep = verify(inst, Solution("demo", (Placement(0, (0, 0)), Placement(0, (8, 8)))))
        assert not rep.valid and rep.packed_value == 0
        assert rep.violation.kind is ViolationKind.DUPLICATE_ITEM

    def test_index_out_of_range(self):
        inst = simple_instance()
        rep = verify(inst, Solution("demo", (Placement(7, (0, 0)),)))
        assert rep.violation.kind is ViolationKind.INDEX_OUT_OF_RANGE

    def test_not_contained(self):
        inst = simple_instance()
        rep = verify(inst, Solution("demo", (Placement(0, (18, 0)),)))
        assert rep.violation.kind is ViolationKind.NOT_CONTAINED
        assert rep.violation.item_indices == (0,)

    def test_overlap(self):
        inst = simple_instance()
        rep = verify(inst, Solution("demo", (Placement(0, (0, 0)), Placement(1, (3, 3)))))
        assert rep.violation.kind is ViolationKind.OVERLAP

    def test_instance_mismatch(self):
        with pytest.raises(InstanceMismatch):
            verify(simple_instance(), Solution("other"))

    def test_non_integer_offset_raises(self):
        inst, solutions = float_offset_starts()
        for sol in solutions:
            with pytest.raises(TypeError):
                verify(inst, sol)

    def test_build_index_superset_random(self):
        rng = random.Random(33)
        for _ in range(200):
            inst = make_instance(rng, rng.randint(2, 30))
            sol = random_solution(rng, inst, adversarial=False)
            tree = build_index(inst, sol)
            boxes = [placement_box(inst, p.item_index, p.offset)
                     for p in sol.placements]
            brute = {(i, j) for i in range(len(boxes)) for j in range(i + 1, len(boxes))
                     if boxes_interior_overlap(boxes[i], boxes[j])}
            assert brute <= set(tree.candidate_pairs())

    def test_oracle_equivalence_500_solutions(self):
        rng = random.Random(34)
        start = time.monotonic()
        instances = [make_instance(rng, rng.randint(5, 200), name=f"i{k}")
                     for k in range(12)]
        checked = 0
        while checked < 500:
            inst = instances[checked % len(instances)]
            sol = random_solution(rng, inst)
            rep = verify(inst, sol)
            expected_valid, expected_value = brute_force_verify(inst, sol)
            assert rep.valid == expected_valid
            assert rep.packed_value == expected_value
            checked += 1
        assert time.monotonic() - start < 120

    def test_verdict_permutation_invariant(self):
        rng = random.Random(35)
        for _ in range(40):
            inst = make_instance(rng, 25)
            sol = random_solution(rng, inst)
            base = verify(inst, sol).valid
            pls = list(sol.placements)
            rng.shuffle(pls)
            assert verify(inst, Solution(inst.name, tuple(pls))).valid == base


def t_tetromino_tiling(blocks_per_side):
    """Pinwheel T-tetromino tiling: 4 Ts per 4x4 block, interlocking bboxes."""
    import oracles
    t_cells = [
        {(0, 0), (1, 0), (2, 0), (1, 1)},
        {(3, 0), (3, 1), (3, 2), (2, 1)},
        {(1, 3), (2, 3), (3, 3), (2, 2)},
        {(0, 1), (0, 2), (0, 3), (1, 2)},
    ]
    shapes = []
    anchors = []
    for cells in t_cells:
        outline = oracles.cells_outline(cells)
        minx = min(x for x, _ in outline)
        miny = min(y for _, y in outline)
        shapes.append(Polygon([(x - minx, y - miny) for x, y in outline]))
        anchors.append((minx, miny))
    side = 4 * blocks_per_side
    container = Polygon([(0, 0), (side, 0), (side, side), (0, side)])
    items, placements = [], []
    for bx in range(blocks_per_side):
        for by in range(blocks_per_side):
            for s, (shape, (ax, ay)) in enumerate(zip(shapes, anchors)):
                idx = len(items)
                items.append(Item(shape, 1))
                placements.append(Placement(idx, (4 * bx + ax, 4 * by + ay)))
    inst = Instance("twall", container, tuple(items))
    return inst, Solution("twall", tuple(placements))


class TestBroadPhaseScaling:
    def test_dense_tiling_candidate_bound(self):
        inst, sol = t_tetromino_tiling(50)  # 10_000 interlocked items
        n = inst.n_items
        assert n == 10_000
        tree = build_index(inst, sol)
        pairs = tree.candidate_pairs()
        assert len(pairs) <= 50 * n
        assert len(pairs) > 0  # bboxes genuinely interlock; bound is not vacuous
        rep = verify(inst, sol)
        assert rep.valid and rep.packed_value == n

    def test_jigsaw_corpus_candidate_bound(self):
        from polypack.generators import GenConfig, gen_jigsaw
        from test_generators import identity_solution
        for seed in (0, 1):
            inst = gen_jigsaw(GenConfig(seed=seed, jigsaw_line_count=14,
                                        jigsaw_perturb_amplitude=0))
            sol = identity_solution(inst)
            tree = build_index(inst, sol)
            assert len(tree.candidate_pairs()) <= 50 * max(1, sol.n_placed)
            assert verify(inst, sol).valid


class TestAdversarialSubmissions:
    """Inputs the parser accepts that once made the broad phase blow up."""

    def test_stacked_huge_squares(self):
        s = 2 ** 30
        square = Polygon([(0, 0), (512 * s, 0), (512 * s, 512 * s), (0, 512 * s)])
        container = Polygon([(0, 0), (1024 * s, 0), (1024 * s, 1024 * s), (0, 1024 * s)])
        inst = Instance("stack", container, tuple(Item(square, 1) for _ in range(17)))
        sol = Solution("stack", tuple(Placement(i, (0, 0)) for i in range(17)))
        start = time.monotonic()
        rep = verify(inst, sol)
        assert time.monotonic() - start < 1.0
        assert rep.violation.kind is ViolationKind.OVERLAP
        assert rep.violation.item_indices == (0, 1)

    def test_large_pile_up_time_and_memory(self):
        # a fresh process, so its peak RSS is the verifier's plus the
        # instance's, not what earlier tests left behind.  VmHWM is the peak
        # of the process's own memory; ru_maxrss would also count the test
        # runner's, which the child inherits across exec.
        script = textwrap.dedent("""
            import json, re, time
            from pathlib import Path
            from polypack.geom import Polygon
            from polypack.model import Instance, Item, Placement, Solution
            from polypack.verifier import verify
            n = 18_000
            square = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
            container = Polygon([(0, 0), (100, 0), (100, 100), (0, 100)])
            inst = Instance("pile", container, tuple(Item(square, 1) for _ in range(n)))
            sol = Solution("pile", tuple(Placement(i, (0, 0)) for i in range(n)))
            start = time.monotonic()
            rep = verify(inst, sol)
            elapsed = time.monotonic() - start
            status = Path("/proc/self/status").read_text()
            print(json.dumps({
                "s": elapsed,
                "rss_mb": int(re.search(r"VmHWM:\\s*(\\d+) kB", status)[1]) / 1024,
                "kind": rep.violation.kind.value,
                "items": list(rep.violation.item_indices)}))
        """)
        src = Path(polypack.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        result = json.loads(done.stdout)
        assert result["kind"] == "Overlap" and result["items"] == [0, 1]
        assert result["s"] < 1.0
        assert result["rss_mb"] < 100

    def test_jigsaw_pile_up(self):
        from polypack.generators import GenConfig, gen_jigsaw
        inst = gen_jigsaw(GenConfig(seed=1, jigsaw_line_count=40,
                                    jigsaw_perturb_amplitude=0))
        cx, cy = inst.container.bbox[:2]
        sol = Solution(inst.name, tuple(
            Placement(i, (cx - it.polygon.bbox[0], cy - it.polygon.bbox[1]))
            for i, it in enumerate(inst.items)))
        start = time.monotonic()
        rep = verify(inst, sol)
        assert time.monotonic() - start < 1.0
        assert not rep.valid and rep.violation.kind is ViolationKind.OVERLAP

    def test_parallel_diagonal_slivers(self):
        # n translates of one thin parallelogram, each touching the next:
        # a valid packing in which every pair of boxes overlaps, so the
        # broad phase must hand all n(n-1)/2 pairs to the exact test.
        n, length = 300, 400
        sliver = Polygon([(0, 0), (1, 0), (1 + length, length), (length, length)])
        container = Polygon([(0, 0), (n + length, 0), (n + length, length), (0, length)])
        inst = Instance("slivers", container, tuple(Item(sliver, 1) for _ in range(n)))
        sol = Solution("slivers", tuple(Placement(i, (i, 0)) for i in range(n)))
        assert len(build_index(inst, sol).candidate_pairs()) == n * (n - 1) // 2
        start = time.monotonic()
        rep = verify(inst, sol)
        assert time.monotonic() - start < 2.0
        assert rep.valid and rep.packed_value == n

    def test_squares_above_full_width_bar(self):
        # one box spanning the container must not make every query scan
        # every box: width classes keep the bar out of the squares' scans
        cols, rows = 200, 45
        width, height = 10 * cols, 1 + 10 * rows
        square = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        bar = Polygon([(0, 0), (width, 0), (width, 1), (0, 1)])
        container = Polygon([(0, 0), (width, 0), (width, height), (0, height)])
        inst = Instance("bar", container,
                        (Item(bar, 1),) + tuple(Item(square, 1) for _ in range(cols * rows)))
        sol = Solution("bar", (Placement(0, (0, 0)),) + tuple(
            Placement(1 + r * cols + c, (10 * c, 1 + 10 * r))
            for r in range(rows) for c in range(cols)))
        start = time.monotonic()
        rep = verify(inst, sol)
        assert time.monotonic() - start < 0.5
        assert rep.valid and rep.packed_value == 1 + cols * rows
