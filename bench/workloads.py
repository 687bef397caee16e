"""The benchmark's three workloads.

Each workload has four steps:

  setup(pp, seed)           build the inputs; timed as set-up
  expect(pp, inputs)        the benchmark's own answers, untimed
  run(pp, inputs, phases)   one round of program calls; timed
  check(pp, inputs, expected, outputs, cache)
                            a list with one entry per operation of the round:
                            None when its outputs are right, else the reason

`pp` holds the program's modules (see program.py); every call into the
program goes through it, so the tracer can swap functions in place.
`phases` adds up seconds per named phase of a round.
"""
from __future__ import annotations

import math
import random
import time
from datetime import datetime, timedelta
from fractions import Fraction

import oracle


def _seed(seed: int, k: int) -> int:
    """Sub-seed k of a run seed, a 32-bit int."""
    return (seed * 1_000_003 + k * 7919 + 17) % (1 << 32)


def _timed(phases, name, fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0


def _shape(inst):
    """(container points, item point lists, values) in plain ints."""
    return (list(inst.container.coords),
            [list(it.polygon.coords) for it in inst.items],
            [it.value for it in inst.items])


def generator_faults(family, cfg, inst) -> list[str]:
    """The generator guarantees that the benchmark relies on."""
    container, items, values = _shape(inst)
    faults = []
    for pts in [container] + items:
        if not all(type(c) is int for p in pts for c in p):
            faults.append("non-integer coordinate")
            break
    if any(type(v) is not int or v < 1 for v in values):
        faults.append("item value below 1")
    areas = [Fraction(oracle.area2(p), 2) for p in items]
    c_area = Fraction(oracle.area2(container), 2)
    if family in ("atris", "satris"):
        t = Fraction(cfg.area_multiple_t)
        if not t * c_area < sum(areas) <= t * c_area + max(areas):
            faults.append("total item area outside (t*A, t*A + largest]")
    if family == "jigsaw" and cfg.jigsaw_perturb_amplitude == 0 \
            and sum(areas) != cfg.jigsaw_copies * c_area:
        faults.append("jigsaw tiles do not sum to the container area")
    return faults


class Workload:
    """Defaults for the steps a workload may leave out."""

    name = ""

    def expect(self, pp, inputs):
        return None

    def bound_ratio(self, expected, outputs) -> float:
        return 0.0

    def items_placed(self, outputs) -> int:
        return 0


# --------------------------------------------------------------------------
# solve-converge

# Fixed corpus: (family, GenConfig fields).  Items: 6, 6, 6, 6, 7, 7, 7, 7,
# 16, 21, 26, 31, 29 and 28 at the time of writing, so both sides of the
# solver's n <= 25 multi-start branch are covered; random's container is not
# a rectangle.  The run seed sets each solve's SolverConfig.seed: it changes
# the search path, while the amount of work stays near fixed.
SOLVE_CORPUS = (
    ("random", dict(seed=1, n_target=6)),
    ("random", dict(seed=2, n_target=6)),
    ("random", dict(seed=3, n_target=6)),
    ("random", dict(seed=4, n_target=6)),
    ("atris", dict(seed=3, n_target=8)),
    ("atris", dict(seed=4, n_target=8)),
    ("satris", dict(seed=3, n_target=8)),
    ("satris", dict(seed=4, n_target=8)),
    ("jigsaw", dict(seed=9, jigsaw_line_count=5, jigsaw_copies=3)),
    ("jigsaw", dict(seed=10, jigsaw_line_count=5, jigsaw_copies=3)),
    ("jigsaw", dict(seed=9, jigsaw_line_count=8, jigsaw_copies=3)),
    ("jigsaw", dict(seed=10, jigsaw_line_count=8, jigsaw_copies=3)),
    ("jigsaw", dict(seed=11, jigsaw_line_count=8, jigsaw_copies=3)),
    ("jigsaw", dict(seed=12, jigsaw_line_count=8, jigsaw_copies=3)),
)
# Far above what convergence needs; a solve must end inside a quarter of it,
# so the no-improvement rule, never the clock, decides where it stops.
SOLVE_BUDGET_S = 60.0


class SolveConverge(Workload):
    name = "solve-converge"

    def setup(self, pp, seed):
        corpus = []
        for k, (family, fields) in enumerate(SOLVE_CORPUS):
            cfg = pp.generators.GenConfig(**fields)
            inst = getattr(pp.generators, "gen_" + family)(cfg)
            solver_cfg = pp.solver.SolverConfig(time_budget=SOLVE_BUDGET_S,
                                                seed=_seed(seed, k))
            corpus.append((family, cfg, pp.model.write_instance(inst), solver_cfg))
        return corpus

    def expect(self, pp, corpus):
        out = []
        for family, cfg, text, _ in corpus:
            inst = pp.model.read_instance(text)
            container, items, values = _shape(inst)
            bound = oracle.area_bound(
                oracle.area2(container),
                [(oracle.area2(p), v) for p, v in zip(items, values)])
            out.append(dict(container=container, items=items, values=values,
                            bound=bound,
                            faults=generator_faults(family, cfg, inst)))
        return out

    def run(self, pp, corpus, phases):
        outputs = []
        for _, _, text, solver_cfg in corpus:
            inst = _timed(phases, "parse", pp.model.read_instance, text)
            t0 = time.perf_counter()
            sol = pp.solver.solve(inst, solver_cfg)
            elapsed = time.perf_counter() - t0
            phases["solve"] = phases.get("solve", 0.0) + elapsed
            written = pp.model.write_solution(sol)
            parsed = _timed(phases, "parse", pp.model.read_solution, written)
            report = _timed(phases, "verify", pp.verifier.verify, inst, parsed)
            outputs.append((sol, parsed, report, elapsed))
        return outputs

    def check(self, pp, corpus, expected, outputs, cache):
        return [check_solve(exp, sol, parsed, report, elapsed, cache)
                for exp, (sol, parsed, report, elapsed) in zip(expected, outputs)]

    def bound_ratio(self, expected, outputs):
        packed = sum(sum(exp["values"][p.item_index] for p in parsed.placements)
                     for exp, (_, parsed, _, _) in zip(expected, outputs))
        return float(Fraction(packed) / sum(exp["bound"] for exp in expected))

    def items_placed(self, outputs):
        return sum(len(sol.placements) for sol, _, _, _ in outputs)


def check_solve(exp, sol, parsed, report, elapsed, cache):
    """Reason a solve output is wrong, or None.

    `exp` holds the instance as plain ints; `sol` is what solve returned,
    `parsed` the same after write_solution and read_solution, and `report`
    what verify said about `parsed`.
    """
    if exp["faults"]:
        return "input: " + "; ".join(exp["faults"])
    placements = tuple((p.item_index, tuple(p.offset)) for p in parsed.placements)
    if placements != tuple((p.item_index, tuple(p.offset)) for p in sol.placements):
        return "solution changed in write_solution/read_solution"
    if not report.valid or report.violation is not None:
        return f"verify rejected the solver's output: {report.violation}"
    key = (id(exp), placements)
    if key not in cache:
        cache[key] = oracle.packing_faults(exp["container"], exp["items"], placements)
    faults = cache[key]
    if faults:
        return "independent check: " + "; ".join(faults[:3])
    value = sum(exp["values"][i] for i, _ in placements)
    if report.packed_value != value:
        return f"packed value {report.packed_value} != own sum {value}"
    if value > exp["bound"]:
        return f"packed value {value} above the area bound {exp['bound']}"
    if elapsed > SOLVE_BUDGET_S / 4:
        return f"solve took {elapsed:.1f} s, not well inside its budget"
    return None


# --------------------------------------------------------------------------
# verify-submissions

# Fixed instances: (family, GenConfig fields).  The run seed shapes the
# submissions (placement order, which items the faults touch, pile-up
# order), not how much work they take: a pile-up's cost grows with the area
# its largest items share, which would swing with freshly generated items.
VERIFY_INSTANCES = (
    ("atris", dict(seed=1, n_target=60)),
    ("satris", dict(seed=1, n_target=60)),
    ("random", dict(seed=1, n_target=40)),
    ("atris", dict(seed=2, n_target=60)),
    ("satris", dict(seed=2, n_target=60)),
    ("jigsaw", dict(seed=1, jigsaw_line_count=40, jigsaw_perturb_amplitude=0)),
)


def _shelf_layout(container, items):
    """Items on bottom-left shelves by their boxes, shortest first (so that
    many fit); boxes are disjoint and every box corner is inside the
    container."""
    cb = oracle.box(container)
    step = max(1, (cb[2] - cb[0]) // 50)

    def scan(y, x, w, h):
        for x in range(x, cb[2] - w + 1, step):
            if oracle.inside_convex(container, [(x, y), (x + w, y),
                                                (x + w, y + h), (x, y + h)]):
                return x
        return None

    boxes = [oracle.box(p) for p in items]
    order = sorted(range(len(items)),
                   key=lambda i: (boxes[i][3] - boxes[i][1], boxes[i][2] - boxes[i][0], i))
    x, y, shelf_h = cb[0], cb[1], 0
    placed = []
    for i in order:
        b = boxes[i]
        w, h = b[2] - b[0], b[3] - b[1]
        hit = scan(y, x, w, h) if shelf_h and y + h <= cb[3] else None
        if hit is None:
            # a new shelf right above the last one; the first one may rise
            ny = y + shelf_h
            while ny + h <= cb[3]:
                hit = scan(ny, cb[0], w, h)
                if hit is not None or shelf_h:
                    break
                ny += step
            if hit is None:
                continue
            y, shelf_h = ny, 0
        placed.append((i, (hit - b[0], y - b[1])))
        x = hit + w
        shelf_h = max(shelf_h, h)
    return placed


def _has_overlap(items, placements) -> bool:
    """Some pair of placements overlaps (stops at the first one found)."""
    shapes = [oracle.moved(items[i], off) for i, off in placements]
    boxes = [oracle.box(s) for s in shapes]
    return any(oracle.boxes_meet(boxes[a], boxes[b])
               and oracle.interiors_overlap(shapes[a], shapes[b])
               for a in range(len(shapes)) for b in range(a + 1, len(shapes)))


def _overlap_fault(items, layout, rng):
    """Move one item onto another so that exactly that pair overlaps.

    The moved item's box goes inside the other's box; layout boxes are
    disjoint and inside the container, so no third item can be hit.
    """
    order = list(range(len(layout)))
    rng.shuffle(order)
    for a in order:
        x = layout[a][0]
        bx = oracle.box(items[x])
        for b in order:
            y, y_off = layout[b]
            target = oracle.moved(items[y], y_off)
            by = oracle.box(target)
            dx, dy = (by[2] - by[0]) - (bx[2] - bx[0]), (by[3] - by[1]) - (bx[3] - bx[1])
            if x == y or dx < 0 or dy < 0:
                continue
            for fx, fy in ((0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))):
                off = (by[0] - bx[0] + int(fx * dx), by[1] - bx[1] + int(fy * dy))
                if oracle.interiors_overlap(oracle.moved(items[x], off), target):
                    return x, y, off
    return None


def _submission(pp, name, placements):
    sol = pp.model.Solution(name, tuple(pp.model.Placement(i, off)
                                        for i, off in placements))
    return pp.model.write_solution(sol), sol


class VerifySubmissions(Workload):
    name = "verify-submissions"

    def setup(self, pp, seed):
        rng = random.Random(_seed(seed, 1000))
        instances = []
        for family, fields in VERIFY_INSTANCES:
            cfg = pp.generators.GenConfig(**fields)
            inst = getattr(pp.generators, "gen_" + family)(cfg)
            container, items, values = _shape(inst)
            subs = []  # (kind, solution JSON, in-memory solution, answer)
            if family == "jigsaw":
                ident = inst.meta["identity"]
                layout = list(zip(ident["item_indices"],
                                  zip(ident["x_translations"], ident["y_translations"])))
            else:
                layout = _shelf_layout(container, items)
            rng.shuffle(layout)
            text, _ = _submission(pp, inst.name, layout)
            subs.append(("valid", text, None, sum(values[i] for i, _ in layout)))
            if family != "jigsaw":
                fault = _overlap_fault(items, layout, rng)
                if fault is None:
                    raise RuntimeError(f"{inst.name}: no single-pair overlap fault found")
                x, y, off = fault
                faulty = [(i, off if i == x else o) for i, o in layout]
                subs.append(("overlap", _submission(pp, inst.name, faulty)[0],
                             None, {x, y}))
                cw = oracle.box(container)[2] - oracle.box(container)[0]
                x, _ = layout[rng.randrange(len(layout))]
                faulty = [(i, (off[0] + cw, off[1]) if i == x else off)
                          for i, off in layout]
                subs.append(("outside", _submission(pp, inst.name, faulty)[0],
                             None, x))
                x, o = layout[rng.randrange(len(layout))]
                text, mem = _submission(pp, inst.name, layout + [(x, o)])
                subs.append(("duplicate", text, mem, x))
            if family in ("atris", "satris"):
                # every item that fits, at the container's lower-left corner
                cb = oracle.box(container)
                pile = []
                for i, pts in enumerate(items):
                    b = oracle.box(pts)
                    if b[2] - b[0] <= cb[2] - cb[0] and b[3] - b[1] <= cb[3] - cb[1]:
                        pile.append((i, (cb[0] - b[0], cb[1] - b[1])))
                rng.shuffle(pile)
                subs.append(("pileup", _submission(pp, inst.name, pile)[0], None, None))
            instances.append((family, cfg, pp.model.write_instance(inst), subs))
        return instances

    def expect(self, pp, instances):
        out = []
        for family, cfg, text, subs in instances:
            inst = pp.model.read_instance(text)
            container, items, values = _shape(inst)
            faults = generator_faults(family, cfg, inst)
            for kind, sub_text, _, _ in subs:
                if kind != "pileup":
                    continue
                sol = pp.model.read_solution(sub_text)
                pile = [(p.item_index, p.offset) for p in sol.placements]
                if not oracle.inside_convex(container, [
                        q for i, off in pile for q in oracle.moved(items[i], off)]):
                    faults.append("pile-up not inside the container")
                if not _has_overlap(items, pile):
                    faults.append("pile-up has no overlapping pair")
            out.append(dict(container=container, items=items, faults=faults))
        return out

    def run(self, pp, instances, phases):
        outputs = []
        for _, _, text, subs in instances:
            inst = _timed(phases, "parse", pp.model.read_instance, text)
            results = []
            for kind, sub_text, mem, _ in subs:
                try:
                    sol = _timed(phases, "parse", pp.model.read_solution, sub_text)
                except pp.model.ValidationError as exc:
                    report = None if mem is None else \
                        _timed(phases, "verify", pp.verifier.verify, inst, mem)
                    results.append(("rejected", exc, report, None))
                    continue
                report = _timed(phases, "verify", pp.verifier.verify, inst, sol)
                results.append(("parsed", None, report, sol))
            outputs.append((inst, results))
        return outputs

    def check(self, pp, instances, expected, outputs, cache):
        verdicts = []
        for (_, _, text, subs), exp, (inst, results) in zip(instances, expected, outputs):
            if exp["faults"]:
                verdicts.append("input: " + "; ".join(exp["faults"]))
            elif pp.model.write_instance(inst) != text:
                verdicts.append("instance changed in read_instance/write_instance")
            else:
                verdicts.append(None)
            for (kind, _, _, answer), result in zip(subs, results):
                verdicts.append(_submission_fault(exp, kind, answer, result, cache))
        return verdicts


def _violation(report):
    v = report.violation
    return (v.kind.value, tuple(v.item_indices)) if v is not None else (None, ())


def _submission_fault(exp, kind, answer, result, cache):
    status, exc, report, sol = result
    if kind == "duplicate":
        if status != "rejected" or "duplicate" not in str(exc):
            return "duplicate index not rejected by read_solution"
        if _violation(report) != ("DuplicateItem", (answer,)):
            return f"verify on the duplicate gave {_violation(report)}"
        return None
    if status != "parsed":
        return f"read_solution rejected a well-formed submission: {exc}"
    kind_seen, pair = _violation(report)
    if kind == "valid":
        if not report.valid or report.packed_value != answer:
            return (f"valid submission: valid={report.valid} "
                    f"value={report.packed_value}, expected {answer}")
    elif kind == "overlap":
        if report.valid or kind_seen != "Overlap" or set(pair) != answer:
            return f"overlap fault {sorted(answer)}: got {kind_seen} {pair}"
    elif kind == "outside":
        if report.valid or (kind_seen, pair) != ("NotContained", (answer,)):
            return f"outside fault {answer}: got {kind_seen} {pair}"
    elif kind == "pileup":
        if report.valid or kind_seen != "Overlap" or len(pair) != 2:
            return f"pile-up: got {kind_seen} {pair}"
        offsets = {p.item_index: p.offset for p in sol.placements}
        key = (id(exp), pair, offsets[pair[0]], offsets[pair[1]])
        if key not in cache:
            items = exp["items"]
            cache[key] = oracle.interiors_overlap(
                oracle.moved(items[pair[0]], offsets[pair[0]]),
                oracle.moved(items[pair[1]], offsets[pair[1]]))
        if not cache[key]:
            return f"pile-up: reported pair {pair} does not overlap"
    return None


# --------------------------------------------------------------------------
# curate-pool

# Candidate pool, per slot: (family, GenConfig fields but the seed).  Every
# second jigsaw is unperturbed so that its exact tiling can be checked.
CURATE_POOL = (
    ("random", dict(n_target=120)),
    ("atris", dict(n_target=400)),
    ("satris", dict(n_target=400)),
    ("jigsaw", dict(jigsaw_line_count=30, jigsaw_perturb_amplitude=0)),
) * 2 + (
    ("random", dict(n_target=120)),
    ("atris", dict(n_target=400)),
    ("satris", dict(n_target=400)),
    ("jigsaw", dict(jigsaw_line_count=30)),
)
SELECT_K = 4
TEAMS = 12
SUBMISSIONS_PER_TEAM_AND_INSTANCE = 3


class CuratePool(Workload):
    name = "curate-pool"

    def setup(self, pp, seed):
        configs = [(family, pp.generators.GenConfig(seed=_seed(seed, k), **fields))
                   for k, (family, fields) in enumerate(CURATE_POOL)]
        rng = random.Random(_seed(seed, 1000))
        t0 = datetime(2024, 3, 1, 12, 0, 0)
        records = []  # (team, pool slot, share of the slot's total value, time)
        for team in range(TEAMS):
            for slot in range(len(configs)):
                for _ in range(SUBMISSIONS_PER_TEAM_AND_INSTANCE):
                    records.append((f"team{team:02d}", slot,
                                    Fraction(rng.randint(1, 1000), 1000),
                                    t0 + timedelta(seconds=rng.randint(0, 10**6))))
        select_cfg = pp.selection.SelectionConfig(k=SELECT_K, seed=_seed(seed, 2000))
        return configs, records, select_cfg

    def run(self, pp, inputs, phases):
        configs, records, select_cfg = inputs
        pool = []
        for family, cfg in configs:
            inst = _timed(phases, "generate", getattr(pp.generators, "gen_" + family), cfg)
            first = pp.model.write_instance(inst)
            again = _timed(phases, "parse", pp.model.read_instance, first)
            second = pp.model.write_instance(again)
            features = _timed(phases, "metrics", pp.selection.compute_metrics, again)
            pool.append((inst, first, second, features))
        names = [inst.name for inst, _, _, _ in pool]
        picks = pp.selection.select_from_features(
            [(name, f.values) for name, (_, _, _, f) in zip(names, pool)], select_cfg)
        totals = [sum(it.value for it in inst.items) for inst, _, _, _ in pool]
        subs = [pp.scoring.SubmissionRecord(team, names[slot],
                                            int(share * totals[slot]), when)
                for team, slot, share, when in records]
        board = pp.scoring.build_leaderboard(subs, names)
        return pool, picks, subs, board

    def check(self, pp, inputs, expected, outputs, cache):
        configs, _, select_cfg = inputs
        pool, picks, subs, board = outputs
        verdicts = []
        for (family, cfg), (inst, first, second, features) in zip(configs, pool):
            key = ("gen", first)
            if key not in cache:
                cache[key] = generator_faults(family, cfg, inst)
            faults = cache[key]
            verdicts.append("; ".join(faults) if faults else None)
            verdicts.append(None if first == second else
                            "write . read . write is not byte-identical")
            verdicts.append(_metrics_fault(inst, features.values, cache, first))
        names = [inst.name for inst, _, _, _ in pool]
        if len(picks) != select_cfg.k or len(set(picks)) != len(picks) \
                or not set(picks) <= set(names):
            verdicts.append(f"selection {picks} is not {select_cfg.k} distinct pool names")
        else:
            verdicts.append(None)
        verdicts.append(_leaderboard_fault(subs, names, board))
        return verdicts


def _metrics_fault(inst, values, cache, first):
    key = ("metrics", first)
    if key not in cache:
        container, items, _ = _shape(inst)
        ratio = Fraction(sum(oracle.area2(p) for p in items), oracle.area2(container))
        cache[key] = (math.log(len(items)), float(ratio))
    log_n, ratio = cache[key]
    if not math.isclose(values[0], log_n, rel_tol=1e-12):
        return f"log item count {values[0]} != {log_n}"
    if not math.isclose(values[4], ratio, rel_tol=1e-12):
        return f"area ratio {values[4]} != {ratio}"
    return None


def _leaderboard_fault(subs, names, board):
    best = {name: 0 for name in names}
    mine = {}
    for r in subs:
        best[r.instance] = max(best[r.instance], r.value)
        per = mine.setdefault(r.team, {})
        per[r.instance] = max(per.get(r.instance, 0), r.value)
    expected = {team: sum((Fraction(per.get(n, 0), best[n]) ** 2
                           for n in names if best[n]), Fraction(0))
                for team, per in mine.items()}
    got = {s.team: s.total for s in board.standings}
    if got != expected:
        return "leaderboard totals differ from the exact recomputation"
    totals = [s.total for s in board.standings]
    if totals != sorted(totals, reverse=True):
        return "leaderboard not ranked by total"
    return None


WORKLOADS = {w.name: w for w in (SolveConverge(), VerifySubmissions(), CuratePool())}
