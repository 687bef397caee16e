"""Baseline packing solver: greedy placement on a coarse-to-fine integer grid,
followed by local-search improvement.

Candidate offsets live on integer grids only, so every intermediate state is
exactly verifiable; the verifier's sort-and-sweep box index over placed
items keeps feasibility checks local.  The greedy pass prefers the
lowest-then-leftmost feasible cell (bottom-left heuristic) and refines the
grid around the first hit.  The scan finds that cell without testing every
cell: each row starts and ends where the item fits in the convex container
within the scan's window (`geom.containment_range` on the item's
`geom.inner_fit`, built once per item and solve: the offset box cut by the
slanted container edges, so an axis rectangle's rows span the box), a
blocked cell jumps to the first cell past the blocker's overlap exit
(`geom.no_fit_exit`, one row of the no-fit polygon), and an exit past a
row's last cell jumps up past the rows whose window ends that polygon
holds (`geom.no_fit_rise`): the scan skips rows as well as cells, exactly,
in integers.  A `find_offset` call queries the box index once, for its
coarse window, and keeps each returned item's offset intervals, parts
(read once per solve into the `Record`) and offset; a refinement scan
keeps those that meet its window, a row its band (the items whose ty
interval holds the row), and a probe the band items whose tx interval
holds it.  The offsets are the solver's own ints, so probes and
`overlaps` call the unchecked kernel `geom.no_fit_exit`; `verify` and the
public predicates check theirs.  Each `find_offset` call makes one dict
that every probe of its scans passes as the memo, so a pair of convex
parts has its no-fit half-planes derived once per call, and drops it on
return, so memory does not grow with the placed items.
`can_place`, used by `shelf_pack`, is the inner-fit row test
`geom.in_inner_fit`, which `geom.contained_in_convex` also makes, plus
`overlaps`, also the certificates' hit check: the kernel, without a memo,
against one box query's items.

`solve` runs greedy in value-density order and, for instances of at most 25
items, also in area order and three shuffles of the density order; then
local search starts from the first best of these fills and its
order.  Local search is an order search: each of a fixed `SEARCH_STEPS`
steps swaps two positions at most 8 apart in the current order and refills
it, from an empty state, exactly as a start order is filled.

Every `find_offset` outcome carries a certificate: its blockers (the
placed items whose overlap exit moved a scan on), their offsets, and its
hits (the coarse hit and each refinement hit that replaced the best cell).
Placing an item only blocks cells, so the outcome holds on any placed set
that keeps every blocker at its offset and meets the item at no hit.  A
certificate refers to no state, so `remove` and `place` keep it exact.
Every `PlacementState` carries its solve's `Record`: each item's inner
fit, convex parts and the certificates of its outcomes so far.  `solve`
makes one record, and every start fill and refill is a state on it; at
each position a fill reuses any outcome whose certificate holds there, and
only where none does is `find_offset` called.  So an item that failed, or
found a cell, in an earlier fill or under a smaller placed set is not
scanned again; in particular a refill scans no item of its unchanged
prefix, before the first swapped position, once the current order has been
filled on the same record.  An order already filled is not filled again.  A
refill becomes the current order if its value is not lower and the best if
it is higher, so the packed value never decreases.  The step count, not the
clock, ends the search, so its output depends only on the seed while the
budget lasts.  `solve` hands its best start fill to the search as it is;
`improve_local` accepts a caller's start solution only if
`verifier.verify` finds it valid, and uses it only as the incumbent.

`shelf_pack` is a separate algorithm for rectangular containers: next-fit
decreasing-height shelves, used for the Moon-Moser square-packing check.

An item reported unplaced may still fit at some non-grid offset; the solver
never claims infeasibility, it only stops looking.
"""
from __future__ import annotations

import dataclasses
import enum
import time
from fractions import Fraction
from typing import Callable, Optional

from .geom import (containment_range, in_inner_fit, inner_fit, no_fit_exit,
                   no_fit_rise)
from .model import Instance, Placement, Solution
from .rng import Rng
from .verifier import BoxIndex, placement_box, verify


class Ordering(enum.Enum):
    VALUE_DENSITY = "density"
    AREA_DESC = "area"


COARSE_CELLS = 24  # coarse-grid cells across the longer span, fixed while a record lives
SEARCH_STEPS = 8  # order-search steps after the start fill


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    time_budget: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if not self.time_budget > 0:  # also rejects NaN
            raise ValueError("time_budget must be positive")


def _is_axis_rect(poly) -> bool:
    if len(poly.coords) != 4:
        return False
    b = poly.bbox
    corners = {(b[0], b[1]), (b[2], b[1]), (b[2], b[3]), (b[0], b[3])}
    return set(poly.coords) == corners


class Record:
    """What one solve keeps across its fills: each item's `geom.inner_fit`
    and convex parts (`Polygon.parts`), each read once, and `certs`, each
    item's `find_offset` certificates."""

    def __init__(self, instance: Instance):
        self.fits = [inner_fit(instance.container, it.polygon) for it in instance.items]
        self.parts = [it.polygon.parts for it in instance.items]
        self.certs: list[list] = [[] for _ in instance.items]


class PlacementState:
    """Current placements plus the occupancy index; mutations keep the state
    feasible, so a snapshot is always a valid solution.  A state carries
    `record`, the `Record` of its solve (default: a fresh one), and reads
    `fits` and `parts` from it; `remove` and `place` leave every
    certificate exact."""

    def __init__(self, instance: Instance, record: Optional[Record] = None):
        self.instance = instance
        self.record = Record(instance) if record is None else record
        self.polys = [it.polygon for it in instance.items]
        self.values = [it.value for it in instance.items]
        self.bboxes = [p.bbox for p in self.polys]
        self.fits = self.record.fits
        self.parts = self.record.parts
        self.tree = BoxIndex()
        self.offsets: dict[int, tuple[int, int]] = {}
        self.value = 0
        self.free_area2 = instance.container.area2

    def overlaps(self, idx: int, off, clear=()) -> bool:
        """Whether item idx at `off` meets the interior of a placed item not
        in `clear`: one box query, then an exact test per returned item."""
        tx, ty = off
        parts = self.parts
        for j in self.tree.query(placement_box(self.instance, idx, off)):
            if j in clear:
                continue
            ox, oy = self.offsets[j]
            if no_fit_exit(parts[idx], parts[j], tx, ox - tx, oy - ty) is not None:
                return True
        return False

    def can_place(self, idx: int, off) -> bool:
        return (in_inner_fit(self.fits[idx], off[0], off[1])
                and not self.overlaps(idx, off))

    def place(self, idx: int, off) -> None:
        self.offsets[idx] = (off[0], off[1])
        self.tree.insert(idx, placement_box(self.instance, idx, off))
        self.value += self.values[idx]
        self.free_area2 -= self.polys[idx].area2

    def remove(self, idx: int) -> None:
        off = self.offsets.pop(idx)
        self.tree.remove(idx, placement_box(self.instance, idx, off))
        self.value -= self.values[idx]
        self.free_area2 += self.polys[idx].area2

    def to_solution(self) -> Solution:
        placements = tuple(Placement(i, self.offsets[i])
                           for i in sorted(self.offsets))
        return Solution(self.instance.name, placements)


def priority_order(instance: Instance, ordering: Ordering) -> list[int]:
    items = instance.items

    def density(i):
        return Fraction(items[i].value * 2, items[i].polygon.area2)

    idx = list(range(len(items)))
    if ordering is Ordering.VALUE_DENSITY:
        idx.sort(key=lambda i: (-density(i), -items[i].value, i))
    else:
        idx.sort(key=lambda i: (-items[i].polygon.area2, i))
    return idx


def _scan_bottom_left(state, idx, blockers, lox, hix, loy, hiy, step, memo, blocked):
    """First feasible cell of the grid lox + i*step, loy + j*step in
    (row, column) order.  Cells that exact arithmetic rules out are skipped,
    not tested: those outside the row's containment range, on a blocked
    cell the run of cells up to the blocker's overlap exit, and, when an
    exit passes a row's last cell, the rows below the first one its no-fit
    polygon leaves at an end column of the window, lox or the last grid
    column (`geom.no_fit_rise`): a convex polygon holding both end columns
    holds every cell a row can probe.  Every probe shares `memo`, the
    no-fit half-planes known so far, and each placed item whose exit moves
    the scan on is added to the set `blocked`.

    `blockers` holds, per placed item whose box can meet the item's box in
    the window, the open ty interval in which they meet and an entry: the
    open tx interval, its convex parts and its offset, sorted by the tx
    interval's end, descending.  A row keeps the entries whose ty interval
    holds it (its band), and a probe exact-tests the band entries whose tx
    interval holds its tx, which are exactly the items a box query at that
    cell would return, furthest-reaching box first; the first exit found
    moves the scan on.  Which blocker supplies it does not change the
    result, as every exit skips only overlapping cells."""
    fit = state.fits[idx]
    parts = state.parts[idx]
    glast = lox + (hix - lox) // step * step  # the window's last column
    ty = loy
    while ty <= hiy:
        row = containment_range(fit, ty)
        if row is None:
            ty += step
            continue
        last = min(row[1], hix)
        tx = lox + -(-(max(row[0], lox) - lox) // step) * step
        band = [e for y0, y1, e in blockers if y0 < ty < y1]
        rise = step
        while tx <= last:
            hit = None
            for x0, x1, q, ox, oy, j in band:
                if x1 <= tx:
                    break  # sorted by x1 descending: no later entry holds tx
                if x0 < tx:
                    hit = no_fit_exit(parts, q, tx, ox - tx, oy - ty, memo)
                    if hit is not None:
                        break
            if hit is None:
                return (tx, ty)
            blocked.add(j)
            end, planes = hit
            tx = lox + -(-(end - lox) // step) * step
            if tx > last:
                up = no_fit_rise(planes, ox - lox, ox - glast, oy - ty)
                rise = max(step, -(-up // step) * step)
        ty += rise
    return None


def find_offset(state: PlacementState, idx: int) -> Optional[tuple[int, int]]:
    """Bottom-left feasible offset on a grid of `COARSE_CELLS` cells across
    the longer span, refined around the hit.

    Each refinement halves the step and rescans the old step's window around
    the best hit so far, down to step 1.  No clock is read here, so a solve
    runs past its budget by at most one call.  The box index is asked
    once, with the box the item sweeps over the coarse window; a
    refinement window lies inside it, so its scan keeps the returned items
    that can meet the item there.  The scans share one memo of no-fit
    half-planes, dropped when the call returns.

    The outcome's certificate, `(outcome, blockers, places, hits)`, is
    appended to the item's list in the state's record.  The blockers are
    the placed items whose overlap exit moved any of the call's scans on,
    `places` their offsets during the call, and the hits the coarse hit and
    each refinement hit that replaced the best cell.  Every cell a scan
    passed over lies outside the inner fit or inside a blocker (a row
    skipped whole lies inside the blocker that skipped it), and each hit
    was free, so the call returns the same outcome on any placed set that
    holds every blocker at its place and meets no hit (`_certified`): a
    placed item only blocks cells.  A failure of the area test is not
    certified, as it depends on no blocker."""
    if state.polys[idx].area2 > state.free_area2:
        return None
    lox, hix, loy, hiy, _ = state.fits[idx]
    blocked: set = set()
    hits = []
    if lox <= hix and loy <= hiy:
        span = max(hix - lox, hiy - loy)
        step = max(1, -(-span // COARSE_CELLS))  # ceil division
        memo: dict = {}
        ix0, iy0, ix1, iy1 = state.bboxes[idx]
        blockers = []
        for j in state.tree.query((lox + ix0, loy + iy0, hix + ix1, hiy + iy1)):
            ox, oy = state.offsets[j]
            bx0, by0, bx1, by1 = state.bboxes[j]
            blockers.append((by0 + oy - iy1, by1 + oy - iy0,
                             (bx0 + ox - ix1, bx1 + ox - ix0, state.parts[j], ox, oy, j)))
        blockers.sort(key=lambda b: -b[2][1])
        best = _scan_bottom_left(state, idx, blockers, lox, hix, loy, hiy, step,
                                 memo, blocked)
        if best is not None:
            hits.append(best)
            while step > 1:
                prev, step = step, step // 2
                x0, x1 = max(lox, best[0] - prev), min(hix, best[0] + prev)
                y0, y1 = max(loy, best[1] - prev), min(hiy, best[1] + prev)
                near = [b for b in blockers
                        if b[0] < y1 and y0 < b[1] and b[2][0] < x1 and x0 < b[2][1]]
                cand = _scan_bottom_left(state, idx, near, x0, x1, y0, y1, step,
                                         memo, blocked)
                if cand is not None and cand != best:
                    best = cand
                    hits.append(best)
    outcome = hits[-1] if hits else None
    blocked = tuple(blocked)
    places = tuple(map(state.offsets.__getitem__, blocked))
    state.record.certs[idx].append((outcome, blocked, places, tuple(hits)))
    return outcome


def _certified(state: PlacementState, idx: int):
    """The first of item idx's certificates in the state's record (see
    `find_offset`) that holds on the state's placed set, or None: every
    blocker is placed at its place in the certificate, and no placed item
    meets the item at any hit.  The blockers need no hit test: each hit
    was free with them where they are."""
    offsets = state.offsets
    for cert in state.record.certs[idx]:
        _, blocked, places, hits = cert
        for j, place in zip(blocked, places):
            if offsets.get(j) != place:
                break
        else:
            for hit in hits:
                if state.overlaps(idx, hit, blocked):
                    break
            else:
                return cert
    return None


def shelf_pack(instance: Instance, deadline: Optional[float] = None) -> Solution:
    """Next-fit decreasing-height shelves in an axis-aligned rectangular
    container; packs any set of squares of total area at most half the
    container square.  No item is placed once `deadline` (a
    `time.monotonic()` value) has passed."""
    if not _is_axis_rect(instance.container):
        raise ValueError("shelf placement requires an axis-aligned rectangular container")
    state = PlacementState(instance)
    cb = instance.container.bbox
    width = cb[2] - cb[0]
    height = cb[3] - cb[1]
    order = sorted(range(len(state.polys)),
                   key=lambda i: (-(state.bboxes[i][3] - state.bboxes[i][1]),
                                  -(state.bboxes[i][2] - state.bboxes[i][0]), i))
    shelf_y = 0
    shelf_h = 0
    cursor = 0
    for idx in order:
        if deadline is not None and time.monotonic() > deadline:
            break
        b = state.bboxes[idx]
        w, h = b[2] - b[0], b[3] - b[1]
        if w > width or h > height:
            continue  # fits on no shelf: it must not size or open one
        if shelf_h == 0:
            shelf_h = h
        if cursor + w > width:
            if shelf_y + shelf_h + h > height:
                continue  # no room for a new shelf; later items may still fit here
            shelf_y += shelf_h
            shelf_h = h
            cursor = 0
        off = (cb[0] + cursor - b[0], cb[1] + shelf_y - b[1])
        if state.can_place(idx, off):
            state.place(idx, off)
            cursor += w
    return state.to_solution()


def _fill(state, order, deadline) -> None:
    """Place each item of `order` at `find_offset`'s cell until `deadline`
    passes.

    At each position an outcome whose certificate in the state's record
    holds on the placed set (`_certified`) is reused; only where none does
    is the clock read and `find_offset` called, and it adds its outcome's
    certificate to the record."""
    for idx in order:
        if (cert := _certified(state, idx)) is not None:
            off = cert[0]
        elif time.monotonic() > deadline:
            break
        else:
            off = find_offset(state, idx)
        if off is not None:
            state.place(idx, off)


def _check_order(instance: Instance, order) -> None:
    items = set(order)
    if len(items) != len(order) or not items <= set(range(instance.n_items)):
        raise ValueError("order must hold distinct item indices in range(n_items)")


def solve_greedy(instance: Instance, cfg: SolverConfig,
                 deadline: Optional[float] = None,
                 order: Optional[list[int]] = None) -> Solution:
    """Greedy sequential fill in `order` (default: value density), which must
    be distinct item indices (ValueError otherwise), on a fresh record;
    output always verifies."""
    state = PlacementState(instance)
    if deadline is None:
        deadline = time.monotonic() + cfg.time_budget
    if order is None:
        order = priority_order(instance, Ordering.VALUE_DENSITY)
    _check_order(instance, order)
    _fill(state, order, deadline)
    return state.to_solution()


def _search(best, order, seed, deadline, progress) -> Solution:
    """`improve_local`'s search from the incumbent state `best`, with `order`
    as the current order; every refill is a state on `best`'s record."""
    rng = Rng(seed, stream=0x15EA9C4)
    current, value = tuple(order), best.value
    filled = {current}
    n = len(current)
    for step in range(1, SEARCH_STEPS + 1):
        if n < 2 or time.monotonic() > deadline:
            break
        i = rng.below(n)
        j = min(n - 1, max(0, i + rng.in_range(-8, 8)))
        cand = list(current)
        cand[i], cand[j] = cand[j], cand[i]
        cand = tuple(cand)
        if cand in filled:
            continue
        filled.add(cand)
        state = PlacementState(best.instance, best.record)
        _fill(state, cand, deadline)
        if state.value >= value:
            current, value = cand, state.value
        if state.value > best.value:
            best = state
            if progress is not None:
                progress(step, best.value)
    return best.to_solution()


def improve_local(instance: Instance, start: Solution, cfg: SolverConfig,
                  deadline: Optional[float] = None,
                  progress: Optional[Callable] = None,
                  order: Optional[list[int]] = None) -> Solution:
    """Order search from a feasible start; packed value never decreases.

    The start is the incumbent, and `order`, at the start's value, the
    first current order; by default, the start's items and then the rest,
    each in value-density order, whose fill is the start when the start is
    a density-order greedy fill.  Each of `SEARCH_STEPS` steps swaps two
    positions at most 8 apart in the current order.  An order already
    filled is skipped.  Any other is filled by `_fill` from an empty state
    on one fresh record, reusing any outcome whose certificate holds.  The
    candidate becomes the current order if its value is not lower than the
    current one, and the best if its value is higher.  A start that does
    not verify, or an `order` that is not distinct item indices or that
    leaves out an item the start places, raises ValueError."""
    if not verify(instance, start).valid:
        raise ValueError("starting solution does not verify")
    state = PlacementState(instance)
    for pl in start.placements:
        state.place(pl.item_index, pl.offset)
    if deadline is None:
        deadline = time.monotonic() + cfg.time_budget
    if order is None:
        density = priority_order(instance, Ordering.VALUE_DENSITY)
        order = ([i for i in density if i in state.offsets]
                 + [i for i in density if i not in state.offsets])
    _check_order(instance, order)
    if not state.offsets.keys() <= set(order):
        raise ValueError("order must hold every item the start places")
    return _search(state, order, cfg.seed, deadline, progress)


def solve(instance: Instance, cfg: SolverConfig,
          progress: Optional[Callable] = None) -> Solution:
    """Greedy under each start order, then the order search from the first
    best fill and its order, all states on one `Record`; always returns a
    verifying solution."""
    deadline = time.monotonic() + cfg.time_budget
    record = Record(instance)
    base = priority_order(instance, Ordering.VALUE_DENSITY)
    orders = [base]
    if instance.n_items <= 25:
        # small: the area order plus a few shuffles of the density order
        orders.append(priority_order(instance, Ordering.AREA_DESC))
        shuffle_rng = Rng(cfg.seed, stream=0x5132)
        for _ in range(3):
            order = list(base)
            shuffle_rng.shuffle(order)
            orders.append(order)
    starts = []
    for order in orders:
        state = PlacementState(instance, record)
        _fill(state, order, deadline)
        starts.append((state, order))
    state, order = max(starts, key=lambda s: s[0].value)  # the first best
    if progress is not None:
        progress(0, state.value)
    return _search(state, order, cfg.seed, deadline, progress)
