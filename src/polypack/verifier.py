"""Exact solution verification with a sort-and-sweep broad phase.

The broad phase keeps the translated item bounding boxes sorted by min x and
hands only pairs whose box interiors overlap to the exact polygon predicate
(the one-axis sweep of I-COLLIDE, Cohen, Lin, Manocha & Ponamgi 1995).
Because a polygon's open interior is strictly inside its bounding box, two
placements whose boxes merely touch can never conflict, so the candidate set
is a true superset of the overlapping pairs and nothing is missed.  This is
the only whole-box filter: the exact predicates test convex parts and never
compare the whole boxes again.

`verify` queries the index once per placement, in placement order, and
exact-tests the later placements it returns, so pairs are tested in
(pos_a, pos_b) order and the first overlap ends the check; memory stays
O(n) whatever the input.  The solver keeps its own index of placed items:
its grid scan queries it once per scan, with the box the item sweeps over
the scan's window, `can_place` once per call, and a certificate's hit
check once per hit.  The index keeps boxes
in width classes (widths below 2**k), and a query scans each class only as
far left as that class's widths reach, so one wide box costs its own
class's scans, not everyone's.
Time is O(n log n) plus those scans: O(n^2) when boxes overlap pairwise in
a valid packing (n thin parallel diagonal slivers, whose n(n-1)/2 box pairs
all need an exact test).

Checks run in a fixed order (indices, containment, pairwise overlap) and the
first violation in deterministic scan order is reported; a valid solution's
packed value is the exact sum of its item values.  Offsets must be integers:
a non-integer offset raises TypeError from the exact predicates.
"""
from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Optional

from .geom import Box, contained_in_convex, interiors_overlap
from .model import Instance, Solution


class BoxIndex:
    """Integer boxes keyed by unique id, sorted by min x within width classes.

    Class k holds the boxes of width below 2**k, so a stored box of class k
    can meet a query box only if its min x lies in
    (query.minx - 2**k + 1, query.maxx); each class's slice is scanned and
    filtered exactly.  One wide box thus widens only its own class's scans.
    """

    def __init__(self):
        self._classes: dict[int, list[tuple[int, int]]] = {}  # k -> sorted (minx, id)
        self._boxes: dict[int, Box] = {}

    def insert(self, ident: int, box: Box) -> None:
        k = (box[2] - box[0]).bit_length()
        insort(self._classes.setdefault(k, []), (box[0], ident))
        self._boxes[ident] = box

    def remove(self, ident: int, box: Box) -> None:
        keys = self._classes.get((box[2] - box[0]).bit_length(), [])
        i = bisect_left(keys, (box[0], ident))
        if i < len(keys) and keys[i] == (box[0], ident):
            del keys[i]
            del self._boxes[ident]

    def query(self, box: Box) -> set[int]:
        """Ids of all stored boxes whose interiors overlap `box`."""
        boxes = self._boxes
        x0, y0, x1, y1 = box
        out: set[int] = set()
        for k, keys in self._classes.items():
            lo = bisect_left(keys, (x0 - (1 << k) + 2,))
            hi = bisect_left(keys, (x1,), lo)
            for _, ident in keys[lo:hi]:
                b = boxes[ident]
                if x0 < b[2] and y0 < b[3] and b[1] < y1:
                    out.add(ident)
        return out

    def candidate_pairs(self) -> list[tuple[int, int]]:
        """All id pairs (a, b), a < b, whose box interiors overlap, sorted."""
        boxes = self._boxes
        return sorted((a, b) for a in boxes for b in self.query(boxes[a]) if a < b)


# The broad phase's former name, still exported.
QuadTree = BoxIndex


class ViolationKind(enum.Enum):
    DUPLICATE_ITEM = "DuplicateItem"
    INDEX_OUT_OF_RANGE = "IndexOutOfRange"
    NOT_CONTAINED = "NotContained"
    OVERLAP = "Overlap"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    item_indices: tuple[int, ...]


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    packed_value: int
    violation: Optional[Violation] = None

    def to_json_obj(self, instance_name: str = "") -> dict:
        obj = {
            "type": "cgshop2024_verification",
            "instance_name": instance_name,
            "valid": self.valid,
            "packed_value": self.packed_value,
            "violation": None,
        }
        if self.violation is not None:
            obj["violation"] = {
                "kind": self.violation.kind.value,
                "item_indices": list(self.violation.item_indices),
            }
        return obj


class InstanceMismatch(ValueError):
    """Solution names a different instance."""


def placement_box(instance: Instance, item_index: int, offset) -> Box:
    b = instance.items[item_index].polygon.bbox
    dx, dy = offset
    return (b[0] + dx, b[1] + dy, b[2] + dx, b[3] + dy)


def build_index(instance: Instance, solution: Solution) -> BoxIndex:
    """Box index over the translated item bounding boxes, keyed by placement
    position within the solution."""
    index = BoxIndex()
    for pos, pl in enumerate(solution.placements):
        index.insert(pos, placement_box(instance, pl.item_index, pl.offset))
    return index


def verify(instance: Instance, solution: Solution) -> VerifyReport:
    """Check index validity, containment and pairwise interior disjointness.

    Returns the first violation found in deterministic order; a valid report
    carries the exact packed value.
    """
    if solution.instance_name != instance.name:
        raise InstanceMismatch(
            f"solution is for {solution.instance_name!r}, not {instance.name!r}")
    n = instance.n_items
    seen: set[int] = set()
    for pl in solution.placements:
        if not 0 <= pl.item_index < n:
            return VerifyReport(False, 0, Violation(
                ViolationKind.INDEX_OUT_OF_RANGE, (pl.item_index,)))
        if pl.item_index in seen:
            return VerifyReport(False, 0, Violation(
                ViolationKind.DUPLICATE_ITEM, (pl.item_index,)))
        seen.add(pl.item_index)
    container = instance.container
    for pl in solution.placements:
        if not contained_in_convex(container, instance.items[pl.item_index].polygon,
                                   pl.offset):
            return VerifyReport(False, 0, Violation(
                ViolationKind.NOT_CONTAINED, (pl.item_index,)))
    # Pairs stream in (pos_a, pos_b) order, one query per position, so the
    # first overlap is found without holding every candidate pair at once.
    placements = solution.placements
    index = build_index(instance, solution)
    for pa, a in enumerate(placements):
        poly_a = instance.items[a.item_index].polygon
        box_a = placement_box(instance, a.item_index, a.offset)
        for pb in sorted(pb for pb in index.query(box_a) if pb > pa):
            b = placements[pb]
            if interiors_overlap(poly_a, a.offset,
                                 instance.items[b.item_index].polygon, b.offset):
                return VerifyReport(False, 0, Violation(
                    ViolationKind.OVERLAP, (a.item_index, b.item_index)))
    packed = sum(instance.items[pl.item_index].value for pl in placements)
    return VerifyReport(True, packed, None)
