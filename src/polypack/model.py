"""Canonical instance and solution representations plus strict JSON I/O.

Validation happens once, at ingestion: any Instance or Solution obtained from
`read_*` satisfies every type invariant, so downstream code never re-checks.
Each coordinate list is checked in one pass (integer, |c| <= 2^50) and each
polygon in one walk over its points (`Polygon`); an error message is built
only when a check fails, and names the first bad entry.
Writers emit a fixed key order and compact separators, making serialization
canonical (write . read . write is byte-identical).

Coordinates are integers only; floating-point tokens in coordinate or value
fields are rejected so verification can stay exact end to end.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .geom import Polygon, is_convex

INSTANCE_TYPE = "cgshop2024_instance"
SOLUTION_TYPE = "cgshop2024_solution"

MAX_COORD = 1 << 50       # |x|, |y| capped so predicate intermediates stay small
MAX_TOTAL_VALUE = 1 << 40  # sum of item values must stay below this


class ParseError(ValueError):
    """Input is not structurally valid JSON of the expected shape."""


class ValidationError(ValueError):
    """Input parsed but violates a domain invariant."""


@dataclass(frozen=True)
class Item:
    polygon: Polygon
    value: int

    def __post_init__(self):
        if type(self.value) is not int or self.value < 1:
            raise ValidationError(f"item value must be a positive integer, got {self.value!r}")


@dataclass(frozen=True)
class Instance:
    name: str
    container: Polygon
    items: tuple[Item, ...]
    meta: Optional[dict] = None

    def __post_init__(self):
        if not is_convex(self.container):
            raise ValidationError("container must be convex")
        total = sum(it.value for it in self.items)
        if total >= MAX_TOTAL_VALUE:
            raise ValidationError(
                f"sum of item values {total} exceeds bound {MAX_TOTAL_VALUE}")

    @property
    def n_items(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class Placement:
    item_index: int
    offset: tuple[int, int]


@dataclass(frozen=True)
class Solution:
    instance_name: str
    placements: tuple[Placement, ...] = ()
    # ISO-8601; nothing reads it, read_solution and write_solution carry it
    submitted_at: Optional[str] = None

    @property
    def n_placed(self) -> int:
        return len(self.placements)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _int_field(v, what: str) -> int:
    # bool is an int subclass; floats (even integral ones) are rejected
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{what} must be an integer, got {v!r}")
    return v


def _label(what: str, k: Optional[int]) -> str:
    # labels are formatted only for an error, never per item
    return what if k is None else f"{what}[{k}]"


def _coord_list(obj, what: str, k: Optional[int], axis: str) -> list[int]:
    """`obj` itself, checked in one pass to be a non-empty list of integers
    within +-MAX_COORD; errors name the list `{what}[{k}].{axis}` (no `[k]`
    when k is None).

    An entry that fails the fast test falls through to `_int_field` and the
    bound message, so the first bad entry is the one named.
    """
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{_label(what, k)}.{axis} must be a non-empty list")
    for v in obj:
        # type(v) is int excludes bool; json.loads makes no other int type
        if type(v) is not int or not -MAX_COORD <= v <= MAX_COORD:
            name = f"{_label(what, k)}.{axis} entry"
            _int_field(v, name)
            raise ValidationError(f"{name} {v} exceeds coordinate bound 2^50")
    return obj


def _polygon_from_obj(obj, what: str, k: Optional[int] = None) -> Polygon:
    """The polygon of {"x": [...], "y": [...]}, labelled as `_label` does."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{_label(what, k)} must be an object with x/y arrays")
    xs = _coord_list(obj.get("x"), what, k, "x")
    ys = _coord_list(obj.get("y"), what, k, "y")
    if len(xs) != len(ys):
        name = _label(what, k)
        raise ValidationError(f"{name}.x and {name}.y lengths differ")
    if len(xs) < 3:
        raise ValidationError(f"{_label(what, k)} needs at least 3 vertices")
    try:
        return Polygon(tuple(zip(xs, ys)))
    except ValueError as exc:
        raise ValidationError(f"{_label(what, k)}: {exc}") from exc


def _loads(data) -> dict:
    # ValueError covers bad UTF-8, bad JSON and integers past the digit
    # limit; RecursionError, arrays or objects nested too deep
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj


def read_instance(data) -> Instance:
    obj = _loads(data)
    if obj.get("type") != INSTANCE_TYPE:
        raise ParseError(f"expected type {INSTANCE_TYPE!r}, got {obj.get('type')!r}")
    name = obj.get("name")
    _require(isinstance(name, str) and name != "", "instance name must be a non-empty string")
    container = _polygon_from_obj(obj.get("container"), "container")
    items_obj = obj.get("items")
    if not isinstance(items_obj, list):
        raise ValidationError("items must be a list")
    items = []
    for k, it in enumerate(items_obj):
        if not isinstance(it, dict):
            raise ValidationError(f"items[{k}] must be an object")
        poly = _polygon_from_obj(it, "items", k)
        value = it.get("value")
        if type(value) is not int:
            _int_field(value, f"items[{k}].value")
        items.append(Item(poly, value))
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValidationError("meta must be an object when present")
    return Instance(name, container, tuple(items), meta)


def write_instance(instance: Instance) -> bytes:
    obj = {
        "type": INSTANCE_TYPE,
        "name": instance.name,
        "container": {
            "x": [x for x, _ in instance.container.coords],
            "y": [y for _, y in instance.container.coords],
        },
        "items": [
            {
                "x": [x for x, _ in it.polygon.coords],
                "y": [y for _, y in it.polygon.coords],
                "value": it.value,
            }
            for it in instance.items
        ],
    }
    if instance.meta is not None:
        obj["meta"] = _canonical_meta(instance.meta)
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def _canonical_meta(meta):
    if isinstance(meta, dict):
        return {k: _canonical_meta(meta[k]) for k in sorted(meta)}
    if isinstance(meta, (list, tuple)):
        return [_canonical_meta(v) for v in meta]
    return meta


def read_solution(data) -> Solution:
    obj = _loads(data)
    if obj.get("type") != SOLUTION_TYPE:
        raise ParseError(f"expected type {SOLUTION_TYPE!r}, got {obj.get('type')!r}")
    name = obj.get("instance_name")
    _require(isinstance(name, str) and name != "", "instance_name must be a non-empty string")
    idx = obj.get("item_indices")
    txs = obj.get("x_translations")
    tys = obj.get("y_translations")
    for label, arr in (("item_indices", idx), ("x_translations", txs),
                       ("y_translations", tys)):
        if not isinstance(arr, list):
            raise ValidationError(f"{label} must be a list")
    _require(len(idx) == len(txs) == len(tys),
             "item_indices / x_translations / y_translations lengths differ")
    placements = []
    seen = set()
    for i, tx, ty in zip(idx, txs, tys):
        if type(i) is not int or type(tx) is not int or type(ty) is not int:
            k = len(placements)  # each earlier placement was appended
            _int_field(i, f"item_indices[{k}]")
            _int_field(tx, f"x_translations[{k}]")
            _int_field(ty, f"y_translations[{k}]")
        if i < 0:
            raise ValidationError(f"item_indices[{len(placements)}] is negative")
        if i in seen:
            raise ValidationError(f"duplicate item index {i} in placements")
        seen.add(i)
        if not (-MAX_COORD <= tx <= MAX_COORD and -MAX_COORD <= ty <= MAX_COORD):
            raise ValidationError(f"translation for item {i} exceeds coordinate bound 2^50")
        placements.append(Placement(i, (tx, ty)))
    submitted_at = obj.get("submitted_at")
    if submitted_at is not None and not isinstance(submitted_at, str):
        raise ValidationError("submitted_at must be an ISO-8601 string when present")
    return Solution(name, tuple(placements), submitted_at)


def write_solution(solution: Solution) -> bytes:
    obj = {
        "type": SOLUTION_TYPE,
        "instance_name": solution.instance_name,
        "item_indices": [p.item_index for p in solution.placements],
        "x_translations": [p.offset[0] for p in solution.placements],
        "y_translations": [p.offset[1] for p in solution.placements],
    }
    if solution.submitted_at is not None:
        obj["submitted_at"] = solution.submitted_at
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def load_instance(path) -> Instance:
    with open(path, "rb") as fh:
        return read_instance(fh.read())


def save_instance(instance: Instance, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_instance(instance))


def load_solution(path) -> Solution:
    with open(path, "rb") as fh:
        return read_solution(fh.read())


def save_solution(solution: Solution, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_solution(solution))
