"""Canonical instance and solution representations plus strict JSON I/O.

Validation happens once, at ingestion: any Instance or Solution obtained from
`read_*` satisfies every type invariant, so downstream code never re-checks.
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
        if not isinstance(self.value, int) or isinstance(self.value, bool) or self.value < 1:
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


def _coord_list(obj, what: str) -> list[int]:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{what} must be a non-empty list")
    out = []
    for v in obj:
        iv = _int_field(v, f"{what} entry")
        if abs(iv) > MAX_COORD:
            raise ValidationError(f"{what} entry {iv} exceeds coordinate bound 2^50")
        out.append(iv)
    return out


def _polygon_from_obj(obj, what: str) -> Polygon:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object with x/y arrays")
    xs = _coord_list(obj.get("x"), f"{what}.x")
    ys = _coord_list(obj.get("y"), f"{what}.y")
    _require(len(xs) == len(ys), f"{what}.x and {what}.y lengths differ")
    _require(len(xs) >= 3, f"{what} needs at least 3 vertices")
    try:
        return Polygon(list(zip(xs, ys)))
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from exc


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
        poly = _polygon_from_obj(it, f"items[{k}]")
        value = _int_field(it.get("value"), f"items[{k}].value")
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
    for k, (i, tx, ty) in enumerate(zip(idx, txs, tys)):
        i = _int_field(i, f"item_indices[{k}]")
        tx = _int_field(tx, f"x_translations[{k}]")
        ty = _int_field(ty, f"y_translations[{k}]")
        _require(i >= 0, f"item_indices[{k}] is negative")
        if i in seen:
            raise ValidationError(f"duplicate item index {i} in placements")
        seen.add(i)
        if abs(tx) > MAX_COORD or abs(ty) > MAX_COORD:
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
