import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import polypack
from polypack.geom import Polygon
from polypack.model import (Instance, Item, ParseError, Placement, Solution,
                            ValidationError, read_instance, read_solution,
                            write_instance, write_solution)

TRI = {"x": [0, 8, 0], "y": [0, 0, 8]}


def minimal_instance_obj():
    return {
        "type": "cgshop2024_instance",
        "name": "tiny",
        "container": {"x": [0, 20, 20, 0], "y": [0, 0, 20, 20]},
        "items": [dict(TRI, value=7)],
    }


def test_minimal_instance():
    inst = read_instance(json.dumps(minimal_instance_obj()))
    assert inst.name == "tiny"
    assert inst.n_items == 1
    assert inst.items[0].value == 7
    assert inst.container.convex


def test_bowtie_item_rejected():
    obj = minimal_instance_obj()
    # zero-area bowtie fails the orientation check
    obj["items"][0] = {"x": [0, 2, 2, 0], "y": [0, 2, 0, 2], "value": 1}
    with pytest.raises(ValidationError):
        read_instance(json.dumps(obj))
    # self-crossing quad with positive signed area fails simplicity
    obj["items"][0] = {"x": [0, 4, 1, 3], "y": [0, 0, 3, 3], "value": 1}
    with pytest.raises(ValidationError, match="simple"):
        read_instance(json.dumps(obj))


def test_nonconvex_container_rejected():
    obj = minimal_instance_obj()
    obj["container"] = {"x": [0, 4, 4, 2, 4, 0], "y": [0, 0, 2, 2, 4, 4]}
    with pytest.raises(ValidationError, match="convex"):
        read_instance(json.dumps(obj))


def test_float_coordinates_rejected():
    obj = minimal_instance_obj()
    obj["items"][0]["x"] = [0.0, 8, 0]
    with pytest.raises(ValidationError, match="integer"):
        read_instance(json.dumps(obj))


def test_float_value_rejected():
    obj = minimal_instance_obj()
    obj["items"][0]["value"] = 7.5
    with pytest.raises(ValidationError):
        read_instance(json.dumps(obj))


def test_zero_value_rejected():
    obj = minimal_instance_obj()
    obj["items"][0]["value"] = 0
    with pytest.raises(ValidationError):
        read_instance(json.dumps(obj))


def test_coordinate_overflow_rejected():
    obj = minimal_instance_obj()
    obj["items"][0]["x"] = [0, 1 << 51, 0]
    with pytest.raises(ValidationError, match="bound"):
        read_instance(json.dumps(obj))


# A bad coordinate list and the message it gives, in the container's x list
# or in items[1].y.  Each list has one entry that fails; where two fail, the
# first is named.
BAD_COORDS = [
    ([0, 4, True], "entry must be an integer, got True"),
    ([0, 4.0, 0], "entry must be an integer, got 4.0"),
    ([0, 2**50 + 1, 0], "entry 1125899906842625 exceeds coordinate bound 2^50"),
    ([0, -2**50 - 1, 0], "entry -1125899906842625 exceeds coordinate bound 2^50"),
    ([2**51, 1.5, 0], "entry 2251799813685248 exceeds coordinate bound 2^50"),
    ([1.5, 2**51, 0], "entry must be an integer, got 1.5"),
]


@pytest.mark.parametrize("coords, message", BAD_COORDS)
def test_bad_coordinate_message(coords, message):
    obj = minimal_instance_obj()
    obj["container"]["x"] = coords + [0]
    with pytest.raises(ValidationError) as exc:
        read_instance(json.dumps(obj))
    assert str(exc.value) == "container.x " + message
    obj = minimal_instance_obj()
    obj["items"].append(dict(TRI, value=1))
    obj["items"][1]["y"] = coords
    with pytest.raises(ValidationError) as exc:
        read_instance(json.dumps(obj))
    assert str(exc.value) == "items[1].y " + message


def test_coordinates_at_the_bound_accepted():
    b = 2**50
    obj = minimal_instance_obj()
    obj["container"] = {"x": [-b, b, b, -b], "y": [-b, -b, b, b]}
    assert read_instance(json.dumps(obj)).container.bbox == (-b, -b, b, b)


@pytest.mark.parametrize("item, message", [
    (dict(TRI, x=[]), "items[1].x must be a non-empty list"),
    (dict(TRI, y="abc"), "items[1].y must be a non-empty list"),
    (dict(TRI, x=[0, 8, 0, 1]), "items[1].x and items[1].y lengths differ"),
    ({"x": [0, 8], "y": [0, 0]}, "items[1] needs at least 3 vertices"),
    (dict(TRI, value=True), "items[1].value must be an integer, got True"),
    (5, "items[1] must be an object"),
])
def test_bad_item_message(item, message):
    obj = minimal_instance_obj()
    obj["items"].append(item)
    with pytest.raises(ValidationError) as exc:
        read_instance(json.dumps(obj))
    assert str(exc.value) == message


@pytest.mark.parametrize("idx, xs, ys, message", [
    ([0, True], [0, 0], [0, 0], "item_indices[1] must be an integer, got True"),
    ([0, 1], [0, 1.0], [0, 0], "x_translations[1] must be an integer, got 1.0"),
    ([0, 1], [0, 0], [0, True], "y_translations[1] must be an integer, got True"),
    ([0, -1], [0, 0], [0, 0], "item_indices[1] is negative"),
    ([0, 1], [0, 0], [0, 2**50 + 1],
     "translation for item 1 exceeds coordinate bound 2^50"),
    ([0, 1], [0, -2**50 - 1], [0, 0],
     "translation for item 1 exceeds coordinate bound 2^50"),
    # the index is checked before the translations, x before y
    ([0, 1.0], [0, True], [0, 0.5], "item_indices[1] must be an integer, got 1.0"),
    ([0, 1], [0, True], [0, 0.5], "x_translations[1] must be an integer, got True"),
])
def test_bad_placement_message(idx, xs, ys, message):
    with pytest.raises(ValidationError) as exc:
        read_solution(json.dumps({
            "type": "cgshop2024_solution", "instance_name": "tiny",
            "item_indices": idx, "x_translations": xs, "y_translations": ys}))
    assert str(exc.value) == message


def test_value_sum_overflow_rejected():
    obj = minimal_instance_obj()
    obj["items"] = [dict(TRI, value=(1 << 39)), dict(TRI, value=(1 << 39))]
    with pytest.raises(ValidationError, match="exceeds"):
        read_instance(json.dumps(obj))


def test_malformed_json():
    with pytest.raises(ParseError):
        read_instance(b"{nope")
    with pytest.raises(ParseError):
        read_instance(json.dumps({"type": "something_else"}))


# JSON that fails to decode other than by a syntax error
UNDECODABLE = {
    "nested": b"[" * 100_000,
    "huge-integer": b'{"type": "cgshop2024_solution", "item_indices": [' + b"9" * 5000 + b"]}",
    "not-utf-8": b'{"type": "\xff"}',
}


@pytest.mark.parametrize("data", UNDECODABLE.values(), ids=UNDECODABLE.keys())
@pytest.mark.parametrize("reader", [read_instance, read_solution])
def test_undecodable_json_is_a_parse_error(reader, data):
    with pytest.raises(ParseError, match="malformed JSON"):
        reader(data)


def test_instance_round_trip_and_canonical_bytes():
    obj = minimal_instance_obj()
    obj["meta"] = {"generator": "test", "seed": 3}
    inst = read_instance(json.dumps(obj))
    data = write_instance(inst)
    again = read_instance(data)
    assert again == inst
    assert write_instance(again) == data


def test_empty_solution_parses():
    sol = read_solution(json.dumps({
        "type": "cgshop2024_solution", "instance_name": "tiny",
        "item_indices": [], "x_translations": [], "y_translations": []}))
    assert sol.n_placed == 0


def test_duplicate_item_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        read_solution(json.dumps({
            "type": "cgshop2024_solution", "instance_name": "tiny",
            "item_indices": [0, 0], "x_translations": [0, 1],
            "y_translations": [0, 1]}))


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="lengths"):
        read_solution(json.dumps({
            "type": "cgshop2024_solution", "instance_name": "tiny",
            "item_indices": [0], "x_translations": [0, 1], "y_translations": [0]}))


def test_solution_round_trip_random():
    import random
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(0, 30)
        idx = rng.sample(range(100), n)
        placements = tuple(Placement(i, (rng.randint(-50, 50), rng.randint(-50, 50)))
                           for i in idx)
        sol = Solution("inst", placements,
                       submitted_at="2023-10-0%dT12:00:00" % rng.randint(1, 9))
        data = write_solution(sol)
        again = read_solution(data)
        assert again == sol
        assert write_solution(again) == data


@pytest.mark.parametrize("value", [True, 1.0, 0, -3])
def test_item_value_must_be_positive_int(value):
    with pytest.raises(ValidationError, match="item value must be a positive integer"):
        Item(Polygon([(0, 0), (1, 0), (1, 1)]), value=value)


def test_programmatic_instance_validates():
    box = Polygon([(0, 0), (5, 0), (5, 5), (0, 5)])
    inst = Instance("x", box, (Item(Polygon([(0, 0), (1, 0), (1, 1)]), 3),))
    assert inst.n_items == 1


def test_long_staircase_item_parses_in_bounded_time():
    # One item of 10,002 vertices: a staircase of 5,000 unit steps closed by
    # a top and a left edge.  The parser checks the item for simplicity, so
    # this bounds that check on a large input at the trust boundary.  Run in
    # a fresh process so a regression to quadratic time is cut by a timeout.
    script = textwrap.dedent("""
        import json, time
        from polypack.model import read_instance
        k = 5_000
        pts = [(0, 0)]
        for i in range(k):
            pts += [(i + 1, i), (i + 1, i + 1)]
        pts.append((0, k))
        box = [(0, 0), (k, 0), (k, k), (0, k)]
        data = json.dumps({
            "type": "cgshop2024_instance", "name": "staircase",
            "container": {"x": [x for x, _ in box], "y": [y for _, y in box]},
            "items": [{"x": [x for x, _ in pts], "y": [y for _, y in pts],
                       "value": 1}]})
        start = time.monotonic()
        inst = read_instance(data)
        elapsed = time.monotonic() - start
        print(json.dumps({"s": elapsed,
                          "vertices": len(inst.items[0].polygon.coords)}))
    """)
    src = Path(polypack.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    result = json.loads(done.stdout)
    assert result["vertices"] == 10_002
    assert result["s"] < 1.0
