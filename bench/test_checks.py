"""Tests of the benchmark's own checks.

    python3 -m pytest -q bench/test_checks.py

A check that lets a wrong output through makes every figure of the
benchmark meaningless, so the checks are themselves tested on outputs
tampered with after the program produced them.
"""
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import program  # noqa: E402
import workloads  # noqa: E402


def test_overlap_area_is_exact():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert oracle.overlap_area2(square, square) == 32
    assert oracle.overlap_area2(square, oracle.moved(square, (4, 0))) == 0
    assert oracle.overlap_area2(square, oracle.moved(square, (3, 3))) == 2
    # an L whose notch holds the square: boxes overlap, interiors do not
    ell = [(0, 0), (8, 0), (8, 4), (4, 4), (4, 8), (0, 8)]
    assert oracle.overlap_area2(ell, oracle.moved(square, (4, 4))) == 0
    assert oracle.overlap_area2(ell, oracle.moved(square, (3, 4))) == 8


def test_area_bound_is_a_fractional_knapsack():
    # doubled areas: capacity 10; densities 3, 2, 1
    assert oracle.area_bound(10, [(4, 12), (4, 8), (4, 4)]) == 12 + 8 + 2
    assert oracle.area_bound(10, [(20, 20)]) == 10


@pytest.fixture(scope="module")
def solved(request):
    """One small solve-converge round, with its outputs and expectations."""
    saved = workloads.SOLVE_CORPUS
    workloads.SOLVE_CORPUS = (("atris", dict(seed=3, n_target=8)),)
    request.addfinalizer(lambda: setattr(workloads, "SOLVE_CORPUS", saved))
    pp = program.load()
    wl = workloads.SolveConverge()
    corpus = wl.setup(pp, seed=1)
    expected = wl.expect(pp, corpus)
    outputs = wl.run(pp, corpus, {})
    return pp, wl, corpus, expected, outputs


def _failed(wl, pp, corpus, expected, outputs):
    return sum(v is not None for v in wl.check(pp, corpus, expected, outputs, {}))


def test_untouched_output_passes(solved):
    pp, wl, corpus, expected, outputs = solved
    assert _failed(wl, pp, corpus, expected, outputs) == 0


def test_item_moved_onto_another_is_failed(solved):
    pp, wl, corpus, expected, outputs = solved
    sol, _, report, elapsed = outputs[0]
    layout = [(p.item_index, p.offset) for p in sol.placements]
    fault = workloads._overlap_fault(expected[0]["items"], layout,
                                     workloads.random.Random(0))
    assert fault is not None
    x, _, off = fault
    tampered = pp.model.Solution(sol.instance_name, tuple(
        pp.model.Placement(i, off if i == x else o) for i, o in layout))
    # the report still claims the original, valid packing
    forged = [(tampered, tampered, report, elapsed)]
    assert report.valid
    assert _failed(wl, pp, corpus, expected, forged) == 1


def test_wrong_packed_value_is_failed(solved):
    pp, wl, corpus, expected, outputs = solved
    sol, parsed, report, elapsed = outputs[0]
    forged = pp.verifier.VerifyReport(True, report.packed_value + 1, None)
    assert _failed(wl, pp, corpus, expected, [(sol, parsed, forged, elapsed)]) == 1


def test_value_above_the_bound_is_failed(solved):
    pp, wl, corpus, expected, outputs = solved
    exp = dict(expected[0], bound=Fraction(0))
    assert _failed(wl, pp, corpus, [exp], outputs) == 1
