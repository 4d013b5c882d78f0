"""Exact frequency arithmetic, integer kernels, and group bases."""

import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apcl.freqlattice as freqlattice
from apcl.freqlattice import (
    Frequency,
    FrequencyBasis,
    _bareiss,
    _clear,
    _group,
    _hermite,
    group_basis,
    in_lattice,
    integer_kernel,
    member_coords,
)
from apcl.trigpoly import TrigPoly
from bitwise import same_bits
import reference

B1 = FrequencyBasis.rational()
B2 = FrequencyBasis.with_sqrt(2)

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


def test_basis_validation():
    with pytest.raises(ValueError):
        FrequencyBasis(("a",), (2.0,))  # unit must come first
    with pytest.raises(ValueError):
        FrequencyBasis(("1", "x"), (1.0, 1.0))  # distinct values
    with pytest.raises(ValueError):
        FrequencyBasis(("1", "x"), (1.0, 0.0))  # nonzero
    with pytest.raises(ValueError):
        FrequencyBasis((), ())


def test_real_value_examples():
    assert B2.real([0, 0]).value == 0.0
    x = B2.real([1, 1])
    assert x.value == pytest.approx(1.0 + 2.0 ** 0.5, abs=1e-15)
    assert B2.real([Fraction(-3, 2), 0]).value == -1.5


def test_realq_arithmetic():
    a = B2.real([Fraction(1, 2), Fraction(1, 3)])
    b = B2.real([Fraction(1, 2), Fraction(-1, 3)])
    assert (a + b).coeffs == (Fraction(1), Fraction(0))
    assert (a - a).is_zero
    assert (-a).coeffs == (Fraction(-1, 2), Fraction(-1, 3))
    assert a.scale(Fraction(3)).coeffs == (Fraction(3, 2), Fraction(1))


def test_realq_products_closed_quadratic():
    s = B2.real([0, 1])  # sqrt(2)
    assert (s * s).coeffs == (Fraction(2), Fraction(0))
    a = B2.real([1, 1])
    # (1+s)^2 = 3 + 2s
    assert (a * a).coeffs == (Fraction(3), Fraction(2))
    r = reference.rational(B2, Fraction(2, 3))
    assert (r * s).coeffs == (Fraction(0), Fraction(2, 3))


def test_realq_product_without_table_fails():
    b = FrequencyBasis(("1", "pi"), (1.0, 3.141592653589793))
    p = b.real([0, 1])
    with pytest.raises(ValueError):
        p * p
    # rational factors still work
    assert (reference.rational(b, 2) * p).coeffs == (Fraction(0), Fraction(2))


def cleared(rows):
    """Each rational row times the lcm of its denominators: same kernel, integer entries."""
    out = []
    for r in rows:
        den = math.lcm(*(Fraction(c).denominator for c in r))
        out.append([int(Fraction(c) * den) for c in r])
    return out


def test_integer_kernel_one_relation():
    ker = integer_kernel(cleared([[Fraction(1), Fraction(1)]]), 2)
    assert ker == [(1, -1)]


def test_integer_kernel_trivial():
    assert integer_kernel([[1, 0], [0, 1]], 2) == []


def test_integer_kernel_rank2_documented():
    ker = integer_kernel(cleared([[Fraction(1, 2), Fraction(1, 3), Fraction(0)]]), 3)
    assert len(ker) == 2
    assert in_lattice((2, -3, 0), ker)
    assert in_lattice((0, 0, 1), ker)
    # brute force: every small kernel vector lies in the returned lattice
    for k in product(range(-3, 4), repeat=3):
        if 3 * k[0] + 2 * k[1] == 0:
            assert in_lattice(k, ker)
        else:
            assert not in_lattice(k, ker)


def test_integer_kernel_empty_matrix():
    ker = integer_kernel([], 2)
    assert ker == [(1, 0), (0, 1)]


@given(
    st.lists(
        st.lists(rationals, min_size=3, max_size=3),
        min_size=0,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_integer_kernel_exact_annihilation(rows):
    ker = integer_kernel(cleared(rows), 3)
    for k in ker:
        from math import gcd

        assert gcd(gcd(abs(k[0]), abs(k[1])), abs(k[2])) == 1
        for row in rows:
            assert sum(Fraction(c) * ki for c, ki in zip(row, k)) == 0
    # no small integer kernel vector escapes the returned lattice
    for k in product(range(-3, 4), repeat=3):
        if any(k) and all(
            sum(Fraction(c) * ki for c, ki in zip(row, k)) == 0 for row in rows
        ):
            assert in_lattice(k, ker)


small_matrices = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.integers(-12, 12), min_size=width, max_size=width), min_size=1, max_size=5))


@given(small_matrices, st.data())
@settings(max_examples=200, deadline=None)
def test_hermite_matches_the_sort_and_reduce_reference(mat, data):
    # the Hermite rows are unique, so the extended-gcd folds and the sorted
    # Euclid steps give the same rows and pivots on the pivot-eligible columns
    width = len(mat[0])
    ncols = data.draw(st.none() | st.integers(0, width))
    work = [list(r) for r in mat]
    rows, pivots = _hermite(work, ncols)
    ref_rows, ref_pivots = reference.hermite([list(r) for r in mat], ncols)
    assert rows is work
    assert pivots == ref_pivots
    w = width if ncols is None else ncols
    assert [r[:w] for r in rows] == [r[:w] for r in ref_rows[:len(pivots)]] + \
        [[0] * w] * (len(mat) - len(pivots))
    # a unimodular transform keeps the lattice the rows span
    assert all(in_lattice(r, rows) for r in mat) and all(in_lattice(h, mat) for h in rows)
    vec = data.draw(st.lists(st.integers(-12, 12), min_size=width, max_size=width))
    with mock.patch.object(freqlattice, "_hermite", reference.hermite):
        ref_kernel = integer_kernel([list(r) for r in mat], width)
        ref_member = in_lattice(vec, mat)
    assert integer_kernel([list(r) for r in mat], width) == ref_kernel
    assert in_lattice(vec, mat) == ref_member


@st.composite
def kernel_cases(draw):
    """(rows, ncols): up to 8 rows of 1 to 4 entries in -3..3, with zero,
    duplicate and dependent rows mixed in, and at times a column that is
    an integer combination of the others, so that the kernel is not trivial."""
    ncols = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    while len(rows) < 8 and draw(st.booleans()):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]) if rows
                    else st.just("zero"))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    if ncols > 1 and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        coef = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        for r in rows:
            r[c] = sum(w * x for k, (w, x) in enumerate(zip(coef, r)) if k != c)
    return draw(st.permutations(rows)), ncols


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_integer_kernel_with_its_rank_test_matches_the_hermite_reference(case):
    rows, ncols = case
    assert integer_kernel([list(r) for r in rows], ncols) == reference.kernel(rows, ncols)


def _det(mat):
    """Leibniz's determinant of a square integer matrix."""
    n = len(mat)
    out = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        out += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(n))
    return out


square_matrices = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))


@given(square_matrices)
@settings(max_examples=200, deadline=None)
def test_bareiss_last_pivot_is_the_determinant(mat):
    # every entry of the fraction-free elimination is a minor, so its last
    # pivot is +-det, and 0 when the matrix is singular
    assert abs(_bareiss([list(r) for r in mat], len(mat))) == abs(_det(mat))


def test_equal_bases_that_are_distinct_objects_compare_and_hash_equal():
    a, b = FrequencyBasis.with_sqrt(2), FrequencyBasis.with_sqrt(2)
    assert a is not b and a == b and hash(a) == hash(b)
    # the product table takes no part in equality
    bare = FrequencyBasis(a.labels, a.values)
    assert bare == a and hash(bare) == hash(a)
    assert a != FrequencyBasis.with_sqrt(3) and a != B1
    assert a.__eq__(a.labels) is NotImplemented


@given(st.integers(1, 3), st.integers(1, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_group_coordinates_are_member_coords(n, q, data):
    basis = B1 if q == 1 else B2
    rows = st.lists(st.lists(rationals, min_size=q, max_size=q), min_size=n, max_size=n)
    freqs = [Frequency.of(basis, r) for r in data.draw(st.lists(rows, min_size=1, max_size=5))]
    # with the negatives of some of them, as in a conjugate-closed spectrum
    freqs += [-f for f in freqs[:data.draw(st.integers(0, len(freqs)))]]
    gb, coords = _group(freqs)
    assert coords == [member_coords(f, gb) for f in freqs]


def test_group_basis_periodic_pair():
    lam = Frequency.of(B1, [[1], [0]])
    gb = group_basis([lam, -lam])
    assert gb.rank == 1
    assert member_coords(lam, gb) == (1,)
    assert member_coords(-lam, gb) == (-1,)
    assert gb.frequencies[0].floats() == pytest.approx([1.0, 0.0])


def test_group_basis_zero_spectrum():
    zero = Frequency.of(B1, [[0]])
    gb = group_basis([zero])
    assert gb.rank == 0
    assert member_coords(zero, gb) == ()
    # a nonzero frequency, also one with a new denominator, is not a member
    assert member_coords(Frequency.of(B1, [[1]]), gb) is None
    assert member_coords(Frequency.of(B1, [[Fraction(1, 3)]]), gb) is None
    assert group_basis([]).rank == 0


def test_group_basis_ignores_duplicates():
    f = Frequency.of(B2, [[Fraction(1, 2), 1]])
    g = Frequency.of(B2, [[0, Fraction(2, 3)]])
    gb = group_basis([f, f, -f, g])
    ref = group_basis([f, g])
    assert (gb.rows, gb.pivots, gb.den) == (ref.rows, ref.pivots, ref.den)
    assert member_coords(-f, gb) == tuple(-k for k in member_coords(f, ref))


def test_group_basis_sqrt2_triple():
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    both = Frequency.of(B2, [[1, 1]])
    gb = group_basis([one, rt2, both])
    assert gb.rank == 2
    assert member_coords(one, gb) == (1, 0)
    assert member_coords(rt2, gb) == (0, 1)
    assert member_coords(both, gb) == (1, 1)
    # no rank-1 subgroup catches all three: any candidate generator from
    # the list leaves another element without integer coordinates
    for gen in (one, rt2, both):
        sub = group_basis([gen])
        missing = [f for f in (one, rt2, both)
                   if member_coords(f, sub) is None]
        assert missing


def test_member_coords_examples():
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    gb = group_basis([one, rt2])
    assert member_coords(gb.frequencies[0], gb) == (1, 0)
    assert member_coords(Frequency.of(B2, [[0, 0]]), gb) == (0, 0)
    half = Frequency.of(B2, [[Fraction(1, 2), 0]])
    assert member_coords(half, gb) is None
    assert member_coords(Frequency.of(B2, [[3, -2]]), gb) == (3, -2)


def test_group_basis_idempotent():
    one = Frequency.of(B2, [[1, 0]])
    rt2 = Frequency.of(B2, [[0, 1]])
    gb = group_basis([one, rt2])
    gb2 = group_basis(list(gb.frequencies))
    assert gb2.rank == gb.rank
    for i, f in enumerate(gb.frequencies):
        expect = tuple(1 if j == i else 0 for j in range(gb.rank))
        assert member_coords(f, gb2) == expect


def _rational_rank(rows):
    """Gaussian elimination over Fraction, no pivoting tricks."""
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c] / mat[rank][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_group_basis_reconstruction_random(n, q, data):
    if q == 1:
        basis = B1
    else:
        basis = B2
    count = data.draw(st.integers(1, 8))
    freqs = []
    for _ in range(count):
        rows = data.draw(
            st.lists(
                st.lists(rationals, min_size=q, max_size=q),
                min_size=n,
                max_size=n,
            )
        )
        freqs.append(Frequency.of(basis, rows))
    gb = group_basis(freqs)
    # exact reconstruction of every input from integer coordinates
    for f in freqs:
        k = member_coords(f, gb)
        acc = Frequency.of(basis, [[0] * q for _ in range(n)])
        for ki, lam in zip(k, gb.frequencies):
            acc = acc + lam.scale(ki)
        assert acc == f
    # rank agrees with plain rational row reduction
    rows = [
        [c for coord in f.coords for c in coord.coeffs] for f in freqs
    ]
    assert gb.rank == _rational_rank(rows)


@pytest.mark.parametrize("seed", range(20))
def test_group_basis_of_a_conjugate_closed_spectrum_is_that_of_its_half(seed):
    # the Hermite rows are canonical, and -f generates nothing f does not
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    basis = B1 if q == 1 else B2
    spec = [Frequency.of(basis, [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                                  for _ in range(q)] for _ in range(n)])
            for _ in range(int(rng.integers(1, 7)))]
    half = group_basis(spec)
    whole = group_basis(spec + [-f for f in spec])
    assert (whole.rows, whole.pivots, whole.den) == (half.rows, half.pivots, half.den)


# refusals that only a direct call reaches (the harness refuses such input
# first), each with its text
@pytest.mark.parametrize("call, msg", [
    pytest.param(lambda: Frequency.of(B1, [[1]]) + Frequency.of(B1, [[1], [0]]),
                 "a 2-dimensional frequency among 1-dimensional ones", id="sum-of-dimensions"),
    pytest.param(lambda: Frequency.of(B1, [[1]]) + Frequency.of(B2, [[1, 0]]),
                 "a 1-dimensional frequency over another basis among 1-dimensional ones",
                 id="sum-of-bases"),
    pytest.param(lambda: integer_kernel([[1, 2]], 3), "row length disagrees with ncols",
                 id="kernel-row-length"),
])
def test_direct_call_refusals(call, msg):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == msg


def test_frequency_negation_exact():
    f = Frequency.of(B2, [[Fraction(2, 3), Fraction(-1, 7)]])
    g = -f
    assert (f + g).is_zero
    assert g.coords[0].coeffs == (Fraction(-2, 3), Fraction(1, 7))


def test_frequency_str_is_the_config_form():
    assert str(Frequency.of(B1, [[-1]])) == '[["-1"]]'
    assert str(Frequency.of(B2, [["2/4", "3"], [0, "-6/9"]])) == '[["1/2", "3"], ["0", "-2/3"]]'


B3 = FrequencyBasis(("1", "sqrt2", "sqrt3"), (1.0, 2 ** 0.5, 3 ** 0.5))
BASES = {1: B1, 2: B2, 3: B3}

# entries as unreduced p/q strings, so denominators mix and reduce
entries = st.builds(lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(1, 12))


@st.composite
def matrices(draw, n, q):
    """An n x q matrix of rational strings; some rows are all zero."""
    return [draw(st.just(["0"] * q) | st.lists(entries, min_size=q, max_size=q))
            for _ in range(n)]


def fractions_of(mat):
    return tuple(tuple(Fraction(x) for x in row) for row in mat)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_frequency_integer_form_matches_the_rational_oracle(n, q, data):
    basis = BASES[q]
    ma, mb = data.draw(matrices(n, q)), data.draw(matrices(n, q))
    f, g = Frequency.of(basis, ma), Frequency.of(basis, mb)
    for h, m in ((f, ma), (g, mb)):
        rat = fractions_of(m)
        # lowest terms: the least denominator that clears every entry
        assert h.den == math.lcm(*(x.denominator for row in rat for x in row))
        assert all(type(x) is int for row in h.num for x in row)
        assert tuple(c.coeffs for c in h.coords) == rat
        assert same_bits(np.array(h.floats()), np.array([c.value for c in h.coords]))
        assert h.is_zero == (not any(map(any, rat)))
        # the same point over a multiple of its denominator reduces back
        k = data.draw(st.integers(2, 6))
        same = Frequency(basis, [[k * x for x in row] for row in h.num], k * h.den)
        assert same == h and hash(same) == hash(h)
        assert (same.num, same.den) == (h.num, h.den)
    assert (f == g) == (fractions_of(ma) == fractions_of(mb))
    if f == g:
        assert hash(f) == hash(g)
    assert (-f).coords == tuple(-c for c in f.coords)
    # -f, built without the constructor's checks, is the checked result field
    # for field, and the hash is on the integers alone
    neg = Frequency(basis, [[-x for x in row] for row in f.num], f.den)
    assert [getattr(-f, fd.name) for fd in fields(Frequency)] == \
        [getattr(neg, fd.name) for fd in fields(Frequency)]
    assert hash(-f) == hash(neg) == hash((neg.num, neg.den)) and -(-f) == f
    assert (f + g).coords == tuple(a + b for a, b in zip(f.coords, g.coords))
    assert (f + g) == Frequency.of(basis, [c.coeffs for c in (f + g).coords])
    k = data.draw(st.integers(-4, 4))
    assert f.scale(k).coords == tuple(c.scale(k) for c in f.coords)
    assert f.scale(k) == Frequency.of(basis, [c.coeffs for c in f.scale(k).coords])


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_frequency_of_equals_the_checked_constructor(n, q, data):
    # ``of`` skips the gcd, which is 1 over _clear's lcm denominator: the
    # frequency is the checked one field for field, with the same hash
    basis = BASES[q]
    rows = data.draw(matrices(n, q) | st.lists(st.lists(rationals, min_size=q, max_size=q),
                                                min_size=n, max_size=n))
    f, checked = Frequency.of(basis, rows), Frequency(basis, *_clear(rows))
    assert [getattr(f, fd.name) for fd in fields(Frequency)] == \
        [getattr(checked, fd.name) for fd in fields(Frequency)]
    assert all(type(c) is tuple for c in f.num)
    assert hash(f) == hash(checked) == hash((checked.num, checked.den))


def test_frequency_of_keeps_the_shape_checks():
    with pytest.raises(ValueError, match="at least one coordinate"):
        Frequency.of(B2, [])
    with pytest.raises(ValueError, match="expected 2 coordinates per component"):
        Frequency.of(B2, [["1", "0"], ["1"]])
    with pytest.raises(TypeError, match="expected exact rational"):
        Frequency.of(B1, [[0.5]])


@given(st.integers(1, 2), st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_trigpoly_spectrum_follows_the_rational_order(n, q, data):
    basis = BASES[q]
    freqs = []
    for m in data.draw(st.lists(matrices(n, q), min_size=1, max_size=6)):
        f = Frequency.of(basis, m)
        if f not in freqs and -f not in freqs:
            freqs.append(f)
    terms = [(f, complex(i + 1)) for i, f in enumerate(freqs)]
    p = TrigPoly(basis, n, data.draw(st.permutations(terms)))
    rational = lambda f: tuple(c.coeffs for c in f.coords)  # noqa: E731
    want = sorted({h for f in freqs for h in (f, -f)}, key=rational)
    assert list(p.spectrum()) == want
    # one float row per +-pair, of its first key: the spectrum's first half
    half = want[:len(want) // 2]
    assert same_bits(p._pair_rows, np.array([f.floats() for f in half]).reshape(len(half), n))


# apcl.freqlattice is the exact layer's base; numpy made unimportable must not
# matter, on import or at run time: a group, member coordinates (through
# _numerators), the kernel of a rank-deficient matrix and lattice membership
# each give their known result; a negation, built without the constructor's
# checks, equals the checked one with the same hash, the hash is on the
# reduced integers, Frequency.of, which skips the gcd, equals the checked
# constructor on _clear's rows, and a RealQ's float shadow is built when read
NO_NUMPY = textwrap.dedent("""
    import math, sys; sys.modules["numpy"] = None
    from apcl.freqlattice import (Frequency, FrequencyBasis, _clear, group_basis, in_lattice,
                                  integer_kernel, member_coords)
    b = FrequencyBasis.with_sqrt(2)
    f, g = Frequency.of(b, [["1/2", "0"], ["0", "1"]]), Frequency.of(b, [["1/3", "0"], ["0", "0"]])
    gb = group_basis([f, g])
    assert (gb.rows, gb.den) == (((1, 0, 0, 6), (0, 0, 0, 12)), 6), gb
    assert [member_coords(h, gb) for h in (f, g, f.scale(2) + g)] == [(3, -1), (2, -1), (8, -3)]
    assert member_coords(Frequency.of(b, [["1/4", "0"], ["0", "0"]]), gb) is None
    assert integer_kernel([[1, 2, 3], [2, 4, 6]], 3) == [(1, 1, -1), (0, 3, -2)]
    assert in_lattice([2, 4], [[1, 2]]) and not in_lattice([1, 1], [[1, 2]])
    checked = Frequency(b, ((-3, 0), (0, -6)), 6)
    assert (-f).__dict__ == checked.__dict__ and hash(-f) == hash(checked)
    assert Frequency(b, [[2, 0], [0, 4]], 4) == f and hash(Frequency(b, [[2, 0], [0, 4]], 4)) == hash(f)
    assert hash(f) == hash((((1, 0), (0, 2)), 2))
    for rows in ([["1/2", "0"], ["0", "1"]], [["2/4", "-6/9"], ["0", "0"]], [[0, 0], [0, 0]], [[3, "1/6"]]):
        h, want = Frequency.of(b, rows), Frequency(b, *_clear(rows))
        assert h.__dict__ == want.__dict__ and hash(h) == hash(want), (h, want)
    assert b.real(["1", "1"]).value == 1 + math.sqrt(2)
""")


def test_the_exact_lattice_runs_without_numpy():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", NO_NUMPY], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
