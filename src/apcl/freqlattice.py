"""Exact arithmetic for frequency lattices over declared irrationals.

Real numbers like 1 + 2*sqrt(2) are carried as exact rational coordinate
vectors over a user-declared basis of reals (assumed Q-independent, not
verified); floats are kept only as evaluation shadows.  On top of that sit
integer-lattice routines: the integer kernel of an integer matrix (a rank
test by fraction-free elimination, then Hermite reduction only when the
rank falls short) and the canonical generating set of the additive group
spanned by a finite set of frequencies, held as integer numerators over
one denominator.  All lattice arithmetic is over Python's
arbitrary-precision integers: no overflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

__all__ = [
    "FrequencyBasis",
    "RealQ",
    "Frequency",
    "SpectrumGroupBasis",
    "integer_kernel",
    "group_basis",
    "member_coords",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}: {x!r}")


def _clear(rows) -> tuple[list[list[int]], int]:
    """Rows of rationals as rows of integer numerators over their lcm denominator."""
    rows = [[(x if isinstance(x, Fraction) else _as_fraction(x)).as_integer_ratio() for x in r]
            for r in rows]
    den = math.lcm(*{d for r in rows for _, d in r})
    return [[a * (den // d) for a, d in r] for r in rows], den


def _config_form(num, den: int) -> list[str]:
    """Integer numerators over ``den`` in the config form, e.g. ["1/2", "3"]."""
    return [str(Fraction(x, den)) for x in num]


@dataclass(frozen=True)
class FrequencyBasis:
    """Declared basis of reals, first element always the rational unit 1.

    ``values`` are float shadows used for numeric evaluation only; exact
    statements are made in rational coordinates over this basis.  The
    optional ``products`` table gives exact coordinates of pairwise
    products of the irrational elements (indices >= 1), enabling exact
    multiplication for closed bases such as (1, sqrt 2).
    """

    labels: tuple[str, ...]
    values: tuple[float, ...]
    products: Mapping[tuple[int, int], tuple[Fraction, ...]] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.labels) != len(self.values):
            raise ValueError("labels and values must have equal length")
        if not self.values:
            raise ValueError("basis must be non-empty")
        if self.values[0] != 1.0:
            raise ValueError("basis value[0] must be the rational unit 1")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")
        if len(set(self.values)) != len(self.values):
            raise ValueError("basis values must be distinct")
        for v in self.values:
            if not math.isfinite(v) or v == 0.0:
                raise ValueError(f"basis values must be finite and nonzero, got {v}")

    def __eq__(self, other):
        # bases are shared objects, so identity settles most compares
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and self.values == other.values

    @property
    def dim(self) -> int:
        return len(self.values)

    @cached_property
    def structure(self) -> tuple[int, list, tuple[str, ...]]:
        """Integer structure constants of the basis algebra, as (P, table, labels).

        e_i e_j = sum of (w / P) e_k over the pairs (k, w) in ``table[i][j]``.
        Index 0 is the rational unit; a product of two irrational elements
        comes from ``products``, looked up as ``RealQ.__mul__`` does, and is
        None when the basis does not declare it.  Built once per basis
        object: ``products`` takes no part in equality, so bases that
        compare equal may still differ here.
        """
        q = self.dim
        tab = self.products or {}
        declared = {(i, j): tab.get((i, j)) or tab.get((j, i))
                    for i in range(1, q) for j in range(1, q)}
        entries = {ij: e for ij, e in declared.items() if e is not None}
        nums, den = _clear(entries.values())
        table = [[((i or j, den),) if not (i and j) else None for j in range(q)]
                 for i in range(q)]
        for (i, j), e in zip(entries, nums):
            table[i][j] = tuple((k, w) for k, w in enumerate(e) if w)
        return den, table, self.labels

    @classmethod
    def rational(cls) -> "FrequencyBasis":
        return cls(("1",), (1.0,))

    @classmethod
    def with_sqrt(cls, d: int) -> "FrequencyBasis":
        """Basis (1, sqrt d) with the exact product sqrt(d)^2 = d declared."""
        if d <= 0 or int(math.isqrt(d)) ** 2 == d:
            raise ValueError("need a positive non-square integer")
        return cls(
            ("1", f"sqrt{d}"),
            (1.0, math.sqrt(d)),
            products={(1, 1): (Fraction(d), Fraction(0))},
        )

    def real(self, coeffs) -> "RealQ":
        return RealQ(self, coeffs)


@dataclass(frozen=True)
class RealQ:
    """Exact rational coordinate vector over a FrequencyBasis.

    Equality and hashing are exact (coordinates only).  ``value`` is the
    float shadow, the plain dot product with the basis floats taken in
    declared order, built on first read: the exact layer never reads it.
    """

    basis: FrequencyBasis
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(_as_fraction, self.coeffs)))
        if len(self.coeffs) != self.basis.dim:
            raise ValueError(
                f"expected {self.basis.dim} coordinates, got {len(self.coeffs)}"
            )

    @cached_property
    def value(self) -> float:
        """The float shadow; OverflowError when it lies beyond float range."""
        shadow = 0.0
        for c, v in zip(self.coeffs, self.basis.values):
            shadow += float(c) * v
        if not math.isfinite(shadow):
            raise OverflowError("the float shadow lies beyond float range")
        return shadow

    def _check_same_basis(self, other: "RealQ"):
        if self.basis != other.basis:
            raise ValueError("RealQ operands use different bases")

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "RealQ") -> "RealQ":
        self._check_same_basis(other)
        return RealQ(self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RealQ") -> "RealQ":
        self._check_same_basis(other)
        return RealQ(self.basis, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RealQ":
        return RealQ(self.basis, tuple(-a for a in self.coeffs))

    def scale(self, r) -> "RealQ":
        r = _as_fraction(r)
        return RealQ(self.basis, tuple(r * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RealQ):
            return NotImplemented
        self._check_same_basis(other)
        # Bilinear expansion.  Index 0 is the rational unit; products of two
        # irrational elements need the basis product table.
        out = [Fraction(0)] * self.basis.dim
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                if i == 0:
                    out[j] += a * b
                elif j == 0:
                    out[i] += a * b
                else:
                    tab = self.basis.products or {}
                    entry = tab.get((i, j)) or tab.get((j, i))
                    if entry is None:
                        raise ValueError(
                            "product of basis elements "
                            f"{self.basis.labels[i]}*{self.basis.labels[j]} "
                            "is not declared; exact multiplication undefined"
                        )
                    for k, t in enumerate(entry):
                        out[k] += a * b * t
        return RealQ(self.basis, tuple(out))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Frequency:
    """Point of R^n with exact coordinates over one basis.

    ``num[k][i] / den`` is the coordinate of basis element i in component k:
    n q-tuples of integer numerators over one positive denominator, the
    layout of ``SpectrumGroupBasis.generators``.  Kept in lowest terms, so
    equality is on ints; the hash is on the integers alone, ``(num, den)``.
    ``coords`` is the same point as RealQs, built on first use, for
    reference checks.
    """

    basis: FrequencyBasis
    num: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        num = _shaped(self.basis, self.num)
        if self.den < 1:
            raise ValueError("frequency denominator must be positive")
        g = math.gcd(self.den, *(x for c in num for x in c))
        if g > 1:
            num = tuple(tuple(x // g for x in c) for c in num)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def _unchecked(cls, basis: FrequencyBasis, num, den: int) -> "Frequency":
        """The frequency ``num / den`` built without ``__post_init__``.

        Only for numerator tuples that are checked and in lowest terms by
        construction, as the negation of a frequency is.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    def __hash__(self) -> int:
        # equal frequencies have equal integers, so the basis need not be hashed
        return hash((self.num, self.den))

    @classmethod
    def of(cls, basis: FrequencyBasis, rows: Sequence[Sequence]) -> "Frequency":
        """The frequency of rational coordinate rows, one row of q per component.

        ``_clear``'s numerators over the lcm of the denominators are in
        lowest terms already: a prime power that divides that lcm exactly
        divides some denominator, whose numerator it does not divide.  So
        only the shape is checked.
        """
        num, den = _clear(rows)
        return cls._unchecked(basis, _shaped(basis, num), den)

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    @cached_property
    def coords(self) -> tuple[RealQ, ...]:
        """The components as RealQs, built on first use."""
        return tuple(RealQ(self.basis, tuple(Fraction(x, self.den) for x in c))
                     for c in self.num)

    def floats(self) -> tuple[float, ...]:
        return tuple(_value(c, self.den, self.basis.values) for c in self.num)

    def __str__(self) -> str:
        """The config form, e.g. [["1/2", "3"]]."""
        return json.dumps([_config_form(c, self.den) for c in self.num])

    def __add__(self, other: "Frequency") -> "Frequency":
        _check_space(other, self.basis, self.n)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Frequency(self.basis, tuple(tuple(x * a + y * b for x, y in zip(c, d))
                                           for c, d in zip(self.num, other.num)), den)

    def __neg__(self) -> "Frequency":
        return Frequency._unchecked(self.basis, tuple(tuple(-x for x in c) for c in self.num),
                                    self.den)

    def scale(self, k: int) -> "Frequency":
        return Frequency(self.basis, tuple(tuple(k * x for x in c) for c in self.num), self.den)


def _shaped(basis: FrequencyBasis, num) -> tuple[tuple[int, ...], ...]:
    """Numerator rows as tuples, refused with ValueError unless n >= 1 rows of q."""
    num = tuple(tuple(c) for c in num)
    if not num:
        raise ValueError("frequency needs at least one coordinate")
    if any(len(c) != basis.dim for c in num):
        raise ValueError(f"expected {basis.dim} coordinates per component")
    return num


def _check_space(f: Frequency, basis: FrequencyBasis, n: int):
    """Refuse with ValueError a frequency ``f`` that is not n-dimensional over ``basis``."""
    if f.n != n or f.basis != basis:
        other = "" if f.basis == basis else " over another basis"
        raise ValueError(f"a {f.n}-dimensional frequency{other} among {n}-dimensional ones")


def _numerators(f: Frequency, den: int) -> tuple[int, ...]:
    """f's numerators over ``den``, a multiple of ``f.den``, as n blocks of q in one tuple.

    Over one denominator they compare as the flattened rational coordinates do.
    """
    mul = den // f.den
    return tuple(x * mul for c in f.num for x in c)


def _value(num, den: int, values) -> float:
    """Float shadow of sum_i (num_i / den) e_i.

    The same operations in the same order as ``RealQ.value``: int / int is
    correctly rounded, as ``Fraction.__float__`` is, so the floats agree.
    A shadow beyond float range raises ValueError.
    """
    s = 0.0
    try:
        for x, v in zip(num, values):
            s += x / den * v
    except OverflowError:
        s = math.inf
    if not math.isfinite(s):
        raise ValueError("a float shadow lies beyond float range")
    return s


# ---------------------------------------------------------------------------
# Integer lattice routines.

def _hermite(mat: list[list[int]], ncols: int | None = None):
    """In-place row Hermite reduction; returns (rows, pivot_columns).

    Only the first ``ncols`` columns are eligible for pivots (rows may be
    longer, e.g. when carrying a transform tail).  On return the first
    len(pivot_columns) rows are the canonical Hermite rows: pivot columns
    strictly increasing, pivots positive, entries above each pivot reduced
    into [0, pivot).  Remaining rows are zero in the first ncols columns.
    Per column, the first row with a nonzero entry becomes the pivot row,
    and each later nonzero entry is folded into it by one unimodular
    extended-gcd combination of the two rows (Cohen 1993, sec. 2.4).  The
    Hermite rows are unique, so they do not depend on the order of folding.
    """
    if not mat:
        return mat, []
    width = ncols if ncols is not None else len(mat[0])
    nrows = len(mat)
    pivots: list[int] = []
    r = 0
    for c in range(width):
        live = [i for i in range(r, nrows) if mat[i][c]]
        if not live:
            continue
        i0 = live[0]
        mat[r], mat[i0] = mat[i0], mat[r]
        for i in live[1:]:
            a, b = mat[r][c], mat[i][c]
            if b % a == 0:  # one subtraction, and the pivot row stays
                q = b // a
                mat[i] = [y - q * x for x, y in zip(mat[r], mat[i])]
                continue
            # (g, x, y) with x a + y b = g = gcd(a, b): the rows become
            # x row_r + y row_i and (b/g) row_r - (a/g) row_i, a
            # transform of determinant -1 that zeroes row i in column c
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            mat[r], mat[i] = ([x * u + y * v for u, v in zip(mat[r], mat[i])],
                              [bg * u - ag * v for u, v in zip(mat[r], mat[i])])
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        p = mat[r][c]
        for i in range(r):
            q = mat[i][c] // p  # floor division: remainder lands in [0, p)
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g, g = +-gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _bareiss(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """The last pivot of the fraction-free elimination of ``rows``, or 0.

    Bareiss's elimination (*Math. Comp.* 22, 1968) over Python ints: per
    column c, the first row from row c down with a nonzero entry becomes
    pivot row c, and every row below it becomes (p row - a pivot_row) /
    prev, p the pivot, a the row's entry in column c and prev the pivot
    of column c - 1 (1 at first).  The division is exact: each entry is
    a minor of the matrix, so the numbers stay as small as its minors.
    With one pivot per column the last is, up to sign, the ncols x ncols
    minor on the pivot rows, nonzero (1 for no columns); a column without
    a pivot means a rank below ncols, and gives 0.
    """
    mat = list(rows)  # rows are replaced, never changed in place
    prev = 1
    for c in range(ncols):
        for i in range(c, len(mat)):
            if mat[i][c]:
                break
        else:
            return 0
        mat[c], mat[i] = mat[i], mat[c]
        top = mat[c]
        p = top[c]
        if c + 1 < ncols:  # the last column's pivot needs no elimination below it
            mat[c + 1:] = [[(p * x - r[c] * y) // prev for x, y in zip(r, top)]
                           for r in mat[c + 1:]]
        prev = p
    return prev


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the lattice {k in Z^ncols : A k = 0} for an integer matrix A.

    ``rows`` holds the matrix rows, each of length ``ncols``.  The result is
    canonical: vectors in Hermite-reduced order with positive leading
    entries, each primitive.  Empty list iff the kernel is trivial, which
    is iff A has full column rank: that is decided first, by fraction-free
    elimination (``_bareiss``), so the Hermite reduction that finds the
    vectors runs only on a rank-deficient A.
    """
    if any(len(r) != ncols for r in rows):
        raise ValueError("row length disagrees with ncols")
    if _bareiss(rows, ncols):
        return []
    # Dividing a row by its gcd keeps the kernel and the numbers small;
    # zero rows constrain nothing.
    int_rows = []
    for r in rows:
        g = math.gcd(*r)
        if g:
            int_rows.append([x // g for x in r])
    # Row-reduce the transpose augmented with an identity tail: rows of the
    # work matrix are [column profile of variable k_j | e_j].  Rows whose
    # profile part reduces to zero have tails spanning the kernel lattice.
    nprof = len(int_rows)
    work = [
        [int_rows[i][j] for i in range(nprof)] + [int(i == j) for i in range(ncols)]
        for j in range(ncols)
    ]
    work, pivots = _hermite(work, ncols=nprof)
    # the rank is below ncols (_bareiss), so these rows are nonempty and independent
    kernel, _ = _hermite([row[nprof:] for row in work[len(pivots):]])
    out = []
    for vec in kernel:
        g = math.gcd(*vec)
        # The kernel lattice is saturated, so Hermite basis vectors are
        # automatically primitive; anything else is a bug.
        assert g == 1, f"non-primitive kernel vector {vec}"
        out.append(tuple(vec))
    return out


def in_lattice(vec: Sequence[int], basis_vectors: Sequence[Sequence[int]]) -> bool:
    """Exact membership of an integer vector in the span of basis vectors."""
    if not basis_vectors:
        return not any(vec)
    mat = [list(b) for b in basis_vectors]
    mat, pivots = _hermite(mat)
    return _solve_int_rows(mat[: len(pivots)], pivots, list(vec)) is not None


def _solve_int_rows(hnf_rows, pivot_cols, v: Sequence[int]):
    """Integer coefficients expressing v over Hermite rows, or None."""
    ks = []
    for row, pc in zip(hnf_rows, pivot_cols):
        q, rem = divmod(v[pc], row[pc])
        if rem:
            return None
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        ks.append(q)
    if any(v):
        return None
    return ks


@dataclass(frozen=True, eq=False)
class SpectrumGroupBasis:
    """The additive group spanned by a finite set of frequencies, held once.

    ``rows`` are its canonical Hermite rows, the generators lambda_j as
    ``_numerators`` over the common denominator ``den``, with pivot columns
    ``pivots``.  Only this module reads that flat layout: the flux takes
    the generators per component (``generators``) and combines them
    itself, and ``frequencies`` is the same generators in frequency space.
    ``_built`` holds the coordinates of the frequencies it was built from,
    keyed by their ``(num, den)``, which ``member_coords`` looks up.
    """

    basis: FrequencyBasis
    n: int
    rows: tuple[tuple[int, ...], ...] = ()
    pivots: tuple[int, ...] = ()
    den: int = 1
    _built: Mapping[tuple, tuple[int, ...]] = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def generators(self) -> tuple[list[tuple[int, ...]], ...]:
        """lambda_j as one q-tuple of numerators over ``den`` per component."""
        q = self.basis.dim
        return tuple([row[i:i + q] for i in range(0, len(row), q)] for row in self.rows)

    @cached_property
    def frequencies(self) -> tuple[Frequency, ...]:
        """The generators as frequencies, built on first use."""
        return tuple(Frequency(self.basis, comp, self.den) for comp in self.generators)


def group_basis(spectrum: Iterable[Frequency]) -> SpectrumGroupBasis:
    """Smallest additive group containing the given frequencies.

    Rational coordinate rows are scaled by one global denominator (per-row
    scaling would change the generated group) and Hermite-reduced over Z.
    Rank 0 for an empty or all-zero spectrum; an empty one has no basis or
    dimension, so it gets the rational basis and n = 1.  Each frequency is
    then solved in the group, which must hold it ("input frequency must lie
    in its own group"); ``_group`` also returns those solves.
    """
    freqs = list(spectrum)
    if not freqs:
        return SpectrumGroupBasis(FrequencyBasis.rational(), 1)
    return _group(freqs)[0]


def _group(freqs: Sequence[Frequency]) -> tuple[SpectrumGroupBasis, list[tuple[int, ...]]]:
    """``group_basis`` of a non-empty sequence, and each frequency's coordinates in it."""
    for f in freqs:
        _check_space(f, freqs[0].basis, freqs[0].n)
    den = math.lcm(*(f.den for f in freqs))
    rows = [_numerators(f, den) for f in freqs]
    work, pivots = _hermite([list(r) for r in rows if any(r)])
    hnf = tuple(tuple(r) for r in work[: len(pivots)])
    coords = []
    for r in rows:
        ks = _solve_int_rows(hnf, pivots, r)
        assert ks is not None, "input frequency must lie in its own group"
        coords.append(tuple(ks))
    built = {(f.num, f.den): ks for f, ks in zip(freqs, coords)}
    return SpectrumGroupBasis(freqs[0].basis, freqs[0].n, hnf, tuple(pivots), den, built), coords


def member_coords(freq: Frequency, gb: SpectrumGroupBasis) -> tuple[int, ...] | None:
    """Integer coordinates of ``freq`` over the group basis, or None.

    None when the exact solve has no integer solution (the frequency lies
    outside the group).  A frequency the group was built from, or its
    negation, is looked up instead of solved.
    """
    _check_space(freq, gb.basis, gb.n)
    if gb._built:
        ks = gb._built.get((freq.num, freq.den))
        if ks is not None:
            return ks
        ks = gb._built.get((tuple([tuple([-x for x in c]) for c in freq.num]), freq.den))
        if ks is not None:
            return tuple([-k for k in ks])
    if gb.den % freq.den:
        return None
    ks = _solve_int_rows(gb.rows, gb.pivots, _numerators(freq, gb.den))
    return None if ks is None else tuple(ks)
