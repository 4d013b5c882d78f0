"""Exact arithmetic for frequency lattices over declared irrationals.

Real numbers like 1 + 2*sqrt(2) are carried as exact rational coordinate
vectors over a user-declared basis of reals (assumed Q-independent, not
verified); floats are kept only as evaluation shadows.  On top of that sit
integer-lattice routines: the integer kernel of an integer matrix and the
canonical generating set of the additive group spanned by a finite set of
frequencies, held as integer numerators over one denominator.  All lattice
arithmetic is over Python's arbitrary-precision integers: no overflow.
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
    rows = [[_as_fraction(x) for x in r] for r in rows]
    den = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (den // x.denominator) for x in r] for r in rows], den


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
        return RealQ(self, tuple(_as_fraction(c) for c in coeffs))


@dataclass(frozen=True)
class RealQ:
    """Exact rational coordinate vector over a FrequencyBasis.

    Equality and hashing are exact (coordinates only); ``value`` is the
    float shadow, the plain dot product with the basis floats taken in
    declared order.
    """

    basis: FrequencyBasis
    coeffs: tuple[Fraction, ...]
    value: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))
        if len(self.coeffs) != self.basis.dim:
            raise ValueError(
                f"expected {self.basis.dim} coordinates, got {len(self.coeffs)}"
            )
        shadow = 0.0
        for c, v in zip(self.coeffs, self.basis.values):
            shadow += float(c) * v
        object.__setattr__(self, "value", shadow)

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
    equality and hashing are on ints.  ``coords`` is the same point as
    RealQs, built on first use, for reference checks.
    """

    basis: FrequencyBasis
    num: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        num = tuple(tuple(c) for c in self.num)
        if not num:
            raise ValueError("frequency needs at least one coordinate")
        if any(len(c) != self.basis.dim for c in num):
            raise ValueError(f"expected {self.basis.dim} coordinates per component")
        if self.den < 1:
            raise ValueError("frequency denominator must be positive")
        g = math.gcd(self.den, *(x for c in num for x in c))
        if g > 1:
            num = tuple(tuple(x // g for x in c) for c in num)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def of(cls, basis: FrequencyBasis, rows: Sequence[Sequence]) -> "Frequency":
        return cls(basis, *_clear(rows))

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
        return json.dumps([[str(Fraction(x, self.den)) for x in c] for c in self.num])

    def __add__(self, other: "Frequency") -> "Frequency":
        if other.basis != self.basis or other.n != self.n:
            raise ValueError("frequencies disagree in basis or dimension")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Frequency(self.basis, tuple(tuple(x * a + y * b for x, y in zip(c, d))
                                           for c, d in zip(self.num, other.num)), den)

    def __neg__(self) -> "Frequency":
        return Frequency(self.basis, tuple(tuple(-x for x in c) for c in self.num), self.den)

    def scale(self, k: int) -> "Frequency":
        return Frequency(self.basis, tuple(tuple(k * x for x in c) for c in self.num), self.den)


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
    """
    if not mat:
        return mat, []
    width = ncols if ncols is not None else len(mat[0])
    nrows = len(mat)
    pivots: list[int] = []
    r = 0
    for c in range(width):
        # Euclidean reduction until at most one row below r has a nonzero
        # entry in this column.
        while True:
            live = [i for i in range(r, nrows) if mat[i][c]]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(mat[i][c]))
            base = live[0]
            for i in live[1:]:
                q = mat[i][c] // mat[base][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[base])]
        live = [i for i in range(r, nrows) if mat[i][c]]
        if not live:
            continue
        i0 = live[0]
        mat[r], mat[i0] = mat[i0], mat[r]
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


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the lattice {k in Z^ncols : A k = 0} for an integer matrix A.

    ``rows`` holds the matrix rows, each of length ``ncols``.  The result is
    canonical: vectors in Hermite-reduced order with positive leading
    entries, each primitive.  Empty list iff the kernel is trivial.
    """
    if any(len(r) != ncols for r in rows):
        raise ValueError("row length disagrees with ncols")
    if ncols == 0:
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
    kernel = [row[nprof:] for row in work[len(pivots):]]
    if not kernel:
        return []
    kernel, _ = _hermite(kernel)
    out = []
    for vec in kernel:
        if not any(vec):
            continue
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


def _solve_int_rows(hnf_rows, pivot_cols, v: list[int]):
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
    integer vectors of n blocks of q basis coordinates over the common
    denominator ``den``, with pivot columns ``pivots``.  Only this module
    reads that layout: the flux takes the generators and their integer
    combinations as per-component q-tuples (``generators``, ``vector``),
    and ``frequencies`` is the same generators in frequency space.
    """

    basis: FrequencyBasis
    n: int
    rows: tuple[tuple[int, ...], ...] = ()
    pivots: tuple[int, ...] = ()
    den: int = 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _blocks(self, row) -> list[tuple[int, ...]]:
        q = self.basis.dim
        return [tuple(row[i:i + q]) for i in range(0, len(row), q)]

    @cached_property
    def generators(self) -> tuple[list[tuple[int, ...]], ...]:
        """lambda_j as one q-tuple of numerators over ``den`` per component."""
        return tuple(self._blocks(row) for row in self.rows)

    def vector(self, kbar) -> list[tuple[int, ...]]:
        """sum_j kbar_j lambda_j, one q-tuple of numerators over ``den`` per component."""
        flat = [0] * (self.n * self.basis.dim)
        for kj, row in zip(kbar, self.rows):
            if kj:
                flat = [a + kj * x for a, x in zip(flat, row)]
        return self._blocks(flat)

    @cached_property
    def frequencies(self) -> tuple[Frequency, ...]:
        """The generators as frequencies, built on first use."""
        return tuple(Frequency(self.basis, comp, self.den) for comp in self.generators)


def group_basis(spectrum: Iterable[Frequency]) -> SpectrumGroupBasis:
    """Smallest additive group containing the given frequencies.

    Rational coordinate rows are scaled by one global denominator (per-row
    scaling would change the generated group) and Hermite-reduced over Z.
    Rank 0 for an empty or all-zero spectrum; an empty one has no basis or
    dimension, so it gets the rational basis and n = 1.
    """
    freqs = list(spectrum)
    if not freqs:
        return SpectrumGroupBasis(FrequencyBasis.rational(), 1)
    basis, n = freqs[0].basis, freqs[0].n
    for f in freqs:
        if f.basis != basis or f.n != n:
            raise ValueError("spectrum frequencies disagree in basis or dimension")
    den = math.lcm(*(f.den for f in freqs))
    int_rows = list(dict.fromkeys(
        tuple(x * (den // f.den) for c in f.num for x in c) for f in freqs))
    work, pivots = _hermite([list(r) for r in int_rows if any(r)])
    gb = SpectrumGroupBasis(basis, n, tuple(tuple(r) for r in work[: len(pivots)]),
                            tuple(pivots), den)
    for r in int_rows:
        assert _solve_int_rows(gb.rows, gb.pivots, list(r)) is not None, \
            "input frequency must lie in its own group"
    return gb


def member_coords(freq: Frequency, gb: SpectrumGroupBasis) -> tuple[int, ...] | None:
    """Integer coordinates of ``freq`` over the group basis, or None.

    None when the exact solve has no integer solution (the frequency lies
    outside the group).
    """
    if freq.basis != gb.basis or freq.n != gb.n:
        raise ValueError("frequency does not match the group's basis/dimension")
    if gb.den % freq.den:
        return None
    mul = gb.den // freq.den
    ks = _solve_int_rows(gb.rows, gb.pivots, [x * mul for c in freq.num for x in c])
    return None if ks is None else tuple(ks)
