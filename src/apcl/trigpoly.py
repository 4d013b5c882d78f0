"""Real trigonometric polynomials with exact frequencies.

TrigPoly: finite sum of a_lam * e^{2 pi i lam.x} over frequencies lam in R^n
with exact coordinates (``Frequency``).  TorusPoly: the same over integer
frequencies on the m-torus.  Reality is a structural invariant: the
coefficient at -lam is stored and must equal the conjugate at lam.  So
evaluation sums each +-lam pair once, as a real cosine and sine, and
``solver.exact_cell_average`` adds each pair's real part: both are real
by construction.

The layout, stated here once: ``spectrum()`` sorts the keys by their sort
key (a TrigPoly's rational coordinates, a TorusPoly's integer vector).  It
holds each +-pair's first key, whose sort key's first nonzero entry is
negative (``_firsts``, in order), then the zero key when there is a mean
(``_zero``, else None), then the second keys backwards, so negation
reverses it.  ``_pair_rows`` and ``_pair_amps`` hold one float row and one
coefficient per first key.  Other modules read ``_firsts`` and ``_zero``.

The public constructors normalise their terms (``_normalize_real_terms``)
and check that their sum of |a| is a finite float, then build the one
evaluation core (``_TrigCore._set_core``); ``TorusPoly._from_pairs`` is
the lift's way into that core, with no second normalisation.
"""

from __future__ import annotations

import math

import numpy as np

from .freqlattice import Frequency, FrequencyBasis, _check_space, _numerators

__all__ = [
    "TrigPoly",
    "TorusPoly",
    "fejer_damp",
    "fejer_factor",
]

def _normalize_real_terms(items, negate, sort_key, row):
    """Enforce the a_{-key} = conj(a_key) pairing; drop exact zeros.

    Returns the terms, the self-paired key (the zero frequency) or None,
    and the +-key pairs, each met once in this one pass: one
    (sort_key(first), first, second, row(first)) per pair, first the key of
    the pair that sorts first.  ``sort_key`` gives a tuple of numbers,
    zero only at a self-paired key, and the key of ``negate(key)`` is its
    elementwise negation, as that of a linear one on integer coordinates
    is.  So it is taken once per pair: the key sorts first when its first
    nonzero entry is negative.
    """
    terms = {}
    zero = None
    pairs = []
    for key, amp in items:
        amp = complex(amp)
        if amp == 0:
            continue
        neg = negate(key)
        self_paired = key == neg
        if self_paired:
            # self-paired frequency (zero): coefficient must be real
            if amp.imag != 0.0:
                raise ValueError(f"coefficient at self-paired frequency {key} must be real")
            zero = key
        if key in terms:
            # the key or its negative came before
            if terms[key] != amp:
                raise ValueError(f"conflicting coefficients at {key}")
        elif not self_paired:
            at = sort_key(key)
            if next(filter(None, at)) < 0:
                pairs.append((at, key, neg, row(key)))
            else:
                pairs.append((tuple(-x for x in at), neg, key, row(neg)))
        terms[key] = amp
        terms[neg] = amp.conjugate()
    return terms, zero, pairs


def _items(terms) -> list:
    return list(terms.items() if hasattr(terms, "items") else terms)


class _TrigCore:
    """Evaluation core shared by TrigPoly and TorusPoly.

    Holds the reality-normalised terms, their spectrum, their mean and the
    per-pair arrays, laid out as the module docstring states.  Refuses with
    OverflowError terms whose sum of |a|, over every key and so over each
    conjugate too, is not a finite float.
    """

    def __init__(self, dim: int, items, negate, sort_key=None, row=tuple):
        terms, zero, pairs = _normalize_real_terms(
            items, negate, sort_key or (lambda k: k), row)
        try:
            amp_scale = math.fsum(abs(a) for a in terms.values())
        except OverflowError:
            amp_scale = math.inf
        if not math.isfinite(amp_scale):
            raise OverflowError("the sum of |re + i im| over the terms and their "
                                "conjugates lies beyond float range")
        self._set_core(dim, terms, zero, pairs)

    def _set_core(self, dim: int, terms: dict, zero, pairs: list):
        """The core of normalised ``terms``, their self-paired key ``zero`` (or
        None) and their +-pairs, as ``_normalize_real_terms`` gives them."""
        self.terms = terms
        self.mean = 0.0 if zero is None else terms[zero].real
        pairs.sort(key=lambda p: p[0])
        self._firsts = firsts = tuple([p[1] for p in pairs])
        self._zero = zero
        self._keys = (*firsts, *(() if zero is None else (zero,)), *[p[2] for p in pairs[::-1]])
        self._pair_rows = np.array([p[3] for p in pairs], dtype=float).reshape(len(pairs), dim)
        # the coefficient given last for the key, as ``terms`` holds it
        self._pair_amps = np.array([terms[k] for k in firsts], dtype=complex)

    def spectrum(self) -> tuple:
        return self._keys

    def eval(self, x):
        """Values at x (shape (dim,) or (N, dim)): mean + sum_pairs 2 Re(a e^{i theta}).

        With theta = 2 pi x.lam over the pairs' first keys, each pair adds
        2 re cos(theta) - 2 im sin(theta), which is real by construction.
        """
        x = np.asarray(x, dtype=float)
        # ``np.atleast_2d`` without the call: one point becomes a row
        xs = x if x.ndim >= 2 else x.reshape(1, -1)
        dim = self._pair_rows.shape[1]
        if xs.shape[-1] != dim:
            raise ValueError(f"points must have {dim} coordinates")
        if len(self._pair_amps) == 0:
            out = np.full(xs.shape[0], self.mean)
        else:
            theta = xs @ self._pair_rows.T
            theta *= 2.0 * np.pi
            amps = self._pair_amps
            out = np.cos(theta) @ amps.real
            out -= np.sin(theta) @ amps.imag
            out *= 2.0
            out += self.mean
        return float(out[0]) if x.ndim == 1 else out


class TrigPoly(_TrigCore):
    """sum of a_lam e^{2 pi i lam.x}, lam exact, reality enforced."""

    def __init__(self, basis: FrequencyBasis, n: int, terms):
        items = _items(terms)
        for lam, _ in items:
            _check_space(lam, basis, n)
        self.basis = basis
        self.n = n
        # the order of the rational coordinates, as numerators over one denominator
        den = math.lcm(*(lam.den for lam, _ in items))
        super().__init__(
            n, items, lambda f: -f,
            sort_key=lambda f: _numerators(f, den),
            row=Frequency.floats,
        )

    # bound in the class body (here and in TorusPoly): bench/tracer.py
    # wraps ``eval`` through each class's own __dict__
    eval = _TrigCore.eval


class TorusPoly(_TrigCore):
    """sum of a_k e^{2 pi i k.y} over integer k on the m-torus."""

    def __init__(self, m: int, terms):
        items = [(tuple(int(c) for c in k), amp) for k, amp in _items(terms)]
        for k, _ in items:
            if len(k) != m:
                raise ValueError(f"expected {m}-vector frequency, got {k}")
        self.m = m
        super().__init__(m, items, lambda k: tuple(-c for c in k))

    @classmethod
    def _from_pairs(cls, m: int, pairs, mean=None) -> "TorusPoly":
        """The torus polynomial of one (k, a) per +-pair, a complex, and the mean's
        coefficient ``mean`` (a complex, or None), unchecked.

        Only for terms normalised by construction, as ``lift_problem``
        transports them from a TrigPoly's pairs along the injective, odd
        coordinate map lambda -> k: the keys k are distinct, nonzero and no
        one is the negation of another, no a is zero, the mean's imaginary
        part is zero and the sum of |a| is the TrigPoly's, which its
        constructor checked, so normalising again could refuse nothing.
        Builds what the constructor builds from the same items: the terms
        in the same order, each conjugate the same bits.
        """
        self = object.__new__(cls)
        self.m = m
        terms = {}
        keyed = []
        for k, a in pairs:
            neg = tuple([-c for c in k])
            terms[k] = a
            terms[neg] = a.conjugate()
            # a TorusPoly key is its own sort key: the first of the pair is
            # the one whose first nonzero entry is negative
            keyed.append((k, k, neg, k) if next(filter(None, k)) < 0 else (neg, neg, k, neg))
        zero = None
        if mean is not None:
            # the constructor stores a self-paired key's coefficient conjugated
            zero = (0,) * m
            terms[zero] = mean.conjugate()
        self._set_core(m, terms, zero, keyed)
        return self

    eval = _TrigCore.eval

    def coeff(self, k) -> complex:
        return self.terms.get(tuple(k), 0j)


def fejer_factor(k, r: int) -> float:
    """The exact damping weight applied to frequency k at level r."""
    w = 1.0
    for kj in k:
        w *= max(0.0, 1.0 - abs(kj) / r)
    return w


def fejer_damp(p: TorusPoly, r: int) -> TorusPoly:
    """Triangular damping: a_k multiplied by prod_j max(0, 1 - |k_j|/r).

    Terms with any |k_j| >= r get factor 0 and are dropped.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    out = {}
    for k, amp in p.terms.items():
        w = fejer_factor(k, r)
        if w > 0.0:
            out[k] = amp * w
    return TorusPoly(p.m, out)
