"""Real trigonometric polynomials with exact frequencies.

TrigPoly: finite sum of a_lam * e^{2 pi i lam.x} over frequencies lam in R^n
with exact coordinates (``Frequency``).  TorusPoly: the same over integer
frequencies on the m-torus.  Reality is a structural invariant: the
coefficient at -lam is stored and must equal the conjugate at lam, so
evaluation is real up to roundoff (asserted).
"""

from __future__ import annotations

import math

import numpy as np

from .freqlattice import Frequency, FrequencyBasis

__all__ = [
    "TrigPoly",
    "TorusPoly",
    "fejer_damp",
    "fejer_factor",
]

_IMAG_TOL = 1e-12


def _normalize_real_terms(items, negate):
    """Enforce the a_{-key} = conj(a_key) pairing; drop exact zeros.

    Returns the terms and the mean, the coefficient at the one self-paired
    key (the zero frequency).
    """
    terms = {}
    mean = 0.0
    for key, amp in items:
        amp = complex(amp)
        if amp == 0:
            continue
        neg = negate(key)
        if key == neg:
            # self-paired frequency (zero): coefficient must be real
            if amp.imag != 0.0:
                raise ValueError(f"coefficient at self-paired frequency {key} must be real")
            mean = amp.real
        if key in terms and terms[key] != amp:
            raise ValueError(f"conflicting coefficients at {key}")
        if neg in terms and terms[neg] != amp.conjugate():
            raise ValueError(f"reality conflict between {key} and its negative")
        terms[key] = amp
        terms[neg] = amp.conjugate()
    return terms, mean


def _items(terms) -> list:
    return list(terms.items() if hasattr(terms, "items") else terms)


class _TrigCore:
    """Evaluation core shared by TrigPoly and TorusPoly.

    Holds the reality-normalised terms in a fixed key order, their mean,
    float frequency matrix and amplitudes, and evaluates them.  Refuses
    with OverflowError terms whose sum of |a|, over every key and so over
    each conjugate too, is not a finite float.
    """

    def __init__(self, dim: int, items, negate, sort_key=None, row=tuple):
        self.terms, self.mean = _normalize_real_terms(items, negate)
        # the scale of every roundoff check on the values
        try:
            self._amp_scale = math.fsum(abs(a) for a in self.terms.values())
        except OverflowError:
            self._amp_scale = math.inf
        if not math.isfinite(self._amp_scale):
            raise OverflowError("the sum of |re + i im| over the terms and their "
                                "conjugates lies beyond float range")
        self._keys = sorted(self.terms, key=sort_key)
        self._freq_mat = np.array(
            [row(k) for k in self._keys], dtype=float
        ).reshape(len(self._keys), dim)
        self._amps = np.array([self.terms[k] for k in self._keys], dtype=complex)

    def spectrum(self) -> tuple:
        return tuple(self._keys)

    def real(self, vals: np.ndarray) -> np.ndarray:
        """``vals.real`` of values of this sum; asserts |imag| <= 1e-12 max(sum|a|, 1e-300)."""
        resid = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
        assert resid <= _IMAG_TOL * max(self._amp_scale, 1e-300), (
            f"imaginary residue {resid:.3e} exceeds tolerance"
        )
        return vals.real

    def eval(self, x):
        """Evaluate at x (shape (dim,) or (N, dim)); returns real values (see ``real``)."""
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        dim = self._freq_mat.shape[1]
        if xs.shape[-1] != dim:
            raise ValueError(f"points must have {dim} coordinates")
        if len(self._keys) == 0:
            out = np.zeros(xs.shape[0])
        else:
            phase = xs @ self._freq_mat.T
            out = self.real(np.exp(2j * np.pi * phase) @ self._amps)
        return float(out[0]) if np.asarray(x).ndim == 1 else out


class TrigPoly(_TrigCore):
    """sum of a_lam e^{2 pi i lam.x}, lam exact, reality enforced."""

    def __init__(self, basis: FrequencyBasis, n: int, terms):
        items = _items(terms)
        for lam, _ in items:
            if lam.basis != basis or lam.n != n:
                raise ValueError("term frequency disagrees with basis or dimension")
        self.basis = basis
        self.n = n
        # the order of the rational coordinates: numerators over one
        # common denominator compare as the rationals do
        den = math.lcm(*(lam.den for lam, _ in items))
        super().__init__(
            n, items, lambda f: -f,
            sort_key=lambda f: tuple(tuple(x * (den // f.den) for x in c) for c in f.num),
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
