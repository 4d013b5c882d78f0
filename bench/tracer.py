"""In-memory span tracer around the public calls of each apcl module.

A span is ``[name, start_ns, end_ns, parent_index, experiment_id, work]``;
spans stay in a list until the bench writes them out.  Functions are
rebound in *every* loaded apcl module that holds them (``solver`` binds
``flux.lip_bound``, ``harness`` binds ``run``, ``step``, ``group_basis``
...), methods are patched on their class.  ``work`` is a per-call size
(cells, values, points) taken from the arguments before the call.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import logging
import sys
import time

import numpy as np


def _step_work(f, flux, *args, **kwargs):
    return (f.grid.shape, flux.npieces, flux._coef_f.shape[2])


def _values(self, component, u):
    return int(np.size(u))


def _cube_points(self, w, z, radius, samples_per_unit):
    return max(1, int(round(radius * samples_per_unit))) ** self.n


# (module, attribute, span name, work)
FUNCTIONS = (
    ("apcl.solver", "step", "solver.step", _step_work),
    ("apcl.solver", "cfl_dt", "solver.cfl_dt", None),
    ("apcl.solver", "run", "solver.run", None),
    ("apcl.solver", "exact_cell_average", "solver.exact_cell_average", None),
    ("apcl.solver", "exact_counterexample", "solver.exact_counterexample", None),
    ("apcl.solver", "l1_distance", "solver.l1_distance", None),
    ("apcl.solver", "fourier_coeff", "solver.fourier_coeff", None),
    ("apcl.solver", "write_field", "solver.write_field", None),
    ("apcl.flux", "lip_bound", "flux.lip_bound", None),
    ("apcl.flux", "nondegeneracy_check", "flux.nondegeneracy_check", None),
    ("apcl.flux", "lift_flux", "flux.lift_flux", None),
    ("apcl.flux", "directional", "flux.directional", None),
    ("apcl.flux", "affine_on", "flux.affine_on", None),
    ("apcl.freqlattice", "group_basis", "freqlattice.group_basis", None),
    ("apcl.freqlattice", "member_coords", "freqlattice.member_coords", None),
    ("apcl.freqlattice", "integer_kernel", "freqlattice.integer_kernel", None),
    ("apcl.freqlattice", "in_lattice", "freqlattice.in_lattice", None),
    ("apcl.lift", "lift_problem", "lift.lift_problem", None),
    ("apcl.harness", "parse_config", "harness.parse_config", None),
    ("apcl.harness", "run_experiment", "harness.run_experiment", None),
    ("apcl.harness", "write_csv", "harness.write_csv", None),
)

# (module, class, attribute, span name, work)
METHODS = (
    ("apcl.flux", "PiecewiseFlux", "__init__", "flux.PiecewiseFlux_init", None),
    ("apcl.flux", "PiecewiseFlux", "eval_component", "flux.eval_component", _values),
    ("apcl.lift", "LiftedProblem", "orbit_mean", "lift.orbit_mean", _cube_points),
    ("apcl.trigpoly", "TrigPoly", "eval", "trigpoly.eval", None),
    ("apcl.trigpoly", "TorusPoly", "eval", "trigpoly.eval", None),
    ("apcl.harness", "RunReport", "save", "harness.save", None),
)


def _apcl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "apcl" or name.startswith("apcl.")]


class _ClampCounter(logging.Handler):
    """Sums the clamped-argument counts that ``apcl.flux`` logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.clamped = 0

    def emit(self, record):
        if record.getMessage().startswith("clamped"):
            self.clamped += int(record.args[0])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.exp = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._originals: dict[str, object] = {}
        self.clamps = _ClampCounter()

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.exp,
                   work(*args, **kwargs) if work else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = _apcl_modules()
        for modname, attr, span, work in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(span, orig, work)
            self._originals[f"{modname}.{attr}"] = orig
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))
        for modname, cls_name, attr, span, work in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(span, orig, work))
            self._undo.append((cls, attr, orig))
            self._originals[f"{modname}.{cls_name}.{attr}"] = orig
        logging.getLogger("apcl.flux").addHandler(self.clamps)

    def uninstall(self):
        logging.getLogger("apcl.flux").removeHandler(self.clamps)
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def rebinding(self) -> tuple[dict[str, list[str]], list[str]]:
        """Where each traced name is wrapped, and every binding still original.

        The second list must be empty while installed: an original left in
        some module would be an inner call that goes untimed.
        """
        where: dict[str, list[str]] = {}
        missed = []
        for m in _apcl_modules():
            for key, val in vars(m).items():
                for qual, orig in self._originals.items():
                    if val is orig:
                        missed.append(f"{m.__name__}.{key} ({qual})")
                    elif getattr(val, "__wrapped__", None) is orig:
                        where.setdefault(qual, []).append(m.__name__)
        for modname, cls_name, attr, _, _ in METHODS:
            qual = f"{modname}.{cls_name}.{attr}"
            val = getattr(sys.modules[modname], cls_name).__dict__[attr]
            if getattr(val, "__wrapped__", None) is self._originals[qual]:
                where.setdefault(qual, []).append(f"{modname}.{cls_name}")
            else:
                missed.append(qual)
        return where, missed

    def dump(self, path: str):
        """One JSON object per span, in start order, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, exp, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": t0, "end_ns": t1,
                    "parent": parent, "exp": exp,
                    "work": list(work) if isinstance(work, tuple) else work,
                }) + "\n")


def self_times(spans) -> list[int]:
    """Span duration minus the time its child spans cover (single thread)."""
    child = [0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
