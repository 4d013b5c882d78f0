"""Mutants of ``src/`` that the tests must catch, and the runner that checks each one.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each entry names a file under ``src/``, a text that occurs in it exactly
once, the text that replaces it, and a narrow pytest selector.  The
runner first runs every selector on an unmutated copy of ``src/``, where
it must pass.  Then, for each entry, it copies ``src/`` to a temporary
directory, applies the entry and runs the selector against the copy
(``-o pythonpath=<copy>``, ``-x -q``, hypothesis seed 0).  The mutant is
caught when the selector fails; an entry whose old text does not occur
exactly once is stale, never skipped, and the change that moved the code
updates it.  The exit status is 0 only when every mutant is caught.
Pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    selector: tuple[str, ...]  # pytest arguments


_CARRIED = ("tests/test_solver.py", "-k",
            "affine_advance_matches or carried_1d_steps or affine_runs_match")

MUTANTS = (
    # the record-time check of the carried bound
    Mutant("check finds every range inside the bound", "apcl/solver.py",
           "            if not b.lo <= f.vmin <= f.vmax <= b.hi:",
           "            if False:",
           ("tests/test_harness.py", "-k", "carried_bound")),
    Mutant("run checks no record time", "apcl/solver.py",
           "        stepper.check(t)\n", "",
           ("tests/test_harness.py", "-k", "range_that_leaves_the_carried_bound")),
    Mutant("contraction checks nothing after its last step", "apcl/harness.py",
           "    stepper.check(t)\n", "",
           ("tests/test_harness.py", "-k", "contraction_that_leaves_the_carried_bound")),
    # the bound and its drift margin
    Mutant("delta = 0", "apcl/solver.py",
           "    delta = 2 * MAX_STEPS * flux.n * _DRIFT *",
           "    delta = 0.0 * MAX_STEPS * flux.n * _DRIFT *",
           ("tests/test_solver.py", "-k", "affine_advance_matches")),
    Mutant("_DRIFT = 2^-60", "apcl/solver.py",
           "_DRIFT = 2.0 ** -47", "_DRIFT = 2.0 ** -60",
           ("tests/test_solver.py", "-k", "drift_within_the_bound")),
    Mutant("the bound rebuilt every step", "apcl/solver.py",
           "        if bound is None and flux._affine_pieces:",
           "        if flux._affine_pieces:",
           ("tests/test_solver.py", "-k", "affine_run_bounds or affine_advance_matches")),
    Mutant("carried alphas x (1 + 2^-52)", "apcl/solver.py",
           "    alphas = tuple(lip_bound(flux, j, lo, hi) for j in range(flux.n))",
           "    alphas = tuple(lip_bound(flux, j, lo, hi) * (1 + 2 ** -52) for j in range(flux.n))",
           _CARRIED),
    Mutant("the plan checks no component count", "apcl/solver.py",
           "    if flux.n != g.m:\n        _check_components(flux, g.m, grid=True)\n"
           "    if not lo <= hi:",
           "    if not lo <= hi:",
           ("tests/test_solver.py", "-k", "direct_call_refusals")),
    Mutant("carried sweeps reduce their range", "apcl/solver.py",
           "            fields.append(CellField._swept(g, u[0], False))",
           "            fields.append(CellField._swept(g, u[0], True))",
           ("tests/test_solver.py", "-k", "affine_run_bounds")),
    # the carried sweep's Courant numbers and views
    Mutant("no cap test on carried sweeps", "apcl/solver.py",
           "    if not courant <= _COURANT_CAP:\n"
           "        raise _cfl_violation(courant, axis, dt, bound.alphas[axis], grid.shape)",
           "    if False:\n"
           "        raise _cfl_violation(courant, axis, dt, bound.alphas[axis], grid.shape)",
           ("tests/test_solver.py", "-k", "courant_number")),
    Mutant("a step cut short takes the bound's Courant numbers", "apcl/solver.py",
           "            courants = [a * dt / h for a, h in zip(bound.alphas, g.h)]",
           "            courants = bound.courants",
           ("tests/test_solver.py", "-k", "courant_number")),
    Mutant("n-D views kept for the next step", "apcl/solver.py",
           "        self.fields, self._views = fields, views if g.m == 1 else None",
           "        self.fields, self._views = fields, views",
           ("tests/test_solver.py", "-k", "slices_the_new_flux_values")),
    Mutant("views reused across axes", "apcl/solver.py",
           "            if axis:\n                views = [_offsets(u[0], axis) for u in views]",
           "            if False:\n                views = [_offsets(u[0], axis) for u in views]",
           ("tests/test_solver.py", "-k", "slices_the_new_flux_values or affine_advance_matches")),
    Mutant("no views kept in 1D", "apcl/solver.py",
           "        self.fields, self._views = fields, views if g.m == 1 else None",
           "        self.fields, self._views = fields, None",
           ("tests/test_solver.py", "-k", "slices_the_new_flux_values")),
    # the lift's phase bound
    Mutant("phase bound halved", "apcl/lift.py",
           "            d = float((np.abs(dtheta, out=dtheta) @ w).max())",
           "            d = 0.5 * float((np.abs(dtheta, out=dtheta) @ w).max())",
           ("tests/test_lift.py", "-k", "phase_bound or badly_scaled or beyond_float")),
    Mutant("phase bound without its rounding margin", "apcl/lift.py",
           "    return (d + margin) * (1.0 + _gamma(2 * pairs + 16))",
           "    return d * (1.0 + _gamma(2 * pairs + 16))",
           ("tests/test_lift.py", "-k", "phase_bound or badly_scaled or beyond_float")),
)


def _selector_fails(src: Path, selector: tuple[str, ...]) -> int:
    """pytest's exit status for ``selector`` run on the package copy at ``src``."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "-o", f"pythonpath={src}", *selector]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory(prefix="apcl-mutants-") as tmp:
        clean = _copy(Path(tmp) / "clean")
        for selector in dict.fromkeys(m.selector for m in MUTANTS):
            status = _selector_fails(clean, selector)
            if status:
                ok = False
                print(f"selector fails unmutated (exit {status}): {' '.join(selector)}")
        for i, m in enumerate(MUTANTS):
            start = time.perf_counter()
            src = _copy(Path(tmp) / str(i))
            path = src / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                ok = False
                print(f"STALE     {m.name}: the old text occurs {text.count(m.old)} times "
                      f"in src/{m.file}")
                continue
            path.write_text(text.replace(m.old, m.new))
            status = _selector_fails(src, m.selector)
            verdict = {0: "SURVIVED", 1: "caught"}.get(status, f"ERROR {status}")
            ok = ok and status == 1
            print(f"{verdict:9} {m.name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(MUTANTS)} mutants, {'all caught' if ok else 'NOT all caught'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
