"""The sweeps a stepper takes, recorded, for the tests that check each sweep."""

import contextlib
from unittest import mock

import apcl.solver as solver


@contextlib.contextmanager
def recorded_sweeps():
    """A list that collects every sweep taken inside the block.

    Each sweep is (before, after, alpha, axis), one per field and axis, in
    the order the stepper took them: through ``solver.step``, or, on a
    carried bound, through ``solver._carried_sweep``, whose values are
    wrapped as fields here and whose alpha is the bound's float one.
    """
    sweeps = []
    real_step, real_carried = solver.step, solver._carried_sweep

    def recorded(f, flux, dt, alpha, axis=0):
        after = real_step(f, flux, dt, alpha, axis)
        sweeps.append((f, after, alpha, axis))
        return after

    def carried(u, axis, dt, scale, courant, bound, grid):
        phi = real_carried(u, axis, dt, scale, courant, bound, grid)
        sweeps.append((solver.CellField(grid, u[0]), solver.CellField(grid, phi[0]),
                       bound.alphas[axis], axis))
        return phi

    with mock.patch.object(solver, "step", recorded), \
            mock.patch.object(solver, "_carried_sweep", carried):
        yield sweeps


def advance_with_sweeps(flux, cfl, t_remaining, *fields):
    """``solver.advance``'s (dt_cfl, dt, stepped fields), and the sweeps it took."""
    with recorded_sweeps() as sweeps:
        dt_cfl, dt, stepped = solver.advance(flux, cfl, t_remaining, *fields)
    return dt_cfl, dt, stepped, sweeps
