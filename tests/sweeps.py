"""``solver.advance`` with a record of its sweeps, for the tests that check each sweep."""

from unittest import mock

import apcl.solver as solver


def advance_with_sweeps(flux, cfl, t_remaining, *fields):
    """``solver.advance``'s (dt_cfl, dt, stepped fields), and the sweeps it took.

    Each sweep is (before, after, alpha, axis), one per field and axis, in
    the order ``advance`` called ``solver.step``.
    """
    sweeps = []
    real = solver.step

    def recorded(f, flux, dt, alpha, axis=0):
        after = real(f, flux, dt, alpha, axis)
        sweeps.append((f, after, alpha, axis))
        return after

    with mock.patch.object(solver, "step", recorded):
        dt_cfl, dt, stepped = solver.advance(flux, cfl, t_remaining, *fields)
    return dt_cfl, dt, stepped, sweeps
