"""The sweeps a stepper takes, recorded, for the tests that check each sweep."""

import contextlib
from unittest import mock

import apcl.solver as solver


@contextlib.contextmanager
def recorded_sweeps():
    """A list that collects every sweep taken inside the block.

    Each sweep is (before, after, alpha, axis), one per field and axis, in
    the order the stepper took them: through ``solver.step``, or, on a
    carried bound, inside the loop of ``_Stepper._carried``, whose alpha is
    the bound's float one.  A carried sweep is seen where it evaluates the
    bound's plan (``solver._horner``) on the values it reads: the result is
    the array its new values are written into, so once the call returns
    both are wrapped as fields.  Its sweeps run step by step, then axis by
    axis, then field by field, each reading the array that the last sweep
    of its field wrote, which the recorder checks.
    """
    sweeps = []
    real_step, real_carried, real_horner = solver.step, solver._Stepper._carried, solver._horner

    def recorded(f, flux, dt, alpha, axis=0):
        after = real_step(f, flux, dt, alpha, axis)
        sweeps.append((f, after, alpha, axis))
        return after

    def carried(stepper, k, dt, scales, courants):
        pairs = []

        def horner(plan, x):
            out = real_horner(plan, x)
            pairs.append((x, out))
            return out

        last, grid, bound = [f.values for f in stepper.fields], stepper.grid, stepper.bound
        with mock.patch.object(solver, "_horner", horner):
            real_carried(stepper, k, dt, scales, courants)
        assert len(pairs) == k * grid.m * len(last)
        for i, (before, after) in enumerate(pairs):
            field, axis = i % len(last), i // len(last) % grid.m
            assert before is last[field]
            last[field] = after
            sweeps.append((solver.CellField(grid, before), solver.CellField(grid, after),
                           bound.alphas[axis], axis))
        assert all(f.values is a for f, a in zip(stepper.fields, last))

    with mock.patch.object(solver, "step", recorded), \
            mock.patch.object(solver._Stepper, "_carried", carried):
        yield sweeps


def advance_with_sweeps(flux, cfl, t_remaining, *fields):
    """``solver.advance``'s (dt_cfl, dt, stepped fields), and the sweeps it took."""
    with recorded_sweeps() as sweeps:
        dt_cfl, dt, stepped = solver.advance(flux, cfl, t_remaining, *fields)
    return dt_cfl, dt, stepped, sweeps
