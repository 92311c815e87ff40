"""Memory budgets of the solve → certify → residual path.

Peaks are read with tracemalloc, which sees NumPy's buffers, and bounded in
units of the arrays that must exist: one (nt+1)×nx table of a field, or one
noise block of 2¹⁹ draws.  The slack covers arrays one grid row or one path
long and the interpreter's own free lists, never a second table or block.
"""

import tracemalloc

import numpy as np
import pytest
# The package loads this on first use; loaded here, no budget counts the import.
import scipy.special  # noqa: F401

from hjbverify import (
    AdvertisingParams,
    ConstantPolicy,
    Grid1D,
    SimConfig,
    advertising_solution,
    certify,
    make_advertising_problem,
    residual,
    solve_exit,
    solve_parabolic,
)
from hjbverify import hjb, sde

_ROWS = 64                  # float64 arrays one grid row (or one path) long
_FREE_LISTS = 256 * 1024    # bytes the interpreter keeps on its small-object free lists

# The first solve resolves the LAPACK handle (or imports SciPy's); done here,
# no budget counts it.
hjb._solve_tridiagonal(np.ones(2), np.full(3, 4.0), np.ones(2), np.ones(3))


def _peak_bytes(fn):
    """``fn()`` and the peak of traced memory above what was live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _table_budget(grid: Grid1D, tables: int) -> int:
    return (tables * (grid.nt + 1) + _ROWS) * grid.nx * 8 + _FREE_LISTS


@pytest.fixture(scope="module")
def exit_solved(exit_time_problem):
    """The CLI's solve of the exit field, (field, residual report), and its peak."""
    return _peak_bytes(lambda: hjb._solve(exit_time_problem, Grid1D(0.0, 1.0, 401, 2000)))


def test_residual_builds_no_table(exit_time_problem, exit_solved):
    # The field's values are read a row at a time and folded into nx column sups.
    field = exit_solved[0][0]
    rep, peak = _peak_bytes(lambda: residual(field, exit_time_problem))
    assert rep.column_sup.shape == (field.grid.nx,)
    assert peak <= _table_budget(field.grid, 0)


def test_cli_solve_holds_two_tables(exit_time_problem, exit_solved):
    # Values and gradient; the report adds the level-0 row and nx column sups.
    (field, rep), peak = exit_solved
    assert rep.sup_interior_residual == residual(field, exit_time_problem).sup_interior_residual
    assert peak <= _table_budget(field.grid, 2)


def test_solve_exit_holds_two_tables(exit_time_problem):
    # Values and gradient; the residual rows of the march are one row each.
    grid = Grid1D(0.0, 1.0, 401, 2000)
    field, peak = _peak_bytes(lambda: solve_exit(exit_time_problem, grid))
    assert peak <= _table_budget(field.grid, 2)


def test_maximize_solve_holds_two_tables():
    # A maximize problem's values are flipped in place, not copied.
    prob = make_advertising_problem(AdvertisingParams(eta=0.5, alpha=1.0, beta=0.5, horizon=1.0))
    assert prob.sense == "maximize"
    grid = Grid1D(0.1, 5.0, 401, 2000)
    field, peak = _peak_bytes(lambda: solve_parabolic(prob, grid))
    assert peak <= _table_budget(field.grid, 2)


def test_certify_holds_one_noise_block():
    # No domain: every block holds 2¹⁹ draws, and 512 steps of 2,048 paths
    # take two of them; the spent one is gone before the next is drawn.
    params = AdvertisingParams(eta=0.5, alpha=1.0, beta=0.5, horizon=1.0)
    n_paths = 2048
    config = SimConfig(dt=1.0 / 512, n_paths=n_paths, seed=3)
    cert, peak = _peak_bytes(lambda: certify(
        make_advertising_problem(params), advertising_solution(params),
        ConstantPolicy([0.0]), 0.0, 2.0, config))
    assert cert.evidence.cost.n_paths == n_paths
    block, tile = sde._BLOCK_DRAWS * 8, sde._TILE_DRAWS * 8
    assert peak <= block + tile + _ROWS * n_paths * 8 + _FREE_LISTS
