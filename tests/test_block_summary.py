"""Structured block summaries against the dense reference blocks.

Both weight routes evaluate det(I + D_k), tr(D_k) and the power iterate from
each block's factors (``block_summary_mlmc/_ulmc/_dmulmc``); these tests hold
them to ``block_summary_dense`` of the ``malliavin_blocks_*`` reference on a
non-quadratic target, both read through the one assembly
``summary_log_weight``.  The overdamped tr(D_k²) of ``trace_square_mlmc`` is
held to the dense blocks the same way.  The generic-route summaries and
criterion 5's trace diagnostics take one step at a time, so their working set
does not grow with the step count.
"""

import tracemalloc

import numpy as np
import pytest

from girsanovlab.girsanov import (
    BlockSummary,
    DriftRealization,
    block_summary_dense,
    block_summary_dmulmc,
    block_summary_mlmc,
    block_summary_ulmc,
    drift_dmulmc,
    drift_mlmc,
    drift_ulmc,
    malliavin_blocks_dmulmc,
    malliavin_blocks_mlmc,
    malliavin_blocks_ulmc,
    summary_log_weight,
    trace_diagnostics_mlmc,
    trace_square_mlmc,
)
from girsanovlab.integrators import simulate_dmulmc, simulate_mlmc, simulate_ulmc
from girsanovlab.paths import (
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from girsanovlab.potentials import IsotropicQuadratic, PerturbedQuadratic

GRID = TimeGrid(0.5, 3, 8)
N_PATHS = 32
EDGES = OverdampedSchedule(GRID, np.array([0, GRID.m - 1, GRID.m // 2]))


def _target():
    return PerturbedQuadratic((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0)


def _inputs(d):
    xi = noise_matrix(17, N_PATHS, GRID.n_cells, d)
    rng = np.random.default_rng(3)
    return xi, rng.normal(size=(N_PATHS, d)), rng.normal(size=(N_PATHS, d))


def _overdamped(schedule):
    pot = _target()
    xi, x0, _ = _inputs(pot.d)
    traj = simulate_mlmc(pot, schedule, x0, xi)
    blocks = malliavin_blocks_mlmc(pot, traj)
    dense = summary_log_weight(drift_mlmc(pot, traj), block_summary_dense(blocks), xi)
    structured = summary_log_weight(drift_mlmc(pot, traj), block_summary_mlmc(pot, traj), xi)
    return dense, structured


def _frozen_gradient():
    pot = _target()
    xi, x0, p0 = _inputs(pot.d)
    traj = simulate_ulmc(pot, GRID, 1.0, x0, p0, xi)
    blocks = malliavin_blocks_ulmc(pot, traj)
    dense = summary_log_weight(drift_ulmc(pot, traj), block_summary_dense(blocks), xi)
    structured = summary_log_weight(drift_ulmc(pot, traj), block_summary_ulmc(pot, traj), xi)
    return dense, structured


def _double_midpoint(schedule):
    pot = _target()
    xi, x0, p0 = _inputs(pot.d)
    traj = simulate_dmulmc(pot, schedule, 1.0, x0, p0, xi)
    blocks = malliavin_blocks_dmulmc(pot, traj)
    dense = summary_log_weight(drift_dmulmc(traj), block_summary_dense(blocks), xi)
    structured = summary_log_weight(drift_dmulmc(traj), block_summary_dmulmc(pot, traj), xi)
    return dense, structured


CASES = {
    "mlmc-deterministic": lambda: _overdamped(OverdampedSchedule.deterministic(GRID)),
    "mlmc-randomized": lambda: _overdamped(OverdampedSchedule.randomized(GRID, 5, 1)),
    "em-ld": lambda: _overdamped(OverdampedSchedule.zero(GRID)),
    # the band's edges: r = 0 (empty band slices), r = m − 1 and r = m/2
    "mlmc-edges": lambda: _overdamped(EDGES),
    "ulmc": _frozen_gradient,
    "dmulmc-deterministic": lambda: _double_midpoint(UnderdampedSchedule.deterministic(GRID)),
    "dmulmc-randomized": lambda: _double_midpoint(UnderdampedSchedule.randomized(GRID, 5, 1)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_structured_matches_dense(case):
    dense, structured = CASES[case]()
    for name in ("log_cf_det", "skorohod", "spectral_radius"):
        np.testing.assert_allclose(
            getattr(structured, name), getattr(dense, name), rtol=0.0, atol=1e-12,
            err_msg=name,
        )
    np.testing.assert_array_equal(structured.energy, dense.energy)
    np.testing.assert_array_equal(structured.invertible, dense.invertible)
    np.testing.assert_array_equal(structured.negative_det, dense.negative_det)
    if case.startswith(("mlmc", "dmulmc")):
        # the anticipating part is really exercised
        assert np.all(np.abs(dense.log_cf_det) > 1e-8)
        assert np.all(dense.spectral_radius > 1e-4)


@pytest.mark.parametrize("case", ["em-ld", "ulmc"])
def test_structured_adapted_correction_is_exactly_zero(case):
    _, structured = CASES[case]()
    np.testing.assert_array_equal(structured.log_cf_det, 0.0)


def test_structured_singular_block_gives_minus_inf():
    # d = 1, m = 2, r = 1: det(I + D) = 1 − η·H⁺, zero at η·H⁺ = 1
    pot = IsotropicQuadratic(1, scale=2.0)
    grid = TimeGrid(1.0, 1, 2)
    schedule = OverdampedSchedule(grid, np.array([1]))
    xi = noise_matrix(2, 3, grid.n_cells, 1)
    traj = simulate_mlmc(pot, schedule, np.zeros((3, 1)), xi)
    drift = drift_mlmc(pot, traj)
    dense = summary_log_weight(drift, block_summary_dense(malliavin_blocks_mlmc(pot, traj)), xi)
    structured = summary_log_weight(drift, block_summary_mlmc(pot, traj), xi)
    assert np.all(dense.log_cf_det == -np.inf)
    assert np.all(structured.log_cf_det == -np.inf)
    assert not structured.invertible.any()
    assert not structured.negative_det.any()


def test_summary_weight_flags_singular_and_negative_steps():
    ones = np.ones((1, 2))
    drift = DriftRealization("mlmc", np.zeros((1, 4, 1)))
    xi = np.zeros((1, 4, 1))
    singular = BlockSummary(np.array([[1.0, 0.0]]), 0 * ones, 0 * ones, 0 * ones)
    lw = summary_log_weight(drift, singular, xi)
    assert lw.log_cf_det[0] == -np.inf and not lw.invertible[0]
    flipped = BlockSummary(np.array([[1.0, -1.0]]), 0 * ones, -ones, 0 * ones)
    lw = summary_log_weight(drift, flipped, xi)
    assert lw.log_cf_det[0] == pytest.approx(2.0)
    assert lw.skorohod[0] == pytest.approx(2.0)
    assert lw.negative_det[0] and lw.invertible[0]


def test_spectral_estimate_is_a_power_iterate_not_the_radius():
    # a frozen-gradient block is strictly lower triangular over m = 24 cells,
    # so rho = 0, yet 20 power steps leave a small positive norm
    pot = PerturbedQuadratic((1.0, 2.0), amplitude=0.1, frequency=1.0)
    grid = TimeGrid(0.5, 2, 24)
    xi = noise_matrix(1, 4, grid.n_cells, 2)
    traj = simulate_ulmc(pot, grid, 1.0, np.zeros((4, 2)), np.zeros((4, 2)), xi)
    blocks = malliavin_blocks_ulmc(pot, traj)
    assert np.array_equal(np.triu(blocks.diag), np.zeros_like(blocks.diag))
    np.testing.assert_array_equal(np.linalg.eigvals(blocks.diag), 0.0)
    estimate = block_summary_dense(blocks).power_norm.max(axis=-1)
    assert np.all((estimate > 0.0) & (estimate < 1e-4))
    structured = block_summary_ulmc(pot, traj).power_norm.max(axis=-1)
    np.testing.assert_allclose(structured, estimate, rtol=1e-12)


@pytest.mark.parametrize(
    "schedule",
    [OverdampedSchedule.deterministic(GRID), OverdampedSchedule.randomized(GRID, 5, 1),
     EDGES, OverdampedSchedule.zero(GRID)],
    ids=["deterministic", "randomized", "edges", "em-ld"],
)
@pytest.mark.parametrize("pot", [IsotropicQuadratic(2), _target()], ids=["isotropic", "perturbed"])
def test_trace_square_matches_dense_blocks(pot, schedule):
    xi, x0, _ = _inputs(pot.d)
    traj = simulate_mlmc(pot, schedule, x0, xi)
    diag = malliavin_blocks_mlmc(pot, traj).diag
    dense = np.einsum("bnij,bnji->bn", diag, diag)
    # the anticipating part is really exercised (a step with r = 0 has D = 0)
    assert np.all(np.abs(dense[:, schedule.indices > 0]) > 1e-6)
    np.testing.assert_allclose(trace_square_mlmc(pot, traj), dense, rtol=0.0, atol=1e-12)


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs, after one untraced warm-up call."""
    fn()  # first calls load what they lazily import and build cached kernels
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "summary",
    [block_summary_mlmc, trace_square_mlmc, block_summary_dmulmc, trace_diagnostics_mlmc],
    ids=lambda f: f.__name__,
)
def test_generic_summary_working_set_does_not_grow_with_steps(summary):
    # each step's Hessians and factors exist only while that step is
    # summarised: at the same B, m and d, N = 16 peaks no higher than N = 2
    pot = PerturbedQuadratic(np.linspace(1.0, 2.0, 6), amplitude=0.1, frequency=1.0)
    n_paths, m, h = 64, 16, 0.25
    peaks = {}
    for N in (2, 16):
        grid = TimeGrid(N * h, N, m)
        xi = noise_matrix(5, n_paths, grid.n_cells, pot.d)
        x0 = np.random.default_rng(2).normal(size=(n_paths, pot.d))
        if summary is block_summary_dmulmc:
            traj = simulate_dmulmc(pot, UnderdampedSchedule.deterministic(grid), 1.0, x0,
                                   np.zeros_like(x0), xi)
        else:
            traj = simulate_mlmc(pot, OverdampedSchedule.deterministic(grid), x0, xi)
        peaks[N] = _traced_peak(lambda: summary(pot, traj))
    assert peaks[16] <= 1.25 * peaks[2] + 2**19, peaks

