"""Separable targets: coordinates decouple in the tangents, the cores and the weights.

A target with a diagonal Hessian (``PerturbedQuadratic``, ``LogCoshProduct``)
is a product of one-dimensional problems.  The DM-ULMC tangents of the 2d
columns of U then have exact zeros off the coordinate diagonal, so
``block_summary_dmulmc`` runs its fixed point on 2 directions per
coordinate and takes each coordinate's 2 × 2 core in closed form.  These
tests hold the compact tangents to the full ones, the closed-form core
fields to ``eigvals``, and the d-dimensional log weight of every scheme to
the sum of the d one-dimensional ones on the same noise.
"""

import numpy as np
import pytest

from girsanovlab.engine import SCHEMES, generic_log_weights
from girsanovlab.girsanov import (
    BlockSummary,
    _core_spectrum,
    _dmulmc_directions,
    _spectral_fields,
    carleman_fredholm_logdet,
    drift_basis_dmulmc,
    tangents_dmulmc,
)
from girsanovlab.kernels import StepKernels
from girsanovlab.paths import OverdampedSchedule, TimeGrid, UnderdampedSchedule, noise_matrix
from girsanovlab.potentials import LogCoshProduct, PerturbedQuadratic

GRID = TimeGrid(0.5, 4, 8)
N_PATHS = 16

#: name → the d-dimensional target and its d one-dimensional factors
TARGETS = {
    "perturbed": (PerturbedQuadratic((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0),
                  [PerturbedQuadratic((s,), amplitude=0.1, frequency=1.0)
                   for s in (1.0, 1.5, 2.0)]),
    "logcosh": (LogCoshProduct(3, c=1.0), [LogCoshProduct(1, c=1.0)] * 3),
}

DM_SCHEDULES = {
    "deterministic": UnderdampedSchedule.deterministic(GRID),
    "randomized": UnderdampedSchedule.randomized(GRID, 5, 1),
}

SCHEDULES = {
    "em-ld": OverdampedSchedule.zero(GRID),
    "mlmc": OverdampedSchedule.randomized(GRID, 5, 1),
    "ulmc": GRID,
    "dmulmc": DM_SCHEDULES["randomized"],
}


def _inputs(d, kinetic):
    xi = noise_matrix(17, N_PATHS, GRID.n_cells, d)
    z0 = np.random.default_rng(3).normal(size=(N_PATHS, 2 * d if kinetic else d))
    return z0, xi


def _dm_trajectory(target, schedule):
    pot = TARGETS[target][0]
    z0, xi = _inputs(pot.d, True)
    return pot, SCHEMES["dmulmc"].simulate(pot, DM_SCHEDULES[schedule], 1.0, z0, xi)


def _full_and_compact_tangents(pot, traj):
    """Per step, Dλ along the 2d columns of U (B, 2d, 2d) and along the 2 compact directions."""
    m, d = GRID.m, pot.d
    full_dirs = drift_basis_dmulmc(traj)[0].reshape(m, d, 2 * d)
    kern = StepKernels.build(traj.gamma, GRID.h, m)
    profiles = np.sqrt(GRID.eta / (2.0 * traj.gamma)) * np.stack([kern.e1_left, kern.e2_left], -1)
    compact_dirs = np.broadcast_to(profiles[:, None, :], (m, d, 2))
    np.testing.assert_array_equal(_dmulmc_directions(traj, True), compact_dirs)
    rule = tangents_dmulmc(pot, traj)
    for k in range(GRID.N):
        full = rule(k, full_dirs, None)[0].copy()
        yield full, rule(k, compact_dirs, None)[0].copy()


def _by_coordinate(full):
    """(B, 2d, 2d) tangents, row (a, i) and column (b, j), as (B, a, b, i, j)."""
    d = full.shape[1] // 2
    return full.reshape(len(full), 2, d, 2, d).transpose(0, 1, 3, 2, 4)


@pytest.mark.parametrize("schedule", sorted(DM_SCHEDULES))
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_full_tangents_vanish_off_the_coordinate_diagonal(target, schedule):
    pot, traj = _dm_trajectory(target, schedule)
    coupled = ~np.eye(pot.d, dtype=bool)
    for full, _ in _full_and_compact_tangents(pot, traj):
        blocks = _by_coordinate(full)
        np.testing.assert_array_equal(blocks[..., coupled], 0.0)
        assert np.all(np.abs(np.diagonal(blocks, axis1=3, axis2=4)) > 0.0)


@pytest.mark.parametrize("schedule", sorted(DM_SCHEDULES))
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_compact_tangents_match_the_full_per_coordinate_entries(target, schedule):
    pot, traj = _dm_trajectory(target, schedule)
    for full, compact in _full_and_compact_tangents(pot, traj):
        # coordinate i of direction b is column (b, i) of the full tangents
        per_coordinate = np.diagonal(_by_coordinate(full), axis1=3, axis2=4)  # (B, a, b, i)
        want = per_coordinate.transpose(0, 1, 3, 2).reshape(compact.shape)
        np.testing.assert_allclose(compact, want, rtol=1e-15, atol=0.0)


#: case → 2 × 2 cores (d, 2, 2), each case one path's step
CORES = {
    "real-distinct": [[[0.3, 0.1], [0.2, -0.05]], [[0.02, -0.01], [0.03, 0.04]]],
    "complex-pair": [[[0.1, -0.4], [0.3, 0.05]], [[-0.2, 0.5], [-0.5, -0.2]]],
    "near-double": [[[0.2, 1e-6], [1e-12, 0.2]], [[0.2, 1e-6], [-1e-12, 0.2]],
                    [[-0.3, 3e-9], [2e-9, -0.3]]],
    "negative-det": [[[-1.5, 0.1], [0.2, 0.3]], [[0.1, 0.0], [0.0, 0.2]]],
    # eigenvalue −1 exactly, in closed form and from eigvals alike
    "singular": [[[-1.0, 0.3], [0.0, 0.5]], [[-0.25, 0.75], [0.25, -0.75]],
                 [[0.1, 0.2], [0.0, 0.3]]],
    "zero": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
}


@pytest.mark.parametrize("case", sorted(CORES))
def test_closed_form_cores_match_eigvals(case):
    cores = np.array(CORES[case])[None]  # (B = 1, d, 2, 2)
    d = cores.shape[1]
    # the compact tangents' layout: row (a, i), direction b
    WtU = cores.transpose(0, 2, 1, 3).reshape(1, 2 * d, 2)
    lam, trace = _core_spectrum(WtU, True)
    sign, det2, rho = _spectral_fields(lam)
    want_sign, want_det2, want_rho = _spectral_fields(np.linalg.eigvals(cores).reshape(1, 2 * d))
    np.testing.assert_array_equal(sign, want_sign)
    np.testing.assert_allclose(det2, want_det2, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(rho, want_rho, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(trace, np.trace(cores, axis1=-2, axis2=-1).sum(-1),
                               rtol=1e-15, atol=0.0)
    # a real eigenvalue carries an imaginary part of exactly 0, as eigvals gives it
    np.testing.assert_array_equal(np.sort(lam.imag[0] == 0.0),
                                  np.sort(np.linalg.eigvals(cores).imag.ravel() == 0.0))
    summary = BlockSummary(sign[:, None], det2[:, None], trace[:, None], rho[:, None])
    value, negative = carleman_fredholm_logdet(summary)
    expected_sign = {"negative-det": -1.0, "singular": 0.0}.get(case, 1.0)
    assert sign[0] == expected_sign
    assert negative[0] == (expected_sign < 0.0)
    if case == "singular":
        assert value[0] == -np.inf
    if case == "zero":
        assert det2[0] == 0.0 and rho[0] == 0.0 and trace[0] == 0.0


def test_near_double_discriminant_does_not_cancel():
    # a = d = 0.2 and b·c = 1e-18: the eigenvalues are 0.2 ± 1e-9, which
    # t²/4 − det = 0.04 − (0.04 − 1e-18) would lose entirely
    lam, _ = _core_spectrum(np.array([[[0.2, 1e-6], [1e-12, 0.2]]]), True)
    np.testing.assert_allclose(np.sort(lam.real[0]) - 0.2, [-1e-9, 1e-9], rtol=1e-6)
    lam, _ = _core_spectrum(np.array([[[0.2, 1e-6], [-1e-12, 0.2]]]), True)
    np.testing.assert_allclose(np.sort(lam.imag[0]), [-1e-9, 1e-9], rtol=1e-6)


@pytest.mark.parametrize("scheme", sorted(SCHEDULES))
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_log_weight_is_the_sum_over_coordinates(target, scheme):
    # det₂, δψ and the energy of a product target add over coordinates, with
    # no reference value: the d-dimensional weight is the sum of the d
    # one-dimensional ones on the same (z₀, ξ) coordinate slices
    pot, factors = TARGETS[target]
    s = SCHEMES[scheme]
    gamma = 1.0 if s.kinetic else None
    z0, xi = _inputs(pot.d, s.kinetic)
    whole = generic_log_weights(scheme, pot, SCHEDULES[scheme], gamma, z0, xi)
    assert np.all(np.isfinite(whole.log_weight))
    parts = []
    for i, factor in enumerate(factors):
        z0_i = z0[:, [i, pot.d + i]] if s.kinetic else z0[:, [i]]
        parts.append(generic_log_weights(scheme, factor, SCHEDULES[scheme], gamma, z0_i,
                                         xi[:, :, i : i + 1]))
    for name in ("log_cf_det", "skorohod", "energy", "log_weight"):
        np.testing.assert_allclose(getattr(whole, name), sum(getattr(p, name) for p in parts),
                                   rtol=0.0, atol=1e-12, err_msg=name)
    if scheme in ("mlmc", "dmulmc"):
        assert np.all(np.abs(whole.log_cf_det) > 1e-8)  # the anticipating part is exercised
