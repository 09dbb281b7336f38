"""Tests for drift realizations, derivative blocks, and pathwise log-weights."""

import math

import numpy as np
import pytest

from girsanovlab.engine import SCHEMES, run_weights
from girsanovlab.girsanov import (
    BlockSummary,
    MalliavinBlocks,
    block_summary_dense,
    carleman_fredholm_logdet,
    drift_dmulmc,
    drift_mlmc,
    summary_log_weight,
    trace_diagnostics_mlmc,
)
from girsanovlab.integrators import simulate_dmulmc, simulate_mlmc, simulate_ulmc
from girsanovlab.kernels import e1, e2, e3
from girsanovlab.paths import (
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from girsanovlab.potentials import IsotropicQuadratic, PerturbedQuadratic


# ---------------------------------------------------------------------------
# Drift realizations
# ---------------------------------------------------------------------------


def _energy(psi):
    """½Σ‖ψ_i‖² per path, as the one weight assembly computes it."""
    zero = np.zeros((psi.shape[0], 1))
    summary = BlockSummary(zero + 1.0, zero, zero, zero)
    return summary_log_weight(psi, summary, np.zeros_like(psi)).energy


def test_drift_zero_for_free_potential():
    pot = IsotropicQuadratic(2, scale=0.0)
    grid = TimeGrid(0.4, 2, 4)
    xi = noise_matrix(1, 3, grid.n_cells, 2)
    x0 = np.zeros((3, 2))

    over = simulate_mlmc(pot, OverdampedSchedule.deterministic(grid), x0, xi)
    psi_over = drift_mlmc(pot, over)
    np.testing.assert_array_equal(psi_over, 0.0)
    np.testing.assert_array_equal(_energy(psi_over), 0.0)

    under = simulate_dmulmc(pot, UnderdampedSchedule.deterministic(grid), 1.0, x0, x0, xi)
    psi_under = drift_dmulmc(under)
    np.testing.assert_array_equal(psi_under, 0.0)
    np.testing.assert_array_equal(_energy(psi_under), 0.0)


def test_drift_overdamped_hand_values():
    # h=0.2, tau=0.1, x0=1, no noise: psi_1 = sqrt(0.05)(1-0.9),
    # psi_2 = sqrt(0.05)(0.91-0.9)
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.2, 1, 2)
    sched = OverdampedSchedule.deterministic(grid)
    traj = simulate_mlmc(pot, sched, np.array([1.0]), np.zeros((1, 2, 1)))
    psi = drift_mlmc(pot, traj)
    root = math.sqrt(0.05)
    assert psi[0, 0, 0] == pytest.approx(root * 0.1, rel=1e-13)
    assert psi[0, 1, 0] == pytest.approx(root * 0.01, rel=1e-13)
    expect_energy = 0.5 * ((root * 0.1) ** 2 + (root * 0.01) ** 2)
    assert _energy(psi)[0] == pytest.approx(expect_energy, rel=1e-13)


def test_drift_kinetic_multiplier_identity():
    # psi is the kernel combination of the step multipliers, and the energy
    # equals (eta/(4*gamma)) * sum of the squared combinations
    pot = IsotropicQuadratic(2)
    gamma = 1.3
    grid = TimeGrid(0.4, 2, 4)
    sched = UnderdampedSchedule.deterministic(grid)
    xi = noise_matrix(2, 3, grid.n_cells, 2)
    rng = np.random.default_rng(5)
    traj = simulate_dmulmc(pot, sched, gamma, rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), xi)
    psi = drift_dmulmc(traj)

    eta, h, m = grid.eta, grid.h, grid.m
    lefts = eta * np.arange(m)
    comb = (
        e1(gamma, lefts, h)[:, None] * traj.lambda1[:, :, None, :]
        + e2(gamma, lefts, h)[:, None] * traj.lambda2[:, :, None, :]
    )  # (B, N, m, d)
    expect_psi = np.sqrt(eta / (2.0 * gamma)) * comb.reshape(3, grid.n_cells, 2)
    np.testing.assert_allclose(psi, expect_psi, rtol=1e-12, atol=1e-14)

    expect_energy = eta / (4.0 * gamma) * np.sum(comb**2, axis=(1, 2, 3))
    np.testing.assert_allclose(_energy(psi), expect_energy, rtol=1e-12)


def test_double_midpoint_multipliers_match_independent_solve():
    # d=1, V=x^2/2, one step, m=2, no noise: the converged interpolation
    # satisfies a 3x3 linear system in (X_1, lam1, lam2); solve it densely
    # from kernel evaluations alone and compare with the fixed-point output
    gamma, h, m = 1.0, 0.2, 2
    eta = h / m
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(h, 1, m)
    sched = UnderdampedSchedule.deterministic(grid)
    x0, p0 = 1.0, 0.0
    traj = simulate_dmulmc(pot, sched, gamma, np.array([x0]), np.array([p0]), np.zeros((1, m, 1)))

    tau_minus = float(sched.taus_minus[0])
    tau_plus = float(sched.taus_plus[0])
    x_minus = x0 + e2(gamma, 0, tau_minus) * p0 - e3(gamma, 0, tau_minus) * x0
    x_plus = x0 + e2(gamma, 0, tau_plus) * p0 - e3(gamma, 0, tau_plus) * x0

    e1L = [float(e1(gamma, j * eta, h)) for j in range(m)]
    e2L = [float(e2(gamma, j * eta, h)) for j in range(m)]
    # unknowns u = (X_1, lam1, lam2); G_j = X_j - e1L[j] lam1 - e2L[j] lam2
    # node:        X_1 + eta E2(0,eta) G_0 = x0 + E2(0,eta) p0
    # constraints: eta sum_j eaL[j] G_j = target_a
    k20 = float(e2(gamma, 0.0, eta))
    A = np.array(
        [
            [1.0, -eta * k20 * e1L[0], -eta * k20 * e2L[0]],
            [eta * e1L[1], -eta * (e1L[0] ** 2 + e1L[1] ** 2), -eta * (e1L[0] * e2L[0] + e1L[1] * e2L[1])],
            [eta * e2L[1], -eta * (e1L[0] * e2L[0] + e1L[1] * e2L[1]), -eta * (e2L[0] ** 2 + e2L[1] ** 2)],
        ]
    )
    b = np.array(
        [
            x0 + e2(gamma, 0, eta) * p0 - eta * k20 * x0,
            float(e2(gamma, 0, h)) * x_plus - eta * e1L[0] * x0,
            float(e3(gamma, 0, h)) * x_minus - eta * e2L[0] * x0,
        ]
    )
    x1_ref, lam1_ref, lam2_ref = np.linalg.solve(A, b)

    assert traj.x_minus[0, 0, 0] == pytest.approx(x_minus, rel=1e-12)
    assert traj.x_plus[0, 0, 0] == pytest.approx(x_plus, rel=1e-12)
    assert traj.x[0, 1, 0] == pytest.approx(x1_ref, rel=1e-10)
    assert traj.lambda1[0, 0, 0] == pytest.approx(lam1_ref, rel=1e-9)
    assert traj.lambda2[0, 0, 0] == pytest.approx(lam2_ref, rel=1e-9)


# ---------------------------------------------------------------------------
# Skorohod adjoint
# ---------------------------------------------------------------------------


def _zero_blocks(B, N, m, d):
    return MalliavinBlocks(np.zeros((B, N, m * d, m * d)))


def _skorohod(psi, blocks, xi):
    """δψ of dense blocks, as the one weight assembly reads it."""
    return summary_log_weight(psi, block_summary_dense(blocks), xi).skorohod


def test_skorohod_zero_drift():
    out = _skorohod(np.zeros((2, 8, 1)), _zero_blocks(2, 4, 2, 1), np.zeros((2, 8, 1)))
    np.testing.assert_array_equal(out, 0.0)


def test_skorohod_deterministic_drift_is_ito_sum():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=(3, 8, 2))
    xi = rng.normal(size=(3, 8, 2))
    out = _skorohod(psi, _zero_blocks(3, 2, 4, 2), xi)
    np.testing.assert_allclose(out, np.einsum("bid,bid->b", psi, xi), rtol=1e-14)


def test_skorohod_adapted_drift_has_zero_mean():
    # tau=0 makes the midpoint drift adapted; the adjoint reduces to an Ito
    # sum whose mean vanishes under the sampling law
    pot = PerturbedQuadratic((1.0,), amplitude=0.2, frequency=1.0)
    grid = TimeGrid(0.5, 4, 2)
    sched = OverdampedSchedule.zero(grid)
    n = 4096
    xi = noise_matrix(3, n, grid.n_cells, 1)
    traj = simulate_mlmc(pot, sched, np.zeros((n, 1)), xi)
    blocks = SCHEMES["mlmc"].blocks(pot, traj)
    out = _skorohod(drift_mlmc(pot, traj), blocks, xi)
    se = out.std(ddof=1) / math.sqrt(n)
    assert abs(out.mean()) <= 4.0 * se


# ---------------------------------------------------------------------------
# Carleman-Fredholm log-determinant
# ---------------------------------------------------------------------------


def test_carleman_zero_blocks():
    value, negative = carleman_fredholm_logdet(block_summary_dense(_zero_blocks(2, 3, 4, 1)))
    np.testing.assert_array_equal(value, 0.0)
    assert not negative.any()


def test_carleman_adapted_blocks_exactly_zero():
    # tau=0 overdamped blocks and frozen-gradient kinetic blocks are strictly
    # lower triangular: unit determinant, zero trace, log-value exactly 0
    pot = PerturbedQuadratic((1.0,), amplitude=0.2, frequency=1.0)
    grid = TimeGrid(0.5, 2, 4)
    xi = noise_matrix(4, 3, grid.n_cells, 1)
    x0 = np.zeros((3, 1))

    sched = OverdampedSchedule.zero(grid)
    traj = simulate_mlmc(pot, sched, x0, xi)
    blocks = SCHEMES["mlmc"].blocks(pot, traj)
    tri = blocks.diag[0, 0]
    assert np.array_equal(np.triu(tri), np.zeros_like(tri))
    value, negative = carleman_fredholm_logdet(block_summary_dense(blocks))
    np.testing.assert_array_equal(value, 0.0)
    assert not negative.any()

    kin = simulate_ulmc(pot, grid, 1.0, x0, x0, xi)
    kin_blocks = SCHEMES["ulmc"].blocks(pot, kin)
    value, negative = carleman_fredholm_logdet(block_summary_dense(kin_blocks))
    np.testing.assert_array_equal(value, 0.0)
    assert not negative.any()


def test_carleman_matches_second_order_expansion():
    # |logdet2(I+D) + tr(D^2)/2| is a cubic remainder: halving D shrinks it 8x
    rng = np.random.default_rng(21)
    D = rng.normal(size=(8, 8))
    D *= 0.1 / np.linalg.norm(D, ord=2)
    remainders = []
    for scale in (1.0, 0.5):
        blocks = MalliavinBlocks((scale * D)[None, None])
        value, _ = carleman_fredholm_logdet(block_summary_dense(blocks))
        second = -0.5 * np.trace((scale * D) @ (scale * D))
        remainders.append(abs(value[0] - second))
    assert remainders[0] / remainders[1] >= 6.0


def test_carleman_flags_singular_and_negative_blocks():
    singular = MalliavinBlocks(np.array([[[[-1.0]]]]))
    value, negative = carleman_fredholm_logdet(block_summary_dense(singular))
    assert value[0] == -np.inf
    assert not negative[0]

    flipped = MalliavinBlocks(np.array([[[[-2.0]]]]))
    value, negative = carleman_fredholm_logdet(block_summary_dense(flipped))
    # |det(I + D)| = 1 so log|det| = 0; the trace correction remains
    assert value[0] == pytest.approx(2.0)
    assert negative[0]


def test_spectral_radius_known_value():
    blocks = MalliavinBlocks(np.array([[[[0.5]]]]))
    summary = block_summary_dense(blocks)
    assert summary.rho[0, 0] == 0.5
    assert summary.det2[0, 0] == pytest.approx(np.log(1.5) - 0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# Assembled log-weights
# ---------------------------------------------------------------------------


def test_log_weight_zero_for_free_potential():
    pot = IsotropicQuadratic(1, scale=0.0)
    grid = TimeGrid(0.4, 2, 4)
    xi = noise_matrix(6, 2, grid.n_cells, 1)
    x0 = np.zeros((2, 1))

    traj = simulate_mlmc(pot, OverdampedSchedule.deterministic(grid), x0, xi)
    summary = block_summary_dense(SCHEMES["mlmc"].blocks(pot, traj))
    lw = summary_log_weight(drift_mlmc(pot, traj), summary, xi)
    np.testing.assert_array_equal(lw.log_weight, 0.0)
    assert lw.invertible.all()
    assert not lw.negative_det.any()

    kin = simulate_dmulmc(pot, UnderdampedSchedule.deterministic(grid), 1.0, x0, x0, xi)
    summary = block_summary_dense(SCHEMES["dmulmc"].blocks(pot, kin))
    lw = summary_log_weight(drift_dmulmc(kin), summary, xi)
    np.testing.assert_array_equal(lw.log_weight, 0.0)
    assert lw.invertible.all()


def test_log_weight_adapted_equals_classical_exponent():
    # adapted drift: log M = -sum<psi,xi> - (1/2)sum|psi|^2 with zero
    # determinant correction
    pot = PerturbedQuadratic((1.0,), amplitude=0.2, frequency=1.0)
    grid = TimeGrid(0.5, 2, 4)
    sched = OverdampedSchedule.zero(grid)
    xi = noise_matrix(7, 5, grid.n_cells, 1)
    traj = simulate_mlmc(pot, sched, np.zeros((5, 1)), xi)
    psi = drift_mlmc(pot, traj)
    lw = summary_log_weight(psi, block_summary_dense(SCHEMES["mlmc"].blocks(pot, traj)), xi)
    np.testing.assert_array_equal(lw.log_cf_det, 0.0)
    classical = -np.einsum("bid,bid->b", psi, xi) - _energy(psi)
    np.testing.assert_allclose(lw.log_weight, classical, rtol=1e-14)


def test_weight_normalization_small_runs():
    # E[exp(log M)] = 1 under the sampling law at any finite resolution
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.25, 2, 4)
    for scheme, kwargs in (
        ("mlmc", {"schedule": OverdampedSchedule.deterministic(grid)}),
        ("dmulmc", {"schedule": UnderdampedSchedule.deterministic(grid), "gamma": 1.0}),
    ):
        run = run_weights(scheme, pot, n_paths=8192, seed=42, **kwargs)
        assert run.n_rejected == 0
        w = np.exp(run.log_weight)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) <= 3.0 * se
        assert se < 0.05


# ---------------------------------------------------------------------------
# Trace diagnostics
# ---------------------------------------------------------------------------


def test_trace_diagnostics_quadratic_closed_forms():
    # V = |x|^2/2 in d=1: tr(A^2) = 0, tr(B^2) = 2 tau^2 exactly, and
    # tr(BA) = tau^2 (1 - 1/r) with limit tau^2, gap halving as m doubles
    pot = IsotropicQuadratic(1)
    gaps = []
    for m in (4, 8, 16, 32):
        grid = TimeGrid(0.4, 2, m)
        sched = OverdampedSchedule.deterministic(grid)
        xi = noise_matrix(9, 2, grid.n_cells, 1)
        traj = simulate_mlmc(pot, sched, np.zeros((2, 1)), xi)
        diag = trace_diagnostics_mlmc(pot, traj)
        tau = float(sched.taus[0])
        r = m // 2
        np.testing.assert_array_equal(diag.tr_a2, 0.0)
        np.testing.assert_allclose(diag.tr_b2, 2.0 * tau**2, rtol=1e-12)
        np.testing.assert_allclose(diag.limit_b2, 2.0 * tau**2, rtol=1e-12)
        np.testing.assert_allclose(diag.tr_ba, tau**2 * (1.0 - 1.0 / r), rtol=1e-12)
        np.testing.assert_allclose(diag.limit_ba, tau**2, rtol=1e-12)
        gaps.append(float(np.mean(diag.limit_ba - diag.tr_ba)))
    for a, b in zip(gaps, gaps[1:]):
        assert b == pytest.approx(a / 2.0, rel=1e-10)


def test_trace_diagnostics_zero_hessian():
    pot = IsotropicQuadratic(2, scale=0.0)
    grid = TimeGrid(0.4, 2, 4)
    sched = OverdampedSchedule.deterministic(grid)
    xi = noise_matrix(10, 2, grid.n_cells, 2)
    traj = simulate_mlmc(pot, sched, np.zeros((2, 2)), xi)
    diag = trace_diagnostics_mlmc(pot, traj)
    for arr in (diag.tr_a2, diag.tr_ba, diag.tr_b2, diag.limit_ba, diag.limit_b2):
        np.testing.assert_array_equal(arr, 0.0)


# ---------------------------------------------------------------------------
# Double-midpoint block magnitudes
# ---------------------------------------------------------------------------


def test_dm_block_norm_halves_with_step():
    # operator norm of the derivative blocks is O(h^2): halving h at fixed m
    # shrinks the norm by at least 2x
    pot = IsotropicQuadratic(1)
    norms = []
    for h in (0.2, 0.1, 0.05):
        grid = TimeGrid(h, 1, 8)
        sched = UnderdampedSchedule.deterministic(grid)
        xi = noise_matrix(12, 16, grid.n_cells, 1)
        traj = simulate_dmulmc(pot, sched, 1.0, np.zeros((16, 1)), np.zeros((16, 1)), xi)
        blocks = SCHEMES["dmulmc"].blocks(pot, traj)
        norms.append(float(np.linalg.norm(blocks.diag, ord=2, axis=(-2, -1)).mean()))
    assert norms[0] / norms[1] >= 2.0
    assert norms[1] / norms[2] >= 2.0


def test_dm_log_cf_magnitude_stable_across_dimensions():
    # |log_cf_det| <= C * beta^2 * d * h^4 * N with one C across d in {1,2,4}
    gamma, h, N, m = 1.0, 0.25, 2, 4
    cs = []
    for d in (1, 2, 4):
        pot = IsotropicQuadratic(d)
        grid = TimeGrid(N * h, N, m)
        sched = UnderdampedSchedule.deterministic(grid)
        xi = noise_matrix(13, 16, grid.n_cells, d)
        traj = simulate_dmulmc(
            pot, sched, gamma, np.zeros((16, d)), np.zeros((16, d)), xi
        )
        blocks = SCHEMES["dmulmc"].blocks(pot, traj)
        value, _ = carleman_fredholm_logdet(block_summary_dense(blocks))
        cs.append(float(np.abs(value).max()) / (d * h**4 * N))
    assert max(cs) / min(cs) <= 3.0


# ---------------------------------------------------------------------------
# One step function per scheme for the path and its derivative
# ---------------------------------------------------------------------------


class _HessianOnly(PerturbedQuadratic):
    """A potential whose gradient must not be queried."""

    def gradient(self, x):
        raise AssertionError("tangent rules must use Hessian products only")


_STEPS = {"em-ld": "step_mlmc", "mlmc": "step_mlmc", "ulmc": "step_ulmc",
          "dmulmc": "solve_dmulmc_step"}


@pytest.mark.parametrize("scheme", sorted(_STEPS))
def test_tangent_rules_run_the_integrators_steps(monkeypatch, scheme):
    # each rule is one call of its scheme's step function with grad = ∇²V·DX,
    # the same function the path runs with grad = ∇V
    from girsanovlab import girsanov, integrators
    from girsanovlab.engine import scheme_for

    calls = []

    def counting(name):
        original = getattr(integrators, name)

        def step(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return step

    for name in set(_STEPS.values()):
        # each caller looks the step up in its own module
        wrapped = counting(name)
        monkeypatch.setattr(integrators, name, wrapped)
        monkeypatch.setattr(girsanov, name, wrapped)
    s = scheme_for(scheme)
    pot = PerturbedQuadratic((1.0, 1.5), amplitude=0.1, frequency=1.0)
    grid = TimeGrid(0.5, 2, 4)
    zdim = 2 * pot.d if s.kinetic else pot.d
    xi = noise_matrix(4, 3, grid.n_cells, pot.d)
    gamma = 1.0 if s.kinetic else None
    traj = s.simulate(pot, grid, s.schedule(grid), gamma, np.full((3, zdim), 0.3), xi)
    assert calls == [_STEPS[scheme]] * grid.N
    calls.clear()
    rule = s.tangents(_HessianOnly((1.0, 1.5), amplitude=0.1, frequency=1.0), traj)
    reference = s.tangents(pot, traj)
    dirs = np.eye(grid.m * pot.d).reshape(grid.m, pot.d, -1)
    for dz0 in (None, np.ones((3, zdim, dirs.shape[-1]))):
        Dc, Dz = rule(1, dirs, dz0)
        assert Dz.shape == (3, zdim, dirs.shape[-1])
        for got, want in zip((Dc, Dz), reference(1, dirs, dz0)):
            np.testing.assert_array_equal(got, want)
    assert calls == [_STEPS[scheme]] * 4


@pytest.mark.parametrize("scheme", sorted(_STEPS))
def test_dense_blocks_evaluate_no_drift(scheme):
    # Scheme.blocks reads its basis from the trajectory's grid: no gradient,
    # so no drift, is evaluated to learn U
    from girsanovlab.engine import scheme_for

    s = scheme_for(scheme)
    pot = PerturbedQuadratic((1.0, 1.5), amplitude=0.1, frequency=1.0)
    grid = TimeGrid(0.5, 2, 4)
    zdim = 2 * pot.d if s.kinetic else pot.d
    gamma = 1.0 if s.kinetic else None
    xi = noise_matrix(4, 3, grid.n_cells, pot.d)
    traj = s.simulate(pot, grid, s.schedule(grid), gamma, np.full((3, zdim), 0.3), xi)
    hessian_only = _HessianOnly((1.0, 1.5), amplitude=0.1, frequency=1.0)
    for include_offdiag in (False, True):
        got = s.blocks(hessian_only, traj, include_offdiag)
        want = s.blocks(pot, traj, include_offdiag)
        np.testing.assert_array_equal(got.diag, want.diag)


@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
def test_dense_blocks_match_probed_step_maps(scheme):
    # the step maps and the dense derivative share each scheme's step tangent
    # rule (the maps are checked against a probe of the path solver in
    # test_affine), so this checks the horizon sweep that composes the steps:
    # diagonal blocks are each step's U·Wt, the cross-step block (1, 0) is
    # U_1·Lz_1·S_0
    from girsanovlab.affine import step_maps_for_schedule
    from girsanovlab.engine import scheme_for
    from girsanovlab.potentials import AnisotropicQuadratic

    pot = AnisotropicQuadratic((0.6, 1.4))
    s = scheme_for(scheme)
    grid = TimeGrid(0.5, 2, 8)
    schedule = s.schedule(grid)
    gamma = 1.0 if s.kinetic else None
    d, md = pot.d, grid.m * pot.d
    zdim = 2 * d if s.kinetic else d
    z0 = np.random.default_rng(8).normal(size=(2, zdim))
    traj = s.simulate(pot, grid, schedule, gamma, z0, noise_matrix(8, 2, grid.n_cells, d))
    full = s.blocks(pot, traj, include_offdiag=True).full
    maps = step_maps_for_schedule(scheme, pot, schedule if schedule is not None else grid, gamma)

    def dense(sm, coords):  # the dense drift map U·coords, U = I when None
        return coords if sm.U is None else sm.U @ coords

    for k in range(2):
        diag = full[:, k * md : (k + 1) * md, k * md : (k + 1) * md]
        np.testing.assert_allclose(diag, np.broadcast_to(dense(maps[k], maps[k].Wt), diag.shape),
                                   rtol=0, atol=1e-12)
    cross = dense(maps[1], maps[1].Lz) @ maps[0].S
    np.testing.assert_allclose(full[:, md:, :md], np.broadcast_to(cross, (2, md, md)),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(full[:, :md, md:], 0.0)


# ---------------------------------------------------------------------------
# One tangent rule per scheme: the full derivative against finite differences
# ---------------------------------------------------------------------------


FD_CONFIG = """
[experiment]
name = fd-malliavin
n_paths = 20
seed = {seed}
[potential]
kind = perturbed-quadratic
spectrum = 1.0 1.0
[grid]
T = 0.5
N = 2
m = 4
[scheme]
name = {label}
"""


@pytest.mark.parametrize("label", ["EM-LD", "ULMC"])
def test_full_derivative_matches_finite_differences(label):
    # criterion 3's check (M-LMC and DM-ULMC) at its config, for the other
    # two schemes: every entry of the cross-step sweep against central FD
    from girsanovlab.acceptance import DEFAULT_SEED
    from girsanovlab.config import load_config
    from girsanovlab.experiments import run_experiment

    result = run_experiment(load_config(FD_CONFIG.format(seed=DEFAULT_SEED, label=label)))
    assert result.passed, [c.detail for c in result.checks]


@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
def test_full_sweep_keeps_the_diagonal_blocks_and_zero_upper_blocks(scheme):
    from girsanovlab.engine import scheme_for

    pot = PerturbedQuadratic((1.0, 1.5), amplitude=0.1, frequency=1.0)
    s = scheme_for(scheme)
    grid = TimeGrid(0.75, 3, 4)
    gamma = 1.0 if s.kinetic else None
    z0 = np.random.default_rng(3).normal(size=(4, 2 * pot.d if s.kinetic else pot.d))
    traj = s.simulate(pot, grid, s.schedule(grid), gamma, z0,
                      noise_matrix(3, 4, grid.n_cells, pot.d))
    blocks = s.blocks(pot, traj, include_offdiag=True)
    np.testing.assert_allclose(blocks.diag, s.blocks(pot, traj).diag, rtol=0, atol=1e-15)
    md = grid.m * pot.d
    for k in range(grid.N):
        rows = slice(k * md, (k + 1) * md)
        np.testing.assert_array_equal(blocks.full[:, rows, rows], blocks.diag[:, k])
        np.testing.assert_array_equal(blocks.full[:, rows, (k + 1) * md :], 0.0)
