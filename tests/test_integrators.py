"""Integrator and kernel tests against hand-computed and quadrature oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh

from girsanovlab.integrators import (
    FIXED_POINT_MAX_ITERS,
    DmWorkspace,
    StepSizeError,
    TrajectoryBlowupError,
    UnsupportedPotentialError,
    _col,
    _dm_midpoints,
    _node_noise,
    ou_cell,
    ou_endpoint_map,
    simulate_dmulmc,
    simulate_dmulmc_marginal,
    simulate_mlmc,
    simulate_ulmc,
    solve_dmulmc_step,
    step_dmulmc_marginal,
    step_mlmc,
    step_ulmc,
)
from girsanovlab.engine import SCHEMES
from girsanovlab.kernels import (
    SigmaCoefficients,
    StepKernels,
    e1,
    e2,
    e3,
    sigma_coefficients,
)
from girsanovlab.paths import (
    LABEL_INIT,
    LABEL_RESIDUAL,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from girsanovlab.potentials import (
    AnisotropicQuadratic,
    IsotropicQuadratic,
    PerturbedQuadratic,
)


# ---------------------------------------------------------------------------
# Test-only oracles
# ---------------------------------------------------------------------------


def brownian_partial_sums(xi, eta):
    """Brownian node values B_{nη} = √η Σ_{j<n} ξ_j, with the leading zero.

    Accepts (..., n_cells, d); returns (..., n_cells+1, d).
    """
    out = np.zeros(xi.shape[:-2] + (xi.shape[-2] + 1, xi.shape[-1]))
    np.cumsum(xi, axis=-2, out=out[..., 1:, :])
    out[..., 1:, :] *= np.sqrt(eta)
    return out


def euler_nodes(potential, x0, xi, eta):
    """Euler–Maruyama on every inner cell, x_{n+1} = x_n − η∇V(x_n) + √(2η)ξ_n.

    Returns nodes (B, n+1, d).
    """
    x = np.atleast_2d(np.asarray(x0, dtype=float))
    nodes = [x]
    for n in range(xi.shape[1]):
        x = x - eta * potential.gradient(x) + np.sqrt(2.0 * eta) * xi[:, n]
        nodes.append(x)
    return np.stack(nodes, axis=1)


def ou_nodes(cell, z0, xi, residual):
    """Cell-by-cell composition of one cell (Φ, M, R); nodes (B, n+1, z)."""
    Phi, mean_coef, resid_half = cell
    z = np.atleast_2d(np.asarray(z0, dtype=float))
    nodes = [z]
    for i in range(xi.shape[1]):
        z = z @ Phi.T + xi[:, i] @ mean_coef.T + residual[:, i] @ resid_half.T
        nodes.append(z)
    return np.stack(nodes, axis=1)


def ou_cell_closed_form(potential, eta):
    """The overdamped cell (Φ, M, R) from per-eigenvalue closed forms.

    In the eigenbasis U of H, with w = λη: Φ = e^{−w}, the ξ-coefficient
    √2·s/√η and the residual root √(c − 2s²/η), where s = ∫₀^η e^{−λu}du
    and c = 2∫₀^η e^{−2λu}du, each formed by expm1 and exact at λ = 0.
    """
    lam, U = eigh(potential.constant_hessian)
    w = lam * eta
    s = eta * np.where(w == 0.0, 1.0, -np.expm1(-w) / np.where(w == 0.0, 1.0, w))
    cvar = eta * np.where(w == 0.0, 2.0, -np.expm1(-2 * w) / np.where(w == 0.0, 1.0, w))
    mean_coef = np.sqrt(2.0) * s / np.sqrt(eta)
    resid_sd = np.sqrt(np.clip(cvar - 2.0 * s**2 / eta, 0.0, None))
    return tuple((U * v) @ U.T for v in (np.exp(-w), mean_coef, resid_sd))


def test_brownian_partial_sums_oracle():
    xi = np.ones((8, 1))
    sums = brownian_partial_sums(xi, eta=0.25)
    assert sums[0, 0] == 0.0
    assert sums[-1, 0] == pytest.approx(np.sqrt(0.25) * 8)
    diffs = np.diff(sums, axis=0)
    np.testing.assert_allclose(diffs, np.sqrt(0.25) * xi)


# ---------------------------------------------------------------------------
# Damping kernels
# ---------------------------------------------------------------------------


def test_exp_integrals_collapse_at_equal_times():
    e1v, e2v, e3v = (e(3.7, 0.4, 0.4) for e in (e1, e2, e3))
    assert e1v == 1.0
    assert e2v == 0.0
    assert e3v == 0.0


def test_exp_integrals_closed_forms():
    # gamma=2, t-s=0.5 so gamma*(t-s)=1
    e1v, e2v, e3v = (e(2.0, 0.25, 0.75) for e in (e1, e2, e3))
    assert e1v == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert e2v == pytest.approx((1.0 - math.exp(-1.0)) / 2.0, rel=1e-14)
    assert e3v == pytest.approx((0.5 + (math.exp(-1.0) - 1.0) / 2.0) / 2.0, rel=1e-14)


def test_exp_integrals_small_friction_limits():
    # the exact Taylor remainder is gamma*dt^2/2, so dt=0.1 keeps it below 1e-10
    dt = 0.1
    e2v, e3v = e2(1e-8, 0.0, dt), e3(1e-8, 0.0, dt)
    assert abs(e2v - dt) <= 1e-10
    assert abs(e3v - dt**2 / 2.0) <= 1e-10


def test_exp_integrals_reject_reversed_times():
    for kernel in (e1, e2, e3):
        with pytest.raises(ValueError):
            kernel(1.0, 0.5, 0.4)
        with pytest.raises(ValueError):
            kernel(-1.0, 0.0, 0.5)


def test_sigma_coefficients_small_friction_polynomials():
    # gamma -> 0 limits; the exact deviation is O(gamma*h), so gamma=1e-9
    # puts every coefficient within 1e-8 of its polynomial limit
    h = 1.0
    sig = sigma_coefficients(1e-9, h)
    assert abs(sig.s11 - h) <= 1e-8
    assert abs(sig.s12 - h**2 / 2.0) <= 1e-8
    assert abs(sig.s22 - h**3 / 3.0) <= 1e-8
    assert abs(sig.delta - h**4 / 12.0) <= 1e-8


def test_sigma_coefficients_cancellation_free_at_tiny_friction():
    # first-order series sigma11 = h(1-w), sigma12 = h^2(1-w)/2,
    # sigma22 = h^3(1/3 - w/4); remainders are O(w^2) = 1e-12, so agreement
    # to 1e-11 shows the evaluation loses no precision to cancellation
    w = 1e-6
    sig = sigma_coefficients(w, 1.0)
    assert abs(sig.s11 - (1.0 - w)) <= 1e-11
    assert abs(sig.s12 - 0.5 * (1.0 - w)) <= 1e-11
    assert abs(sig.s22 - (1.0 / 3.0 - w / 4.0)) <= 1e-11


def test_sigma_coefficients_match_quadrature():
    gamma, h = 1.0, 0.1

    def E1(t):
        return math.exp(-gamma * (h - t))

    def E2(t):
        return (1.0 - math.exp(-gamma * (h - t))) / gamma

    s11 = quad(lambda t: E1(t) ** 2, 0.0, h, epsabs=1e-14)[0]
    s12 = quad(lambda t: E1(t) * E2(t), 0.0, h, epsabs=1e-14)[0]
    s22 = quad(lambda t: E2(t) ** 2, 0.0, h, epsabs=1e-14)[0]
    sig = sigma_coefficients(gamma, h)
    assert sig.s11 == pytest.approx(s11, abs=1e-12)
    assert sig.s12 == pytest.approx(s12, abs=1e-12)
    assert sig.s22 == pytest.approx(s22, abs=1e-12)


def test_sigma_coefficients_positive_definite_across_scales():
    for gamma in (0.0, 1e-9, 0.01, 1.0, 25.0):
        for h in (1e-4, 0.1, 1.0, 3.0):
            sig = sigma_coefficients(gamma, h)
            assert sig.s11 > 0 and sig.s22 > 0
            assert sig.delta > 0  # strict Cauchy-Schwarz

    # the 2x2 solve inverts the Gram system
    sig = sigma_coefficients(0.8, 0.4)
    b1, b2 = np.array([1.3]), np.array([-0.7])
    x1, x2 = sig.solve(b1, b2)
    assert sig.s11 * x1 + sig.s12 * x2 == pytest.approx(b1[0], rel=1e-12)
    assert sig.s12 * x1 + sig.s22 * x2 == pytest.approx(b2[0], rel=1e-12)


@pytest.mark.parametrize("m", [1, 3, 64, 512])
@pytest.mark.parametrize("gamma, h", [(1.0, 0.25), (0.3, 1 / 32), (7.5, 2.0)])
def test_kernel_rows_are_the_table_rows(gamma, h, m):
    # one formula: a row on demand is the table's row bit for bit, alone or
    # as a stack of indices; the kernels come fresh, so the rows are computed
    # before any table exists
    kern = StepKernels(gamma, h, m)
    r = m // 2
    rows = {a: [kern.row(a, n) for n in (0, 1, r, m)] for a in (1, 2)}
    stacked = {a: kern.row(a, [0, 1, r, m]) for a in (1, 2)}
    assert "K1" not in vars(kern) and "K2" not in vars(kern)
    for a, table in ((1, kern.K1), (2, kern.K2)):
        assert table.shape == (m + 1, m)
        for n, row in zip((0, 1, r, m), rows[a]):
            np.testing.assert_array_equal(row, table[n])
        np.testing.assert_array_equal(stacked[a], table[[0, 1, r, m]])
        assert not np.any(np.triu(table[:m]))  # strictly causal: j < n only


@pytest.mark.parametrize("make", [StepKernels, StepKernels.build], ids=["init", "build"])
@pytest.mark.parametrize("m", [2.5, 0, True])
def test_step_kernels_reject_a_non_integer_m(make, m):
    # build checks m before its int() cast, so 2.5 cannot become m = 2
    with pytest.raises(ValueError, match="positive integer"):
        make(1.0, 0.5, m)


def test_discrete_sigma_converges_to_analytic():
    gamma, h = 1.3, 0.5
    exact = sigma_coefficients(gamma, h)
    errs = []
    for m in (8, 16, 32):
        hat = StepKernels.build(gamma, h, m).sigma_hat
        errs.append(abs(hat.s22 - exact.s22))
    assert errs[0] > errs[1] > errs[2]
    assert isinstance(StepKernels.build(gamma, h, 8).sigma_hat, SigmaCoefficients)


def test_one_cell_has_no_discrete_gram_matrix():
    # with m = 1, e1_left and e2_left are two length-1 vectors, so σ̂ is
    # singular (δ ≈ 2e-19 at γ = 1, h = 0.25): σ̂ and every table built on it
    # are refused, while the kernels the marginal update reads stay valid
    kern = StepKernels(1.0, 0.25, 1)
    for name in ("sigma_hat", "constrained"):
        with pytest.raises(ValueError, match=r"needs m >= 2 inner cells, got m = 1"):
            getattr(kern, name)
    assert kern.K1.shape == kern.K2.shape == (2, 1)
    assert StepKernels(1.0, 0.25, 2).sigma_hat.delta > 0


# ---------------------------------------------------------------------------
# Overdamped integrators
# ---------------------------------------------------------------------------


def _em_ld(pot, grid, x0, xi):
    """The EM-LD scheme's inner-grid nodes, through the scheme table."""
    em = SCHEMES["em-ld"]
    return em.simulate(pot, em.schedule(grid), None, np.atleast_2d(x0), xi).x


def test_em_single_step_hand_value():
    # one Euler step of dX = -X dt: 1 - 0.1*1 = 0.9
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.1, 1, 1)
    nodes = _em_ld(pot, grid, np.array([1.0]), np.zeros((1, 1, 1)))
    assert nodes[0, 1, 0] == pytest.approx(0.9, rel=1e-15)


def test_em_free_potential_is_shifted_brownian():
    pot = IsotropicQuadratic(2, scale=0.0)
    grid = TimeGrid(1.0, 2, 4)
    xi = noise_matrix(3, 3, grid.n_cells, 2)
    x0 = np.array([[1.0, -2.0], [0.0, 0.5], [3.0, 3.0]])
    nodes = _em_ld(pot, grid, x0, xi)
    expect = x0[:, None, :] + np.sqrt(2.0) * brownian_partial_sums(xi, grid.eta)
    np.testing.assert_allclose(nodes, expect, rtol=1e-13, atol=1e-14)


def test_midpoint_overdamped_hand_values():
    # h=0.2, tau=0.1, x0=1, no noise, V = x^2/2:
    #   X+ = 1 - 0.1*1 = 0.9; node at 0.1: 1 - 0.1*0.9 = 0.91; endpoint 0.82
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.2, 1, 2)
    sched = OverdampedSchedule.deterministic(grid)
    assert grid.eta * sched.indices[0] == pytest.approx(0.1)
    traj = simulate_mlmc(pot, sched, np.array([1.0]), np.zeros((1, 2, 1)))
    assert traj.x_plus[0, 0, 0] == pytest.approx(0.9, rel=1e-15)
    assert traj.x[0, 1, 0] == pytest.approx(0.91, rel=1e-15)
    assert traj.x[0, 2, 0] == pytest.approx(0.82, rel=1e-15)


def test_midpoint_at_zero_offset_matches_euler():
    # with m=1 and tau=0 the midpoint update IS one Euler step per step
    pot = PerturbedQuadratic((1.0,), amplitude=0.2, frequency=1.0)
    grid = TimeGrid(0.5, 5, 1)
    sched = OverdampedSchedule.zero(grid)
    np.testing.assert_array_equal(sched.indices, 0)
    xi = noise_matrix(11, 2, grid.n_cells, 1)
    x0 = np.array([[0.3], [-1.1]])
    traj = simulate_mlmc(pot, sched, x0, xi)
    nodes = euler_nodes(pot, x0, xi, grid.eta)
    np.testing.assert_allclose(traj.x, nodes, rtol=1e-14, atol=1e-15)


def test_midpoint_overdamped_affine_superposition():
    # for quadratic V the scheme map is affine in (x0, xi) jointly
    pot = AnisotropicQuadratic((0.5, 1.5))
    grid = TimeGrid(0.4, 2, 4)
    sched = OverdampedSchedule.deterministic(grid)
    rng = np.random.default_rng(7)
    x0 = np.zeros((4, 2))
    xi = np.zeros((4, grid.n_cells, 2))
    x0[0], x0[1] = rng.normal(size=2), rng.normal(size=2)
    xi[0], xi[1] = rng.normal(size=xi[0].shape), rng.normal(size=xi[0].shape)
    x0[3] = x0[0] + x0[1]
    xi[3] = xi[0] + xi[1]
    out = simulate_mlmc(pot, sched, x0, xi).x
    np.testing.assert_allclose(out[0] + out[1] - out[2], out[3], rtol=1e-12, atol=1e-12)


def test_gradient_query_counters():
    # one step of each scheme's marginal update evaluates exactly the
    # gradients the scheme table claims for it
    B, d = 3, 2
    grid = TimeGrid(0.5, 1, 4)
    kern = StepKernels.build(1.0, grid.h, grid.m)
    rng = np.random.default_rng(0)
    x0, p0 = rng.normal(size=(B, d)), rng.normal(size=(B, d))
    xi = rng.normal(size=(B, grid.m, d))
    pot = IsotropicQuadratic(d)
    steps = {
        ("mlmc", 0): lambda grad: step_mlmc(grad, x0, xi, grid.eta, 0),
        ("mlmc", 2): lambda grad: step_mlmc(grad, x0, xi, grid.eta, 2),
        ("ulmc", 0): lambda grad: step_ulmc(kern, grad, x0, p0, xi),
        ("dmulmc", (1, 2)): lambda grad: step_dmulmc_marginal(kern, grad, x0, p0, xi, 1, 2),
    }
    expected = [1, 2, 1, 3]
    for ((scheme, key), step), queries in zip(steps.items(), expected):
        points = []

        def grad(where, x):
            points.append(np.size(x) // d)  # points evaluated
            return pot.gradient(x)

        step(grad)
        entry = SCHEMES[scheme]
        assert sum(points) // B == queries, scheme
        assert entry.grad_queries(entry.step_schedule(grid, key)) == queries, scheme


def test_elementary_ld_matches_exact_flow_for_free_dynamics():
    # with no drift each Euler cell IS the diffusion's cell under the coupling;
    # the map sums the cells in one product, not in Euler's order, so the two
    # agree to rounding (largest difference 8.9e-16 on states of size ~1)
    pot = IsotropicQuadratic(1, scale=0.0)
    x0 = noise_matrix(5, 256, 1, 1, label=LABEL_INIT)[:, 0]
    for h in (0.25, 0.125):
        grid = TimeGrid(h, 1, 4)
        xi = noise_matrix(5, 256, grid.m, 1)
        residual = noise_matrix(5, 256, grid.m, 1, label=LABEL_RESIDUAL)
        euler = euler_nodes(pot, x0, xi, grid.eta)
        for n in range(1, grid.m + 1):
            exact = ou_endpoint_map(pot, None, grid.eta, n)(x0, xi[:, :n], residual[:, :n])
            np.testing.assert_allclose(exact, euler[:, n], rtol=0, atol=1e-14)


def test_blowup_error_names_the_step():
    # undamped Euler at eta >> 1/beta multiplies the state by 1 - 1e8 each
    # step and overflows at outer step 38 (|x| ~ 1e312); the error names the
    # outer step, whatever the cells per step
    pot = IsotropicQuadratic(1)
    for m in (1, 4):
        grid = TimeGrid(4e9, 40, m)  # h = 1e8 whatever m
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrajectoryBlowupError, match=r"after step 38$"):
                _em_ld(pot, grid, np.array([1.0]), np.zeros((1, 40 * m, 1)))


@pytest.mark.parametrize(
    "chain, m", [("ulmc", 1), ("ulmc", 4), ("dmulmc-marginal", 1), ("dmulmc-marginal", 4)]
)
def test_kinetic_blowup_error_names_the_step(chain, m):
    # the frozen-gradient position line multiplies x by about 1 - h = 1 - 1e8
    # each step, so both kinetic chains overflow at outer step 38 as EM-LD does.
    # At m = 4 the marginal chain's midpoints X∓ (r∓ = 1, 2, not 0) grow
    # faster and overflow inside step 20, before its end state is formed
    message = "in step 20" if (chain, m) == ("dmulmc-marginal", 4) else "after step 38"
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(4e9, 40, m)
    x0, p0, xi = np.array([1.0]), np.array([0.0]), np.zeros((1, 40 * m, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrajectoryBlowupError, match=rf"{message}$"):
            if chain == "ulmc":
                simulate_ulmc(pot, grid, 1.0, x0, p0, xi)
            else:
                schedule = UnderdampedSchedule.deterministic(grid)
                simulate_dmulmc_marginal(pot, schedule, 1.0, x0, p0, xi)


# ---------------------------------------------------------------------------
# Kinetic integrators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape, cells",
    [((5, 16, 2), slice(None)), ((5, 16, 2, 3), slice(None)), ((5, 48, 2), slice(16, 32))],
    ids=["paths", "tangents", "step-slice"],
)
def test_node_noise_matches_einsum(shape, cells):
    # the per-path product against the contraction it stands for, on a whole
    # window, on tangent axes after d, and on the strided step slice
    # xi[:, k*m:(k+1)*m] that the marginal simulator passes
    rng = np.random.default_rng(4)
    K = StepKernels.build(1.1, 0.4, 16).K2
    xi = rng.standard_normal(shape)[:, cells]
    out = _node_noise(K, xi)
    assert out.shape == (shape[0], K.shape[0], *shape[2:])
    np.testing.assert_allclose(out, np.einsum("nj,bj...->bn...", K, xi), rtol=0, atol=1e-14)
    buffer = np.empty_like(out)
    assert np.shares_memory(_node_noise(K, xi, out=buffer), buffer)
    np.testing.assert_array_equal(buffer, out)


def _e2_closed(gamma, t):
    return (1.0 - math.exp(-gamma * t)) / gamma


def _e3_closed(gamma, t):
    return (t + (math.exp(-gamma * t) - 1.0) / gamma) / gamma


def test_frozen_gradient_kinetic_hand_values():
    # gamma=1, h=0.1, x0=1, p0=0, no noise, V = x^2/2
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.1, 1, 4)
    traj = simulate_ulmc(pot, grid, 1.0, np.array([1.0]), np.array([0.0]), np.zeros((1, 4, 1)))
    for n in range(grid.m + 1):
        t = n * grid.eta
        assert traj.p[0, n, 0] == pytest.approx(-_e2_closed(1.0, t), abs=1e-14)
        assert traj.x[0, n, 0] == pytest.approx(1.0 - _e3_closed(1.0, t), abs=1e-14)


def test_frozen_gradient_free_potential_decay():
    # zero forcing: momentum decays exponentially, position integrates it
    pot = IsotropicQuadratic(1, scale=0.0)
    gamma = 0.7
    grid = TimeGrid(0.5, 1, 5)
    traj = simulate_ulmc(pot, grid, gamma, np.array([2.0]), np.array([1.5]), np.zeros((1, 5, 1)))
    for n in range(grid.m + 1):
        t = n * grid.eta
        assert traj.p[0, n, 0] == pytest.approx(1.5 * math.exp(-gamma * t), rel=1e-13)
        assert traj.x[0, n, 0] == pytest.approx(2.0 + 1.5 * _e2_closed(gamma, t), rel=1e-13)


def test_double_midpoint_marginal_hand_values():
    # gamma=1, h=0.3, tau-=0.1, tau+=0.15 (thirds/halves on m=6), no noise
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.3, 1, 6)
    sched = UnderdampedSchedule.deterministic(grid)
    assert grid.eta * sched.indices_minus[0] == pytest.approx(0.1)
    assert grid.eta * sched.indices_plus[0] == pytest.approx(0.15)
    xs, ps = simulate_dmulmc_marginal(
        pot, sched, 1.0, np.array([1.0]), np.array([0.0]), np.zeros((1, 6, 1))
    )
    x_minus = 1.0 - _e3_closed(1.0, 0.1)
    x_plus = 1.0 - _e3_closed(1.0, 0.15)
    assert xs[0, 1, 0] == pytest.approx(1.0 - _e3_closed(1.0, 0.3) * x_minus, rel=1e-13)
    assert ps[0, 1, 0] == pytest.approx(-_e2_closed(1.0, 0.3) * x_plus, rel=1e-13)


def test_double_midpoint_interpolation_hits_marginal_endpoints():
    # the endpoint row of the sweep table is zero in exact arithmetic, so
    # every outer node of the interpolation is the closed-form marginal
    # update, on a quadratic and a non-quadratic target, for both schedules
    grid = TimeGrid(0.6, 3, 8)
    xi = noise_matrix(8, 5, grid.n_cells, 2)
    for pot in (AnisotropicQuadratic((0.6, 1.4)),
                PerturbedQuadratic((0.6, 1.4), amplitude=0.1, frequency=1.0)):
        for sched in (UnderdampedSchedule.randomized(grid, seed=4, stream=0),
                      UnderdampedSchedule.deterministic(grid)):
            rng = np.random.default_rng(3)
            x0 = rng.normal(size=(5, 2))
            p0 = rng.normal(size=(5, 2))
            traj = simulate_dmulmc(pot, sched, 1.2, x0, p0, xi)
            xs, ps = simulate_dmulmc_marginal(pot, sched, 1.2, x0, p0, xi)
            for k in range(grid.N + 1):
                np.testing.assert_allclose(traj.x[:, k * grid.m], xs[:, k], rtol=0, atol=1e-12)
                np.testing.assert_allclose(traj.p[:, k * grid.m], ps[:, k], rtol=0, atol=1e-12)


def test_double_midpoint_affine_superposition():
    pot = AnisotropicQuadratic((0.5, 1.5))
    grid = TimeGrid(0.4, 2, 4)
    sched = UnderdampedSchedule.deterministic(grid)
    rng = np.random.default_rng(9)
    x0 = np.zeros((4, 2))
    p0 = np.zeros((4, 2))
    xi = np.zeros((4, grid.n_cells, 2))
    for arr in (x0, p0, xi):
        arr[0] = rng.normal(size=arr[0].shape)
        arr[1] = rng.normal(size=arr[0].shape)
        arr[3] = arr[0] + arr[1]
    traj = simulate_dmulmc(pot, sched, 1.0, x0, p0, xi)
    for out in (traj.x, traj.p):
        np.testing.assert_allclose(out[0] + out[1] - out[2], out[3], atol=5e-10)


def test_double_midpoint_rejects_oversized_steps():
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(10.0, 1, 4)
    sched = UnderdampedSchedule.deterministic(grid)
    with pytest.raises(StepSizeError):
        simulate_dmulmc(pot, sched, 1.0, np.array([1.0]), np.array([0.0]), np.zeros((1, 4, 1)))


def _sums(K, v):
    """K·v along the cell axis (axis 1), out of place."""
    return (K @ v.reshape(*v.shape[:2], -1)).reshape(v.shape[0], K.shape[0], *v.shape[2:])


def _solve_out_of_place(kern, grad, x0, p0, xi, r_minus, r_plus, tol):
    """The double-midpoint sweeps with (λ₁, λ₂) solved in every sweep, out of place.

    Returns (x_nodes, p_nodes, lam1, lam2, sweeps).
    """
    m, eta = kern.m, kern.eta
    c = np.sqrt(2.0 * kern.gamma * eta)
    x_minus, x_plus, g0, _ = _dm_midpoints(kern, grad, x0, p0, xi, r_minus, r_plus)
    gx = kern.e3_0[m] * grad("minus", x_minus)
    gp = kern.e2_0[m] * grad("plus", x_plus)
    base = x0[:, None] + _col(kern.e2_0, x0) * p0[:, None] + c * _sums(kern.K2, xi)
    x = base - _col(kern.e3_0, x0) * g0[:, None]
    e1, e2 = _col(kern.e1_left, x0), _col(kern.e2_left, x0)
    for it in range(1, FIXED_POINT_MAX_ITERS + 1):
        g = grad("nodes", x[:, :m])
        s1 = eta * np.einsum("j,bj...->b...", kern.e1_left, g)
        s2 = eta * np.einsum("j,bj...->b...", kern.e2_left, g)
        lam1, lam2 = kern.sigma_hat.solve(s1 - gp, s2 - gx)
        g_opt = g - e1 * lam1[:, None] - e2 * lam2[:, None]
        x_new = base - eta * _sums(kern.K2, g_opt)
        delta = float(np.max(np.abs(x_new - x)))
        x = x_new
        if delta <= tol:
            break
    p = _col(kern.e1_0, x0) * p0[:, None] - eta * _sums(kern.K1, g_opt) + c * _sums(kern.K1, xi)
    return x, p, lam1, lam2, it


def _solve_constrained_out_of_place(kern, grad, x0, p0, xi, r_minus, r_plus, tol):
    """The constrained sweeps X ← base + M·[g; t] of the solver, out of place,
    then λ = σ̂⁻¹·(η·Eᵀ·g − t) and the momentum nodes from [g; λ].

    Returns (x_nodes, p_nodes, lam1, lam2, sweeps).
    """
    m = kern.m
    tables = kern.constrained
    c = np.sqrt(2.0 * kern.gamma * kern.eta)
    x_minus, x_plus, g0, _ = _dm_midpoints(kern, grad, x0, p0, xi, r_minus, r_plus)
    t = np.stack([kern.e2_0[m] * grad("plus", x_plus), kern.e3_0[m] * grad("minus", x_minus)], 1)
    base = x0[:, None] + _col(kern.e2_0, x0) * p0[:, None] + c * _sums(kern.K2, xi)
    x = base - _col(kern.e3_0, x0) * g0[:, None]
    for it in range(1, FIXED_POINT_MAX_ITERS + 1):
        g = grad("nodes", x[:, :m])
        rhs = np.concatenate([g, np.broadcast_to(t, (len(g), *t.shape[1:]))], axis=1)
        x_new = _sums(tables.x, rhs) + base
        delta = float(np.max(np.abs(x_new - x)))
        x = x_new
        if delta <= tol:
            break
    residual = _sums(tables.residual, rhs)
    lam1, lam2 = kern.sigma_hat.solve(residual[:, 0], residual[:, 1])
    rhs = np.concatenate([rhs[:, :m], lam1[:, None], lam2[:, None]], axis=1)
    p = _sums(tables.p, rhs) + _col(kern.e1_0, x0) * p0[:, None] + c * _sums(kern.K1, xi)
    return x, p, lam1, lam2, it


def _dm_step_case(batch):
    """One step of a non-quadratic DM-ULMC path, as a path batch or a tangent batch.

    Returns (kern, make_grad, args, n): ``make_grad(work)`` gives the step's
    gradient oracle, the tangent one writing into ``work.gradient_out`` when
    a workspace is given, as the summary's does.  The tangent batch has an
    unbatched base (1, m+1, d, U) under a batched iterate (B, m+1, d, U), the
    first sweep broadcasting.
    """
    pot = PerturbedQuadratic((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0)
    grid = TimeGrid(0.5, 2, 8)
    sched = UnderdampedSchedule.randomized(grid, seed=6, stream=0)
    kern = StepKernels.build(1.0, grid.h, grid.m)
    n, d, m, k = 5, pot.d, grid.m, 1
    rng = np.random.default_rng(12)
    xi = noise_matrix(9, n, grid.n_cells, d)
    x0, p0 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    r = int(sched.indices_minus[k]), int(sched.indices_plus[k])
    if batch == "paths":
        return kern, lambda work: (lambda where, x: pot.gradient(x)), (
            x0, p0, xi[:, k * m : (k + 1) * m], *r, 1e-12), n
    traj = simulate_dmulmc(pot, sched, 1.0, x0, p0, xi)
    H = {"start": np.zeros((1, d, d)), "minus": pot.hessian(traj.x_minus[:, k]),
         "plus": pot.hessian(traj.x_plus[:, k]),
         "nodes": pot.hessian(traj.x[:, k * m : (k + 1) * m])}

    def make_grad(work):
        def grad(where, X):
            if where != "nodes" or work is None:
                return H[where] @ X
            return np.matmul(H[where], X, out=work.gradient_out((n, *X.shape[1:])))
        return grad

    U = 2 * d + 1
    dirs = rng.normal(size=(1, m, d, U))
    return kern, make_grad, (np.zeros((1, d, U)), np.zeros((1, d, U)), dirs, *r, 1e-14), n


@pytest.mark.parametrize("batch", ["paths", "tangents"])
def test_double_midpoint_sweeps_in_place_match_the_out_of_place_sweeps(batch):
    # the solver eliminates the multipliers from its sweeps; against sweeps
    # that solve them every time it takes the same number of sweeps and
    # agrees to rounding, relative to each array's largest entry
    kern, make_grad, args, n = _dm_step_case(batch)
    work = DmWorkspace()
    sol = solve_dmulmc_step(kern, make_grad(work), *args, work)
    want = _solve_out_of_place(kern, make_grad(None), *args)
    assert sol.x_nodes.shape[0] == n
    assert sol.iterations == want[4] > 2
    for got, expected in zip((sol.x_nodes, sol.p_nodes, sol.lam1, sol.lam2), want):
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("batch, oracle_buffer", [("paths", False), ("tangents", False),
                                                   ("tangents", True)],
                         ids=["paths", "tangents-copied", "tangents-in-place"])
def test_constrained_sweeps_match_their_out_of_place_rendering(batch, oracle_buffer):
    # the in-place sweeps round every entry as the out-of-place expressions
    # do, whether the oracle writes into the workspace's right-hand side or
    # returns an array of its own
    kern, make_grad, args, n = _dm_step_case(batch)
    work = DmWorkspace()
    sol = solve_dmulmc_step(kern, make_grad(work if oracle_buffer else None), *args, work)
    want = _solve_constrained_out_of_place(kern, make_grad(None), *args)
    assert sol.iterations == want[4] > 2
    for got, expected in zip((sol.x_nodes, sol.p_nodes, sol.lam1, sol.lam2), want):
        np.testing.assert_array_equal(got, expected)
    # the multipliers are the solution's own: the workspace's next solve,
    # on other increments, leaves them be
    solve_dmulmc_step(kern, make_grad(work if oracle_buffer else None),
                      *args[:2], 0.5 * args[2], *args[3:], work)
    np.testing.assert_array_equal(sol.lam1, want[2])
    np.testing.assert_array_equal(sol.lam2, want[3])


@pytest.mark.parametrize("gamma, h, m", [(1.0, 0.25, 2), (1.0, 0.25, 8), (0.3, 1 / 32, 64),
                                         (7.5, 2.0, 3), (1.0, 0.5, 2048)])
def test_constrained_sweep_table_annihilates_the_kernels(gamma, h, m):
    # M = −η·K₂·P with Eᵀ·P = 0 and P·E = 0: M·[e1_left, e2_left] = 0 and the
    # endpoint row of M is zero, to rounding of the products that form them
    kern = StepKernels(gamma, h, m)
    tables = kern.constrained
    E = np.stack([kern.e1_left, kern.e2_left], axis=1)
    M = tables.x[:, :m]
    scale = (kern.eta * np.abs(kern.K2)) @ np.abs(E)  # |−η·K₂|·|E|
    assert np.all(np.abs(M @ E) <= 32 * np.finfo(float).eps * scale.max(axis=0))
    assert np.abs(M[m]).max() <= 32 * np.finfo(float).eps * kern.eta * np.abs(kern.K2).max()
    assert tables.x.shape == tables.p.shape == (m + 1, m + 2)
    assert tables.residual.shape == (2, m + 2)
    for table in (tables.x, tables.residual, tables.p, kern.K1, kern.K2):
        assert not table.flags.writeable


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_double_midpoint_constraints_hold_at_convergence(mode):
    # the drift G = g − E₁λ₁ − E₂λ₂ of the last sweep meets both marginal
    # constraints, η·Σ_j E₁(jη,h)·G_j = E₂(0,h)·∇V(X⁺) and
    # η·Σ_j E₂(jη,h)·G_j = E₃(0,h)·∇V(X⁻)
    pot = PerturbedQuadratic((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0)
    grid = TimeGrid(0.5, 2, 8)
    sched = (UnderdampedSchedule.randomized(grid, seed=6, stream=0) if mode == "randomized"
             else UnderdampedSchedule.deterministic(grid))
    kern = StepKernels.build(1.0, grid.h, grid.m)
    m, eta = grid.m, kern.eta
    rng = np.random.default_rng(5)
    x0, p0 = rng.normal(size=(6, pot.d)), rng.normal(size=(6, pot.d))
    xi = noise_matrix(2, 6, grid.n_cells, pot.d)
    last = {}

    def grad(where, x):
        last[where] = pot.gradient(x)
        return last[where]

    for k in range(grid.N):
        r = int(sched.indices_minus[k]), int(sched.indices_plus[k])
        sol = solve_dmulmc_step(kern, grad, x0, p0, xi[:, k * m : (k + 1) * m], *r, 1e-12,
                                DmWorkspace())
        G = last["nodes"] - _col(kern.e1_left, x0) * sol.lam1[:, None] \
            - _col(kern.e2_left, x0) * sol.lam2[:, None]
        for e, target in ((kern.e1_left, kern.e2_0[m] * pot.gradient(sol.x_plus)),
                          (kern.e2_left, kern.e3_0[m] * pot.gradient(sol.x_minus))):
            lhs = eta * np.einsum("j,bjd->bd", e, G)
            np.testing.assert_allclose(lhs, target, rtol=0, atol=1e-12 * np.abs(target).max())
        x0, p0 = sol.x_nodes[:, m], sol.p_nodes[:, m]


def test_kinetic_rejects_nonpositive_friction():
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.1, 1, 2)
    z = np.array([1.0])
    with pytest.raises(ValueError):
        simulate_ulmc(pot, grid, 0.0, z, z, np.zeros((1, 2, 1)))
    with pytest.raises(ValueError):
        simulate_dmulmc(
            pot, UnderdampedSchedule.deterministic(grid), -1.0, z, z, np.zeros((1, 2, 1))
        )


# ---------------------------------------------------------------------------
# Exact Ornstein-Uhlenbeck reference endpoints
# ---------------------------------------------------------------------------


def test_exact_overdamped_flow_mean_decay():
    # no noise, no residual: pure exponential contraction e^{-t} at every prefix
    pot = IsotropicQuadratic(1)
    eta = 0.05
    n = 10
    for i in range(n + 1):
        end = ou_endpoint_map(pot, None, eta, i)(
            np.array([2.0]), np.zeros((1, i, 1)), np.zeros((1, i, 1))
        )
        assert end[0, 0] == pytest.approx(2.0 * math.exp(-i * eta), rel=1e-13)


def test_exact_overdamped_flow_preserves_stationary_variance():
    # stationary law x ~ N(0, H^{-1}): Phi H^{-1} Phi' + M M' + R R' == H^{-1}
    pot = AnisotropicQuadratic((0.5, 2.0))
    Phi, mean_coef, resid_half = ou_cell(pot, None, 0.3)
    stat = np.diag([1.0 / 0.5, 1.0 / 2.0])
    out = Phi @ stat @ Phi.T + mean_coef @ mean_coef.T + resid_half @ resid_half.T
    np.testing.assert_allclose(out, stat, rtol=1e-12, atol=1e-15)


def test_exact_overdamped_flow_free_potential_is_brownian():
    pot = IsotropicQuadratic(2, scale=0.0)
    eta = 0.125
    xi = noise_matrix(13, 2, 8, 2)
    residual = noise_matrix(14, 2, 8, 2)
    x0 = np.array([[0.0, 1.0], [2.0, -1.0]])
    expect = x0[:, None, :] + np.sqrt(2.0) * brownian_partial_sums(xi, eta)
    for n in range(xi.shape[1] + 1):
        end = ou_endpoint_map(pot, None, eta, n)(x0, xi[:, :n], residual[:, :n])
        np.testing.assert_allclose(end, expect[:, n], rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("pot", [AnisotropicQuadratic((0.5, 1.0, 2.5)),
                                 IsotropicQuadratic(2, scale=0.0)], ids=["anisotropic", "free"])
@pytest.mark.parametrize("eta", [1 / 4096, 1 / 64, 0.3, 1.0])
def test_overdamped_cell_matches_the_closed_forms(pot, eta):
    # the block exponentials give the per-eigenvalue propagator and
    # ξ-coefficient to 1e-14 relative, the free target's (Φ = I) included
    cell, closed = ou_cell(pot, None, eta), ou_cell_closed_form(pot, eta)
    for got, want in zip(cell[:2], closed[:2]):
        assert got.shape == want.shape == (pot.d, pot.d)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("eta", [0.02, 0.1, 0.5, 2.0])
def test_overdamped_residual_root_matches_a_40_digit_oracle(eta):
    # √(c − 2s²/η) per eigenvalue, in 40 digits: the root cancels as λη → 0
    # in any form, and holds to 1e-10 relative for λη ≥ 1e-2
    spectrum = (0.5, 1.0, 2.5)
    assert min(spectrum) * eta >= 1e-2
    with mpmath.workdps(40):
        oracle = []
        for lam in spectrum:
            lam, h = mpmath.mpf(lam), mpmath.mpf(eta)
            s = -mpmath.expm1(-lam * h) / lam
            c = -mpmath.expm1(-2 * lam * h) / lam
            oracle.append(float(mpmath.sqrt(c - 2 * s**2 / h)))
    resid_half = ou_cell(AnisotropicQuadratic(spectrum), None, eta)[2]
    np.testing.assert_allclose(resid_half, np.diag(oracle), rtol=1e-10, atol=0)


def test_exact_kinetic_cell_covariance_matches_quadrature():
    # full cell covariance = mean part + residual part = int_0^eta e^{Au} Q e^{A'u} du
    pot = IsotropicQuadratic(1, scale=0.7)
    gamma, eta = 1.3, 0.21
    Phi, mean_coef, resid_half = ou_cell(pot, gamma, eta)
    total = mean_coef @ mean_coef.T + resid_half @ resid_half.T
    A = np.array([[0.0, 1.0], [-0.7, -gamma]])
    Q = np.diag([0.0, 2.0 * gamma])

    def integrand(u, i, j):
        from scipy.linalg import expm

        E = expm(A * u)
        return (E @ Q @ E.T)[i, j]

    for i in range(2):
        for j in range(2):
            ref = quad(integrand, 0.0, eta, args=(i, j), epsabs=1e-13)[0]
            assert total[i, j] == pytest.approx(ref, abs=1e-10)


def test_exact_kinetic_flow_preserves_stationary_covariance():
    # stationary law: x ~ N(0, H^{-1}), p ~ N(0, I), independent
    pot = AnisotropicQuadratic((0.8, 1.7))
    gamma, eta = 0.9, 0.4
    Phi, mean_coef, resid_half = ou_cell(pot, gamma, eta)
    stat = np.zeros((4, 4))
    stat[:2, :2] = np.diag([1.0 / 0.8, 1.0 / 1.7])
    stat[2:, 2:] = np.eye(2)
    out = Phi @ stat @ Phi.T + mean_coef @ mean_coef.T + resid_half @ resid_half.T
    np.testing.assert_allclose(out, stat, atol=1e-10)


def test_exact_kinetic_flow_deterministic_part():
    # no noise: z evolves by the propagator alone, at every prefix
    pot = IsotropicQuadratic(1)
    gamma, eta, n = 1.1, 0.1, 6
    Phi, _, _ = ou_cell(pot, gamma, eta)
    z = np.array([1.0, -0.5])
    for i in range(n + 1):
        end = ou_endpoint_map(pot, gamma, eta, i)(
            np.array([1.0, -0.5]), np.zeros((1, i, 1)), np.zeros((1, i, 2))
        )
        assert end[0, 0] == pytest.approx(z[0], abs=1e-13)
        assert end[0, 1] == pytest.approx(z[1], abs=1e-13)
        z = Phi @ z


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513, 4096])
def test_exact_ou_endpoints_match_cell_composition(n):
    # the endpoints reproduce n compositions of the single-cell maps
    pot = AnisotropicQuadratic((0.5, 1.0, 2.5))
    gamma, eta, B, d = 1.3, 0.25 / n, 6, 3
    z0 = noise_matrix(21, B, 1, 2 * d, label=LABEL_INIT)[:, 0]
    xi = noise_matrix(21, B, n, d)
    residual = noise_matrix(21, B, n, 2 * d, label=LABEL_RESIDUAL)
    ld = ou_endpoint_map(pot, None, eta, n)(z0[:, :d], xi, residual[..., :d])
    oracle_ld = ou_nodes(ou_cell(pot, None, eta), z0[:, :d], xi, residual[..., :d])[:, -1]
    np.testing.assert_allclose(ld, oracle_ld, rtol=0, atol=1e-12)
    uld = ou_endpoint_map(pot, gamma, eta, n)(z0, xi, residual)
    oracle_uld = ou_nodes(ou_cell(pot, gamma, eta), z0, xi, residual)[:, -1]
    np.testing.assert_allclose(uld, oracle_uld, rtol=0, atol=1e-12)


def test_exact_kinetic_endpoint_broadcasts_one_start_row():
    # one z0 row drives a batch of noise rows, as in the cell composition
    pot = AnisotropicQuadratic((0.5, 2.5))
    gamma, eta, B, n = 0.8, 0.01, 5, 33
    z0 = np.array([0.3, -1.2, 0.7, 0.1])
    xi = noise_matrix(8, B, n, 2)
    residual = noise_matrix(8, B, n, 4, label=LABEL_RESIDUAL)
    end = ou_endpoint_map(pot, gamma, eta, n)(z0, xi, residual)
    assert end.shape == (B, 4)
    oracle = ou_nodes(ou_cell(pot, gamma, eta), np.tile(z0, (B, 1)), xi, residual)[:, -1]
    np.testing.assert_allclose(end, oracle, rtol=0, atol=1e-12)


def test_exact_flows_require_quadratic_potentials():
    pot = PerturbedQuadratic((1.0,), amplitude=0.2, frequency=1.0)
    for gamma in (None, 1.0):
        with pytest.raises(UnsupportedPotentialError):
            ou_endpoint_map(pot, gamma, 0.1, 2)


# ---------------------------------------------------------------------------
# Horizon state through the scheme table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_advance_equals_endpoint_of_simulate(scheme, mode):
    # bit-identical where advance is the default; the closed-form DM-ULMC
    # update agrees with the fixed point's endpoint to 1e-12
    entry = SCHEMES[scheme]
    grid = TimeGrid(0.6, 3, 8)
    for pot in (AnisotropicQuadratic((0.6, 1.4)), PerturbedQuadratic((1.0, 1.5), 0.2, 1.0)):
        schedule = entry.schedule(grid, mode, seed=4, stream=0)
        zdim = 4 if entry.kinetic else 2
        z0 = noise_matrix(8, 5, 1, zdim, label=LABEL_INIT)[:, 0]
        xi = noise_matrix(8, 5, grid.n_cells, 2)
        gamma = 1.2 if entry.kinetic else None
        end = entry.advance(pot, schedule, gamma, z0, xi)
        ref = entry.endpoint(entry.simulate(pot, schedule, gamma, z0, xi))
        assert end.shape == z0.shape
        if scheme == "dmulmc":
            np.testing.assert_allclose(end, ref, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(end, ref)
