"""Tests for divergence estimators, Gaussian references, and error sweeps."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from girsanovlab.affine import (
    quadratic_path_kl,
    scheme_marginal_gaussian,
    step_maps_for_schedule,
)
from girsanovlab.divergences import (
    estimate_kl,
    estimate_renyi,
    fit_loglog_slope,
    gaussian_kl,
    local_error_sweep,
    stationary_moments,
)
from girsanovlab.engine import WINDOW_PATHS, run_weights
from girsanovlab.integrators import simulate_mlmc
from girsanovlab.paths import BLOCK_PATHS, OverdampedSchedule, TimeGrid, noise_matrix
from girsanovlab.potentials import AnisotropicQuadratic, IsotropicQuadratic, PerturbedQuadratic


# ---------------------------------------------------------------------------
# Sample-based estimators
# ---------------------------------------------------------------------------


def test_estimate_kl_zero_weights():
    est = estimate_kl(np.zeros(100))
    assert est.value == 0.0
    assert est.se == 0.0
    assert est.n_used == 100
    assert est.n_rejected == 0
    assert est.reliable


def test_estimate_kl_excludes_rejected_paths():
    logw = np.zeros(100)
    logw[:2] = np.nan
    est = estimate_kl(logw)
    assert est.n_used == 98
    assert est.n_rejected == 2
    assert not est.reliable  # 2% rejected exceeds the 1% reliability limit

    big = np.zeros(1000)
    big[:5] = -np.inf
    est = estimate_kl(big)
    assert est.n_rejected == 5
    assert est.reliable  # 0.5% is within the limit


def test_estimate_kl_accepts_weight_objects():
    obj = SimpleNamespace(
        log_weight=np.array([-0.1, -0.2, -0.3, 99.0]),
        invertible=np.array([True, True, True, False]),
    )
    est = estimate_kl(obj)
    assert est.n_used == 3
    assert est.n_rejected == 1
    assert est.value == pytest.approx(0.2)


def _martingale_log_weights(a, n, seed):
    # log M = a z - a^2/2 with z standard normal: E[M] = 1, KL = a^2/2,
    # and the Renyi order-q divergence is q a^2/2
    z = noise_matrix(seed, n, 1, 1)[:, 0, 0]
    return a * z - a**2 / 2.0


def test_renyi_rejects_low_orders():
    w = np.zeros(10)
    with pytest.raises(ValueError):
        estimate_renyi(w, 1.0)
    with pytest.raises(ValueError):
        estimate_renyi(w, 0.5)


@pytest.mark.parametrize("q", [np.inf, np.nan])
def test_renyi_rejects_non_finite_orders(q):
    with pytest.raises(ValueError, match="finite"):
        estimate_renyi(np.zeros(10), q)


def test_renyi_continuity_and_monotonicity():
    a, n = 0.1, 20000
    logw = _martingale_log_weights(a, n, seed=31)
    kl = estimate_kl(logw)
    near_one = estimate_renyi(logw, 1.01)
    # q -> 1 recovers the KL value up to the O(q-1) systematic gap
    assert abs(near_one.value - kl.value) <= 4.0 * (kl.se + near_one.se) + 1e-4

    r2 = estimate_renyi(logw, 2.0)
    r3 = estimate_renyi(logw, 3.0)
    assert r2.value == pytest.approx(2.0 * a**2 / 2.0, abs=4.0 * r2.se)
    assert r2.value <= r3.value + 3.0 * (r2.se + r3.se)
    assert r2.kind == "renyi-2"


# ---------------------------------------------------------------------------
# Gaussian references
# ---------------------------------------------------------------------------


def test_gaussian_kl_identical_is_zero():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert gaussian_kl(np.zeros(2), cov, np.zeros(2), cov) == pytest.approx(0.0, abs=1e-14)


def test_gaussian_kl_unit_shift_oracle():
    # KL(N(0,1) || N(1,1)) = 1/2
    assert gaussian_kl([0.0], [[1.0]], [1.0], [[1.0]]) == pytest.approx(0.5, rel=1e-14)


def test_gaussian_kl_rotation_invariance():
    rng = np.random.default_rng(17)
    A = rng.normal(size=(3, 3))
    cov0 = A @ A.T + 3.0 * np.eye(3)
    B = rng.normal(size=(3, 3))
    cov1 = B @ B.T + 3.0 * np.eye(3)
    m0, m1 = rng.normal(size=3), rng.normal(size=3)
    theta = 0.7
    Q = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    base = gaussian_kl(m0, cov0, m1, cov1)
    rotated = gaussian_kl(Q @ m0, Q @ cov0 @ Q.T, Q @ m1, Q @ cov1 @ Q.T)
    assert rotated == pytest.approx(base, rel=1e-12)


def _gaussian_kl_mp(mean0, cov0, mean1, cov1) -> float:
    """The textbook KL formula in 40-digit arithmetic on the same float64 inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c0, c1 = mpmath.matrix(cov0.tolist()), mpmath.matrix(cov1.tolist())
        diff = mpmath.matrix((mean1 - mean0).tolist())
        inv1 = mpmath.inverse(c1)
        trace = sum((inv1 * c0)[i, i] for i in range(c0.rows))
        maha = (diff.T * inv1 * diff)[0, 0]
        logdet = mpmath.log(mpmath.det(c1)) - mpmath.log(mpmath.det(c0))
        return float((trace - c0.rows + logdet + maha) / 2)


@pytest.mark.parametrize("eps, shift", [(1e-2, 0.0), (1e-4, 0.0), (1e-6, 0.0), (1e-6, 1e-7)])
def test_gaussian_kl_keeps_its_relative_accuracy_near_zero(eps, shift):
    # cov0 = cov1 + eps (B + Bᵀ): KL ~ eps², which a sum of O(1) terms loses
    rng = np.random.default_rng(23)
    A, B = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
    cov1 = A @ A.T + np.eye(8)
    cov1 = 0.5 * (cov1 + cov1.T)
    cov0 = cov1 + eps * (B + B.T)
    mean1 = np.zeros(8)
    mean0 = mean1 + shift * rng.normal(size=8)
    exact = _gaussian_kl_mp(mean0, cov0, mean1, cov1)
    assert 0.0 < exact < 1e-3
    assert gaussian_kl(mean0, cov0, mean1, cov1) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_gaussian_kl_rejects_indefinite_covariance():
    with pytest.raises(ValueError):
        gaussian_kl([0.0], [[-1.0]], [0.0], [[1.0]])


def test_stationary_moments_quadratic():
    pot = AnisotropicQuadratic((0.5, 2.0))
    mean, cov = stationary_moments(pot)
    np.testing.assert_array_equal(mean, 0.0)
    np.testing.assert_allclose(cov, np.diag([2.0, 0.5]), atol=1e-14)

    mean_k, cov_k = stationary_moments(pot, kinetic=True)
    assert mean_k.shape == (4,)
    np.testing.assert_allclose(cov_k[:2, :2], np.diag([2.0, 0.5]), atol=1e-14)
    np.testing.assert_allclose(cov_k[2:, 2:], np.eye(2), atol=1e-14)

    with pytest.raises(ValueError):
        stationary_moments(IsotropicQuadratic(2, scale=0.0))


def test_stationary_moments_live_beside_the_constant_hessian():
    # one definition, in potentials; divergences re-exports the same function
    import girsanovlab.divergences as divergences
    import girsanovlab.potentials as potentials

    assert divergences.stationary_moments is potentials.stationary_moments
    assert "stationary_moments" in divergences.__all__
    with pytest.raises(ValueError, match="require a quadratic potential"):
        stationary_moments(PerturbedQuadratic((1.0, 2.0)))


# ---------------------------------------------------------------------------
# Log-log slope fitting
# ---------------------------------------------------------------------------


def test_fit_loglog_slope_exact_power_law():
    x = np.array([0.5, 0.25, 0.125, 0.0625])
    y = 3.0 * x**2.5
    fit = fit_loglog_slope(x, y)
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.ci95 == pytest.approx(0.0, abs=1e-9)
    assert fit.n_points == 4


def test_fit_loglog_slope_input_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope(np.array([1.0, 2.0, 3.0]), np.array([1.0, -1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_loglog_slope(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="spread"):  # equal step sizes in a sweep
        fit_loglog_slope(np.full(3, 0.125), np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# Affine scheme marginals
# ---------------------------------------------------------------------------


def test_scheme_marginal_free_dynamics_accumulates_variance():
    # with no drift every step adds 2h to the covariance and keeps the mean
    pot = IsotropicQuadratic(1, scale=0.0)
    grid = TimeGrid(1.0, 4, 2)
    mean, cov = scheme_marginal_gaussian("em-ld", pot, grid, np.array([1.0]), np.array([[0.5]]))
    assert mean[0] == pytest.approx(1.0, rel=1e-14)
    assert cov[0, 0] == pytest.approx(0.5 + 2.0, rel=1e-14)


def test_scheme_marginal_matches_empirical_moments():
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.5, 4, 2)
    sched = OverdampedSchedule.deterministic(grid)
    n = 20480
    xi = noise_matrix(23, n, grid.n_cells, 1)
    traj = simulate_mlmc(pot, sched, np.ones((n, 1)), xi)
    end = traj.x[:, -1, 0]
    mean, cov = scheme_marginal_gaussian("mlmc", pot, sched, np.array([1.0]), np.array([[0.0]]))
    se_mean = end.std(ddof=1) / math.sqrt(n)
    assert end.mean() == pytest.approx(mean[0], abs=4.0 * se_mean)
    se_var = end.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    assert end.var(ddof=1) == pytest.approx(cov[0, 0], abs=4.0 * se_var)


def test_kinetic_baseline_step_map_is_stable():
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.25, 1, 4)
    (sm,) = step_maps_for_schedule("ulmc", pot, grid, gamma=1.0)
    assert sm.state_dim == 2
    assert np.max(np.abs(np.linalg.eigvals(sm.A))) < 1.0


def test_path_kl_dominates_marginal_kl_and_matches_sampling():
    # deterministic path KL >= marginal KL (data processing), and the
    # sampled estimate agrees with the deterministic value; the diffusion
    # starts at its stationary law, so its marginal at T is (mean0, cov0)
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(0.5, 4, 2)
    mean0, cov0 = stationary_moments(pot)
    maps = step_maps_for_schedule("em-ld", pot, grid)
    path_kl = quadratic_path_kl(maps, mean0, cov0)
    mean_s, cov_s = scheme_marginal_gaussian("em-ld", pot, grid, mean0, cov0)
    marginal = gaussian_kl(mean_s, cov_s, mean0, cov0)
    assert marginal <= path_kl + 1e-12

    run = run_weights("em-ld", pot, schedule=grid, n_paths=8192, seed=3)
    est = estimate_kl(run)
    assert est.reliable
    assert abs(est.value - path_kl) <= 4.0 * est.se


# ---------------------------------------------------------------------------
# One-step local error sweep
# ---------------------------------------------------------------------------


def test_local_error_sweep_em_ld_is_one_euler_step():
    # EM-LD takes one Euler step of size h.  Against the exact flow from a
    # stationary x0 ~ N(0, 1) of V = x^2/2 the defect is
    # x0 (1 - h - e^-h) + sqrt(2) * int_0^h (1 - e^-(h-u)) dB_u
    h = 0.25
    pot = IsotropicQuadratic(1)
    report = local_error_sweep("em-ld", pot, [TimeGrid(h, 1, 4)], n_paths=16384, seed=5)
    integral = h - 2.0 * (1.0 - math.exp(-h)) + 0.5 * (1.0 - math.exp(-2.0 * h))
    expected = (1.0 - h - math.exp(-h)) ** 2 + 2.0 * integral
    strong_x, strong_x_se = report.errors["strong_x"]
    assert abs(strong_x[0] - expected) <= 5.0 * strong_x_se[0]
    np.testing.assert_array_equal(report.errors["strong_p"][0], 0.0)


# grids of criterion 8 (their windows hold 512, 512, 256 and 128 rows for
# DM-ULMC at d = 2), grids whose words per row do not nest, a path count
# of whole generation blocks with coarse grids, whose rows end early in each
# block of the walk, and ragged path counts past a block whose replica-2
# batches cross into the next block while the walk's chunk runs past the
# coarse grid's last row of the block
SWEEP_CASES = {
    "nested": ((64, 128, 256, 512), WINDOW_PATHS),
    "nested-ragged": ((64, 128, 256, 512), WINDOW_PATHS + 40),
    "non-nesting": ((3, 5, 8), 2 * WINDOW_PATHS + 40),
    "paired-blocks": ((8, 2, 4), 2 * BLOCK_PATHS),
    "block-crossing": ((1, 64), 3000),
    "block-crossing-non-nesting": ((2, 3), 3000),
}


@pytest.mark.parametrize("case", list(SWEEP_CASES))
@pytest.mark.parametrize("scheme, gamma", [("em-ld", None), ("dmulmc", 1.0)],
                         ids=["em-ld", "dmulmc"])
def test_local_error_sweep_equals_its_grids_swept_alone(scheme, gamma, case):
    # one grid is the walk's degenerate case: each grid's batches do not
    # depend on the other grids, so neither do its errors, to the bit
    ms, n = SWEEP_CASES[case]
    pot = AnisotropicQuadratic((0.5, 1.0))
    grids = [TimeGrid(0.25 / 2**i, 1, m) for i, m in enumerate(ms)]
    alone = [local_error_sweep(scheme, pot, [grid], gamma=gamma, n_paths=n, seed=3)
             for grid in grids]
    for threads in (1, 2):
        report = local_error_sweep(scheme, pot, grids, gamma=gamma, n_paths=n, seed=3,
                                   threads=threads)
        for name, (values, se) in report.errors.items():
            np.testing.assert_array_equal(values, [a.errors[name][0][0] for a in alone])
            np.testing.assert_array_equal(se, [a.errors[name][1][0] for a in alone])


def test_local_error_sweep_rejects_multistep_grids():
    pot = IsotropicQuadratic(1)
    with pytest.raises(ValueError):
        local_error_sweep("mlmc", pot, [TimeGrid(0.2, 2, 4)], n_paths=16, seed=0)
    with pytest.raises(ValueError):
        local_error_sweep("dmulmc", pot, [TimeGrid(0.2, 1, 4)], n_paths=16, seed=0)


@pytest.mark.parametrize("n_paths", [0, 1])
def test_local_error_sweep_needs_two_paths(n_paths):
    with pytest.raises(ValueError, match="n_paths >= 2"):
        local_error_sweep("mlmc", IsotropicQuadratic(1), [TimeGrid(0.2, 1, 4)],
                          n_paths=n_paths, seed=0)


@pytest.mark.parametrize("scheme", ["ulmc", "dmulmc"])
@pytest.mark.parametrize("gamma", [None, 0.0, -1.0, float("nan"), np.inf])
def test_local_error_sweep_needs_a_positive_friction(scheme, gamma):
    # the message run_weights gives for the same input
    with pytest.raises(ValueError, match="kinetic schemes need a positive friction gamma"):
        local_error_sweep(scheme, IsotropicQuadratic(1), [TimeGrid(0.2, 1, 4)],
                          gamma=gamma, n_paths=16, seed=0)


def test_local_error_sweep_rejects_non_quadratic_targets():
    pot = PerturbedQuadratic((1.0, 2.0))
    with pytest.raises(ValueError, match="needs a quadratic potential"):
        local_error_sweep("mlmc", pot, [TimeGrid(0.2, 1, 4)], n_paths=16, seed=0)


# ---------------------------------------------------------------------------
# Slope fits
# ---------------------------------------------------------------------------


def test_slope_ci95_is_the_student_t_interval():
    from scipy.stats import t as student_t

    rng = np.random.default_rng(4)
    x = np.linspace(1.0, 8.0, 9)
    y = x**1.5 * np.exp(0.1 * rng.standard_normal(x.size))
    fit = fit_loglog_slope(x, y)
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    stderr = np.sqrt(np.sum(resid**2) / (x.size - 2) / np.sum((lx - lx.mean()) ** 2))
    expected = student_t.ppf(0.975, x.size - 2) * stderr
    assert fit.ci95 == pytest.approx(expected, rel=1e-9)
    assert fit.slope == pytest.approx(slope, rel=1e-12)


def test_package_import_leaves_scipy_stats_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, girsanovlab; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: public names deleted because nothing in the package called them; they must
#: not come back as exports
DELETED_NAMES = (
    "rn_log_weight", "skorohod_adjoint", "spectral_radius_estimate", "pinsker_tv_bound",
    "diffusion_marginal_ld", "diffusion_marginal_uld", "exp_integrals",
    "discrete_sigma_coefficients", "exact_ou_endpoint_ld", "exact_ou_endpoint_uld",
    "ou_endpoint_map_uld", "sample_noise", "run_acceptance",
)


def test_exports_resolve():
    import importlib
    import pkgutil

    import girsanovlab

    modules = [girsanovlab] + [
        importlib.import_module(f"girsanovlab.{info.name}")
        for info in pkgutil.iter_modules(girsanovlab.__path__)
    ]
    for module in modules:
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names nothing for {missing}"
        assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
        revived = [name for name in DELETED_NAMES if hasattr(module, name)]
        assert not revived, f"{module.__name__} still has {revived}"
