"""Affine step maps: the DM-ULMC drift factors against dense probes and formulas."""

import numpy as np
import pytest

from girsanovlab.affine import quadratic_path_kl, step_maps_for_schedule
from girsanovlab.divergences import stationary_moments
from girsanovlab.engine import scheme_for
from girsanovlab.kernels import StepKernels
from girsanovlab.paths import TimeGrid
from girsanovlab.potentials import AnisotropicQuadratic

POT = AnisotropicQuadratic((0.6, 1.4))
GRID = TimeGrid(0.5, 3, 16)
GAMMA = 1.0


def _probed_drift_maps(key):
    """Dense (Pz, Pxi, p0) of one step, read off ψ on basis inputs."""
    s = scheme_for("dmulmc")
    d, m = POT.d, GRID.m
    md, zdim = m * d, 2 * d
    step_grid = TimeGrid(GRID.h, 1, m)
    z0 = np.zeros((1 + zdim + md, zdim))
    xi = np.zeros((1 + zdim + md, m, d))
    z0[1 : 1 + zdim] = np.eye(zdim)
    xi[1 + zdim :] = np.eye(md).reshape(md, m, d)
    traj = s.simulate(POT, step_grid, s.step_schedule(step_grid, key), GAMMA, z0, xi)
    psi = s.drift(POT, traj).psi.reshape(len(z0), md)
    return (psi[1 : 1 + zdim] - psi[0]).T, (psi[1 + zdim :] - psi[0]).T, psi[0]


def _dense_path_kl(maps, mean, cov):
    """The path KL from dense drift maps: ½ E‖ψ‖² per step, minus log det₂."""
    kl = 0.0
    for sm in maps:
        Pz, Pxi, p0 = sm.Pz, sm.Pxi, sm.p0
        kl += 0.5 * float(np.sum((Pz @ mean + p0) ** 2))
        kl += 0.5 * float(np.einsum("idz,ze,ide->", Pz, cov, Pz))
        kl += 0.5 * float(np.sum(Pxi**2))
        kl -= float(sm.summary.logabs[0, 0] - sm.summary.trace[0, 0])
        mean = sm.A @ mean + sm.b
        cov = sm.A @ cov @ sm.A.T + sm.noise_cov
    return kl


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_dmulmc_step_maps_are_rank_2d_factors(mode):
    s = scheme_for("dmulmc")
    schedule = s.schedule(GRID, mode, 4, 0)
    maps = step_maps_for_schedule("dmulmc", POT, schedule, GAMMA)
    d, md = POT.d, GRID.m * POT.d
    sh = StepKernels.build(GAMMA, GRID.h, GRID.m).sigma_hat
    gram = np.kron(np.array([[sh.s11, sh.s12], [sh.s12, sh.s22]]) / (2 * GAMMA), np.eye(d))
    for key, sm in zip(s.step_keys(GRID, schedule), maps):
        assert sm.U.shape == (md, 2 * d) and sm.Wt.shape == (2 * d, md)
        Pz, Pxi, p0 = _probed_drift_maps(key)
        np.testing.assert_allclose(sm.U @ sm.Wt, Pxi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sm.U @ sm.Lz, Pz, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sm.U @ sm.l0, p0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sm.U.T @ sm.U, gram, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sm.G, gram, rtol=0, atol=1e-14)
    mean0, cov0 = stationary_moments(POT, kinetic=True)
    exact = quadratic_path_kl(maps, mean0, cov0)
    assert exact > 0
    assert abs(exact - _dense_path_kl(maps, mean0, cov0)) <= 1e-12
