"""Affine step maps: every scheme's maps against a probe of the path solver,
the DM-ULMC drift factors against dense formulas, and the batched weights
bit for bit against a step-by-step loop."""

import re
from dataclasses import replace

import numpy as np
import pytest

from girsanovlab.affine import (
    ScheduleMaps,
    fast_log_weights,
    quadratic_path_kl,
    step_maps_for_schedule,
)
from girsanovlab.divergences import stationary_moments
from girsanovlab.engine import scheme_for
from girsanovlab.kernels import StepKernels
from girsanovlab.paths import TimeGrid, noise_matrix
from girsanovlab.potentials import AnisotropicQuadratic

POT = AnisotropicQuadratic((0.6, 1.4))
GRID = TimeGrid(0.5, 3, 16)
GAMMA = 1.0
SCHEMES = ["em-ld", "mlmc", "ulmc", "dmulmc"]
MODES = ["deterministic", "randomized"]


def _gamma(scheme):
    return GAMMA if scheme_for(scheme).kinetic else None


def _schedule(scheme, mode):
    """The scheme's schedule for a mode; ULMC's is the grid itself."""
    return scheme_for(scheme).schedule(GRID, mode, 4, 0)


def _dense(sm, coords):
    """The dense drift map U·coords of drift coordinates; U = I when None."""
    return coords if sm.U is None else sm.U @ coords


def _probed_step_maps(scheme, key):
    """Dense maps (A, S, b) of the endpoint and (Pz, Pxi, p0) of the drift ψ of one
    step, read off the path solver on basis inputs.

    The oracle is independent of the derivative code: it runs the simulator on
    the zero input, the start-state basis and every increment entry, and takes
    differences of the endpoints and of the drifts ψ.
    """
    s = scheme_for(scheme)
    d, m = POT.d, GRID.m
    md, zdim = m * d, (2 * d if s.kinetic else d)
    step_grid = TimeGrid(GRID.h, 1, m)
    z0 = np.zeros((1 + zdim + md, zdim))
    xi = np.zeros((1 + zdim + md, m, d))
    z0[1 : 1 + zdim] = np.eye(zdim)
    xi[1 + zdim :] = np.eye(md).reshape(md, m, d)
    traj = s.simulate(POT, s.step_schedule(step_grid, key), _gamma(scheme), z0, xi)
    zT = s.endpoint(traj)
    psi = s.drift(POT, traj).reshape(len(z0), md)

    def split(v):  # (start-state map, increment map, constant)
        return (v[1 : 1 + zdim] - v[0]).T, (v[1 + zdim :] - v[0]).T, v[0]

    return (*split(zT), *split(psi))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_maps_match_probed_oracle(scheme, mode):
    s, schedule = scheme_for(scheme), _schedule(scheme, mode)
    maps = step_maps_for_schedule(scheme, POT, schedule, _gamma(scheme))
    for key, sm in zip(s.step_keys(schedule), maps):
        ours = (sm.A, sm.S, sm.b, _dense(sm, sm.Lz), _dense(sm, sm.Wt), _dense(sm, sm.l0))
        probed = _probed_step_maps(scheme, key)
        for name, got, want in zip(("A", "S", "b", "Pz", "Pxi", "p0"), ours, probed):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"{scheme} {key} {name}")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_extraction_simulates_one_path_per_step_key(monkeypatch, scheme, mode):
    s, schedule = scheme_for(scheme), _schedule(scheme, mode)
    rows = []
    simulate = s.simulate

    def recording(potential, sched, gamma, z0, xi):
        rows.append(z0.shape[0])
        return simulate(potential, sched, gamma, z0, xi)

    monkeypatch.setattr(s, "simulate", recording)
    step_maps_for_schedule(scheme, POT, schedule, _gamma(scheme))
    assert rows == [1] * len(set(s.step_keys(schedule)))


@pytest.mark.parametrize("scheme", ["ulmc", "dmulmc"])
def test_kinetic_maps_need_a_friction(scheme):
    with pytest.raises(ValueError, match="friction"):
        step_maps_for_schedule(scheme, POT, GRID, None)


def _dense_path_kl(maps, mean, cov):
    """The path KL from dense drift maps: ½ E‖ψ‖² per step, minus log det₂."""
    kl = 0.0
    for sm in maps:
        Pz, Pxi, p0 = _dense(sm, sm.Lz), _dense(sm, sm.Wt), _dense(sm, sm.l0)
        kl += 0.5 * float(np.sum((Pz @ mean + p0) ** 2))
        kl += 0.5 * float(np.einsum("iz,ze,ie->", Pz, cov, Pz))
        kl += 0.5 * float(np.sum(Pxi**2))
        kl -= float(sm.summary.det2[0, 0])
        mean = sm.A @ mean + sm.b
        cov = sm.A @ cov @ sm.A.T + sm.noise_cov
    return kl


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_dmulmc_step_maps_need_two_inner_cells(mode):
    # one cell makes σ̂ singular; the maps (and so the path KL) are refused
    grid = TimeGrid(0.5, 4, 1)
    schedule = scheme_for("dmulmc").schedule(grid, mode, 4, 0)
    with pytest.raises(ValueError, match=re.escape("needs m >= 2 inner cells, got m = 1")):
        step_maps_for_schedule("dmulmc", POT, schedule, GAMMA)


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_dmulmc_step_maps_are_rank_2d_factors(mode):
    s = scheme_for("dmulmc")
    schedule = s.schedule(GRID, mode, 4, 0)
    maps = step_maps_for_schedule("dmulmc", POT, schedule, GAMMA)
    d, md = POT.d, GRID.m * POT.d
    sh = StepKernels.build(GAMMA, GRID.h, GRID.m).sigma_hat
    gram = np.kron(np.array([[sh.s11, sh.s12], [sh.s12, sh.s22]]) / (2 * GAMMA), np.eye(d))
    for key, sm in zip(s.step_keys(schedule), maps):
        assert sm.U.shape == (md, 2 * d) and sm.Wt.shape == (2 * d, md)
        Pz, Pxi, p0 = _probed_step_maps("dmulmc", key)[3:]
        np.testing.assert_allclose(sm.U @ sm.Wt, Pxi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sm.U @ sm.Lz, Pz, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sm.U @ sm.l0, p0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sm.U.T @ sm.U, gram, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sm.G, gram, rtol=0, atol=1e-14)
    mean0, cov0 = stationary_moments(POT, kinetic=True)
    exact = quadratic_path_kl(maps, mean0, cov0)
    assert exact > 0
    assert abs(exact - _dense_path_kl(maps, mean0, cov0)) <= 1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_path_kl_reads_a_plain_list_as_its_schedule_maps(scheme):
    # the path KL's Σ log det₂ is the maps' own summary total, whether the
    # maps come as the ScheduleMaps that cache it or as a plain list
    maps = step_maps_for_schedule(scheme, POT, _schedule(scheme, "randomized"), _gamma(scheme))
    assert isinstance(maps, ScheduleMaps)
    mean0, cov0 = stationary_moments(POT, kinetic=scheme_for(scheme).kinetic)
    exact = quadratic_path_kl(maps, mean0, cov0)
    assert quadratic_path_kl(list(maps), mean0, cov0) == exact
    assert exact > 0


def _step_loop_log_weights(maps, z0, xi):
    """(log weight, invertible) of a batch, one step at a time: the drift
    coordinates, Itô term, energy and state of each step formed from that
    step's maps alone, the block summaries read per path."""
    B, (m, d) = z0.shape[0], (maps[0].m, maps[0].d)
    z, ito, energy = z0, np.zeros(B), np.zeros(B)
    for k, sm in enumerate(maps):
        xif = xi[:, k * m : (k + 1) * m].reshape(B, m * d)
        if sm.U is None:
            c = z @ sm.Lz.T + xif @ sm.Wt.T + sm.l0
            u_xi, c_g, s_xi = xif, c, xif @ sm.S.T
        else:
            r = sm.l0.size
            prod = xif @ np.concatenate([sm.Wt.T, sm.U, sm.S.T], axis=1)
            c = z @ sm.Lz.T + prod[:, :r] + sm.l0
            u_xi, s_xi = prod[:, r : 2 * r], prod[:, 2 * r :]
            c_g = c @ sm.G
        ito += (c * u_xi).sum(1)
        energy += 0.5 * (c_g * c).sum(1)
        z = z @ sm.A.T + s_xi + sm.b
    summary = {name: np.broadcast_to(np.concatenate([getattr(sm.summary, name) for sm in maps],
                                                    axis=-1), (B, len(maps)))
               for name in ("sign", "det2", "trace", "rho")}
    log_cf = np.where(summary["sign"] == 0.0, -np.inf, summary["det2"]).sum(axis=-1)
    log_weight = log_cf - (ito - summary["trace"].sum(axis=-1)) - energy
    return log_weight, (summary["rho"].max(axis=-1) < 0.9) & np.isfinite(log_cf)


# (target, grid, offsets): criterion 7's d with 16 and with 3 cells per step
# (an identity-basis step then has 6 < 8 drift coordinates, DM-ULMC 4), and
# d = 4, where DM-ULMC has 8.  The package's quadratic targets are centred,
# so their maps have l0 = b = 0; "offsets" sets both to nonzero values,
# where the order of the additions shows
BIT_CASES = {
    "d2-m16": (POT, GRID, False),
    "d2-m3": (POT, TimeGrid(0.5, 3, 3), False),
    "d2-m3-offsets": (POT, TimeGrid(0.5, 3, 3), True),
    "d4-m4": (AnisotropicQuadratic((0.5, 0.8, 1.1, 1.4)), TimeGrid(0.5, 3, 4), False),
}


@pytest.mark.parametrize("case", list(BIT_CASES))
@pytest.mark.parametrize("B", [1, 7, 128])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_fast_log_weights_are_the_step_loop_bit_for_bit(scheme, mode, B, case):
    # the stacked kernel makes each step's own BLAS products and adds the
    # per-step terms in step order; a randomized schedule has distinct step
    # keys, so distinct maps per step
    pot, grid, offsets = BIT_CASES[case]
    s = scheme_for(scheme)
    schedule = s.schedule(grid, mode, 4, 0)
    maps = step_maps_for_schedule(scheme, pot, schedule, _gamma(scheme))
    if mode == "randomized" and s.midpoint_choice:
        assert len({id(sm) for sm in maps}) > 1
    if offsets:
        rng = np.random.default_rng(5)
        maps = ScheduleMaps(replace(sm, l0=rng.normal(size=sm.l0.shape), b=rng.normal(size=sm.b.shape))
                            for sm in maps)
    zdim = 2 * pot.d if s.kinetic else pot.d
    z0 = np.random.default_rng(B).normal(size=(B, zdim))
    xi = noise_matrix(3, B, grid.n_cells, pot.d)
    log_weight, invertible = _step_loop_log_weights(maps, z0, xi)
    for given in (maps, list(maps)):  # the schedule's maps, and a plain list of them
        w = fast_log_weights(given, z0, xi)
        np.testing.assert_array_equal(w.log_weight, log_weight)
        np.testing.assert_array_equal(w.invertible, invertible)
        assert w.log_weight.shape == w.negative_det.shape == w.spectral_radius.shape == (B,)
