"""The generic route's two ∇²V forms: diagonal products and dense matmuls agree.

The separable targets (``PerturbedQuadratic``, ``LogCoshProduct``) declare a
diagonal Hessian, so the tangent rules, the overdamped midpoint factors, their
recurrence and power estimate multiply by ∇²V elementwise.  A subclass with
``diagonal_hessian`` off sends the same target through the dense matmul
branch.  A matmul by a diagonal adds only exact zeros to each product, so the
two forms must agree bit for bit.  DM-ULMC's core is the one exception: on a
diagonal Hessian its fixed point runs on 2 directions per coordinate and its
d independent 2 × 2 cores are solved in closed form, against all 2d columns
and ``eigvals`` on the dense branch, so the DM-ULMC summary's det₂, trace and
ρ, and the weights' log det₂, δψ and ρ, agree to 1e-13 relative, while the
sign, the energy and the flags stay exact.  A coupled target V(Qᵀx), with Q a
rotation, has only the dense form; its structured summaries are held to the
dense reference blocks at the tolerances of ``test_block_summary``.
"""

import numpy as np
import pytest

from girsanovlab.engine import SCHEMES, generic_log_weights
from girsanovlab.girsanov import (
    block_summary_dense,
    block_summary_dmulmc,
    block_summary_mlmc,
    block_summary_ulmc,
    summary_log_weight,
    trace_diagnostics_mlmc,
    trace_square_mlmc,
)
from girsanovlab.paths import (
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from girsanovlab.potentials import LogCoshProduct, PerturbedQuadratic, Potential

GRID = TimeGrid(0.5, 3, 8)
N_PATHS = 16


class _DensePerturbed(PerturbedQuadratic):
    diagonal_hessian = False


class _DenseLogCosh(LogCoshProduct):
    diagonal_hessian = False


#: target → (diagonal form, the same target forced onto the dense branch)
TARGETS = {
    "perturbed": (PerturbedQuadratic((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0),
                  _DensePerturbed((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0)),
    "logcosh": (LogCoshProduct(3, c=1.0), _DenseLogCosh(3, c=1.0)),
}

SCHEDULES = {
    "em-ld": OverdampedSchedule.zero(GRID),
    "mlmc": OverdampedSchedule.randomized(GRID, 5, 1),
    "ulmc": GRID,
    "dmulmc": UnderdampedSchedule.randomized(GRID, 5, 1),
}


def _inputs(d, kinetic):
    xi = noise_matrix(17, N_PATHS, GRID.n_cells, d)
    z0 = np.random.default_rng(3).normal(size=(N_PATHS, 2 * d if kinetic else d))
    return xi, z0


def _trajectory(scheme, pot):
    s = SCHEMES[scheme]
    xi, z0 = _inputs(pot.d, s.kinetic)
    return s.simulate(pot, SCHEDULES[scheme], 1.0 if s.kinetic else None, z0, xi)


def _assert_fields_equal(got, want, names):
    for name in names:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def _assert_fields_close(got, want, names):
    for name in names:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-13,
                                   atol=0.0, err_msg=name)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_the_forms_are_what_the_targets_declare(target):
    diagonal, dense = TARGETS[target]
    x = np.random.default_rng(1).normal(size=(4, 5, 3))
    factor = diagonal.hessian(x, factor=True)
    assert factor.shape == (4, 5, 3)
    np.testing.assert_array_equal(np.diagonal(dense.hessian(x), axis1=-2, axis2=-1), factor)
    np.testing.assert_array_equal(dense.hessian(x, factor=True), diagonal.hessian(x))


@pytest.mark.parametrize("scheme", sorted(SCHEDULES))
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_generic_log_weights_match_the_dense_form(target, scheme):
    s = SCHEMES[scheme]
    gamma = 1.0 if s.kinetic else None
    got, want = (
        generic_log_weights(scheme, pot, SCHEDULES[scheme], gamma,
                            *_inputs(pot.d, s.kinetic)[::-1])
        for pot in TARGETS[target]
    )
    spectral = ("log_cf_det", "skorohod", "spectral_radius")
    if scheme == "dmulmc":  # the closed-form 2 × 2 cores against eigvals
        _assert_fields_close(got, want, spectral)
        _assert_fields_equal(got, want, ("energy", "invertible", "negative_det"))
    else:
        _assert_fields_equal(got, want, spectral + ("energy", "invertible", "negative_det"))
    if scheme in ("mlmc", "dmulmc"):
        assert np.all(np.abs(want.log_cf_det) > 1e-8)  # the anticipating part is exercised


@pytest.mark.parametrize("scheme", sorted(SCHEDULES))
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_tangent_rules_match_the_dense_form(target, scheme):
    # with a fixed start and with an incoming step-start tangent
    s = SCHEMES[scheme]
    diagonal, dense = TARGETS[target]
    traj = _trajectory(scheme, diagonal)
    md, z = GRID.m * diagonal.d, (2 if s.kinetic else 1) * diagonal.d
    dirs = np.eye(md).reshape(GRID.m, diagonal.d, md)
    rules = s.tangents(diagonal, traj), s.tangents(dense, traj)
    for dz0 in (None, np.ones((N_PATHS, z, md))):
        for k in range(GRID.N):
            for got, want in zip(rules[0](k, dirs, dz0), rules[1](k, dirs, dz0)):
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_block_summaries_match_the_dense_form(target, scheme):
    summary = {"em-ld": block_summary_mlmc, "mlmc": block_summary_mlmc,
               "ulmc": block_summary_ulmc, "dmulmc": block_summary_dmulmc}[scheme]
    diagonal, dense = TARGETS[target]
    traj = _trajectory(scheme, diagonal)
    got, want = summary(diagonal, traj), summary(dense, traj)
    if scheme == "dmulmc":  # the closed-form 2 × 2 cores against eigvals
        _assert_fields_equal(got, want, ("sign",))
        _assert_fields_close(got, want, ("det2", "trace", "rho"))
    else:
        _assert_fields_equal(got, want, ("sign", "det2", "trace", "rho"))


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_mlmc_traces_match_the_dense_form(target):
    diagonal, dense = TARGETS[target]
    traj = _trajectory("mlmc", diagonal)
    np.testing.assert_array_equal(trace_square_mlmc(diagonal, traj),
                                  trace_square_mlmc(dense, traj))
    _assert_fields_equal(trace_diagnostics_mlmc(diagonal, traj),
                         trace_diagnostics_mlmc(dense, traj),
                         ("tr_a2", "tr_ba", "tr_b2", "limit_ba", "limit_b2"))


class _Rotated(Potential):
    """V(x) = W(Qᵀx) for a separable W and a rotation Q: a coupled, dense Hessian."""

    def __init__(self, inner: Potential, q: np.ndarray):
        self.inner, self.q = inner, q
        self.d, self.beta, self.alpha = inner.d, inner.beta, inner.alpha

    def _value(self, x):
        return self.inner.value(x @ self.q)

    def _gradient(self, x):
        return self.inner.gradient(x @ self.q) @ self.q.T

    def _hessian(self, x):
        h = self.inner.hessian(x @ self.q, factor=True)
        return (self.q * h[..., None, :]) @ self.q.T


def _rotated():
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return _Rotated(PerturbedQuadratic((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0), q)


def test_rotated_target_has_a_coupled_dense_hessian():
    pot = _rotated()
    x = np.random.default_rng(2).normal(size=(5, 3))
    H = pot.hessian(x, factor=True)
    assert not pot.diagonal_hessian and H.shape == (5, 3, 3)
    assert np.all(np.abs(H[:, 0, 1]) > 1e-3)
    # the rotation leaves the spectrum where the smoothness constants say
    eig = np.linalg.eigvalsh(H)
    assert np.all(eig >= pot.alpha - 1e-12) and np.all(eig <= pot.beta + 1e-12)


@pytest.mark.parametrize("scheme", ["mlmc", "ulmc", "dmulmc"])
def test_rotated_target_summaries_match_the_dense_blocks(scheme):
    # the dense branch of every structured summary, against the dense reference
    pot = _rotated()
    s = SCHEMES[scheme]
    traj = _trajectory(scheme, pot)
    xi = _inputs(pot.d, s.kinetic)[0]
    psi = s.drift(pot, traj)
    dense = summary_log_weight(psi, block_summary_dense(s.blocks(pot, traj)), xi)
    structured = summary_log_weight(psi, s.summary(pot, traj), xi)
    # the overdamped midpoint ρ is a power estimate, held to its oracle elsewhere
    names = ("log_cf_det", "skorohod") + (() if scheme == "mlmc" else ("spectral_radius",))
    for name in names:
        np.testing.assert_allclose(getattr(structured, name), getattr(dense, name),
                                   rtol=0.0, atol=1e-12, err_msg=name)
    np.testing.assert_array_equal(structured.invertible, dense.invertible)
    if scheme != "ulmc":
        assert np.all(np.abs(dense.log_cf_det) > 1e-8)


def test_rotated_target_trace_square_matches_the_dense_blocks():
    pot = _rotated()
    traj = _trajectory("mlmc", pot)
    diag = SCHEMES["mlmc"].blocks(pot, traj).diag
    dense = np.einsum("bnij,bnji->bn", diag, diag)
    np.testing.assert_allclose(trace_square_mlmc(pot, traj), dense, rtol=0.0, atol=1e-12)
