"""Target potentials: values, derivatives, and smoothness constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girsanovlab import (
    AnisotropicQuadratic,
    IsotropicQuadratic,
    LogCoshProduct,
    PerturbedQuadratic,
)

ALL_KINDS = [
    IsotropicQuadratic(2),
    IsotropicQuadratic(3, scale=2.5),
    AnisotropicQuadratic(np.array([0.5, 1.0, 4.0])),
    PerturbedQuadratic(np.array([1.0, 2.0]), amplitude=0.1, frequency=1.0),
    LogCoshProduct(2, c=1.5),
]


def _fd_gradient(potential, x, eps=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (potential.value(x + e) - potential.value(x - e)) / (2 * eps)
    return g


def _fd_hessian(potential, x, eps=1e-6):
    H = np.empty((x.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        H[:, j] = (potential.gradient(x + e) - potential.gradient(x - e)) / (2 * eps)
    return H


def test_value_isotropic_minimum():
    assert IsotropicQuadratic(3).value(np.zeros(3)) == 0.0


def test_value_isotropic_hand():
    assert IsotropicQuadratic(1).value(np.array([2.0])) == pytest.approx(2.0)


def test_value_anisotropic_hand():
    pot = AnisotropicQuadratic(np.array([1.0, 4.0]))
    assert pot.value(np.array([1.0, 1.0])) == pytest.approx(2.5)


def test_gradient_zero_at_stationary_point():
    for pot in ALL_KINDS:
        np.testing.assert_allclose(pot.gradient(np.zeros(pot.d)), 0.0, atol=1e-15)


def test_gradient_isotropic_linear():
    pot = IsotropicQuadratic(2, scale=3.0)
    x = np.array([0.7, -1.2])
    np.testing.assert_allclose(pot.gradient(x), 3.0 * x)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for pot in ALL_KINDS:
        for _ in range(5):
            x = rng.normal(size=pot.d)
            g = pot.gradient(x)
            fd = _fd_gradient(pot, x)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(1)
    for pot in ALL_KINDS:
        x = rng.normal(size=pot.d)
        H = pot.hessian(x)
        fd = _fd_hessian(pot, x)
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-7)


def test_hessian_constant_for_quadratics():
    pot = AnisotropicQuadratic(np.array([0.5, 2.0]))
    x = np.array([3.0, -1.0])
    np.testing.assert_array_equal(pot.hessian(x), np.diag([0.5, 2.0]))
    assert pot.is_quadratic
    np.testing.assert_array_equal(pot.constant_hessian, np.diag([0.5, 2.0]))


@pytest.mark.parametrize("pot", [IsotropicQuadratic(2, scale=1.5),
                                 AnisotropicQuadratic(np.array([0.5, 2.0]))],
                         ids=["isotropic", "anisotropic"])
def test_constant_hessian_is_broadcast_over_the_batch(pot):
    # the base class broadcasts the one stored matrix, read-only, in both forms
    x = np.zeros((3, 4, 2))
    for factor in (False, True):
        H = pot.hessian(x, factor=factor)
        assert H.shape == (3, 4, 2, 2) and not H.flags.writeable
        assert np.shares_memory(H, pot.constant_hessian)
        np.testing.assert_array_equal(H, np.broadcast_to(pot.constant_hessian, H.shape))


def test_hessian_product_potential_diagonal():
    pot = LogCoshProduct(3, c=2.0)
    H = pot.hessian(np.array([0.3, -0.7, 1.1]))
    off = H - np.diag(np.diag(H))
    np.testing.assert_array_equal(off, 0.0)
    assert not pot.is_quadratic


def test_hessian_factor_is_the_declared_form():
    # separable targets give the diagonal (…, d) of the dense batch; the
    # quadratics keep their dense constant Hessian
    x = np.random.default_rng(4).normal(size=(4, 2, 3))
    for pot in ALL_KINDS:
        xd = x[..., : pot.d]
        dense, factor = pot.hessian(xd), pot.hessian(xd, factor=True)
        assert dense.shape == xd.shape + (pot.d,)
        assert pot.diagonal_hessian == isinstance(pot, (PerturbedQuadratic, LogCoshProduct))
        if pot.diagonal_hessian:
            assert factor.shape == xd.shape
            np.testing.assert_array_equal(dense, factor[..., None] * np.eye(pot.d))
        else:
            np.testing.assert_array_equal(factor, dense)


def test_hessian_symmetric_and_spectrum_bounded():
    rng = np.random.default_rng(2)
    for pot in ALL_KINDS:
        eigs = []
        for _ in range(1000):
            x = rng.normal(size=pot.d) * 3.0
            H = pot.hessian(x)
            np.testing.assert_allclose(H, H.T, atol=1e-12)
            eigs.append(np.linalg.eigvalsh(H))
        eigs = np.concatenate(eigs)
        assert np.max(np.abs(eigs)) <= pot.beta * (1 + 1e-9)
        if pot.alpha > 0:
            assert np.min(eigs) >= pot.alpha - 1e-12


def test_perturbation_must_keep_convexity():
    # amplitude * frequency^2 must stay strictly below the smallest eigenvalue
    with pytest.raises(ValueError):
        PerturbedQuadratic(np.array([1.0, 1.0]), amplitude=1.0, frequency=1.0)
    with pytest.raises(ValueError):
        PerturbedQuadratic(np.array([0.5, 1.0]), amplitude=0.125, frequency=2.0)


def test_free_potential_is_degenerate():
    pot = IsotropicQuadratic(2, scale=0.0)
    assert pot.beta == 0.0
    np.testing.assert_array_equal(pot.gradient(np.array([1.0, -2.0])), 0.0)


def test_non_finite_input_rejected():
    pot = IsotropicQuadratic(2)
    with pytest.raises(ValueError):
        pot.value(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        pot.gradient(np.array([np.inf, 0.0]))


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_perturbed_gradient_consistency_property(coords):
    pot = PerturbedQuadratic(np.array([1.0, 2.0]), amplitude=0.2, frequency=1.5)
    x = np.asarray(coords)
    np.testing.assert_allclose(
        pot.gradient(x), _fd_gradient(pot, x), rtol=1e-5, atol=1e-8)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_logcosh_hessian_bounded_property(coords):
    pot = LogCoshProduct(2, c=1.0)
    H = pot.hessian(np.asarray(coords))
    eigs = np.linalg.eigvalsh(H)
    assert np.max(np.abs(eigs)) <= pot.beta * (1 + 1e-9)
