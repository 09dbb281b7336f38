"""Engine claims: the affine and generic routes agree, and the generic route
is bit-identical across thread counts."""

import numpy as np
import pytest

from girsanovlab.engine import generic_log_weights, run_weights, start_states
from girsanovlab.paths import (
    BLOCK_PATHS,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from girsanovlab.potentials import IsotropicQuadratic, PerturbedQuadratic

GRID = TimeGrid(0.5, 4, 4)

SCHEDULES = {
    "mlmc": (
        OverdampedSchedule.deterministic(GRID),
        OverdampedSchedule.randomized(GRID, 7, 0),
    ),
    "dmulmc": (
        UnderdampedSchedule.deterministic(GRID),
        UnderdampedSchedule.randomized(GRID, 7, 0),
    ),
}


@pytest.mark.parametrize("scheme", ["mlmc", "dmulmc"])
@pytest.mark.parametrize("which", [0, 1], ids=["deterministic", "randomized"])
def test_affine_and_generic_routes_agree(scheme, which):
    # run_weights takes the affine route for a quadratic target; the generic
    # route sees the same paths: the same start states and increments
    pot = IsotropicQuadratic(2)
    schedule = SCHEDULES[scheme][which]
    gamma = 1.0 if scheme == "dmulmc" else None
    n, seed = 1024, 11
    affine = run_weights(scheme, pot, schedule=schedule, gamma=gamma, n_paths=n, seed=seed)
    z0 = start_states(pot, scheme == "dmulmc", seed, n)
    xi = noise_matrix(seed, n, GRID.n_cells, pot.d)
    generic = generic_log_weights(scheme, pot, schedule, GRID, gamma, z0, xi)
    assert np.max(np.abs(affine.log_weight - generic.log_weight)) <= 1e-12
    np.testing.assert_array_equal(affine.invertible, generic.invertible)
    assert affine.n_negative_det == int(generic.negative_det.sum())


@pytest.mark.parametrize("scheme", ["mlmc", "dmulmc"])
def test_generic_route_is_thread_invariant(scheme):
    # two generation blocks, so two threads really split the work
    pot = PerturbedQuadratic((1.0, 2.0), amplitude=0.1, frequency=1.0)
    zdim = 2 if scheme == "mlmc" else 4
    kwargs = dict(
        schedule=SCHEDULES[scheme][1], n_paths=BLOCK_PATHS + 64, seed=5,
        init=("gaussian", np.zeros(zdim), np.eye(zdim)),
    )
    if scheme == "dmulmc":
        kwargs["gamma"] = 1.0
    one = run_weights(scheme, pot, threads=1, **kwargs)
    two = run_weights(scheme, pot, threads=2, **kwargs)
    assert np.array_equal(one.log_weight, two.log_weight)
    assert np.array_equal(one.invertible, two.invertible)
    assert one.spectral_radius == two.spectral_radius
    assert one.n_negative_det == two.n_negative_det


@pytest.mark.parametrize("kinetic", [False, True])
def test_start_states_depend_on_seed_and_path_index_alone(kinetic):
    pot = PerturbedQuadratic((1.0, 2.0), amplitude=0.1, frequency=1.0)
    n = BLOCK_PATHS + 8
    full = start_states(pot, kinetic, 5, n)
    # a window across the generation-block boundary reads the same rows
    window = start_states(pot, kinetic, 5, 16, start=BLOCK_PATHS - 8)
    np.testing.assert_array_equal(window, full[BLOCK_PATHS - 8 :])
    assert not np.array_equal(start_states(pot, kinetic, 6, 16), full[:16])


def test_default_start_law():
    # quadratic targets start stationary; others from x ~ N(0, I/alpha), p ~ N(0, I)
    quad = IsotropicQuadratic(2, 3.0)
    pert = PerturbedQuadratic((2.0, 4.0), amplitude=0.1, frequency=1.0)
    for pot, var_x in ((quad, 1 / 3.0), (pert, 1 / pert.alpha)):
        law = ("gaussian", np.zeros(4), np.diag([var_x, var_x, 1.0, 1.0]))
        np.testing.assert_array_equal(
            start_states(pot, True, 5, 64), start_states(pot, True, 5, 64, init=law)
        )
    with pytest.raises(ValueError, match="unknown initial law"):
        start_states(pert, False, 5, 4, init="stationary")
