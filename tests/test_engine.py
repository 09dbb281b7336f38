"""Engine claims: the affine and generic routes agree, and the generic route
is bit-identical across thread counts."""

import numpy as np
import pytest

from girsanovlab.engine import run_weights
from girsanovlab.paths import (
    BLOCK_PATHS,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
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
    pot = IsotropicQuadratic(2)
    kwargs = dict(schedule=SCHEDULES[scheme][which], n_paths=1024, seed=11)
    if scheme == "dmulmc":
        kwargs["gamma"] = 1.0
    affine = run_weights(scheme, pot, **kwargs)
    generic = run_weights(scheme, pot, force_generic=True, **kwargs)
    assert np.max(np.abs(affine.log_weight - generic.log_weight)) <= 1e-12
    np.testing.assert_array_equal(affine.invertible, generic.invertible)
    assert affine.n_negative_det == generic.n_negative_det


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
