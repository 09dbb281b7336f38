"""Engine claims: the affine and generic routes agree, both are bit-identical
across thread counts, paths are read one window at a time, windows are cut by
the bytes of their noise, the start law is resolved once per run, the affine
route never forms a dense block, the local-error sweep draws each noise word
and start row once for all its grids and holds one chunk of it at a time,
and malformed schedules, start laws and grids are refused."""

import importlib
import re
import sys
import tracemalloc

import numpy as np
import pytest

import girsanovlab.config as config
import girsanovlab.engine as engine
import girsanovlab.girsanov as girsanov
import girsanovlab.integrators as integrators
import girsanovlab.paths as gp
from girsanovlab.divergences import local_error_sweep
from girsanovlab.engine import (
    WINDOW_BYTES,
    WINDOW_PATHS,
    generic_log_weights,
    run_weights,
    scheme_for,
    start_law,
    start_states,
    window_rows,
)
from girsanovlab.kernels import StepKernels
from girsanovlab.paths import (
    BLOCK_PATHS,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from girsanovlab.potentials import AnisotropicQuadratic, IsotropicQuadratic, PerturbedQuadratic

GRID = TimeGrid(0.5, 4, 4)
GRID16 = TimeGrid(0.5, 4, 16)
PERTURBED = PerturbedQuadratic((1.0, 2.0), amplitude=0.1, frequency=1.0)

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

# every scheme that takes the affine route; EM-LD and ULMC have one schedule.
# DM-ULMC also runs on an anisotropic target, where a wrong ⊗ I_d layout of
# its rank-2d drift basis would show
ISOTROPIC = IsotropicQuadratic(2)
ROUTE_CASES = [
    pytest.param("em-ld", OverdampedSchedule.zero(GRID), ISOTROPIC, id="em-ld"),
    pytest.param("ulmc", GRID, ISOTROPIC, id="ulmc"),  # ULMC's schedule is its grid
] + [
    pytest.param(scheme, SCHEDULES[scheme][which], ISOTROPIC, id=f"{label}-{scheme}")
    for which, label in enumerate(("deterministic", "randomized"))
    for scheme in ("dmulmc", "mlmc")
] + [
    pytest.param("dmulmc", schedule, AnisotropicQuadratic((0.6, 1.4)),
                 id=f"{label}-dmulmc-anisotropic-m16")
    for schedule, label in (
        (UnderdampedSchedule.deterministic(GRID16), "deterministic"),
        (UnderdampedSchedule.randomized(GRID16, 7, 0), "randomized"),
    )
]


@pytest.mark.parametrize("scheme, schedule, pot", ROUTE_CASES)
def test_affine_and_generic_routes_agree(scheme, schedule, pot):
    # run_weights takes the affine route for a quadratic target; the generic
    # route sees the same paths: the same start states and increments
    kinetic = scheme_for(scheme).kinetic
    gamma = 1.0 if kinetic else None
    n, seed = 1024, 11
    affine = run_weights(scheme, pot, schedule=schedule, gamma=gamma, n_paths=n, seed=seed)
    z0 = start_states(pot, kinetic, seed, n)
    xi = noise_matrix(seed, n, schedule.grid.n_cells, pot.d)
    generic = generic_log_weights(scheme, pot, schedule, gamma, z0, xi)
    assert np.max(np.abs(affine.log_weight - generic.log_weight)) <= 1e-12
    np.testing.assert_array_equal(affine.invertible, generic.invertible)
    assert affine.n_negative_det == int(generic.negative_det.sum())


@pytest.mark.parametrize(
    "scheme, pot",
    [("mlmc", PERTURBED), ("dmulmc", PERTURBED), ("dmulmc", IsotropicQuadratic(2))],
    ids=["mlmc", "dmulmc", "affine-dmulmc"],
)
def test_weights_are_thread_invariant(scheme, pot):
    # two generation blocks, so two threads really split the work; the
    # quadratic target takes the affine route, the perturbed one the generic
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


def _record_reads(monkeypatch) -> list[tuple[int, int, int]]:
    """(label, first row, end row) of every generation-block read, from here on."""
    reads = []
    original = gp.normal_block

    def recording(seed, n_cells, d, block, *, start=0, n_rows=BLOCK_PATHS, level=0,
                  label=gp.LABEL_PATH):
        first = block * BLOCK_PATHS + start
        reads.append((label, first, first + n_rows))
        return original(seed, n_cells, d, block, start=start, n_rows=n_rows, level=level,
                        label=label)

    monkeypatch.setattr(gp, "normal_block", recording)
    return reads


def _row_counts(reads, label: int, n_rows: int) -> np.ndarray:
    """How often each of rows 0 … n_rows−1 of one stream was read."""
    counts = np.zeros(n_rows, dtype=int)
    for lab, lo, hi in reads:
        if lab == label:
            counts[lo:hi] += 1
    return counts


def test_windows_tile_the_generation_blocks():
    assert BLOCK_PATHS % WINDOW_PATHS == 0


@pytest.mark.parametrize("pot", [IsotropicQuadratic(2), PERTURBED], ids=["affine", "generic"])
def test_run_weights_reads_one_window_at_a_time(monkeypatch, pot):
    reads = _record_reads(monkeypatch)
    n = WINDOW_PATHS + 40
    run_weights("mlmc", pot, schedule=SCHEDULES["mlmc"][0], n_paths=n, seed=3)
    rows = [hi - lo for _, lo, hi in reads]
    assert max(rows) <= WINDOW_PATHS
    assert sum(rows) == 2 * n  # increments and start states, every row seen


NOISE_LABELS = (gp.LABEL_PATH, gp.LABEL_RESIDUAL)


def test_local_error_sweep_reads_one_window_at_a_time(monkeypatch):
    # three grids with the same m share every noise word: their ξ and residual
    # rows, and their start rows, are drawn once, not once per grid.  With
    # 552 paths replica 2 starts 40 rows into a walk window, so each of its
    # batches straddles two windows and takes its rows from both
    reads = _record_reads(monkeypatch)
    grids = [TimeGrid(h, 1, 4) for h in (0.25, 0.125, 0.0625)]
    for n in (2 * WINDOW_PATHS, WINDOW_PATHS + 40):
        reads.clear()
        local_error_sweep("dmulmc", IsotropicQuadratic(2), grids, gamma=1.0, n_paths=n, seed=3)
        assert max(hi - lo for _, lo, hi in reads) <= WINDOW_PATHS
        assert np.all(_row_counts(reads, gp.LABEL_INIT, n) == 1)
        for label in NOISE_LABELS:
            assert np.all(_row_counts(reads, label, 2 * n) == 1)


@pytest.mark.parametrize("values", [1, 3, 1024, 1025, 3 * 512, 4096, 6 * 512, 8192,
                                    WINDOW_BYTES // 8, WINDOW_BYTES // 8 + 1, 10**9])
def test_window_rows_fit_the_window_bytes(values):
    rows = window_rows(values)
    assert 1 <= rows <= WINDOW_PATHS and rows & (rows - 1) == 0
    assert BLOCK_PATHS % rows == 0
    assert rows == 1 or rows * values * 8 <= WINDOW_BYTES
    # the largest such power of two
    assert rows == WINDOW_PATHS or 2 * rows * values * 8 > WINDOW_BYTES


def test_window_rows_cut_only_the_grids_that_do_not_fit():
    # criterion 8's m = 128 grid keeps 512 rows; criterion 7's finest grid
    # (N = 32, m = 64, d = 2) and criterion 8's m = 512 grid get 128
    assert window_rows(128 * (2 + 4)) == WINDOW_PATHS
    assert window_rows(32 * 64 * 2) == 128
    assert window_rows(512 * (2 + 4)) == 128


# criterion 7's finest grid: n_cells·d = 4096 at d = 2, so a 512-path window
# would hold 16 MiB of noise
BYTE_CUT_GRID = TimeGrid(0.5, 32, 64)


def _window_rows_read(rows: int, n: int, reads: int) -> list[int]:
    """Rows of each read when ``reads`` arrays are drawn per window of ``rows``."""
    full, tail = divmod(n, rows)
    return [rows] * (reads * full) + [tail] * (reads if tail else 0)


@pytest.mark.parametrize("pot", [IsotropicQuadratic(2), PERTURBED], ids=["affine", "generic"])
def test_run_weights_reads_byte_cut_windows(monkeypatch, pot):
    reads = _record_reads(monkeypatch)
    window = window_rows(BYTE_CUT_GRID.n_cells * pot.d)
    assert window < WINDOW_PATHS
    n = 2 * window + 40
    run_weights("mlmc", pot, schedule=OverdampedSchedule.deterministic(BYTE_CUT_GRID),
                n_paths=n, seed=3)
    # per window: increments, then start states; every row read once
    assert [hi - lo for _, lo, hi in reads] == _window_rows_read(window, n, 2)


def test_local_error_sweep_reads_byte_cut_windows(monkeypatch):
    reads = _record_reads(monkeypatch)
    pot, m = IsotropicQuadratic(2), 2048  # m·d = 4096
    window = window_rows(m * (pot.d + 2 * pot.d))
    assert window < WINDOW_PATHS
    for extra in (0, 8):
        reads.clear()
        n = 2 * window + extra
        local_error_sweep("dmulmc", pot, [TimeGrid(1 / 32, 1, m)], gamma=1.0, n_paths=n,
                          seed=3)
        # one grid: every read is one of its byte-cut windows or less
        assert max(hi - lo for _, lo, hi in reads) <= window
        assert np.all(_row_counts(reads, gp.LABEL_INIT, n) == 1)
        for label in NOISE_LABELS:
            if extra == 0:
                # the walk's windows are the grid's windows over both replicas
                assert [(lo, hi) for lab, lo, hi in reads if lab == label] == [
                    (lo, lo + window) for lo in range(0, 2 * n, window)]
                continue
            # replica 2's windows start `extra` rows into a walk window, so
            # each takes its rows from two walk windows, and none is drawn again
            assert np.all(_row_counts(reads, label, 2 * n) == 1)


def test_affine_run_weights_holds_one_window_of_noise():
    kwargs = dict(schedule=UnderdampedSchedule.deterministic(BYTE_CUT_GRID), gamma=1.0, seed=1)
    pot = IsotropicQuadratic(2)
    run_weights("dmulmc", pot, n_paths=8, **kwargs)  # first calls load lazy imports
    tracemalloc.start()
    try:
        run_weights("dmulmc", pot, n_paths=1024, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * WINDOW_BYTES + 2**20


def test_byte_cut_windows_are_thread_invariant():
    # four byte-cut windows on each side, the last one short
    pot = IsotropicQuadratic(2)
    schedule = UnderdampedSchedule.deterministic(BYTE_CUT_GRID)
    n = 3 * window_rows(BYTE_CUT_GRID.n_cells * pot.d) + 40
    one, two = (run_weights("dmulmc", pot, schedule=schedule, gamma=1.0, n_paths=n, seed=5,
                            threads=t) for t in (1, 2))
    assert np.array_equal(one.log_weight, two.log_weight)
    assert np.array_equal(one.invertible, two.invertible)
    grids = [TimeGrid(1 / 32, 1, 512)]
    n = 3 * window_rows(512 * 3 * pot.d) + 40
    one, two = (local_error_sweep("dmulmc", pot, grids, gamma=1.0, n_paths=n, seed=5,
                                  threads=t) for t in (1, 2))
    for name in ("strong_x", "strong_p", "weak_x", "weak_p"):
        (mean_1, se_1), (mean_2, se_2) = one.errors[name], two.errors[name]
        assert np.array_equal(mean_1, mean_2)
        assert np.array_equal(se_1, se_2)


def test_local_error_sweep_pairs_replicas_under_thread_contention():
    # the walk visits each window beside its replica partner, so with more
    # threads than cores partners run at once: replica 2 now and then
    # arrives first and is held for replica 1, and the start rows both map
    # are drawn once.  A lost pairing would leave a weak column unwritten
    pot, grids = IsotropicQuadratic(1), [TimeGrid(0.25, 1, 2), TimeGrid(0.125, 1, 4)]
    kwargs = dict(gamma=1.0, n_paths=2 * BLOCK_PATHS, seed=9)
    one = local_error_sweep("dmulmc", pot, grids, threads=1, **kwargs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = local_error_sweep("dmulmc", pot, grids, threads=4, **kwargs)
    finally:
        sys.setswitchinterval(interval)
    for name, (values, se) in one.errors.items():
        np.testing.assert_array_equal(many.errors[name][0], values)
        np.testing.assert_array_equal(many.errors[name][1], se)


@pytest.mark.parametrize("threads", [1, 2])
def test_dmulmc_local_error_sweep_builds_no_kernel_table(threads):
    # the marginal update reads four kernel rows, never the (m+1) × m tables
    StepKernels._cached.cache_clear()
    grid = TimeGrid(0.125, 1, 8)
    local_error_sweep("dmulmc", IsotropicQuadratic(2), [grid], gamma=1.0,
                      n_paths=2 * WINDOW_PATHS + 40, seed=3, threads=threads)
    assert StepKernels._cached.cache_info().currsize == 1
    kern = StepKernels.build(1.0, grid.h, grid.m)
    assert "K1" not in vars(kern) and "K2" not in vars(kern)


def _sweep_peak(grids, n_paths: int) -> int:
    """tracemalloc peak of one DM-ULMC local-error sweep on criterion 8's target."""
    pot = AnisotropicQuadratic((0.5, 1.0))
    local_error_sweep("dmulmc", pot, [TimeGrid(1 / 32, 1, 4)], gamma=1.0, n_paths=8,
                      seed=1)  # first calls load what they lazily import
    tracemalloc.start()
    try:
        local_error_sweep("dmulmc", pot, grids, gamma=1.0, n_paths=n_paths, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_local_error_sweep_holds_one_replicas_noise_at_a_time():
    # criterion 8's finest grid: the peak is one chunk of the walk, one
    # window of ξ (d) and residual (2d), at most WINDOW_BYTES, not both
    # replicas' noise, nor the kernel tables, nor a 512-row window's 12 MiB.
    # Criterion 8's four nested grids read views of that one chunk, so they
    # hold no more noise; their per-path columns and held defects are
    # 0.2 MiB at 512 paths
    bound = 1.25 * WINDOW_BYTES + 2**20
    assert _sweep_peak([TimeGrid(1 / 32, 1, 512)], WINDOW_PATHS) <= bound
    grids = [TimeGrid(0.25 / 2**i, 1, m) for i, m in enumerate((64, 128, 256, 512))]
    assert _sweep_peak(grids, WINDOW_PATHS) <= bound


@pytest.mark.parametrize("n", [2 * BLOCK_PATHS, 2 * BLOCK_PATHS + 40],
                         ids=["whole-blocks", "ragged"])
def test_local_error_sweep_holds_a_window_pair_of_defects(n):
    # the walk visits replica 1's windows beside the windows n // BLOCK_PATHS
    # blocks on.  With whole blocks these hold every grid's replica-2
    # partners; with 40 more rows, the rows 40 before them, so a replica-1
    # batch waits a window pair or two, and replica 1's last 40 rows wait
    # for the last block.  Either way doubling the paths adds their per-path
    # columns (8 bytes each), not 2n rows of held start states and defects
    # (2z values each)
    grids = [TimeGrid(1 / 32, 1, 4), TimeGrid(1 / 64, 1, 2)]
    growth = _sweep_peak(grids, 2 * n) - _sweep_peak(grids, n)
    assert growth <= len(grids) * 4 * n * 8 + 2**16


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme, gamma", [("mlmc", None), ("dmulmc", 1.0)],
                         ids=["mlmc", "dmulmc"])
def test_local_error_sweep_builds_the_reference_once_per_grid(
    monkeypatch, scheme, gamma, threads
):
    # three windows of two replicas each share one exact-flow map per grid,
    # for the overdamped and the kinetic reference alike, from the one cell
    # builder
    calls = []
    build = integrators.ou_cell

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(integrators, "ou_cell", counted)
    grids = [TimeGrid(h, 1, 4) for h in (0.25, 0.125)]
    local_error_sweep(scheme, IsotropicQuadratic(2), grids, gamma=gamma,
                      n_paths=2 * WINDOW_PATHS + 40, seed=3, threads=threads)
    assert len(calls) == len(grids)
    assert all(args[1] == gamma for args in calls)


def test_run_weights_needs_a_path():
    with pytest.raises(ValueError, match="n_paths"):
        run_weights("mlmc", PERTURBED, schedule=GRID, n_paths=0, seed=1)


@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
def test_schedule_rejects_an_unknown_mode(scheme):
    # a misspelt mode is refused by every scheme, never read as randomized,
    # and so is the removed zero mode: τ ≡ 0 is the EM-LD scheme
    for mode in ("Deterministic", "zero"):
        with pytest.raises(ValueError, match=re.escape("deterministic | randomized")):
            scheme_for(scheme).schedule(GRID, mode)
    assert config.SCHEDULE_MODES is engine.SCHEDULE_MODES


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
def test_every_schedule_carries_its_grid(scheme, mode):
    # a schedule is the one description of a run's time grid: it has the
    # grid and refines with it, and ULMC's schedule is the grid itself
    s = scheme_for(scheme)
    schedule = s.schedule(GRID, mode, 7, 0)
    assert schedule.grid == GRID
    assert schedule.refined().grid == GRID.refined()
    assert (schedule is GRID) == (scheme == "ulmc")
    assert s.as_schedule(GRID).grid == GRID
    step_grid = TimeGrid(GRID.h, 1, GRID.m)
    for key in s.step_keys(schedule):
        assert s.step_schedule(step_grid, key).grid == step_grid


def _simulated(scheme, schedule, n_paths=3):
    s = scheme_for(scheme)
    zdim = 2 * PERTURBED.d if s.kinetic else PERTURBED.d
    z0 = np.random.default_rng(4).normal(size=(n_paths, zdim))
    xi = noise_matrix(4, n_paths, schedule.grid.n_cells, PERTURBED.d)
    return s.simulate(PERTURBED, schedule, 1.0 if s.kinetic else None, z0, xi)


@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
def test_trajectory_grid_is_its_schedules(scheme):
    schedule = scheme_for(scheme).schedule(GRID, "randomized", 7, 0)
    traj = _simulated(scheme, schedule)
    assert traj.schedule is schedule
    assert traj.grid == traj.schedule.grid == GRID


def test_ulmc_trajectory_holds_its_grid_and_no_midpoints():
    # the DM-only fields stay unset; the benchmark's sweep counter reads
    # ``iterations is None`` as "no fixed point ran"
    traj = _simulated("ulmc", GRID)
    assert traj.schedule is GRID
    for name in ("x_minus", "x_plus", "lambda1", "lambda2", "iterations"):
        assert getattr(traj, name) is None, name
    dm = _simulated("dmulmc", UnderdampedSchedule.deterministic(GRID))
    assert dm.iterations.shape == (GRID.N,)


def test_double_midpoint_drift_and_tangents_need_multipliers():
    traj = _simulated("ulmc", GRID)
    with pytest.raises(ValueError, match="multipliers"):
        scheme_for("dmulmc").drift(PERTURBED, traj)
    with pytest.raises(ValueError, match="multipliers"):
        girsanov.tangents_dmulmc(PERTURBED, traj)


@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
def test_drift_is_the_basis_times_the_drift_coordinates(scheme):
    s = scheme_for(scheme)
    traj = _simulated(scheme, s.schedule(GRID, "randomized", 7, 0))
    U, _, c = s.drift_coordinates(PERTURBED, traj)
    psi = c if U is None else c @ U.T
    np.testing.assert_array_equal(s.drift(PERTURBED, traj),
                                  psi.reshape(3, GRID.n_cells, PERTURBED.d))


@pytest.mark.parametrize(
    "module", ["girsanovlab", *(f"girsanovlab.{m}" for m in (
        "affine", "config", "divergences", "engine", "experiments", "girsanov",
        "integrators", "kernels", "paths", "potentials"))],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("pot", [IsotropicQuadratic(2), PERTURBED], ids=["affine", "generic"])
@pytest.mark.parametrize("mean, cov", [(np.zeros(1), np.eye(4)), (np.zeros(4), np.eye(2))],
                         ids=["mean-(1,)", "cov-(d,d)"])
def test_run_weights_rejects_a_start_law_of_the_wrong_shape(pot, mean, cov):
    # a kinetic run's gaussian start law lives in phase space, (x, p): 2d = 4
    with pytest.raises(ValueError, match=re.escape("needs mean (4,) and cov (4, 4)")):
        run_weights("dmulmc", pot, schedule=GRID, gamma=1.0, n_paths=4, seed=1,
                    init=("gaussian", mean, cov))


@pytest.mark.parametrize("pot", [IsotropicQuadratic(2), PERTURBED], ids=["affine", "generic"])
def test_dmulmc_weights_need_two_inner_cells(pot):
    # with one cell σ̂ is the Gram matrix of two length-1 vectors, singular:
    # refused on either route, not turned into finite, meaningless weights
    with pytest.raises(ValueError, match=re.escape("needs m >= 2 inner cells, got m = 1")):
        run_weights("dmulmc", pot, schedule=TimeGrid(0.5, 4, 1), gamma=1.0, n_paths=4, seed=1)


@pytest.mark.parametrize("scheme", ["ulmc", "dmulmc"])
@pytest.mark.parametrize("pot", [IsotropicQuadratic(2), PERTURBED], ids=["affine", "generic"])
def test_run_weights_needs_a_finite_friction(scheme, pot):
    # an infinite friction is refused up front, on either route, with the
    # scheme table's message
    with pytest.raises(ValueError, match="kinetic schemes need a positive friction gamma"):
        run_weights(scheme, pot, schedule=GRID, gamma=np.inf, n_paths=4, seed=1)


@pytest.mark.parametrize("scheme", ["em-ld", "mlmc", "ulmc", "dmulmc"])
def test_affine_route_forms_no_dense_block(monkeypatch, scheme):
    def dense(*args, **kwargs):
        raise AssertionError("the affine route formed a dense block")

    # every dense block is formed by derivative_blocks, which Scheme.blocks
    # looks up in the engine
    monkeypatch.setattr(engine, "derivative_blocks", dense)
    monkeypatch.setattr(girsanov, "derivative_blocks", dense)
    monkeypatch.setattr(girsanov, "block_summary_dense", dense)
    gamma = 1.0 if scheme in ("ulmc", "dmulmc") else None
    run = run_weights(scheme, IsotropicQuadratic(2), schedule=GRID, gamma=gamma, n_paths=64,
                      seed=1)
    assert np.all(np.isfinite(run.log_weight)) and run.n_rejected == 0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("route", ["affine", "generic", "local-error"])
def test_start_law_is_resolved_once_per_call(monkeypatch, route, threads):
    # three windows draw their rows from one resolved law: the stationary
    # law's Hessian, eigh and Cholesky factor are not redone per window
    import girsanovlab.divergences as divergences

    calls = []
    resolve = engine.start_law

    def counted(*args, **kwargs):
        calls.append(args)
        return resolve(*args, **kwargs)

    monkeypatch.setattr(engine, "start_law", counted)
    monkeypatch.setattr(divergences, "start_law", counted)
    n = 2 * WINDOW_PATHS + 40
    if route == "local-error":
        local_error_sweep("mlmc", ISOTROPIC, [TimeGrid(0.25, 1, 4)], n_paths=n, seed=3,
                          threads=threads)
    else:
        pot = ISOTROPIC if route == "affine" else PERTURBED
        run_weights("mlmc", pot, schedule=GRID, n_paths=n, seed=3, threads=threads)
    assert len(calls) == 1


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
            start_states(pot, True, 5, 64), start_law(pot, True, law)(5, 64)
        )
    with pytest.raises(ValueError, match="unknown initial law"):
        start_law(pert, False, "stationary")(5, 4)
