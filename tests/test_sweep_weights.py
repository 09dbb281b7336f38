"""The multi-schedule weight sweep: bit for bit a per-grid loop written here,
at one and two threads; each path-stream word and start row drawn once, for
nesting grids and for grids whose batches straddle the walk's chunks; no
read over ``WINDOW_BYTES``; a working set of one chunk plus one batch; and a
ρ maximum that a NaN batch makes NaN wherever the batch lies."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

import girsanovlab.engine as engine
import girsanovlab.paths as gp
from girsanovlab.affine import fast_log_weights, step_maps_for_schedule
from girsanovlab.engine import (
    WINDOW_BYTES,
    WINDOW_PATHS,
    generic_log_weights,
    scheme_for,
    start_law,
    sweep_weights,
    window_rows,
)
from girsanovlab.paths import BLOCK_PATHS, TimeGrid, noise_matrix
from girsanovlab.potentials import IsotropicQuadratic, PerturbedQuadratic

# (N, m) of the KL-order sweeps on T = 0.5: criterion 7 and the kl-affine
# benchmark (n_cells 12, 64, 384, 2048: no grid's rows nest in another's),
# and criterion 6 (n_cells 32 … 256, each a multiple of the one before)
GRID_SETS = {
    "kl-affine": ((4, 3), (8, 8), (16, 24), (32, 64)),
    "criterion-6": ((4, 8), (8, 8), (16, 8), (32, 8)),
}

QUADRATIC = IsotropicQuadratic(2)
PERTURBED = PerturbedQuadratic((1.0, 2.0), amplitude=0.1, frequency=1.0)

# every scheme with each schedule mode it has
SCHEME_MODES = [
    ("em-ld", "deterministic"), ("mlmc", "deterministic"), ("mlmc", "randomized"),
    ("ulmc", "deterministic"), ("dmulmc", "deterministic"), ("dmulmc", "randomized"),
]


def _grids(name: str, shrink: int = 1) -> list[TimeGrid]:
    """The grid set on T = 0.5/shrink with N/shrink steps (at least one): the
    same step sizes and m, so the same nesting, at a fraction of the cells."""
    return [TimeGrid(0.5 / shrink, max(N // shrink, 1), m) for N, m in GRID_SETS[name]]


def _schedules(scheme: str, mode: str, grids) -> list:
    s = scheme_for(scheme)
    return [s.schedule(grid, mode, 7, i) for i, grid in enumerate(grids)]


def _per_grid_loop(scheme, pot, schedules, gamma, n, seed):
    """(log_weight, invertible, ρ max, negative dets) per schedule: each grid
    alone, batch by batch over its own window_rows, from the stream rows."""
    s = scheme_for(scheme)
    draw = start_law(pot, s.kinetic)
    out = []
    for schedule in schedules:
        cells = schedule.grid.n_cells
        rows = window_rows(cells * pot.d)
        maps = step_maps_for_schedule(scheme, pot, schedule, gamma) if pot.is_quadratic else None
        batches = []
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            xi = noise_matrix(seed, hi - lo, cells, pot.d, start=lo)
            z0 = draw(seed, hi - lo, start=lo)
            if maps is None:
                batches.append(generic_log_weights(scheme, pot, schedule, gamma, z0, xi))
            else:
                batches.append(fast_log_weights(maps, z0, xi))
        out.append((
            np.concatenate([w.log_weight for w in batches]),
            np.concatenate([w.invertible for w in batches]),
            max(float(w.spectral_radius.max()) for w in batches),
            sum(int(w.negative_det.sum()) for w in batches),
        ))
    return out


def _assert_sweep_is_the_loop(scheme, mode, pot, grids, n, seed=5):
    gamma = 1.0 if scheme_for(scheme).kinetic else None
    schedules = _schedules(scheme, mode, grids)
    expected = _per_grid_loop(scheme, pot, schedules, gamma, n, seed)
    for threads in (1, 2):
        runs = sweep_weights(scheme, pot, schedules=schedules, gamma=gamma, n_paths=n,
                             seed=seed, threads=threads)
        assert len(runs) == len(schedules)
        for run, schedule, (log_weight, invertible, rho, negative) in zip(
                runs, schedules, expected):
            np.testing.assert_array_equal(run.log_weight, log_weight)
            np.testing.assert_array_equal(run.invertible, invertible)
            assert run.spectral_radius == rho
            assert run.n_negative_det == negative
            assert run.grad_queries_per_path == scheme_for(scheme).grad_queries(schedule)


@pytest.mark.parametrize("grid_set", list(GRID_SETS))
@pytest.mark.parametrize("scheme, mode", SCHEME_MODES,
                         ids=[f"{s}-{m}" for s, m in SCHEME_MODES])
def test_quadratic_sweep_is_the_per_grid_loop(scheme, mode, grid_set):
    _assert_sweep_is_the_loop(scheme, mode, QUADRATIC, _grids(grid_set), 2 * WINDOW_PATHS)


@pytest.mark.parametrize("grid_set", list(GRID_SETS))
@pytest.mark.parametrize("scheme, mode", SCHEME_MODES,
                         ids=[f"{s}-{m}" for s, m in SCHEME_MODES])
def test_generic_sweep_is_the_per_grid_loop(scheme, mode, grid_set):
    # the generic route on the same m with a 16th of the steps, at a cost a
    # tier-1 run affords
    _assert_sweep_is_the_loop(scheme, mode, PERTURBED, _grids(grid_set, 16), 2 * WINDOW_PATHS)


@pytest.mark.parametrize("grid_set", list(GRID_SETS))
@pytest.mark.parametrize("scheme, mode, pot", [
    ("mlmc", "randomized", PERTURBED), ("dmulmc", "randomized", QUADRATIC),
], ids=["generic-mlmc", "affine-dmulmc"])
def test_block_crossing_sweep_is_the_per_grid_loop(scheme, mode, pot, grid_set):
    # two whole generation blocks and 40 rows of a third: the walk's last
    # windows are short, and its chunks clamp at each block's end
    _assert_sweep_is_the_loop(scheme, mode, pot, _grids(grid_set, 32), 2 * BLOCK_PATHS + 40)


def _record_words(monkeypatch) -> list[tuple[int, int, int, int]]:
    """(label, block, first word, end word) of every generation-block read."""
    reads = []
    original = gp.normal_block

    def recording(seed, n_cells, d, block, *, start=0, n_rows=BLOCK_PATHS, level=0,
                  label=gp.LABEL_PATH):
        width = n_cells * d
        reads.append((label, block, start * width, (start + n_rows) * width))
        return original(seed, n_cells, d, block, start=start, n_rows=n_rows, level=level,
                        label=label)

    monkeypatch.setattr(gp, "normal_block", recording)
    return reads


def _word_counts(reads, label: int, block: int, n_words: int) -> np.ndarray:
    counts = np.zeros(n_words, dtype=np.int16)
    for lab, blk, lo, hi in reads:
        if lab == label and blk == block:
            counts[lo:hi] += 1
    return counts


def _sweep(grids, n, pot=QUADRATIC, threads=1):
    schedules = _schedules("mlmc", "deterministic", grids)
    return sweep_weights("mlmc", pot, schedules=schedules, n_paths=n, seed=3, threads=threads)


def _assert_each_word_once(reads, n, top, d):
    """Every path-stream word of the finest grid's rows, and every start row,
    read exactly once; no read over WINDOW_BYTES."""
    assert max((hi - lo) * 8 for _, _, lo, hi in reads) <= WINDOW_BYTES
    for block in range(-(-n // BLOCK_PATHS)):
        rows = min(BLOCK_PATHS, n - block * BLOCK_PATHS)
        for label, words in ((gp.LABEL_PATH, top * d), (gp.LABEL_INIT, d)):
            counts = _word_counts(reads, label, block, rows * words)
            np.testing.assert_array_equal(counts, 1)


@pytest.mark.parametrize("n", [2 * WINDOW_PATHS, 2 * BLOCK_PATHS],
                         ids=["two-windows", "two-blocks"])
def test_nesting_grids_draw_each_word_once(monkeypatch, n):
    # criterion 6's grids: each coarser grid's rows end on a row of the
    # finest; the start rows, which every grid reads, are drawn once too
    grids = _grids("criterion-6", 4)
    reads = _record_words(monkeypatch)
    _sweep(grids, n)
    _assert_each_word_once(reads, n, max(grid.n_cells for grid in grids), QUADRATIC.d)


def _straddling_batches(cells, n, d) -> int:
    """Batches of the coarser grids whose words run past a chunk of the
    finest grid's words, in the walk's geometry."""
    top = max(cells)
    chunk_words = window_rows(top * d) * top * d
    count = 0
    for c in cells:
        batch, row_words = window_rows(c * d), c * d
        for lo in range(0, n, batch):
            block_lo = lo % BLOCK_PATHS
            first = block_lo * row_words
            end = (min(lo + batch, n) - lo + block_lo) * row_words
            count += (end - 1) // chunk_words > first // chunk_words
    return count


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [2 * WINDOW_PATHS, 2 * BLOCK_PATHS + 40],
                         ids=["two-windows", "block-crossing"])
def test_grids_that_do_not_nest_draw_each_word_once(monkeypatch, n, threads):
    # kl-affine's grids, with a quarter of their steps: a coarse grid's batch
    # may start in one chunk of the finest grid's words and end in the next.
    # It is run by the second of the two windows, from both chunks' words,
    # so no word is drawn again, at any thread count
    grids = _grids("kl-affine", 4)
    cells = [grid.n_cells for grid in grids]
    reads = _record_words(monkeypatch)
    _sweep(grids, n, threads=threads)
    _assert_each_word_once(reads, n, max(cells), QUADRATIC.d)
    if n > BLOCK_PATHS:
        assert _straddling_batches(cells, n, QUADRATIC.d) > 0  # batches do straddle chunks


def test_straddling_batches_pair_under_thread_contention():
    # more threads than cores, switching every microsecond: windows that
    # share a straddling batch, or a start piece, run at once.  A lost part
    # or a piece freed early would leave a batch unrun or raise
    grids = _grids("kl-affine", 4)
    n = 2 * BLOCK_PATHS + 40
    one = _sweep(grids, n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _sweep(grids, n, threads=4)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(one, many):
        np.testing.assert_array_equal(a.log_weight, b.log_weight)
        np.testing.assert_array_equal(a.invertible, b.invertible)


def _sweep_peak(grids, n: int) -> int:
    """tracemalloc peak of one affine DM-ULMC sweep over ``grids``."""
    schedules = _schedules("dmulmc", "deterministic", grids)
    kwargs = dict(schedules=schedules, gamma=1.0, seed=1)
    sweep_weights("dmulmc", QUADRATIC, n_paths=8, **kwargs)  # load lazy imports
    tracemalloc.start()
    try:
        sweep_weights("dmulmc", QUADRATIC, n_paths=n, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_holds_one_chunk_and_one_batch():
    # kl-affine's grids: the finest grid's 128-row window is WINDOW_BYTES of
    # noise.  Beside that chunk the walk holds one batch: at most a coarse
    # grid's window of noise, a buffer filled from this chunk and the one
    # before when the batch straddles them, plus 1 MiB of the batch's
    # temporaries and the grids' step maps
    grids = _grids("kl-affine")
    batch_bytes = max(window_rows(g.n_cells * 2) * g.n_cells * 2 * 8 for g in grids[:-1])
    n = 2 * WINDOW_PATHS
    assert _sweep_peak(grids, n) <= WINDOW_BYTES + 2 * batch_bytes + 2**20
    # doubling the paths adds each grid's per-path columns (8 + 1 bytes),
    # not their noise or their log weights' pieces
    growth = _sweep_peak(grids, 2 * n) - _sweep_peak(grids, n)
    assert growth <= len(grids) * 9 * n + 2**16


@pytest.mark.parametrize("bad_batch", [0, 1], ids=["first", "second"])
def test_sweep_rho_propagates_a_nan_batch_maximum(monkeypatch, bad_batch):
    # the run's ρ is the batches' maximum: a batch whose ρ is NaN makes it
    # NaN wherever that batch lies in the run, not only when it comes first
    calls = []

    def generic(*args):
        w = generic_log_weights(*args)
        calls.append(None)
        if len(calls) - 1 == bad_batch:
            w = dataclasses.replace(w, spectral_radius=np.full_like(w.spectral_radius, np.nan))
        return w

    monkeypatch.setattr(engine, "generic_log_weights", generic)
    schedules = _schedules("mlmc", "deterministic", [TimeGrid(0.125, 1, 8)])
    n = 2 * WINDOW_PATHS
    assert window_rows(8 * PERTURBED.d) < n  # two batches, walked in path order
    run, = sweep_weights("mlmc", PERTURBED, schedules=schedules, n_paths=n, seed=3)
    assert len(calls) == 2
    assert np.isnan(run.spectral_radius)
