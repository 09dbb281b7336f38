"""Time grids, reproducible noise, bridge refinement, midpoint schedules."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girsanovlab import (
    NoisePath,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
    refine_noise,
)
import girsanovlab.paths as gp
from girsanovlab.paths import (
    BLOCK_PATHS,
    LABEL_BRIDGE,
    LABEL_INIT,
    LABEL_PATH,
    LABEL_RESIDUAL,
    NoiseChunk,
    normal_block,
)


def noise_path(seed: int, stream: int, n_cells: int, d: int) -> NoisePath:
    """Increments of path ``stream``: one row of ``noise_matrix``."""
    return NoisePath(noise_matrix(seed, 1, n_cells, d, start=stream)[0], seed, stream)


def coarsen_noise(path: NoisePath) -> NoisePath:
    """Merge adjacent increments: the inverse of ``refine_noise`` up to rounding."""
    assert path.n_cells % 2 == 0 and path.level >= 1
    parent = (path.xi[..., 0::2, :] + path.xi[..., 1::2, :]) * np.sqrt(0.5)
    return replace(path, xi=parent, level=path.level - 1)


def test_grid_fields_exact():
    grid = TimeGrid(0.5, 4, 8)
    assert grid.h == 0.5 / 4
    assert grid.eta == grid.h / 8
    assert grid.n_cells == 32
    assert grid.N * grid.h == grid.T


def test_grid_refined_doubles_m():
    grid = TimeGrid(1.0, 2, 4)
    fine = grid.refined()
    assert (fine.N, fine.m) == (2, 8)
    assert fine.eta == grid.eta / 2


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 2, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 2, 0)


@pytest.mark.parametrize("N, m", [(2.5, 4), (2, 2.5), (4.0, 2), (True, 4), (2, True),
                                  (2, np.bool_(True))])
def test_grid_rejects_non_integer_counts(N, m):
    # a float count would reach the noise arrays' shapes as n_cells = 10.0
    with pytest.raises(ValueError, match="must be an integer"):
        TimeGrid(1.0, N, m)


def test_grid_accepts_numpy_integer_counts():
    grid = TimeGrid(1.0, np.int64(2), np.int32(4))
    assert grid == TimeGrid(1.0, 2, 4)
    assert grid.n_cells == 8


def test_noise_deterministic_and_stream_separated():
    a = noise_path(seed=11, stream=3, n_cells=16, d=2)
    b = noise_path(seed=11, stream=3, n_cells=16, d=2)
    np.testing.assert_array_equal(a.xi, b.xi)
    c = noise_path(seed=11, stream=4, n_cells=16, d=2)
    assert not np.array_equal(a.xi, c.xi)
    e = noise_path(seed=12, stream=3, n_cells=16, d=2)
    assert not np.array_equal(a.xi, e.xi)


def test_noise_matrix_rows_independent_of_batch_size():
    small = noise_matrix(5, 10, 8, 2)
    large = noise_matrix(5, 6000, 8, 2)
    np.testing.assert_array_equal(small, large[:10])


def test_noise_moments():
    xi = noise_matrix(0, 100, 100, 1).ravel()  # 1e4 draws
    n = xi.size
    assert abs(xi.mean()) <= 4.0 / np.sqrt(n)
    assert abs(xi.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)


def test_disjoint_streams_uncorrelated():
    # pair the increments of streams 0..2047 against streams 2048..4095
    draws = noise_matrix(0, 4096, 49, 1)
    a = draws[:2048].ravel()
    b = draws[2048:].ravel()
    n = a.size  # 100352 paired draws from disjoint streams
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(n)


def test_refine_preserves_coarse_path():
    path = noise_path(seed=3, stream=0, n_cells=12, d=3)
    fine = refine_noise(path)
    assert fine.n_cells == 24
    merged = (fine.xi[0::2] + fine.xi[1::2]) * np.sqrt(0.5)
    np.testing.assert_allclose(merged, path.xi, rtol=1e-15, atol=1e-15)


def test_refine_then_coarsen_round_trip():
    path = noise_path(seed=4, stream=7, n_cells=8, d=2)
    back = coarsen_noise(refine_noise(path))
    np.testing.assert_allclose(back.xi, path.xi, rtol=1e-15, atol=1e-15)
    assert back.level == path.level


def test_double_refinement_nests():
    path = noise_path(seed=5, stream=1, n_cells=4, d=1)
    f2 = refine_noise(refine_noise(path))
    assert f2.n_cells == 16
    # coarse-graining two levels reproduces the original increments
    once = (f2.xi[0::2] + f2.xi[1::2]) * np.sqrt(0.5)
    twice = (once[0::2] + once[1::2]) * np.sqrt(0.5)
    np.testing.assert_allclose(twice, path.xi, rtol=1e-14, atol=1e-14)


def test_refined_midpoints_are_standard_normal():
    # children are unit normals: sample variance over many cells within 4 SE
    children = [
        refine_noise(noise_path(seed=6, stream=s, n_cells=256, d=1)).xi
        for s in range(64)
    ]
    pool = np.concatenate(children).ravel()
    v = pool.var()
    assert abs(v - 1.0) <= 4.0 * np.sqrt(2.0 / pool.size)


def _whole_block(seed, label, level, block, n_cells, d):
    """A generation block drawn in one piece from the block's first word."""
    gen = gp._generator(seed, label, level, block)
    return gp._normals(gen, BLOCK_PATHS * n_cells * d).reshape(BLOCK_PATHS, n_cells, d)


_stream_keys = {
    "seed": st.integers(0, 2**64 - 1),
    "label": st.sampled_from([LABEL_PATH, LABEL_BRIDGE, LABEL_INIT]),
    "level": st.integers(0, 3),
    "n_cells": st.integers(1, 7),  # n_cells·d runs through every residue mod 4
    "d": st.integers(1, 3),
}


@settings(deadline=None, max_examples=40)
@given(block=st.integers(0, 2), data=st.data(), **_stream_keys)
def test_normal_block_window_matches_whole_block(seed, label, level, block, n_cells, d, data):
    start = data.draw(st.integers(0, BLOCK_PATHS - 1), label="start")
    n_rows = data.draw(st.integers(1, BLOCK_PATHS - start), label="n_rows")
    window = normal_block(
        seed, n_cells, d, block, start=start, n_rows=n_rows, level=level, label=label
    )
    whole = _whole_block(seed, label, level, block, n_cells, d)
    np.testing.assert_array_equal(window, whole[start : start + n_rows])


@settings(deadline=None, max_examples=20)
@given(start=st.integers(0, BLOCK_PATHS - 1), extra=st.integers(1, 64), **_stream_keys)
def test_noise_matrix_window_across_blocks(seed, label, level, n_cells, d, start, extra):
    n_paths = BLOCK_PATHS - start + extra  # ends inside the second block
    window = noise_matrix(
        seed, n_paths, n_cells, d, label=label, level=level, start=start
    )
    whole = np.concatenate([_whole_block(seed, label, level, b, n_cells, d) for b in (0, 1)])
    np.testing.assert_array_equal(window, whole[start : start + n_paths])


@pytest.mark.parametrize("label, width", [(LABEL_PATH, 2), (LABEL_RESIDUAL, 4)],
                         ids=["path", "residual"])
def test_grids_read_nested_prefixes_of_one_stream(label, width):
    # row q of a block is words [q·n, (q+1)·n) of its stream, whatever n:
    # rows 2q and 2q+1 of an m = 64 grid are row q of an m = 128 grid,
    # inside a block and in the next one
    for start in (0, BLOCK_PATHS):
        fine = noise_matrix(5, 8, 128, width, label=label, start=start)
        coarse = noise_matrix(5, 16, 64, width, label=label, start=start)
        np.testing.assert_array_equal(coarse.reshape(8, 128, width), fine)
    assert noise_matrix(5, 1, 3, width, label=label, start=5)[0, 1, 0] == (
        noise_matrix(5, 4, 5, width, label=label)[3, 1, 0])  # word 16·width of both


# (first row, rows, cells per row) of a chunk: at a block's head, at its
# end, one whose cells run past the last row of every narrower read in its
# block (an m = 1 read ends at cell BLOCK_PATHS), and one in a later block
CHUNKS = [(0, 16, 8), (BLOCK_PATHS - 32, 32, 8), (0, 80, 64), (BLOCK_PATHS + 64, 64, 5)]


@pytest.mark.parametrize("label, width", [(LABEL_PATH, 2), (LABEL_RESIDUAL, 4)],
                         ids=["path", "residual"])
@pytest.mark.parametrize("first, n_rows, n_cells", CHUNKS)
def test_noise_chunk_rows_are_the_stream_rows(label, width, first, n_rows, n_cells):
    chunk = NoiseChunk(7, n_rows, n_cells, width, start=first, label=label)
    block, row = divmod(first, BLOCK_PATHS)
    lo, hi = row * n_cells, (row + n_rows) * n_cells
    assert (chunk.block, chunk.lo, chunk.hi) == (block, lo, hi)
    base = block * BLOCK_PATHS
    for m in (1, 2, 3, n_cells, 2 * n_cells + 1):  # narrower, not nesting, equal, wider
        # every row of the read with a cell in the chunk: its cells there are
        # the stream row's, whether the row lies inside or runs past the chunk
        for q in range(lo // m, min(-(-hi // m), BLOCK_PATHS)):
            a, end = max(q * m, lo), min((q + 1) * m, hi)
            stream_row = noise_matrix(7, 1, m, width, label=label, start=base + q)[0]
            np.testing.assert_array_equal(chunk.cells(a, end), stream_row[a - q * m:end - q * m])
    for a, end in ((lo - 1, lo + 1), (hi - 1, hi + 1)):  # across either end
        if a >= 0:
            with pytest.raises(ValueError, match="outside the chunk"):
                chunk.cells(a, end)


def test_noise_chunk_draws_its_words_once(monkeypatch):
    draws = []
    original = gp.noise_matrix

    def recording(seed, n_paths, n_cells, d, **kwargs):
        draws.append((n_paths, n_cells, kwargs["start"]))
        return original(seed, n_paths, n_cells, d, **kwargs)

    monkeypatch.setattr(gp, "noise_matrix", recording)
    chunk = NoiseChunk(7, 64, 8, 2, start=BLOCK_PATHS - 64)
    assert draws == []  # nothing is drawn before a cell is read
    whole = chunk.cells(chunk.lo, chunk.hi).reshape(64, 8, 2)
    wide = chunk.cells(chunk.lo + 16, chunk.lo + 48).reshape(2, 16, 2)  # two rows of m = 16
    assert np.shares_memory(whole, wide) and draws == [(64, 8, BLOCK_PATHS - 64)]
    np.testing.assert_array_equal(whole, noise_matrix(7, 64, 8, 2, start=BLOCK_PATHS - 64))


def test_noise_chunk_lies_in_one_block():
    with pytest.raises(ValueError, match="outside a block"):
        NoiseChunk(1, 2, 8, 1, start=BLOCK_PATHS - 1)
    with pytest.raises(ValueError, match="outside a block"):
        NoiseChunk(1, 0, 8, 1, start=0)


def test_normal_block_rejects_rows_outside_the_block():
    with pytest.raises(ValueError, match="outside a block"):
        normal_block(1, 2, 1, 0, start=BLOCK_PATHS - 1, n_rows=2)
    with pytest.raises(ValueError, match="outside a block"):
        normal_block(1, 2, 1, 0, n_rows=0)


@pytest.mark.parametrize("start", [0, 4001])  # 4001·15 words: three dropped
@pytest.mark.parametrize("n_paths", [1, 100])
def test_reading_paths_generates_only_their_rows(monkeypatch, n_paths, start):
    generated = []
    original = gp._normals

    def counted(gen, n):
        generated.append(n)
        return original(gen, n)

    monkeypatch.setattr(gp, "_normals", counted)
    n_cells, d = 5, 3
    xi = noise_matrix(7, n_paths, n_cells, d, start=start)
    assert xi.shape == (n_paths, n_cells, d)
    assert sum(generated) <= n_paths * n_cells * d + 3


def test_stream_bits_are_pinned():
    # the determinism contract: these bytes change only with the stream layout
    # (BLOCK_PATHS, the Philox key and counter, one word per normal)
    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    window = noise_matrix(20260815, 5, 7, 3, start=4093)  # crosses a block
    assert digest(window) == "1304449e4f729eb35b29f19f0d3a11d7b0aa21cfa3fc3249d0b497d1d4e69ea6"
    bridge = refine_noise(NoisePath(np.zeros((3, 5, 1)), 20260815, 4095, 2)).xi
    assert digest(bridge) == "64e6cf24c7a33d0c4fa20120471b34dcb005890854390a8a5df02db90103d552"


def test_batched_refinement_matches_per_path():
    # a stacked batch of streams 4095, 4096, 4097 straddles a generation block
    paths = [noise_path(seed=8, stream=s, n_cells=6, d=2) for s in (4095, 4096, 4097)]
    batch = NoisePath(np.stack([p.xi for p in paths]), seed=8, stream=4095)
    fine = refine_noise(refine_noise(batch))
    for b, p in enumerate(paths):
        np.testing.assert_array_equal(fine.xi[b], refine_noise(refine_noise(p)).xi)
    # coarsening inverts refinement up to rounding, batched as per path
    back = coarsen_noise(fine)
    np.testing.assert_allclose(back.xi[1], refine_noise(paths[1]).xi, rtol=1e-14, atol=1e-14)


def test_refinement_deterministic_per_level():
    path = noise_path(seed=9, stream=2, n_cells=8, d=2)
    np.testing.assert_array_equal(refine_noise(path).xi, refine_noise(path).xi)
    # bridge draws differ from the path draws themselves
    assert LABEL_BRIDGE != LABEL_PATH


def test_overdamped_schedule_snapping():
    grid = TimeGrid(1.0, 4, 8)
    sched = OverdampedSchedule.deterministic(grid)
    np.testing.assert_array_equal(sched.indices, 4)
    np.testing.assert_allclose(grid.eta * sched.indices, grid.h / 2)
    # snapped tau is within eta/2 of the request for a non-grid fraction
    odd = gp._snap_index(0.3, grid.m) * grid.eta
    assert abs(odd - 0.3 * grid.h) <= grid.eta / 2 + 1e-15


def test_underdamped_schedule_deterministic_thirds():
    grid = TimeGrid(0.9, 3, 6)
    sched = UnderdampedSchedule.deterministic(grid)
    np.testing.assert_allclose(grid.eta * sched.indices_minus, grid.h / 3)
    np.testing.assert_allclose(grid.eta * sched.indices_plus, grid.h / 2)


def test_randomized_schedules_reproducible_and_in_range():
    grid = TimeGrid(1.0, 5, 8)
    a = OverdampedSchedule.randomized(grid, seed=1, stream=0)
    b = OverdampedSchedule.randomized(grid, seed=1, stream=0)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert np.all((a.indices >= 0) & (a.indices < grid.m))
    c = UnderdampedSchedule.randomized(grid, seed=1, stream=0)
    assert np.all(c.indices_minus <= c.indices_plus)
    assert np.all((c.indices_minus >= 0) & (c.indices_plus < grid.m))


def test_schedule_refinement_keeps_physical_taus():
    grid = TimeGrid(1.0, 3, 4)
    sched = OverdampedSchedule.randomized(grid, seed=2, stream=5)
    fine = sched.refined()
    np.testing.assert_allclose(fine.grid.eta * fine.indices, grid.eta * sched.indices)
    ud = UnderdampedSchedule.randomized(grid, seed=2, stream=5).refined()
    assert ud.grid.m == 8


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 3))
def test_refine_round_trip_property(seed, n_cells, d):
    path = noise_path(seed=seed, stream=0, n_cells=n_cells, d=d)
    merged = coarsen_noise(refine_noise(path))
    np.testing.assert_allclose(merged.xi, path.xi, rtol=1e-14, atol=1e-14)
