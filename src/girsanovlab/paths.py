"""Time grids, midpoint schedules, and reproducible Brownian increments.

Discretization layout
---------------------
A horizon [0, T] is split into N outer steps of length h = T/N, each refined
into m inner cells of length η = h/m (any positive m; doubling m nests).  All
randomness is expressed through standard normal increments ξ with shape
(n_cells, d), where √η·ξ_i realizes the Brownian increment over inner cell i.

Reproducibility
---------------
Increments come from counter-based Philox streams:

* key  = (seed, purpose label) — independent streams per purpose: path
  increments, bridge midpoints, start states, exact-flow residuals and
  randomized schedules,
* counter = [0, level, block, 0] — paths are laid out in fixed blocks of
  ``BLOCK_PATHS`` paths; path ``stream`` lives at row ``stream % BLOCK_PATHS``
  of block ``stream // BLOCK_PATHS``.

Uniform doubles are mapped through the inverse normal CDF (one 64-bit word per
normal, shifted by 2⁻⁵⁴ so u = 0 cannot occur).  Fixed consumption per normal
is what makes the block layout — and therefore every estimate — independent of
how work is divided across threads.  It also fixes the word each normal comes
from, so a window of rows is drawn alone: the counter moves forward to the
window's first word (Philox4x64 yields four words per counter step) and the
at most three words before it are dropped.  Nothing is cached; a window costs
its own rows plus at most three normals.

Refinement
----------
``refine_noise`` is the package's one bridge refinement.  It splits each
increment with a fresh midpoint variable ζ from a level-keyed stream:
ξ′₂ᵢ = (ξᵢ+ζᵢ)/√2, ξ′₂ᵢ₊₁ = (ξᵢ−ζᵢ)/√2, where path ``stream`` reads ζ from
row ``stream`` of the bridge stream at its level, whether it is refined alone
or in a stack of consecutive paths.  Coarsening the result reproduces the
parent increments exactly (up to one floating add), so weights can be
compared across nested inner grids on the *same* underlying Brownian path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

__all__ = [
    "BLOCK_PATHS",
    "TimeGrid",
    "OverdampedSchedule",
    "UnderdampedSchedule",
    "NoisePath",
    "sample_noise",
    "refine_noise",
    "normal_block",
]

#: Paths per Philox generation block.  Fixed: part of the determinism contract.
BLOCK_PATHS = 4096

# Purpose labels (second Philox key word).
LABEL_PATH = 0x1
LABEL_BRIDGE = 0x2
LABEL_INIT = 0x3
LABEL_RESIDUAL = 0x4
LABEL_SCHEDULE = 0x5


@dataclass(frozen=True)
class TimeGrid:
    """Horizon T split into N outer steps, each with m inner cells."""

    T: float
    N: int
    m: int

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.N < 1:
            raise ValueError(f"need at least one outer step, got N={self.N}")
        if self.m < 1:
            raise ValueError(f"inner cell count must be positive, got m={self.m}")

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def eta(self) -> float:
        return self.T / (self.N * self.m)

    @property
    def n_cells(self) -> int:
        return self.N * self.m

    def refined(self) -> "TimeGrid":
        """Same horizon and outer steps, doubled inner resolution."""
        return TimeGrid(self.T, self.N, 2 * self.m)


def _snap_index(fraction: float, m: int) -> int:
    """Nearest inner-grid index to τ = fraction·h, clipped into [0, m−1]."""
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"midpoint fraction must lie in [0, 1), got {fraction}")
    return min(int(round(fraction * m)), m - 1)


@dataclass(frozen=True)
class OverdampedSchedule:
    """Per-step midpoint indices r_k (τ_k = r_k·η) for the overdamped scheme.

    Indices are stored, not times, so snapped midpoints are exact grid nodes.
    r_k = 0 degenerates the midpoint to the step start, which recovers plain
    Euler–Maruyama with the gradient frozen over the step.
    """

    grid: TimeGrid
    indices: np.ndarray  # (N,) ints in [0, m−1]

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        if idx.shape != (self.grid.N,):
            raise ValueError(f"need one index per outer step, got shape {idx.shape}")
        if np.any(idx < 0) or np.any(idx >= self.grid.m):
            raise ValueError("midpoint indices must lie in [0, m-1]")
        object.__setattr__(self, "indices", idx)

    @property
    def taus(self) -> np.ndarray:
        return self.grid.eta * self.indices

    @classmethod
    def deterministic(cls, grid: TimeGrid, fraction: float = 0.5) -> "OverdampedSchedule":
        r = _snap_index(fraction, grid.m)
        return cls(grid, np.full(grid.N, r, dtype=int))

    @classmethod
    def zero(cls, grid: TimeGrid) -> "OverdampedSchedule":
        """The Euler–Maruyama degenerate schedule (τ ≡ 0)."""
        return cls(grid, np.zeros(grid.N, dtype=int))

    @classmethod
    def randomized(cls, grid: TimeGrid, seed: int, stream: int) -> "OverdampedSchedule":
        gen = _generator(seed, LABEL_SCHEDULE, 0, stream)
        idx = gen.integers(0, grid.m, size=grid.N)
        return cls(grid, idx)

    def refined(self) -> "OverdampedSchedule":
        """Same midpoint times on the doubled inner grid."""
        return OverdampedSchedule(self.grid.refined(), 2 * self.indices)


@dataclass(frozen=True)
class UnderdampedSchedule:
    """Per-step double-midpoint indices (r⁻_k, r⁺_k) for the kinetic scheme.

    The deterministic choice is τ⁻ = h/3 (position midpoint) and τ⁺ = h/2
    (momentum midpoint), snapped to the inner grid.
    """

    grid: TimeGrid
    indices_minus: np.ndarray
    indices_plus: np.ndarray

    def __post_init__(self):
        for name in ("indices_minus", "indices_plus"):
            idx = np.asarray(getattr(self, name), dtype=int)
            if idx.shape != (self.grid.N,):
                raise ValueError(f"need one {name} per outer step, got {idx.shape}")
            if np.any(idx < 0) or np.any(idx >= self.grid.m):
                raise ValueError("midpoint indices must lie in [0, m-1]")
            object.__setattr__(self, name, idx)

    @property
    def taus_minus(self) -> np.ndarray:
        return self.grid.eta * self.indices_minus

    @property
    def taus_plus(self) -> np.ndarray:
        return self.grid.eta * self.indices_plus

    @classmethod
    def deterministic(cls, grid: TimeGrid) -> "UnderdampedSchedule":
        """τ⁻ = h/3 and τ⁺ = h/2 on every step, snapped to the inner grid."""
        ones = np.ones(grid.N, dtype=int)
        return cls(grid, _snap_index(1.0 / 3.0, grid.m) * ones, _snap_index(0.5, grid.m) * ones)

    @classmethod
    def randomized(cls, grid: TimeGrid, seed: int, stream: int) -> "UnderdampedSchedule":
        gen = _generator(seed, LABEL_SCHEDULE, 0, stream)
        idx = gen.integers(0, grid.m, size=(2, grid.N))
        return cls(grid, idx.min(axis=0), idx.max(axis=0))

    def refined(self) -> "UnderdampedSchedule":
        return UnderdampedSchedule(
            self.grid.refined(), 2 * self.indices_minus, 2 * self.indices_plus
        )


# ---------------------------------------------------------------------------
# Philox noise factory
# ---------------------------------------------------------------------------


def _generator(seed: int, label: int, level: int, block: int) -> np.random.Generator:
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must fit in uint64, got {seed}")
    key = np.array([seed, label], dtype=np.uint64)
    counter = np.array([0, level, block, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _normals(gen: np.random.Generator, n: int) -> np.ndarray:
    # One 64-bit word per normal: u ∈ [2⁻⁵⁴, 1), then inverse CDF.  Fixed
    # consumption keeps block layouts identical regardless of call pattern.
    # In place: a draw holds one array of n doubles.
    u = gen.random(n)
    u += 2.0**-54
    return ndtri(u, out=u)


def normal_block(
    seed: int, n_cells: int, d: int, block: int, *, start: int = 0,
    n_rows: int = BLOCK_PATHS, level: int = 0, label: int = LABEL_PATH,
) -> np.ndarray:
    """Rows ``start .. start+n_rows−1`` of one generation block, (n_rows, n_cells, d).

    Row r of the block holds the increments of path
    ``stream = block·BLOCK_PATHS + r``.  Only the window is drawn: the counter
    is moved forward to the window's first 64-bit word (four words per
    Philox step) and the at most three words before it are dropped.
    """
    if not (0 <= start and 0 < n_rows and start + n_rows <= BLOCK_PATHS):
        raise ValueError(f"rows {start}..{start + n_rows - 1} lie outside a block")
    gen = _generator(seed, label, level, block)
    first = start * n_cells * d
    gen.bit_generator.advance(first // 4)
    skip = first % 4
    return _normals(gen, skip + n_rows * n_cells * d)[skip:].reshape(n_rows, n_cells, d)


@dataclass(frozen=True)
class NoisePath:
    """Standard normal increments of a path, with its stream identity.

    ``xi`` holds one path, (n_cells, d), or the consecutive paths
    ``stream, stream+1, ...`` stacked, (B, n_cells, d).  ``level`` counts
    bridge refinements applied since the paths were sampled (the inner cell
    count of ``xi`` is 2^level times the sampled one).
    """

    xi: np.ndarray
    seed: int
    stream: int
    level: int = 0

    @property
    def n_cells(self) -> int:
        return self.xi.shape[-2]

    @property
    def d(self) -> int:
        return self.xi.shape[-1]


def sample_noise(seed: int, stream: int, n_cells: int, d: int) -> NoisePath:
    """Increments of path ``stream``: one row of :func:`noise_matrix`."""
    xi = noise_matrix(seed, 1, n_cells, d, start=stream)[0]
    return NoisePath(xi=xi, seed=int(seed), stream=int(stream), level=0)


def noise_matrix(
    seed: int,
    n_paths: int,
    n_cells: int,
    d: int,
    *,
    label: int = LABEL_PATH,
    level: int = 0,
    start: int = 0,
) -> np.ndarray:
    """Increments of paths ``start .. start+n_paths−1`` stacked, (n_paths, n_cells, d).

    Row p is row ``start+p`` of the stream, however the window is cut, so
    batch and per-path consumers agree exactly.  Each block the window
    touches draws only its rows (:func:`normal_block`); a window inside one
    block is that block's array, uncopied.
    """
    if n_paths <= 0 or start < 0:
        raise ValueError("need n_paths > 0 and start >= 0")
    parts, stop = [], start + n_paths
    while start < stop:
        block, row = divmod(start, BLOCK_PATHS)
        n_rows = min(stop - start, BLOCK_PATHS - row)
        parts.append(normal_block(
            seed, n_cells, d, block, start=row, n_rows=n_rows, level=level, label=label
        ))
        start += n_rows
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def refine_noise(path: NoisePath) -> NoisePath:
    """Split each increment in two with a fresh level-keyed midpoint variable.

    Works on one path or a batch; path ``stream + b`` draws its midpoint
    variables from the same bridge row either way.
    """
    n_paths = path.xi.shape[0] if path.xi.ndim == 3 else 1
    zeta = noise_matrix(
        path.seed, n_paths, path.n_cells, path.d,
        label=LABEL_BRIDGE, level=path.level, start=path.stream,
    ).reshape(path.xi.shape)
    child = np.empty(path.xi.shape[:-2] + (2 * path.n_cells, path.d))
    root_half = np.sqrt(0.5)
    child[..., 0::2, :] = (path.xi + zeta) * root_half
    child[..., 1::2, :] = (path.xi - zeta) * root_half
    return replace(path, xi=child, level=path.level + 1)
