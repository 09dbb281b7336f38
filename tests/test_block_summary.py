"""Structured block summaries against the dense reference blocks.

Both weight routes evaluate the sign of det(I + D_k), det₂, tr(D_k) and ρ(D_k)
from each block's small core (``block_summary_mlmc/_ulmc/_dmulmc``); these
tests hold them to ``block_summary_dense`` of the dense reference blocks
``Scheme.blocks`` (``derivative_blocks`` of the scheme's tangent rule) on a
non-quadratic target, both read through the one assembly
``summary_log_weight``.  ρ is held to the dense eigenvalues, or, on the
overdamped midpoint route, to a power oracle on the block's leading cells,
also on factors scaled to ρ ≈ 1e±30 (an overflowing iterate reads inf);
det₂ is held to a 40-digit evaluation of the same float64 core.  The
overdamped tr(D_k²) of ``trace_square_mlmc`` is held to the dense blocks the
same way.  The generic-route summaries and criterion 5's trace diagnostics
take one step at a time, so their working set does not grow with the step
count.
"""

import tracemalloc

import mpmath

import numpy as np
import pytest

from girsanovlab.engine import SCHEMES
from girsanovlab.girsanov import (
    BlockSummary,
    block_summary_dense,
    block_summary_dmulmc,
    block_summary_mlmc,
    block_summary_ulmc,
    drift_mlmc,
    drift_basis_dmulmc,
    drift_ulmc,
    _core_spectrum,
    _dmulmc_directions,
    _mlmc_step_factors,
    _power_estimate_mlmc,
    _spectral_fields,
    _trace_sum,
    summary_log_weight,
    tangents_dmulmc,
    trace_diagnostics_mlmc,
    trace_square_mlmc,
)
from girsanovlab.integrators import simulate_dmulmc, simulate_mlmc, simulate_ulmc
from girsanovlab.paths import (
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from girsanovlab.potentials import IsotropicQuadratic, PerturbedQuadratic, diagonal_matrices

GRID = TimeGrid(0.5, 3, 8)
N_PATHS = 32
EDGES = OverdampedSchedule(GRID, np.array([0, GRID.m - 1, GRID.m // 2]))


def _target():
    return PerturbedQuadratic((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0)


def _inputs(d):
    xi = noise_matrix(17, N_PATHS, GRID.n_cells, d)
    rng = np.random.default_rng(3)
    return xi, rng.normal(size=(N_PATHS, d)), rng.normal(size=(N_PATHS, d))


def _overdamped(schedule):
    pot = _target()
    xi, x0, _ = _inputs(pot.d)
    traj = simulate_mlmc(pot, schedule, x0, xi)
    blocks = SCHEMES["mlmc"].blocks(pot, traj)
    return xi, drift_mlmc(pot, traj), blocks, block_summary_mlmc(pot, traj)


def _frozen_gradient():
    pot = _target()
    xi, x0, p0 = _inputs(pot.d)
    traj = simulate_ulmc(pot, GRID, 1.0, x0, p0, xi)
    blocks = SCHEMES["ulmc"].blocks(pot, traj)
    return xi, drift_ulmc(pot, traj), blocks, block_summary_ulmc(pot, traj)


def _double_midpoint(schedule):
    pot = _target()
    xi, x0, p0 = _inputs(pot.d)
    traj = simulate_dmulmc(pot, schedule, 1.0, x0, p0, xi)
    blocks = SCHEMES["dmulmc"].blocks(pot, traj)
    return xi, SCHEMES["dmulmc"].drift(pot, traj), blocks, block_summary_dmulmc(pot, traj)


OVERDAMPED = {
    "mlmc-deterministic": OverdampedSchedule.deterministic(GRID),
    "mlmc-randomized": OverdampedSchedule.randomized(GRID, 5, 1),
    "em-ld": OverdampedSchedule.zero(GRID),
    # the band's edges: r = 0 (empty band slices), r = m − 1 and r = m/2
    "mlmc-edges": EDGES,
}
#: case → (ξ, ψ, dense blocks, structured summary)
CASES = {
    **{case: (lambda sched=sched: _overdamped(sched)) for case, sched in OVERDAMPED.items()},
    "ulmc": _frozen_gradient,
    "dmulmc-deterministic": lambda: _double_midpoint(UnderdampedSchedule.deterministic(GRID)),
    "dmulmc-randomized": lambda: _double_midpoint(UnderdampedSchedule.randomized(GRID, 5, 1)),
}
#: cases whose structured ρ is a power estimate, held to its own oracle below
POWER_CASES = ("mlmc-deterministic", "mlmc-randomized", "mlmc-edges")


def _weights(case):
    xi, psi, blocks, structured = CASES[case]()
    return (summary_log_weight(psi, block_summary_dense(blocks), xi),
            summary_log_weight(psi, structured, xi))


@pytest.mark.parametrize("case", sorted(CASES))
def test_structured_matches_dense(case):
    dense, structured = _weights(case)
    names = ("log_cf_det", "skorohod") + (() if case in POWER_CASES else ("spectral_radius",))
    for name in names:
        np.testing.assert_allclose(
            getattr(structured, name), getattr(dense, name), rtol=0.0, atol=1e-12,
            err_msg=name,
        )
    np.testing.assert_array_equal(structured.energy, dense.energy)
    np.testing.assert_array_equal(structured.invertible, dense.invertible)
    np.testing.assert_array_equal(structured.negative_det, dense.negative_det)
    if case.startswith(("mlmc", "dmulmc")):
        # the anticipating part is really exercised
        assert np.all(np.abs(dense.log_cf_det) > 1e-8)
        assert np.all(dense.spectral_radius > 1e-4)


@pytest.mark.parametrize("case", ["em-ld", "ulmc"])
def test_structured_adapted_correction_is_exactly_zero(case):
    _, structured = _weights(case)
    np.testing.assert_array_equal(structured.log_cf_det, 0.0)


@pytest.mark.parametrize("case", sorted(set(CASES) - set(POWER_CASES)))
def test_structured_rho_is_the_dense_spectral_radius(case):
    # per path and step: the small core's ρ is max |eigvals| of the dense block
    _, _, blocks, structured = CASES[case]()
    exact = np.abs(np.linalg.eigvals(blocks.diag)).max(axis=-1)
    np.testing.assert_allclose(structured.rho, exact, rtol=0.0, atol=1e-12)
    if case.startswith("dmulmc"):
        assert np.all(exact > 1e-4)  # the anticipating part is really exercised


def _power_oracle(D: np.ndarray) -> np.ndarray:
    """‖D·v₁₉‖ after 20 normalised power steps on dense (B, s, s) blocks."""
    s = D.shape[-1]
    v = np.ones(s) + np.linspace(0.0, 1.0, s)
    v = np.broadcast_to(v / np.linalg.norm(v), (D.shape[0], s))
    for _ in range(20):
        w = np.einsum("bij,bj->bi", D, v)
        nrm = np.linalg.norm(w, axis=-1)
        v = w / nrm[:, None]
    return nrm


@pytest.mark.parametrize("case", POWER_CASES + ("em-ld",))
def test_mlmc_rho_is_the_leading_cells_power_estimate(case):
    # no cell j ≥ r reaches a cell i < r, so D is block lower-triangular across
    # the midpoint cell, ρ(D) = ρ(D₁₁), and the estimate runs on D₁₁ alone
    _, _, blocks, structured = CASES[case]()
    d = _target().d
    for k, r in enumerate(OVERDAMPED[case].indices):
        D = blocks.diag[:, k]
        np.testing.assert_array_equal(D[:, : r * d, r * d :], 0.0)
        if r == 0:
            np.testing.assert_array_equal(structured.rho[:, k], 0.0)
            continue
        oracle = _power_oracle(D[:, : r * d, : r * d])
        np.testing.assert_allclose(structured.rho[:, k], oracle, rtol=0.0, atol=1e-12)


class _DensePerturbed(PerturbedQuadratic):
    diagonal_hessian = False


def test_mlmc_power_estimate_at_the_benchmark_shape():
    # the cell-major iterate at d = 8, m = 32 and B = 16: a step with r = 16
    # (the deterministic midpoint) and one with r = 1, a single leading cell
    pot = PerturbedQuadratic(np.linspace(1.0, 2.0, 8), amplitude=0.1, frequency=1.0)
    d, grid = pot.d, TimeGrid(0.25, 2, 32)
    schedule = OverdampedSchedule(grid, np.array([16, 1]))
    xi = noise_matrix(8, 16, grid.n_cells, d)
    traj = simulate_mlmc(pot, schedule, np.random.default_rng(4).normal(size=(16, d)), xi)
    blocks = SCHEMES["mlmc"].blocks(pot, traj)
    rho = block_summary_mlmc(pot, traj).rho
    for k, r in enumerate(schedule.indices):
        oracle = _power_oracle(blocks.diag[:, k, : r * d, : r * d])
        assert np.all(oracle > 1e-3)
        np.testing.assert_allclose(rho[:, k], oracle, rtol=0.0, atol=1e-12)
    # the same target forced onto the dense matmul branch: the same bits
    dense = _DensePerturbed(np.linspace(1.0, 2.0, 8), amplitude=0.1, frequency=1.0)
    np.testing.assert_array_equal(block_summary_mlmc(dense, traj).rho, rho)


def _synthetic_mlmc_factors(scale: float, B: int = 4, r: int = 5, d: int = 3, eta: float = 0.1):
    """Diagonal factors H (B, r, d), C_i = η·(iη·H_i·H⁺ + H⁺), both times ``scale``."""
    rng = np.random.default_rng(11)
    H, Hp = rng.uniform(1.0, 2.0, (B, r, d)), rng.uniform(1.0, 2.0, (B, 1, d))
    C = eta * (eta * np.arange(r)[:, None] * H * Hp + Hp)
    return scale * H, scale * C, eta


def _mlmc_leading_block(H: np.ndarray, C: np.ndarray, eta: float) -> np.ndarray:
    """Dense D₁₁ (B, r·d, r·d) of diagonal factors: block (i, j) = η·H_i·1_{j<i} − C_i."""
    B, r, d = H.shape
    cells = np.tri(r, r, -1)[:, :, None] * eta * H[:, :, None] - C[:, :, None]
    return diagonal_matrices(cells).swapaxes(2, 3).reshape(B, r * d, r * d)


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_mlmc_power_estimate_holds_far_from_unit_radius(scale):
    # an iterate normalised every few steps stays finite and normal across
    # 60 decades of ρ, and matches the oracle normalised at every step
    H, C, eta = _synthetic_mlmc_factors(scale)
    oracle = _power_oracle(_mlmc_leading_block(H, C, eta))
    assert np.all((oracle > 1e-2 * scale) & (oracle < 1e2 * scale))
    rho = _power_estimate_mlmc(H, C, eta, True)
    np.testing.assert_allclose(rho, oracle, rtol=1e-12, atol=0.0)
    dense = _power_estimate_mlmc(diagonal_matrices(H), diagonal_matrices(C), eta, False)
    np.testing.assert_array_equal(dense, rho)


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_mlmc_power_estimate_overflow_reads_inf_and_is_rejected(scale):
    # the squared norm (1e200) or the iterate itself (1e300) overflows: ρ is
    # inf, never NaN or a normalised-away zero, and the rule rejects the path
    H, C, eta = _synthetic_mlmc_factors(scale)
    for rho in (_power_estimate_mlmc(H, C, eta, True),
                _power_estimate_mlmc(diagonal_matrices(H), diagonal_matrices(C), eta, False)):
        np.testing.assert_array_equal(rho, np.inf)
        B, d = rho.size, H.shape[-1]
        ones, zeros = np.ones((B, 1)), np.zeros((B, 1))
        w = summary_log_weight(np.zeros((B, 1, d)), BlockSummary(ones, zeros, zeros, rho[:, None]),
                               np.zeros((B, 1, d)))
        assert not w.invertible.any()


def _dmulmc_fields(WtU: np.ndarray, diagonal: bool) -> tuple:
    """(sign, det₂, ρ, tr) of one step's cores, as the summary forms them."""
    lam, trace = _core_spectrum(WtU, diagonal)
    return (*_spectral_fields(lam), trace)


def test_dmulmc_summary_workspace_carries_no_state():
    # one tangent rule, and so one sweep workspace, serves every step of a
    # summary: on a randomized schedule, whose (r⁻, r⁺) differ by step, each
    # step equals a fresh rule's, and a second summary of the path equals the
    # first, bit for bit
    pot = _target()
    sched = UnderdampedSchedule.randomized(GRID, 5, 2)
    assert len(set(zip(sched.indices_minus, sched.indices_plus))) == GRID.N
    xi, x0, p0 = _inputs(pot.d)
    traj = simulate_dmulmc(pot, sched, 1.0, x0, p0, xi)
    first, second = block_summary_dmulmc(pot, traj), block_summary_dmulmc(pot, traj)
    # the target's Hessian is diagonal, so the summary reads the compact directions
    assert pot.diagonal_hessian
    dirs = _dmulmc_directions(traj, True)
    assert dirs.shape == (GRID.m, pot.d, 2)
    for k in range(GRID.N):
        WtU = tangents_dmulmc(pot, traj)(k, dirs, None)[0]
        fresh = _dmulmc_fields(WtU, True)
        for name, want in zip(("sign", "det2", "rho", "trace"), fresh):
            np.testing.assert_array_equal(getattr(first, name)[:, k], want, err_msg=name)
    for name in ("sign", "det2", "trace", "rho"):
        np.testing.assert_array_equal(getattr(second, name), getattr(first, name), err_msg=name)


def test_structured_singular_block_gives_minus_inf():
    # d = 1, m = 2, r = 1: det(I + D) = 1 − η·H⁺, zero at η·H⁺ = 1
    pot = IsotropicQuadratic(1, scale=2.0)
    grid = TimeGrid(1.0, 1, 2)
    schedule = OverdampedSchedule(grid, np.array([1]))
    xi = noise_matrix(2, 3, grid.n_cells, 1)
    traj = simulate_mlmc(pot, schedule, np.zeros((3, 1)), xi)
    psi = drift_mlmc(pot, traj)
    dense = summary_log_weight(psi, block_summary_dense(SCHEMES["mlmc"].blocks(pot, traj)), xi)
    structured = summary_log_weight(psi, block_summary_mlmc(pot, traj), xi)
    assert np.all(dense.log_cf_det == -np.inf)
    assert np.all(structured.log_cf_det == -np.inf)
    assert not structured.invertible.any()
    assert not structured.negative_det.any()


def test_summary_weight_flags_singular_and_negative_steps():
    ones = np.ones((1, 2))
    psi = np.zeros((1, 4, 1))
    xi = np.zeros((1, 4, 1))
    singular = BlockSummary(np.array([[1.0, 0.0]]), 0 * ones, 0 * ones, 0 * ones)
    lw = summary_log_weight(psi, singular, xi)
    assert lw.log_cf_det[0] == -np.inf and not lw.invertible[0]
    # log|det| = 0 and tr = −1 per step: det₂ = 1 per step
    flipped = BlockSummary(np.array([[1.0, -1.0]]), ones, -ones, 0 * ones)
    lw = summary_log_weight(psi, flipped, xi)
    assert lw.log_cf_det[0] == pytest.approx(2.0)
    assert lw.skorohod[0] == pytest.approx(2.0)
    assert lw.negative_det[0] and lw.invertible[0]


@pytest.mark.parametrize("scheme", ["ulmc", "em-ld"])
def test_nilpotent_blocks_read_zero_spectral_radius(scheme):
    # frozen-gradient and EM-LD blocks are strictly lower triangular over
    # m = 24 cells, so ρ = 0, where 20 power steps would leave a norm of order
    # 1e-5: both routes read exactly 0
    pot = PerturbedQuadratic((1.0, 2.0), amplitude=0.1, frequency=1.0)
    grid = TimeGrid(0.5, 2, 24)
    xi = noise_matrix(1, 4, grid.n_cells, 2)
    if scheme == "ulmc":
        traj = simulate_ulmc(pot, grid, 1.0, np.zeros((4, 2)), np.zeros((4, 2)), xi)
        blocks, structured = SCHEMES["ulmc"].blocks(pot, traj), block_summary_ulmc(pot, traj)
    else:
        traj = simulate_mlmc(pot, OverdampedSchedule.zero(grid), np.zeros((4, 2)), xi)
        blocks, structured = SCHEMES["mlmc"].blocks(pot, traj), block_summary_mlmc(pot, traj)
    assert np.array_equal(np.triu(blocks.diag), np.zeros_like(blocks.diag))
    assert np.any(blocks.diag != 0.0)
    for summary in (block_summary_dense(blocks), structured):
        np.testing.assert_array_equal(summary.rho, 0.0)
        np.testing.assert_array_equal(summary.det2, 0.0)
        np.testing.assert_array_equal(summary.sign, 1.0)


@pytest.mark.parametrize("scale", [1e-30, 1.0, 1e30])
@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("r", [0, 1, 16, 31])
def test_mlmc_trace_is_the_dense_einsum_bit_for_bit(r, d, scale):
    # Σ_i tr C_i from the compact diagonal, in either factor form, against
    # the einsum over the dense matrices that the summary once expanded C to;
    # zeros of either sign and entries spread over six decades included
    rng = np.random.default_rng(1000 * r + d)
    C = scale * rng.standard_normal((64, r, d)) * np.exp(3.0 * rng.standard_normal((64, r, d)))
    C[:8] = -0.0
    C[8:16, ::2] = -0.0
    dense = rng.standard_normal((64, r, d, d)) * scale
    dense[:8] = -0.0
    for cells, matrices in ((C, diagonal_matrices(C)),
                            (np.diagonal(dense, axis1=-2, axis2=-1), dense)):
        got, want = _trace_sum(cells), np.einsum("biaa->b", matrices)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_em_ld_trace_reads_minus_zero():
    # r = 0: tr D = −(an empty sum), −0.0 on every path and step, as the
    # einsum over an empty dense C gave
    pot = PerturbedQuadratic((1.0, 2.0), amplitude=0.1, frequency=1.0)
    traj = simulate_mlmc(pot, OverdampedSchedule.zero(GRID), np.ones((4, 2)),
                         noise_matrix(1, 4, GRID.n_cells, 2))
    trace = block_summary_mlmc(pot, traj).trace
    assert trace.shape == (4, GRID.N)
    assert np.all(trace == 0.0) and np.all(np.signbit(trace))


def _mp_det2(core: np.ndarray, shift) -> mpmath.mpf:
    """log|det(I + K)| − shift at 40 digits, for a float64 matrix K and an mpf shift."""
    K = mpmath.matrix(core.tolist())
    return mpmath.log(abs(mpmath.det(mpmath.eye(K.rows) + K))) - shift


def test_dmulmc_det2_matches_a_40_digit_oracle():
    # one DM-ULMC step on d = 1 at N = 1024 (h = 1/1024, m = 48): det₂ is
    # about −1e-15 per step, below the O(ε) error of log|det| − tr
    pot = IsotropicQuadratic(1)
    grid = TimeGrid(1.0 / 1024, 1, 48)
    xi = noise_matrix(3, 2, grid.n_cells, 1)
    traj = simulate_dmulmc(pot, UnderdampedSchedule.deterministic(grid), 1.0,
                           np.zeros((2, 1)), np.zeros((2, 1)), xi)
    summary = block_summary_dmulmc(pot, traj)
    dirs = drift_basis_dmulmc(traj)[0].reshape(grid.m, 1, 2)
    core = tangents_dmulmc(pot, traj)(0, dirs, None)[0]  # Wᵀ·U, (B, 2, 2)
    with mpmath.workdps(40):
        for b in range(2):
            exact = _mp_det2(core[b], mpmath.fsum(mpmath.mpf(x) for x in np.diag(core[b])))
            assert abs(exact) > 1e-16
            assert abs(mpmath.mpf(summary.det2[b, 0]) - exact) <= 1e-20


def test_separable_dmulmc_det2_matches_a_40_digit_oracle():
    # the same step on a diagonal Hessian, from a start where ∇²V varies: the
    # summary's core is the closed-form 2 × 2 one, not eigvals
    pot = PerturbedQuadratic((1.0,), amplitude=0.1, frequency=1.0)
    assert pot.diagonal_hessian
    grid = TimeGrid(1.0 / 1024, 1, 48)
    xi = noise_matrix(3, 2, grid.n_cells, 1)
    traj = simulate_dmulmc(pot, UnderdampedSchedule.deterministic(grid), 1.0,
                           np.array([[0.7], [-1.3]]), np.zeros((2, 1)), xi)
    summary = block_summary_dmulmc(pot, traj)
    core = tangents_dmulmc(pot, traj)(0, _dmulmc_directions(traj, True), None)[0]  # (B, 2, 2)
    with mpmath.workdps(40):
        for b in range(2):
            exact = _mp_det2(core[b], mpmath.fsum(mpmath.mpf(x) for x in np.diag(core[b])))
            assert abs(exact) > 1e-16
            assert abs(mpmath.mpf(summary.det2[b, 0]) - exact) <= 1e-20


def test_mlmc_det2_matches_a_40_digit_oracle():
    # det₂ = log|det(I_d − Ŷ)| + tr Ĉ, with the recurrence for Ŷ run at 40
    # digits on the same float64 factors H_i, C_i: the target's Hessian is
    # diagonal, so they are its (B, r, d) diagonals
    pot = _target()
    assert pot.diagonal_hessian
    grid = TimeGrid(1.0, 1024, 8)
    xi = noise_matrix(4, 2, grid.n_cells, pot.d)
    traj = simulate_mlmc(pot, OverdampedSchedule.deterministic(grid), _inputs(pot.d)[1][:2], xi)
    summary = block_summary_mlmc(pot, traj)
    with mpmath.workdps(40):
        for k in (0, 511, 1023):
            H, C = _mlmc_step_factors(pot, traj, k)
            for b in range(2):
                Hs = [mpmath.diag(h.tolist()) for h in H[b]]
                Cs = [mpmath.diag(c.tolist()) for c in C[b]]
                prefix = mpmath.zeros(pot.d, pot.d)
                for i in range(len(Cs)):
                    prefix += Cs[i] - grid.eta * Hs[i] * prefix
                tr_c = mpmath.fsum(c[a, a] for c in Cs for a in range(pot.d))
                exact = _mp_det2(-prefix, -tr_c)
                assert abs(exact) > 1e-9
                assert abs(mpmath.mpf(summary.det2[b, k]) - exact) <= 1e-20


@pytest.mark.parametrize(
    "schedule",
    [OverdampedSchedule.deterministic(GRID), OverdampedSchedule.randomized(GRID, 5, 1),
     EDGES, OverdampedSchedule.zero(GRID)],
    ids=["deterministic", "randomized", "edges", "em-ld"],
)
@pytest.mark.parametrize("pot", [IsotropicQuadratic(2), _target()], ids=["isotropic", "perturbed"])
def test_trace_square_matches_dense_blocks(pot, schedule):
    xi, x0, _ = _inputs(pot.d)
    traj = simulate_mlmc(pot, schedule, x0, xi)
    diag = SCHEMES["mlmc"].blocks(pot, traj).diag
    dense = np.einsum("bnij,bnji->bn", diag, diag)
    # the anticipating part is really exercised (a step with r = 0 has D = 0)
    assert np.all(np.abs(dense[:, schedule.indices > 0]) > 1e-6)
    np.testing.assert_allclose(trace_square_mlmc(pot, traj), dense, rtol=0.0, atol=1e-12)


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs, after one untraced warm-up call."""
    fn()  # first calls load what they lazily import and build cached kernels
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "summary",
    [block_summary_mlmc, trace_square_mlmc, block_summary_dmulmc, block_summary_ulmc,
     trace_diagnostics_mlmc],
    ids=lambda f: f.__name__,
)
def test_generic_summary_working_set_does_not_grow_with_steps(monkeypatch, summary):
    # each step's Hessians and factors exist only while that step is
    # summarised: at the same B, m and d, N = 16 peaks no higher than N = 2
    pot = PerturbedQuadratic(np.linspace(1.0, 2.0, 6), amplitude=0.1, frequency=1.0)
    n_paths, m, h = 64, 16, 0.25
    peaks = {}
    for N in (2, 16):
        grid = TimeGrid(N * h, N, m)
        xi = noise_matrix(5, n_paths, grid.n_cells, pot.d)
        x0 = np.random.default_rng(2).normal(size=(n_paths, pot.d))
        if summary is block_summary_dmulmc:
            traj = simulate_dmulmc(pot, UnderdampedSchedule.deterministic(grid), 1.0, x0,
                                   np.zeros_like(x0), xi)
        elif summary is block_summary_ulmc:
            traj = simulate_ulmc(pot, grid, 1.0, x0, np.zeros_like(x0), xi)
        else:
            traj = simulate_mlmc(pot, OverdampedSchedule.deterministic(grid), x0, xi)
        peaks[N] = _traced_peak(lambda: summary(pot, traj))
    assert peaks[16] <= 1.25 * peaks[2] + 2**19, peaks
    if summary is block_summary_ulmc:
        # the nilpotent block's summary is exact without any Hessian
        def no_hessian(x, **_):
            raise AssertionError("the frozen-gradient summary evaluated a Hessian")

        monkeypatch.setattr(pot, "hessian", no_hessian)
        summary(pot, traj)



def test_dmulmc_summary_working_set_is_linear_in_d_on_a_separable_target():
    # a diagonal Hessian's fixed point runs on 2 directions, not 2d, so its
    # buffers are (B, m+1, d, 2): 4× the dimension costs about 4× the memory,
    # where 2d columns would cost about 16×
    n_paths, N, m, h = 64, 2, 16, 0.25
    grid = TimeGrid(N * h, N, m)
    peaks = {}
    for d in (8, 32):
        pot = PerturbedQuadratic(np.linspace(1.0, 2.0, d), amplitude=0.1, frequency=1.0)
        xi = noise_matrix(5, n_paths, grid.n_cells, d)
        x0 = np.random.default_rng(2).normal(size=(n_paths, d))
        traj = simulate_dmulmc(pot, UnderdampedSchedule.deterministic(grid), 1.0, x0,
                               np.zeros_like(x0), xi)
        peaks[d] = _traced_peak(lambda: block_summary_dmulmc(pot, traj))
    assert peaks[32] <= 5 * peaks[8], peaks


def test_trace_diagnostics_evaluate_only_the_hessians_they_read():
    # step k reads ∇²V at nodes 0..r_k and at X⁺_k, and no node Hessian when
    # r_k = 0: on the band's edges, B·(N + (m − 1 + 1) + (m/2 + 1)) points
    points = []

    class Counting(PerturbedQuadratic):
        def hessian(self, x, factor=False):
            points.append(np.size(x) // self.d)
            return super().hessian(x, factor)

    pot = Counting((1.0, 1.5, 2.0), amplitude=0.1, frequency=1.0)
    xi, x0, _ = _inputs(pot.d)
    traj = simulate_mlmc(pot, EDGES, x0, xi)
    diagnostics = trace_diagnostics_mlmc(pot, traj)
    r = EDGES.indices
    assert sum(points) == N_PATHS * (GRID.N + np.sum(np.where(r > 0, r + 1, 0)))
    # the trapezoid still reaches the node at τ = r·η
    np.testing.assert_array_equal(diagnostics.limit_ba[:, 0], 0.0)
    assert np.all(diagnostics.limit_ba[:, 1:] != 0.0)
