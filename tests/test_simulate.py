"""Monte Carlo mild-solution machinery: determinism, exact cases, ensembles."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import sqrtm

from conftest import TEST_THREADS
from fracstorm import simulate
from fracstorm.errors import DomainError, NumericsError, integer
from fracstorm.fracfun import mode_decay
from fracstorm.kernels import apply_semigroup, riesz_kernel_matrix
from fracstorm.params import ModelParams, NoiseModel
from fracstorm.simulate import (
    BLOWUP_GUARD,
    SimConfig,
    SigmaSpec,
    simulate_mild,
    table_sigma,
)


#: the replicate chunk; the counts below are chosen around it so that the
#: tests cover a partial chunk, a one-replicate chunk and the fold across chunks
CHUNK = simulate._CHUNK


@pytest.fixture
def white_params():
    return ModelParams(alpha=2.0, beta=0.5, lam=1.0)


def _pairwise_tree_sum(parts):
    """Reference: sum a list of equal-shape arrays by a fixed balanced pairwise tree."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to reduce")
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_tree_sum_and_fold_make_the_pairs_of_the_list_tree(count, seed):
    # mixed magnitudes make the sum depend on its association, so a fold
    # that pairs the parts in another order differs in the last bits
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((count, 3, 5)) * 10.0 ** rng.integers(-12, 13, (count, 3, 5))
    ref = _pairwise_tree_sum(list(parts))
    assert np.array_equal(simulate._tree_sum(parts), ref)
    assert np.array_equal(simulate._tree_fold(iter(parts)), ref)


def test_tree_sum_and_fold_refuse_nothing():
    with pytest.raises(ValueError):
        simulate._tree_sum(np.empty((0, 3)))
    with pytest.raises(ValueError):
        simulate._tree_fold(iter([]))


def test_same_seed_is_bitwise_reproducible(eigen_cache, bump, white_params):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    cfg = SimConfig(nt=16, T=0.05, replicates=CHUNK + 6, seed=41)
    a = simulate_mild(white_params, es, u0, cfg)
    b = simulate_mild(white_params, es, u0, cfg)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)


def test_thread_count_does_not_change_results(eigen_cache, bump, white_params):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    cfg = SimConfig(nt=16, T=0.05, replicates=200, seed=7)
    seq = simulate_mild(white_params, es, u0, cfg, threads=1)
    par = simulate_mild(white_params, es, u0, cfg, threads=TEST_THREADS)
    assert np.array_equal(seq.mean, par.mean)
    assert np.array_equal(seq.stderr, par.stderr)


def test_multi_block_run_is_bitwise_reproducible(eigen_cache, bump, white_params):
    # nt = 37 spans two full history blocks and a partial one
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    cfg = SimConfig(nt=37, T=0.05, replicates=CHUNK + 6, seed=41)
    a = simulate_mild(white_params, es, u0, cfg)
    b = simulate_mild(white_params, es, u0, cfg)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)


def test_multi_block_thread_count_does_not_change_results(eigen_cache, bump, white_params):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    cfg = SimConfig(nt=37, T=0.05, replicates=200, seed=7)
    seq = simulate_mild(white_params, es, u0, cfg, threads=1)
    par = simulate_mild(white_params, es, u0, cfg, threads=TEST_THREADS)
    assert np.array_equal(seq.mean, par.mean)
    assert np.array_equal(seq.stderr, par.stderr)


@pytest.mark.parametrize("threads", [0, -3, 2.5, 2.0, "2", None])
def test_thread_count_must_be_an_integer_at_least_one(eigen_cache, bump, white_params, threads):
    es = eigen_cache(2.0, 24)
    cfg = SimConfig(nt=4, T=0.05, replicates=2, seed=0)
    with pytest.raises(DomainError, match="threads"):
        simulate_mild(white_params, es, bump(es), cfg, threads=threads)


def test_numpy_integer_thread_count_is_accepted(eigen_cache, bump, white_params):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    cfg = SimConfig(nt=4, T=0.05, replicates=2, seed=0)
    a = simulate_mild(white_params, es, u0, cfg, threads=np.int64(2))
    assert np.array_equal(a.mean, simulate_mild(white_params, es, u0, cfg).mean)


def test_different_seeds_differ(eigen_cache, bump, white_params):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    a = simulate_mild(white_params, es, u0,
                      SimConfig(nt=16, T=0.05, replicates=16, seed=0))
    b = simulate_mild(white_params, es, u0,
                      SimConfig(nt=16, T=0.05, replicates=16, seed=1))
    assert not np.array_equal(a.mean, b.mean)


def test_zero_noise_level_reproduces_deterministic_flow(eigen_cache, bump):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=0.0)
    cfg = SimConfig(nt=12, T=0.1, replicates=8, seed=3)
    est = simulate_mild(p, es, u0, cfg)
    assert np.all(est.stderr == 0.0)
    for j, t in enumerate(est.times):
        det = u0 if t == 0.0 else apply_semigroup(es, 0.5, float(t), u0)
        assert np.max(np.abs(est.mean[j] - det ** 2)) < 1e-12


def test_zero_initial_data_stays_zero(eigen_cache, white_params):
    # sigma(0) = 0, so the zero field is an absorbing state.
    es = eigen_cache(2.0, 24)
    est = simulate_mild(white_params, es, np.zeros(24),
                        SimConfig(nt=12, T=0.1, replicates=8, seed=9))
    assert np.all(est.mean == 0.0) and np.all(est.stderr == 0.0)


def test_stderr_shrinks_with_replicates(eigen_cache, bump, white_params):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    small = simulate_mild(white_params, es, u0,
                          SimConfig(nt=16, T=0.05, replicates=128, seed=5),
                          threads=TEST_THREADS)
    large = simulate_mild(white_params, es, u0,
                          SimConfig(nt=16, T=0.05, replicates=512, seed=5),
                          threads=TEST_THREADS)
    ratio = np.median(large.stderr[-1] / small.stderr[-1])
    assert ratio == pytest.approx(0.5, abs=0.15)


def test_blowup_guard_counts_and_excludes(eigen_cache, bump):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    # Forcing strength chosen so that some replicates diverge and some stay
    # bounded over this horizon: the estimate must report the split and keep
    # the surviving statistics finite.
    p = ModelParams(alpha=2.0, beta=0.5, lam=6e5)
    est = simulate_mild(p, es, u0,
                        SimConfig(nt=16, T=0.5, replicates=32, seed=0))
    assert est.blowups > 0
    assert est.replicates_used >= 2
    assert est.replicates_used + est.blowups == 32
    assert np.all(np.isfinite(est.mean))
    assert np.all(np.isfinite(est.stderr))


@pytest.mark.parametrize("poison", [1e300, np.nan])
def test_guard_catches_an_infinite_and_a_nan_amplitude(tmp_path, monkeypatch, eigen_cache,
                                                      bump, poison):
    # Zero noise everywhere but one increment of replicate 3 at step 21 (the
    # second block).  With lam = 1e300 the finite 1e300 increment makes
    # lam * (phi @ conv) overflow, so that replicate's amplitude is +-inf;
    # a NaN increment makes it NaN.  Every other replicate follows G_B u0.
    real = simulate._increments
    blocks = []

    def poisoned(noise, grid, dt, z, factor):
        dW = np.zeros_like(real(noise, grid, dt, z, factor))
        if len(blocks) == 1:
            dW[3, 5] = poison
        blocks.append(dW.shape)
        return dW

    monkeypatch.setattr(simulate, "_increments", poisoned)
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=1e300)
    cfg = SimConfig(nt=37, T=0.05, replicates=8, seed=0)
    path = tmp_path / "ensemble.bin"
    with open(path, "wb") as stream:
        if np.isnan(poison):
            est = simulate_mild(p, es, u0, cfg, ensemble=stream)
        else:
            with pytest.warns(RuntimeWarning, match="overflow"):
                est = simulate_mild(p, es, u0, cfg, ensemble=stream)
    assert blocks == [(8, 16, 24), (8, 16, 24), (8, 5, 24)]
    assert (est.blowups, est.replicates_used) == (1, 7)
    with open(path, "rb") as fh:
        fh.readline()
        got = np.fromfile(fh, dtype=[("rep", "<u4"), ("ti", "<u4"), ("xi", "<u4"),
                                     ("value", "<f8")])["value"].reshape(8, 38, 24)
    det = np.vstack([u0, apply_semigroup(es, 0.5, np.arange(1, 38) * cfg.T / 37, u0)])
    assert np.all(np.isnan(got[3, 22:])) and np.array_equal(got[3, :22], det[:22])
    assert np.array_equal(np.delete(got, 3, axis=0), np.broadcast_to(det, (7, 38, 24)))
    assert np.allclose(est.mean, det ** 2, rtol=1e-15, atol=0.0)


def test_one_chunk_holds_one_block_of_noise(eigen_cache, bump, white_params):
    # One full chunk at the mc-white grid: its history, the shared Hankel
    # table and c = 4.5 block-sized arrays.  Three are one block of normals
    # (white noise scales them into increments in place), the block's older
    # sums and its squared paths; the rest covers the step temporaries and
    # the (nt+1, n) tables (det, decay, the chunk's sums).  Measured: 23.0 MB
    # of the 23.6 MB bound.  A chunk that kept its squared paths, (nrep,
    # nt+1, n) doubles (8.4 MB), or drew all its noise up front (16.8 MB)
    # would not fit, nor would one that held the last block's older sums
    # while it builds the next (1.05 MB).
    es = eigen_cache(2.0, 64)
    u0 = bump(es)
    nrep, nt, n, nmodes = CHUNK, 256, 64, es.phi.shape[1]
    # a power of two, so that the replicate tree of one chunk is the tree
    # over aligned chunks of any smaller power of two: chunks of 128 sum a
    # run without blow-ups exactly as chunks of 64 did
    assert CHUNK & (CHUNK - 1) == 0
    # a first call pays the one-time lazy imports outside the traced peak
    simulate_mild(white_params, es, u0, SimConfig(nt=4, T=0.1, replicates=2, seed=0))
    tracemalloc.start()
    try:
        simulate_mild(white_params, es, u0, SimConfig(nt=nt, T=0.1, replicates=nrep, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = nrep * simulate._BLOCK * n
    bound = 8 * (nmodes * nt * nrep + nmodes * simulate._BLOCK * nt + 4.5 * block)
    assert peak <= bound


@pytest.mark.parametrize("lam, replicates, kept", [(1.0, 300, 300), (7e4, CHUNK + 6, 42)])
def test_time_zero_mean_and_stderr_are_exact(eigen_cache, bump, lam, replicates, kept):
    # every replicate starts at u0, so at t = 0 the mean is u0^2 and the
    # standard error 0, bit for bit, with and without blow-ups
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    est = simulate_mild(ModelParams(alpha=2.0, beta=0.5, lam=lam), es, u0,
                        SimConfig(nt=20, T=0.5, replicates=replicates, seed=0))
    assert est.replicates_used == kept
    assert np.array_equal(est.stderr[0], np.zeros(24))
    assert np.array_equal(est.mean[0], u0 ** 2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_initial_data_is_refused(eigen_cache, bump, white_params, bad):
    es = eigen_cache(2.0, 24)
    u0 = bump(es).copy()
    u0[5] = bad
    with pytest.raises(DomainError, match="u0 must be finite"):
        simulate_mild(white_params, es, u0, SimConfig(nt=4, T=0.05, replicates=4, seed=0))


def test_blowup_of_every_replicate_is_an_error(eigen_cache, bump):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=1e90)
    with pytest.raises(NumericsError, match="blow-up guard"):
        simulate_mild(p, es, u0,
                      SimConfig(nt=16, T=0.5, replicates=8, seed=0))


def _direct_paths(params, es, u0, config):
    """Reference: every replicate's path by the direct per-lag history sum.

    All replicates evolve as one batch.  Each step sums e[n-m] hist[m] over
    every lag m <= n in one einsum, with the half-lag decay table, noise
    drawn from its covariance on replicate r's Philox stream keyed (seed, r),
    and the blow-up rule: a replicate whose amplitude passes the guard or
    turns NaN is zeroed, its history with it, and counted once; it gets no
    noise after that, and its path is NaN from its blow-up step on.  It calls
    nothing of the scheme's noise path.
    Returns (paths, alive, blowups).
    """
    nt, nrep, grid, phi = config.nt, config.replicates, es.grid, es.phi
    dt = config.T / nt
    e_tab = mode_decay(es.mu, params.beta, (np.arange(nt) + 0.5) * dt)
    det = np.vstack([u0, apply_semigroup(es, params.beta, np.arange(1, nt + 1) * dt, u0)])
    # white: N(0, dt h) per cell; Riesz: F z sqrt(dt) h with F the symmetric
    # square root of the cell-pair covariance C, so its covariance is dt h^2 C
    riesz = params.noise.kind == "riesz"
    if riesz:
        F = sqrtm(riesz_kernel_matrix(grid, params.noise.gamma))
    dW = np.empty((nrep, nt, grid.n))
    for r in range(nrep):
        rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, r], dtype=np.uint64)))
        for n in range(nt):
            z = rng.standard_normal(grid.n)
            dW[r, n] = F @ z * math.sqrt(dt) * grid.h if riesz else z * math.sqrt(dt * grid.h)
    paths = np.empty((nrep, nt + 1, grid.n))
    paths[:, 0] = u = np.tile(u0, (nrep, 1))
    hist = np.zeros((nt, nrep, phi.shape[1]))
    alive = np.ones(nrep, dtype=bool)
    blowups = 0
    for n in range(nt):
        q = config.sigma(u) * dW[:, n]
        q[~alive] = 0.0
        hist[n] = q @ phi
        conv = np.einsum("mrk,mk->rk", hist[: n + 1], e_tab[n::-1])
        u = det[n + 1] + params.lam * (conv @ phi.T)
        bad = ~np.all(np.abs(u) < BLOWUP_GUARD, axis=1)
        newly = bad & alive
        alive &= ~bad
        u[bad] = 0.0
        hist[: n + 1, newly] = 0.0
        blowups += int(np.count_nonzero(newly))
        paths[:, n + 1] = u
        paths[~alive, n + 1] = np.nan
    return paths, alive, blowups


# The blocked and direct sums add the same products per mode in another
# order, so a step's sums differ by a few ulp of their absolute sums, which
# the later steps carry forward; the pairwise and plain replicate averages
# differ by a few ulp more.  The Riesz oracle also takes its own square root
# of C, equal to the scheme's to a few ulp.  Measured: at most 2.9e-15
# relative for white noise at lam <= 3, 3.4e-15 for Riesz noise, 2.0e-15 for
# the bounded sigma at lam = 3e75, and 1.8e-14 in the blow-up-count cases,
# whose lam ~ 1e5 amplifies every step's rounding.
_ORACLE_CASES = {
    "white-default-sigma": (ModelParams(alpha=2.0, beta=0.5, lam=1.0), SigmaSpec(slope=1.0)),
    "white-linear-sigma": (ModelParams(alpha=2.0, beta=0.5, lam=2.0), SigmaSpec(slope=1.5)),
    "riesz-table-sigma": (ModelParams(alpha=2.0, beta=0.5, lam=3.0,
                                      noise=NoiseModel("riesz", gamma=0.5)),
                          table_sigma([-2.0, 0.0, 1.0, 3.0], [-1.0, 0.0, 2.0, 2.5])),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
@pytest.mark.parametrize("replicates", [70, 65, CHUNK + 6, CHUNK + 1])
def test_blocked_history_matches_direct_lag_sum(eigen_cache, bump, case, replicates):
    # nt = 37 is two full history blocks and a partial one; 70 and 65
    # replicates are one partial chunk, CHUNK + 6 are a full chunk and one of
    # 6, and CHUNK + 1 leave a chunk of one replicate
    params, sigma = _ORACLE_CASES[case]
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    cfg = SimConfig(nt=37, T=0.05, replicates=replicates, seed=11, sigma=sigma)
    est = simulate_mild(params, es, u0, cfg)
    paths, alive, blowups = _direct_paths(params, es, u0, cfg)
    assert (est.blowups, est.replicates_used) == (blowups, replicates) == (0, replicates)
    ref = (paths ** 2).mean(axis=0)
    assert np.all(np.abs(est.mean - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("lam, sigma, dead", [
    (1.0, SigmaSpec(slope=1.0), 0),
    (3e75, table_sigma([-2.0, -1.0, 0.0, 1.0, 2.0], [-1.0, -1.0, 0.0, 1.0, 1.0]), 42),
])
def test_streamed_ensemble_matches_direct_lag_sum(tmp_path, eigen_cache, bump, lam, sigma, dead):
    # The table's flat ends extend as constants, so |sigma| <= 1.  At
    # lam = 3e75 the bounded sigma keeps |u| near lam times a random
    # factor, so the guard trips at random steps in all three blocks and the
    # survivors stay finite.  A dead replicate streams NaN from its blow-up
    # step on, and only then.
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=lam)
    nrep = CHUNK + 6
    cfg = SimConfig(nt=37, T=0.05, replicates=nrep, seed=0, sigma=sigma)
    path = tmp_path / "ensemble.bin"
    with open(path, "wb") as stream:
        est = simulate_mild(p, es, u0, cfg, ensemble=stream)
    with open(path, "rb") as fh:
        fh.readline()
        rec = np.fromfile(fh, dtype=[("rep", "<u4"), ("ti", "<u4"), ("xi", "<u4"),
                                     ("value", "<f8")])
    got = rec["value"].reshape(nrep, 38, 24)
    paths, alive, blowups = _direct_paths(p, es, u0, cfg)
    assert est.blowups == blowups == dead and est.replicates_used == nrep - dead
    assert np.array_equal(np.isnan(got), np.isnan(paths))
    live = ~np.isnan(paths).any(axis=2)
    scale = np.abs(paths[live]).max(axis=1, keepdims=True)
    assert np.all(np.abs(got[live] - paths[live]) <= 1e-13 * scale)
    ref = (paths[alive] ** 2).mean(axis=0)
    assert np.all(np.abs(est.mean - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("lam, dead", [(7e4, 92), (6e4, 36)])
def test_blowup_counts_match_direct_lag_sum(eigen_cache, bump, lam, dead):
    # nt = 20 is one full history block and a partial one; the replicates
    # that die here do so in the last step, inside the partial block, after
    # the first block was reduced with them in it, so their chunks replay
    # the survivors.  Both the full chunk and the chunk of 6 keep survivors.
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=lam)
    nrep = CHUNK + 6
    cfg = SimConfig(nt=20, T=0.5, replicates=nrep, seed=0)
    est = simulate_mild(p, es, u0, cfg)
    paths, alive, blowups = _direct_paths(p, es, u0, cfg)
    assert est.blowups == blowups == dead
    assert est.replicates_used == int(alive.sum()) == nrep - dead
    assert alive[:CHUNK].any() and alive[CHUNK:].any()
    assert np.all(np.isnan(paths[~alive, 20])) and not np.isnan(paths[:, 16]).any()
    ref = (paths[alive] ** 2).mean(axis=0)
    assert np.all(np.abs(est.mean - ref) <= 1e-13 * ref)


def test_mc_couples_noise_as_lambda_times_sigma_slope(eigen_cache, bump):
    # sigma(u) = l u enters the scheme only through lam l, and a factor 2 is
    # exact in floating point, so slope 2 at lam is slope 1 at 2 lam, to the bit
    es = eigen_cache(2.0, 16)
    u0 = bump(es)

    def run(lam, slope):
        cfg = SimConfig(nt=16, T=0.1, replicates=8, seed=1, sigma=SigmaSpec(slope=slope))
        return simulate_mild(ModelParams(alpha=2.0, beta=0.5, lam=lam), es, u0, cfg)

    scaled, doubled, plain = run(5.0, 2.0), run(10.0, 1.0), run(5.0, 1.0)
    assert np.array_equal(scaled.mean, doubled.mean)
    assert np.array_equal(scaled.stderr, doubled.stderr)
    assert not np.array_equal(scaled.mean, plain.mean)


def test_sigma_specs():
    lin = SigmaSpec(slope=2.5)
    assert lin(3.0) == 7.5
    tab = table_sigma([-1.0, 0.0, 1.0], [-0.5, 0.0, 0.5])
    assert tab(0.5) == pytest.approx(0.25)
    # each end extends by its end slope, so sigma(u)/u keeps away from 0
    assert tab(100.0) == pytest.approx(50.0) and tab(-100.0) == pytest.approx(-50.0)
    kinked = table_sigma([-1.0, 0.0, 1.0], [-1.0, 0.0, 3.0])
    assert kinked(-10.0) == pytest.approx(-10.0) and kinked(10.0) == pytest.approx(30.0)
    with pytest.raises(DomainError):
        SigmaSpec(kind="table", table_x=(0.0, 1.0), table_y=(1.0, 2.0))  # sigma(0) != 0


def test_sigma_zero_check_is_on_the_extended_table():
    # a table whose nodes miss 0 reaches it by its left end slope: through
    # (1, 0) and (2, 1) it gives sigma(0) = -1, through (1, 1) and (2, 2) it
    # is sigma(u) = u
    with pytest.raises(DomainError, match="table gives -1.000e[+]00"):
        table_sigma([1.0, 2.0], [0.0, 1.0])
    identity = table_sigma([1.0, 2.0], [1.0, 2.0])
    u = np.array([-3.0, 0.0, 0.5, 1.5, 7.0])
    assert np.array_equal(identity(u), u)


_VALUES = st.floats(min_value=-1e3, max_value=1e3)


@st.composite
def _tables(draw):
    """Strictly increasing abscissae through 0 with sigma(0) = 0."""
    steps = draw(st.lists(st.integers(-8000, 8000).filter(bool),
                          min_size=1, max_size=8, unique=True))
    x = sorted([k / 8.0 for k in steps] + [0.0])
    y = draw(st.lists(_VALUES, min_size=len(x), max_size=len(x)))
    return x, [0.0 if xi == 0.0 else yi for xi, yi in zip(x, y)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=_tables(), slope=_VALUES, u=st.lists(_VALUES, min_size=2, max_size=16))
def test_sigma_is_zero_at_zero_lipschitz_and_extended_linearly(table, slope, u):
    x, y = table
    u = np.array(u + [x[0] - 1.0, x[-1] + 1.0, 0.0])
    for sig, lip in ((SigmaSpec(slope=slope), abs(slope)),
                     (table_sigma(x, y), np.max(np.abs(np.diff(y) / np.diff(x))))):
        assert sig(0.0) == 0.0
        su = sig(u)
        # each value rounds to a few ulp of its scale; 1e-12 of it covers that
        slack = 1e-12 * max(np.max(np.abs(y)), abs(slope) * np.max(np.abs(u)))
        assert np.all(np.abs(np.subtract.outer(su, su))
                      <= lip * np.abs(np.subtract.outer(u, u)) * (1 + 1e-12) + slack)
    # outside its nodes a table goes on along its end segments
    tab = table_sigma(x, y)
    lo, hi = u[u <= x[0]], u[u >= x[-1]]
    left, right = (y[1] - y[0]) / (x[1] - x[0]), (y[-1] - y[-2]) / (x[-1] - x[-2])
    np.testing.assert_allclose(tab(lo), y[0] + left * (lo - x[0]), rtol=1e-12, atol=slack)
    np.testing.assert_allclose(tab(hi), y[-1] + right * (hi - x[-1]), rtol=1e-12, atol=slack)


_BAD_SIGMA = st.one_of(
    st.builds(SigmaSpec, kind=st.text(max_size=8).filter(lambda k: k not in ("linear", "table"))),
    st.builds(SigmaSpec, kind=st.just("linear"), slope=st.sampled_from([math.nan, math.inf, -math.inf])),
    st.builds(SigmaSpec, kind=st.just("table"), table_x=st.just((0.0,)), table_y=st.just((0.0,))),
    st.builds(SigmaSpec, kind=st.just("table"), table_x=st.just((-1.0, 0.0, 1.0)),
              table_y=st.just((0.0, 0.0))),
    st.builds(SigmaSpec, kind=st.just("table"), table_x=st.just((-1.0, 1.0)),
              table_y=st.tuples(st.just(-1.0), st.sampled_from([math.nan, math.inf]))),
    st.builds(SigmaSpec, kind=st.just("table"),
              table_x=st.floats(-1.0, 1.0).map(lambda a: (a, a)), table_y=st.just((0.0, 0.0))),
    st.builds(SigmaSpec, kind=st.just("table"), table_x=st.just((-1.0, 1.0)),
              table_y=st.floats(1e-9, 1e3).map(lambda c: (c, c))),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sigma_spec_rejects_each_broken_field(data):
    with pytest.raises(DomainError):
        data.draw(_BAD_SIGMA)


_BASE = ModelParams(alpha=1.0, beta=0.5)
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: field -> values that break its invariant on _BASE (gamma on riesz noise)
_BROKEN_PARAMS = {
    "alpha": st.one_of(st.floats(max_value=0.0), st.floats(min_value=2.0, exclude_min=True),
                       _NOT_FINITE),
    "beta": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                      _NOT_FINITE),
    "nu": st.one_of(st.floats(max_value=0.0), _NOT_FINITE),
    "R": st.one_of(st.floats(max_value=0.0), _NOT_FINITE),
    "lam": st.one_of(st.floats(max_value=0.0, exclude_max=True), _NOT_FINITE),
    "gamma": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), _NOT_FINITE),
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_model_params_reject_each_broken_field(data):
    field = data.draw(st.sampled_from(sorted(_BROKEN_PARAMS)))
    value = data.draw(_BROKEN_PARAMS[field])
    with pytest.raises(DomainError):
        if field == "gamma":
            replace(_BASE, noise=NoiseModel("riesz", gamma=value))
        else:
            replace(_BASE, **{field: value})
    with pytest.raises(DomainError):
        NoiseModel(data.draw(st.text(max_size=8).filter(lambda k: k not in ("white", "riesz"))))
    with pytest.raises(DomainError):
        NoiseModel("white", gamma=data.draw(st.floats(0.01, 0.99)))


def test_riesz_covariance_factorization(eigen_cache):
    # the factor is the symmetric PSD square root of the covariance
    es = eigen_cache(2.0, 24)
    F = simulate._riesz_factor(es.grid, 0.5)
    C = riesz_kernel_matrix(es.grid, 0.5)
    assert np.max(np.abs(F - F.T)) < 1e-14
    assert np.max(np.abs(F @ F.T - C)) < 1e-8
    assert np.max(np.abs(F - sqrtm(C))) < 1e-12


@pytest.mark.parametrize("broken, message", [
    (np.diag([1.0, -1.0] * 12), "not PSD within jitter"),
    (np.eye(24) + np.diag([1e-6] * 23, k=1), "factorization residual"),
], ids=["indefinite", "asymmetric"])
def test_riesz_factor_refuses_a_covariance_it_cannot_factor(monkeypatch, eigen_cache, bump,
                                                           broken, message):
    # eigh reads one triangle, so a matrix asymmetric by 1e-6 is factored as
    # the identity, whose square is 1e-6 off the matrix
    monkeypatch.setattr(simulate, "riesz_kernel_matrix", lambda grid, gamma: broken)
    es = eigen_cache(2.0, 24)
    p = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel("riesz", gamma=0.5))
    with pytest.raises(NumericsError, match=message):
        simulate_mild(p, es, bump(es), SimConfig(nt=4, T=0.05, replicates=2, seed=0))


def test_ensemble_stream_roundtrip(tmp_path, eigen_cache, bump, white_params):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    path = tmp_path / "ensemble.bin"
    nrep = CHUNK + 6
    cfg = SimConfig(nt=8, T=0.05, replicates=nrep, seed=2)
    with open(path, "wb") as stream:
        est = simulate_mild(white_params, es, u0, cfg, ensemble=stream)
    record = np.dtype([("rep", "<u4"), ("ti", "<u4"), ("xi", "<u4"),
                       ("value", "<f8")])
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        rec = np.fromfile(fh, dtype=record)
    assert "seed=2" in header and "nx=24" in header
    assert rec.shape[0] == nrep * 9 * 24
    # Replicates appear in order and the recorded paths reproduce the mean.
    assert np.array_equal(np.unique(rec["rep"]), np.arange(nrep))
    u = rec["value"].reshape(nrep, 9, 24)
    assert np.max(np.abs((u ** 2).mean(axis=0) - est.mean)) < 1e-12


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(nt=0)
    with pytest.raises(DomainError):
        SimConfig(replicates=1)
    with pytest.raises(DomainError):
        SimConfig(T=-0.1)
    with pytest.raises(DomainError):
        SimConfig(seed=-1)


@pytest.mark.parametrize("bad", [dict(nt=8.0), dict(replicates=4.0), dict(seed=3.0),
                                 dict(nt=True), dict(seed=False)])
def test_config_refuses_floats_and_bools_as_counts(bad):
    # an integral float would pass a value comparison and crash simulate_mild
    # with a TypeError; a bool would run as 0 or 1
    with pytest.raises(DomainError):
        SimConfig(**bad)


def test_config_and_threads_take_numpy_integers():
    cfg = SimConfig(nt=np.int64(8), replicates=np.int32(4), seed=np.uint64(2 ** 63))
    assert (cfg.nt, cfg.replicates) == (8, 4)
    assert integer("threads", np.int64(2), 1) == 2
    for bad in (True, 2.0):
        with pytest.raises(DomainError):
            integer("threads", bad, 1)
