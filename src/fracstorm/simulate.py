"""Monte Carlo simulation of the mild solution under white or Riesz noise.

The time-fractional dynamics are not a semigroup in t, so the scheme keeps
the full noise history: with step D = T/nt and cell-centered grid, each
replicate evolves

    u^{n+1}(x_i) = (G_B u0)_{t_{n+1}}(x_i)
                   + lam * sum_{m<=n} sum_k G_B((n-m+1/2) D, x_i, y_k)
                                        sigma(u^m(y_k)) dW_{m,k},

where the kernel is evaluated at half-lag offsets so the integrable lag
singularity at zero is never sampled.  All kernel applications are done in
eigencoordinates, where the lag sum collapses to per-mode scalar
convolutions with the half-lag decay table from ``fracfun.mode_decay``.

The history sum is blocked in time (Hairer, Lubich & Schlichte 1985).  At
the start of each block of _BLOCK steps one batched gemm per block gives,
for every step of the block, the part of the sum over all steps before the
block; each step then adds only its <= _BLOCK in-block lags.  The lagged
decay factors come from a Hankel table hank[k, i, j] = e(i+1+j) of
nmodes * _BLOCK * nt doubles, built once per call and shared read-only by
the chunk threads (2 MB at nx = 64, nt = 256).  A chunk of nrep replicates
still does nt^2/2 * nrep * nmodes multiply-adds, but nearly all of them in
gemm form rather than one einsum per step.  The block length is fixed, so
the summation order, and with it every result, depends on neither nt nor
the thread count.

Noise increments: white noise uses independent N(0, dt*h) per cell (the
Walsh measure of a time-space cell); Riesz noise draws factor @ z * sqrt(dt)
* h, matching the discretized covariance dt * h^2 * C with C the cell-pair
average of |y - z|^(-gamma).

Determinism: replicate r draws from a counter-based Philox stream keyed by
(seed, r).  The normals are drawn one history block at a time from the same
per-replicate streams; a stream continues across blocks, so replicate r gets
the same normals, in the same order, as one draw of its whole path would give.
Replicate statistics are summed by one fixed pairwise tree: within a chunk of
_CHUNK = 128 replicates over its kept replicates, one history block at a time,
and across chunks over the chunk sums in replicate order, folded as the chunks
finish.  Results are therefore bitwise reproducible for a given (seed, config)
no matter how replicates are scheduled.  _CHUNK is a power of two, so when no
replicate blows up the two levels make the one tree over all replicates, and
the sums do not depend on the chunk size; a chunk that lost replicates pairs
its survivors by their rank among them.

Memory: a chunk of nrep replicates holds its history ``hist``, nmodes * nt *
nrep doubles (16.8 MB at nrep = 128, nt = 256, nx = nmodes = 64), and three
block-sized arrays of nrep * _BLOCK * nx doubles (1 MB each there): the
block's normals, which white noise scales into increments in place, the
block's older sums, and its squared paths.  Those are reduced to the chunk's
sums of u^2 - c and (u^2 - c)^2 as soon as the block is stepped, c = (G_B
u0)^2 the square of the deterministic part, so that the variance taken from
them does not cancel (at t = 0 both are exactly 0), and no chunk holds its
whole paths unless an ensemble stream asks for them.  That is about 20 MB per
chunk thread at that size (23 MB traced for one chunk with the shared Hankel
table); the fold across chunks keeps about log2(chunks) partial sums of
2 * (nt+1) * nx doubles.

Heavy tails: second moments are finite but sample paths at large lam are
heavy-tailed; any replicate whose amplitude passes an overflow guard (or
turns NaN) is excluded from the estimate and counted in
``MomentEstimate.blowups`` rather than clamped (clamping would bias
silently).  A blown-up replicate gets no more noise: its history is zeroed
and its sigma * dW masked to 0 from its blow-up step on, and an ensemble
stream records NaN for it at that step and every later one.  Its chunk's
earlier blocks were reduced with it, so once stepped the chunk replays its
survivors' paths from ``hist`` (no noise is drawn again) and reduces every
block over the survivors alone: a blown-up replicate counts at no time.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericsError, integer, number
from .fracfun import mode_decay
from .kernels import EigenSystem, apply_semigroup, riesz_kernel_matrix
from .params import SpaceGrid

__all__ = ["SigmaSpec", "table_sigma", "SimConfig", "MomentEstimate", "simulate_mild"]

# Amplitude beyond which a replicate is declared blown up and excluded.
# Kept well below float-max**(1/4): the variance accumulator sums fourth
# powers of the field, so any amplitude admitted here must have a finite
# fourth power (1e75**4 = 1e300 < 1.8e308).
BLOWUP_GUARD = 1e75

# Fixed replicate chunk size; part of the deterministic reduction layout.  A
# power of two, so that a run without blow-ups sums its replicates by the one
# pairwise tree over all of them (see the module docstring).
_CHUNK = 128

# Fixed history block length in steps; part of the deterministic summation
# order (see the module docstring).
_BLOCK = 16


@dataclass(frozen=True)
class SigmaSpec:
    """Multiplicative nonlinearity sigma, Lipschitz with sigma(0) = 0.

    kind 'linear' scales by ``slope``; kind 'table' interpolates a sampled
    Lipschitz function piecewise-linearly and extends each end linearly by
    its end slope, so the extension keeps the table's Lipschitz constant and
    sigma(u)/u tends to the end slopes, not to 0, as |u| grows.
    """

    kind: str = "linear"
    slope: float = 1.0
    table_x: tuple = ()
    table_y: tuple = ()

    def __post_init__(self):
        if self.kind not in ("linear", "table"):
            raise DomainError(f"sigma kind must be 'linear' or 'table', got {self.kind!r}")
        if self.kind == "linear":
            number("slope", self.slope)
        else:
            x = np.asarray(self.table_x, dtype=float)
            y = np.asarray(self.table_y, dtype=float)
            if x.ndim != 1 or x.size < 2 or x.shape != y.shape:
                raise DomainError("sigma table needs matching 1-d arrays of length >= 2")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise DomainError("sigma table must be finite")
            if np.any(np.diff(x) <= 0.0):
                raise DomainError("sigma table abscissae must be strictly increasing")
            at_zero = float(self(0.0))    # the linear extension, where 0 is off the table
            if abs(at_zero) > 1e-12:
                raise DomainError(f"sigma(0) = 0 violated: table gives {at_zero:.3e}")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "linear":
            return self.slope * u
        x = np.asarray(self.table_x, dtype=float)
        y = np.asarray(self.table_y, dtype=float)
        left, right = (y[1] - y[0]) / (x[1] - x[0]), (y[-1] - y[-2]) / (x[-1] - x[-2])
        return (np.interp(u, x, y) + left * np.minimum(u - x[0], 0.0)
                + right * np.maximum(u - x[-1], 0.0))


def table_sigma(x, y):
    """Piecewise-linear sigma through the sampled points (x, y)."""
    return SigmaSpec(kind="table", slope=0.0, table_x=tuple(np.asarray(x, float)),
                     table_y=tuple(np.asarray(y, float)))


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description: time grid, replicates, seed and sigma.

    The space grid is the eigen system's (``es.grid`` of ``simulate_mild``).
    replicates >= 2 so the standard error is defined.  The raw ensemble, if
    asked for, is a stream the caller opens and passes to ``simulate_mild``
    (the CLI's simulate.ensemble writes it atomically).
    """

    nt: int = 128
    T: float = 0.1
    replicates: int = 200
    seed: int = 0
    sigma: SigmaSpec = field(default_factory=SigmaSpec)

    def __post_init__(self):
        integer("nt", self.nt, 1)
        number("T", self.T, 0.0, math.inf)
        integer("replicates", self.replicates, 2)
        integer("seed", self.seed, 0, 2 ** 64 - 1)


@dataclass(frozen=True)
class MomentEstimate:
    """Replicate-averaged second moment: mean[n, i] estimates E|u_{t_n}(x_i)|^2."""

    times: np.ndarray
    grid: SpaceGrid
    mean: np.ndarray
    stderr: np.ndarray
    replicates_used: int
    blowups: int = 0


def _riesz_factor(grid, gamma):
    """Symmetric PSD square root F of the Riesz cell-pair covariance C, F @ F.T = C to 1e-8.

    C is ``kernels.riesz_kernel_matrix``: the midpoint rule |x_j - x_k|^-gamma
    off the diagonal and the analytic cell self-average on it.
    """
    C = riesz_kernel_matrix(grid, float(gamma))
    w, V = np.linalg.eigh(C)
    floor = -1e-10 * float(np.max(np.abs(w)))
    if float(w.min()) < floor:
        raise NumericsError(
            f"Riesz covariance not PSD within jitter: min eigenvalue {w.min():.3e}, "
            f"allowed {floor:.3e}"
        )
    factor = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    resid = float(np.max(np.abs(factor @ factor.T - C)))
    scale = float(np.max(np.abs(C)))
    if resid > 1e-8 * max(scale, 1.0):
        raise NumericsError(f"covariance factorization residual {resid:.3e} too large")
    return factor


def _increments(noise, grid, dt, z, factor):
    """Noise increments from standard normals z of shape (..., n).

    White noise scales z in place and returns it; Riesz noise returns a new
    array, z @ factor.T scaled.
    """
    if noise.kind == "white":
        return np.multiply(z, math.sqrt(dt * grid.h), out=z)
    return (z @ factor.T) * (math.sqrt(dt) * grid.h)


def _tree_sum(t):
    """Sum t over axis 0 by the fixed pairwise tree.

    Each level adds rows (0, 1), (2, 3), ... and carries an odd last row,
    until one row is left.  Every element sees the same additions in the same
    order as in a sum of the rows one array at a time, so the result depends
    on neither the other axes nor how they are sliced.
    """
    if len(t) == 0:
        raise ValueError("nothing to reduce")
    while len(t) > 1:
        m = len(t)
        pairs = t[0:m - 1:2] + t[1:m:2]
        t = np.concatenate((pairs, t[m - 1:])) if m % 2 else pairs
    return t[0]


def _tree_fold(parts):
    """The pairwise tree of ``_tree_sum`` over an iterable of equal-shape arrays.

    Parts are consumed as they arrive, so at most about log2(count) partial
    sums are alive at once.  A binary counter: the stack holds the sums of
    complete subtrees of 2**level parts, in decreasing level, and a push
    merges the top while its level matches.  At the end the subtrees left are
    added from the right, which is where the tree carries an odd last part.
    """
    stack = []
    for part in parts:
        level = 0
        while stack and stack[-1][0] == level:
            part = stack.pop()[1] + part
            level += 1
        stack.append((level, part))
    if not stack:
        raise ValueError("nothing to reduce")
    total = stack.pop()[1]
    while stack:
        total = stack.pop()[1] + total
    return total


def _ensemble_header(config, grid, params):
    """The ASCII first line of an ensemble stream, ending in a newline.

    The records that follow hold every replicate's path, replicate-major.  A
    replicate excluded by the blow-up guard has value NaN from the step at
    which it blew up to the end of the run.
    """
    return (
        "fracstorm-ensemble v1 "
        f"seed={config.seed} replicates={config.replicates} nt={config.nt} "
        f"nx={grid.n} T={config.T!r} R={grid.R!r} noise={params.noise.kind} "
        "layout=rep:u32,ti:u32,xi:u32,value:f64 order=rep-major byteorder=little\n"
    )


_ENSEMBLE_RECORD = np.dtype(
    [("rep", "<u4"), ("ti", "<u4"), ("xi", "<u4"), ("value", "<f8")]
)


def _hankel_table(decay):
    """hank[k, i, j] = decay[k, i+1+j] for i < _BLOCK, and 0 where i+1+j >= nt.

    Row i holds the lags from the steps before a block to its step i, newest
    first, for each mode k of the mode-major decay table ``decay`` (nmodes, nt).
    """
    nmodes, nt = decay.shape
    padded = np.zeros((nmodes, nt + _BLOCK))
    padded[:, :nt] = decay
    return padded[:, np.arange(1, _BLOCK + 1)[:, None] + np.arange(nt)]


def _run_chunk(lo, hi, config, grid, params, u0, det, shift, decay, hank, phi, factor,
               keep_paths):
    """Evolve replicates [lo, hi) and reduce them to chunk statistics.

    The noise history is stored mode-major with the newest step in the lowest
    slot, hist[k, nt-1-m, r] = (phi^T sigma(u^m) dW_m)_k of replicate r, so
    the steps before a block starting at n0 are the contiguous slots
    nt-n0..nt-1, newest first.  One batched gemm with ``hank`` gives their
    contribution to every step of the block; each step adds its in-block lags
    from ``decay`` (mode-major half-lag decay table).  Each block starts by
    drawing its normals from every replicate's Philox stream, which continues
    where the last block stopped, so a replicate's noise does not depend on
    the block length.  A replicate that blows up has its history zeroed, and
    with it the rest of its block's older sum; its sigma(u) dW is masked to 0
    from then on (only once some replicate of the chunk has died), and its
    path is NaN from its blow-up step on.

    The squared paths of a block go into one reused buffer and are reduced
    over the replicates by ``_tree_sum`` once the block is stepped.  Until a
    replicate dies that is the reduction over the survivors.  A chunk in which
    some replicate died replays its paths from ``hist`` afterwards, block by
    block with the same gemm, in-block sum and ``phi`` product at full chunk
    width, so every survivor's path has the bits it had when stepped; it draws
    no noise and runs no guard, and each block is reduced again over the
    survivors alone.

    Returns (sums, replicates kept, blow-ups, paths): sums[0] and sums[1] are
    the sums of u^2 - shift and (u^2 - shift)^2 over the kept replicates at
    every grid time (shift = det^2), and paths is the (nrep, nt+1, nx)
    trajectory array when ``keep_paths`` (for ensemble streaming) and None
    otherwise.  Pure function of its inputs, so
    chunks can run concurrently without changing any result.
    """
    nt = config.nt
    dt = float(config.T) / nt
    lam = params.lam
    sigma = config.sigma
    nrep = hi - lo
    nmodes = phi.shape[1]

    streams = [np.random.Generator(np.random.Philox(key=np.array([config.seed, r], np.uint64)))
               for r in range(lo, hi)]
    z = np.empty((nrep, _BLOCK, grid.n))     # one block's normals, reused
    sq = np.empty((nrep, _BLOCK, grid.n))    # one block's squared paths, reused
    sums = np.empty((2, nt + 1, grid.n))
    alive = np.ones(nrep, dtype=bool)
    u = np.broadcast_to(u0, (nrep, grid.n)).copy()
    hist = np.zeros((nmodes, nt, nrep))
    blowups = 0
    full = None
    if keep_paths:
        full = np.empty((nrep, nt + 1, grid.n))
        full[:, 0] = u

    def older(n0, nb):
        # past[k, i, r] = sum_{m<n0} e[n0+i-m, k] * hist_m[k, r]
        return np.matmul(hank[:, :nb, :n0], hist[:, nt - n0:])

    def step(n0, i, past):
        # u^{n+1} at n = n0+i: the older sum plus sum_{n0<=m<=n} e[n-m, k] * hist_m[k, r]
        s = nt - 1 - n0 - i
        conv = past[:, i] + np.matmul(decay[:, None, : i + 1], hist[:, s: nt - n0])[:, 0]
        return det[n0 + i + 1] + lam * (phi @ conv).T

    def reduce_block(row, sq):
        # sq (replicates, times, n) holds u^2 at times row, row+1, ...; it is
        # shifted and squared in place
        out = sums[:, row: row + sq.shape[1]]
        sq -= shift[row: row + sq.shape[1]]
        out[0] = _tree_sum(sq)
        out[1] = _tree_sum(np.square(sq, out=sq))

    for n0 in range(0, nt, _BLOCK):
        nb = min(_BLOCK, nt - n0)
        for r, stream in enumerate(streams):
            stream.standard_normal(out=z[r, :nb])
        dW = _increments(params.noise, grid, dt, z[:, :nb], factor)
        past = older(n0, nb)
        for i in range(nb):
            n = n0 + i
            s = nt - 1 - n
            q = sigma(u) * dW[:, i]
            if blowups:
                q[~alive] = 0.0
            hist[:, s] = (q @ phi).T
            u = step(n0, i, past)
            # NaN fails the comparison too, so it takes the slow path
            if not np.abs(u).max() < BLOWUP_GUARD:
                bad = ~np.all(np.abs(u) < BLOWUP_GUARD, axis=1)
                newly = bad & alive
                alive &= ~bad
                u = np.where(bad[:, None], 0.0, u)
                hist[:, s:, newly] = 0.0
                past[:, i + 1:, newly] = 0.0
                blowups += int(np.count_nonzero(newly))
            np.square(u, out=sq[:, i])
            if keep_paths:
                full[:, n + 1] = np.where(alive[:, None], u, np.nan)
        del dW, past
        if not blowups:
            reduce_block(n0 + 1, sq[:, :nb])
    del z

    used = int(np.count_nonzero(alive))
    if not used:
        return np.zeros_like(sums), 0, blowups, full
    if blowups:
        for n0 in range(0, nt, _BLOCK):
            nb = min(_BLOCK, nt - n0)
            past = older(n0, nb)
            for i in range(nb):
                np.square(step(n0, i, past), out=sq[:, i])
            reduce_block(n0 + 1, sq[alive, :nb])
    sums[:, 0] = 0.0  # every replicate starts at u0, and u0^2 is shift[0]
    return sums, used, blowups, full


def simulate_mild(params, es, u0, config, threads=1, ensemble=None):
    """Monte Carlo second-moment estimate of the mild solution.

    Full-history explicit scheme with half-lag kernel evaluation (see module
    docstring).  Returns a MomentEstimate over all grid times 0..T; replicates
    that trip the overflow guard are excluded and counted, never clamped.

    Replicates run in chunks of _CHUNK = 128.  A chunk reduces each history
    block's squared paths as soon as it has stepped them (replaying its
    survivors if some replicate blew up), and the chunk sums are folded by a
    fixed pairwise tree as the chunks finish, so a run holds one chunk's
    history and a few of its blocks per thread (about 20 MB at nt = 256,
    nx = 64) but never the paths.  ``threads`` > 1 runs chunks concurrently.
    The Philox streams are keyed by replicate index and the reduction order is
    fixed, so the estimate is bitwise identical to the sequential run.

    ``ensemble``, an open writable binary file, receives the raw ensemble: a
    one-line text header giving the layout and seed, then binary records
    (replicate id, time index, space index, value).  The caller opens and
    closes it; the CLI writes it atomically, so a failed run leaves no file.
    Streaming forces sequential execution (records are written
    replicate-major).
    """
    threads = integer("threads", threads, 1)
    if not isinstance(es, EigenSystem):
        raise DomainError("es must be an EigenSystem")
    grid = es.grid
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.n,):
        raise DomainError(f"u0 must have shape ({grid.n},), got {u0.shape}")
    if not np.all(np.isfinite(u0)):
        raise DomainError("u0 must be finite")

    nt, T = config.nt, float(config.T)
    dt = T / nt
    beta = params.beta

    # Half-lag decay table, mode-major: decay[k, j] = E_beta(-mu_k ((j+1/2) dt)^beta).
    decay = np.ascontiguousarray(mode_decay(es.mu, beta, (np.arange(nt) + 0.5) * dt).T)
    hank = _hankel_table(decay)

    # Deterministic part at every grid time.
    det = np.vstack([u0, apply_semigroup(es, beta, np.arange(1, nt + 1) * dt, u0)])
    shift = np.square(det)

    factor = _riesz_factor(grid, params.noise.gamma) if params.noise.kind == "riesz" else None

    phi = es.phi                       # (nx, k), h-orthonormal columns

    bounds = [
        (lo, min(lo + _CHUNK, config.replicates))
        for lo in range(0, config.replicates, _CHUNK)
    ]
    used = 0
    blowups = 0

    if ensemble is not None:
        ensemble.write(_ensemble_header(config, grid, params).encode("ascii"))

    def work(b):
        return _run_chunk(b[0], b[1], config, grid, params, u0, det, shift, decay, hank,
                          phi, factor, keep_paths=ensemble is not None)

    def chunk_sums(results):
        nonlocal used, blowups
        for (lo, hi), (sums, kept, blew, full) in zip(bounds, results):
            used += kept
            blowups += blew
            if ensemble is not None:
                nrep = hi - lo
                rec = np.empty(nrep * (nt + 1) * grid.n, dtype=_ENSEMBLE_RECORD)
                reps = np.arange(lo, hi, dtype=np.uint32)
                rec["rep"] = np.repeat(reps, (nt + 1) * grid.n)
                rec["ti"] = np.tile(np.repeat(np.arange(nt + 1, dtype=np.uint32), grid.n), nrep)
                rec["xi"] = np.tile(np.arange(grid.n, dtype=np.uint32), nrep * (nt + 1))
                rec["value"] = full.reshape(-1)
                ensemble.write(rec.tobytes())
            yield sums

    if threads > 1 and ensemble is None and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            s1, s2 = _tree_fold(chunk_sums(pool.map(work, bounds)))
    else:
        s1, s2 = _tree_fold(chunk_sums(map(work, bounds)))
    if used < 2:
        raise NumericsError(
            f"blow-up guard excluded {blowups} replicates; only {used} remain, "
            "standard error undefined"
        )
    mean = shift + s1 / used
    var = np.clip(s2 - s1 ** 2 / used, 0.0, None) / (used - 1)
    stderr = np.sqrt(var / used)
    times = np.arange(nt + 1) * dt
    return MomentEstimate(
        times=times,
        grid=grid,
        mean=mean,
        stderr=stderr,
        replicates_used=used,
        blowups=blowups,
    )
