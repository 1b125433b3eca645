"""Exact second-moment solvers and renewal-inequality machinery.

For linear multiplicative noise sigma(u) = l u the second moment of the mild
solution solves a closed Volterra equation.  White noise:

    M(t,x) = |(G_B u0)_t(x)|^2
             + (lam l)^2 int_0^t int_B G_B(t-s,x,y)^2 M(s,y) dy ds,

colored (Riesz covariance |w-w'|^(-gamma)) with the two-point function
K(t;y,z) = E[u_t(y) u_t(z)]:

    K(t;y,z) = F(y)F(z) + (lam l)^2 int_0^t
               iint G_B(t-s,y,w) |w-w'|^(-gamma) G_B(t-s,z,w') K(s;w,w') dw dw' ds.

The lag kernel carries an integrable singularity (t-s)^(eta-1) with
eta = 1 - beta / alpha (white) or 1 - gamma beta / alpha (colored).  Naive
quadrature of the newest time cell both diverges and, at large lam, caps the
per-step growth at the size of a single quadrature weight, so the solver
closes the newest cell with the scalar renewal resolvent instead: freezing
the field spatially over the (narrow) kernel spread, the newest-cell
contribution is a one-cell renewal equation whose exact solution multiplies
the history by E_eta(kappa A Gamma(eta) Delta^eta), where A is matched to the
exact kernel mass of the cell.  To first order this reproduces implicit
product integration; composed over steps it reproduces the continuum renewal
growth exp(t (kappa A Gamma(eta))^(1/eta)) exactly, which is what makes
noise-level sweeps up to lam = 1e6 representable.  A solve returns log M at
every node, so nothing overflows; the stepper frames each slice by its own
log scale.

Everything in a solve that does not depend on lam (G_B u0 at every time,
the newest-cell mass, the history tables) is a frozen ``MomentPlan``, which
each solver call builds once for its whole lam grid; its tables come from
``fracfun.mode_decay``, its 32 closure nodes per mode from
``mittag_leffler`` (the same sum of exponentials).  Both solvers run one
log-split stepper that only the lift of a new midpoint slice and the
history contraction tell apart: S[m] @ mid (white), or the sandwich
h^2 Delta Gmid[m] (Cbar * mid) Gmid[m]^T at lag-cell midpoint m (colored),
summed in eigencoordinates as phi (sum_m (e_m e_m^T) * L_m) phi^T with
Gmid[m] = phi diag(e_m) phi^T and each slice lifted once to
L = h^2 Delta phi^T (Cbar * mid) phi, so a step costs O(j n^2 + n^3), not
O(j n^3).  Every term e_m e_m^T * L_m is symmetric, so the colored history
is stored and summed on the packed upper triangle, n(n+1)/2 entries.  Gmid
needs no clip (see ``kernels.dirichlet_fractional_kernel``).

The stepper sums the history in fixed blocks of _STEP_BLOCK = 16 steps
(Hairer, Lubich & Schlichte 1985): at the start of a block, the cells over
the midpoints made before it are summed for every step of the block at
once, and each step adds its <= 16 in-block cells as a block of one step.
A block start's sum skips the oldest pairs whose weight exp(mean_log -
frame) has underflowed to exactly 0.0, as all but the newest few have at
lam >= 1e2 (the block starts of a white solve at n = 64, nt = 192 over 13
lam in [1e2, 1e6] weigh 721 of their 13,728 older pairs nonzero): each
skipped term is a finite midpoint times 0.0, so the sum is exact.
Interval, grid and generator are symmetric under J: x -> -x, so each S[m]
is centrosymmetric, with parity blocks (S + S J)[:c, :c] and
(S - S J)[:f, :f], c = ceil(n/2), f = floor(n/2) (Cantoni & Butler 1976):
the white lift folds a midpoint o to (o + J o)[:c] (an odd n's middle node
once) and (o - J o)[:f], which halves the table and the flops of
S[m] @ mid.  Row x of a block's (c, nt c) view holds S[m][x, :] for every
lag m, so a block's older cells are one gemm per parity against a Toeplitz
arrangement of the older midpoints, and a step's in-block cells one gemv.
The colored contraction works entry by entry on the packed triangle: a
block's older cells are one two-operand dot per step over midpoints
pre-scaled once per block, and a step's in-block cells one more, unpacked
into a single reused n x n buffer for the two phi products.  The block
length is fixed, so a solve's summation order depends on neither lam nor nt.

A solver call steps its lams (``lams=``) in batches, one pass each, with
lam the leading axis of every array; a step's in-block history is one call
for the batch and a block start's runs a lam at a time, for memory, and a
lam's bits do not depend on its batch (``_log_split_steps`` says why).
The live state is slices j-1 and j per lam (a colored solve returns the
diagonal K(t; x, x), never an (nt+1, n, n) array) and the lifted
midpoints, nt n (white) or nt n(n+1)/2 (colored) doubles per lam, which
``MomentPlan.batches`` fits into _BATCH_DOUBLES = 2^19 (4 MB) in every
call, at least one lam a batch.  Beyond that a colored solve holds about
twice nt n(n+1)/2 doubles (plan table, one lam's scaled midpoints): 7.2 MB
each at n = 96, nt = 192, 28 MB at n = 192; the grid is not capped.

The scalar renewal solver ``renewal_volterra_solve`` handles the equality
case f = c1 + kappa int (t-s)^(rho-1) f(s) ds, 0 < rho <= 1 (exact cells in
a block, the history before it from ``fracfun.ExpSum.power``); its
closed-form solution c1 E_rho(kappa Gamma(rho) t^rho) is kept in the test
suite as an independent oracle.  ``lower_series_log`` evaluates log S(t) of
the series S(t) = sum_k (t / k^rho)^k of the paper's lower-bound lemma (the
``series-lemma-growth`` check), in log space so it stays finite far beyond
overflow, in bounded time; ``lower_series`` is its exponential.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, integer, number
from .fracfun import (DECAY_CHUNK, ExpSum, SampledFunction, mittag_leffler, mittag_leffler_log,
                      mode_decay)
from .kernels import EigenSystem, apply_semigroup, riesz_kernel_matrix
from .params import SpaceGrid
from .quadrature import fixed_panel_nodes

__all__ = [
    "MomentField",
    "MomentPlan",
    "second_moment_white",
    "second_moment_colored",
    "renewal_volterra_solve",
    "renewal_growth_exponent",
    "lower_series",
    "lower_series_log",
]

# Fixed history block length of the moment stepper, in steps; part of the
# deterministic summation order (see ``_log_split_steps``).
_STEP_BLOCK = 16

# Doubles of lifted midpoint history one batch of lam may hold (4 MB): a
# colored sweep at n = 32, nt = 192 batches 5 lam with flat peak memory.
_BATCH_DOUBLES = 2 ** 19


def _log_positive(x):
    """log x where x > 0, -inf elsewhere."""
    out = np.full(x.shape, -np.inf)
    return np.log(x, out=out, where=x > 0.0)


@dataclass(frozen=True)
class MomentField:
    """Second-moment surface as logs[j, i] = log M(t_j, x_i), -inf where the
    moment vanishes: at large lam log M spans far more than the double range.
    """

    times: np.ndarray
    grid: SpaceGrid
    logs: np.ndarray

    def __post_init__(self):
        if self.logs.shape != (len(self.times), self.grid.n):
            raise DomainError("MomentField shape mismatch")
        if np.any(np.isnan(self.logs)):
            raise DomainError("moment values must be nonnegative (a log is NaN)")

    def dense(self):
        """M as plain floats.  NumericsError when some M passes the double
        range, as at large lam; the logs then are the only finite form."""
        with np.errstate(over="ignore"):
            M = np.exp(self.logs)
        if np.isinf(M).any():
            raise NumericsError(f"log M reaches {self.logs.max():.6g}, past the double range "
                                f"(exp overflows above {math.log(np.finfo(float).max):.6g}); "
                                "read logs, sup_log or energy_log")
        return M

    def sup_log(self, j=-1):
        """log sup_x M(t_j, x)."""
        return float(self.logs[j].max())

    def energy_log(self, j=-1):
        """log of the energy functional sqrt(int_B M(t_j, x) dx)."""
        top = self.sup_log(j)
        if top == -np.inf:
            return top
        return 0.5 * (math.log(float(np.exp(self.logs[j] - top).sum() * self.grid.h)) + top)


def _closure_nodes(eta, delta):
    """Gauss nodes/weights on the newest cell with tau = Delta u^(1/eta)
    flattening the tau^(eta-1) head of the lag kernel."""
    nodes, wts = np.polynomial.legendre.leggauss(32)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * wts
    tau = delta * u ** (1.0 / eta)
    jac = (delta / eta) * u ** (1.0 / eta - 1.0) * w
    return tau, jac


@dataclass(frozen=True, eq=False)
class MomentPlan:
    """Everything in a second-moment solve that does not depend on lam.

    det[j]:     (G_B u0)(t_j), with det[0] = u0
    cell_mass:  exact kernel mass of the newest time cell, (n,) for white
                noise, (n, n) for colored
    history:    the lag-cell tables, lag m = 0 unused (zero).  White: the
                parity blocks (even, odd) of S[m] = h int G(tau)^2 over
                [m Delta, (m+1) Delta], node-major: S[m] is centrosymmetric,
                so (S + SJ)[:c, :c] and (S - SJ)[:f, :f] hold it in half the memory.
                Colored: lag-major (nt, n(n+1)/2), history[m] the upper
                triangle of outer(e_m, e_m), packed in np.triu_indices(n)
                order, e_m the mode decay at the cell's midpoint lag, so the
                kernel there is phi diag(e_m) phi^T.
    riesz:      cell-averaged Riesz matrix Cbar (colored), else None
    """

    es: EigenSystem
    T: float
    nt: int
    eta: float
    times: np.ndarray
    det: np.ndarray
    cell_mass: np.ndarray
    history: tuple[np.ndarray, np.ndarray] | np.ndarray
    riesz: np.ndarray | None = None

    @classmethod
    def build(cls, params, es, u0, T, nt):
        """Validate the inputs of a solve and precompute its lam-free part."""
        colored = params.noise.kind == "riesz"
        q = float(params.noise.gamma) if colored else 1.0
        eta = 1.0 - q * float(params.beta) / float(params.alpha)
        nt = integer("nt", nt, 2)
        T = number("T", T, 0.0, math.inf)
        u0 = np.asarray(u0, float)
        if not np.all(np.isfinite(u0)):
            raise DomainError("u0 must be finite")
        n = es.grid.n
        if colored and np.any(u0 < 0.0):
            raise DomainError("two-point solver requires nonnegative u0 "
                              "(log-split state lives in the nonnegative cone)")

        beta = float(params.beta)
        h = es.grid.h
        delta = T / nt
        times = delta * np.arange(nt + 1)
        det = np.vstack([u0, apply_semigroup(es, beta, times[1:], u0)])

        tau, jac = _closure_nodes(eta, delta)
        e = mittag_leffler(beta, -np.outer(tau ** beta, es.mu))
        history = np.zeros((nt, n * (n + 1) // 2) if colored else (n, nt, n))
        riesz = None
        if colored:
            # cell_mass[y,z] = int_0^Delta h^2 [G_tau Cbar G_tau^T]_{yz} dtau
            #                = [phi (B * int E E^T dtau) phi^T]_{yz}
            riesz = riesz_kernel_matrix(es.grid, float(params.noise.gamma))
            B = h * h * (es.phi.T @ riesz @ es.phi)
            cell_mass = es.phi @ (B * ((e.T * jac) @ e)) @ es.phi.T
            cell_mass = 0.5 * (cell_mass + cell_mass.T)
            # mode decay at the lag-cell midpoints, e_m e_m^T on the packed
            # upper triangle
            e_mid = mode_decay(es.mu, beta, (np.arange(1, nt) + 0.5) * delta)
            row, col = np.triu_indices(n)
            history[1:] = e_mid[:, row] * e_mid[:, col]
        else:
            # cell_mass[x] = int_0^Delta sum_n E_beta(-mu_n tau^beta)^2 phi_n(x)^2
            cell_mass = np.tensordot(jac, e ** 2 @ (es.phi ** 2).T, axes=(0, 0))
            # parity blocks from the top c rows: E_+- sums the even (odd) modes,
            # G[:c, :c] = clip(E_+ + E_-) = A and (G J)[:c, :c] = clip(E_+ - E_-) = B
            parity = h * np.einsum("xk,xk->k", es.phi, es.phi[::-1])
            for k in np.flatnonzero(np.abs(np.abs(parity) - 1.0) > 1e-8).tolist():
                raise NumericsError(f"mode {k} is neither even nor odd, parity {parity[k]!r}")
            even, top = parity > 0.0, es.phi[:(n + 1) // 2]
            history = tuple(np.zeros((size, nt, size)) for size in ((n + 1) // 2, n // 2))
            # 6 Gauss nodes on each lag cell [m Delta, (m+1) Delta], m >= 1
            nodes, s_w = fixed_panel_nodes(delta * np.arange(1, nt + 1), n=6)
            step = 6 * max(1, DECAY_CHUNK // (6 * n * n))  # whole lag cells per call
            for q in range(0, nodes.size, step):
                e = mode_decay(es.mu, beta, nodes[q:q + step])[:, None, :]
                plus, minus = ((top[:, p] * e[..., p]) @ top[:, p].T for p in (even, ~even))
                A2, B2 = (np.clip(X, 0.0, None) ** 2 for X in (plus + minus, plus - minus))
                w = h * s_w[q:q + step, None, None]
                for table, cells in zip(history, (w * (A2 + B2), w * (A2 - B2))):
                    cells = cells[:, :len(table), :len(table)].reshape(-1, 6, *table.shape[::2])
                    table[:, 1 + q // 6:1 + (q + step) // 6] = cells.sum(axis=1).transpose(1, 0, 2)
        return cls(es=es, T=T, nt=nt, eta=eta, times=times, det=det, cell_mass=cell_mass,
                   history=history, riesz=riesz)

    def batches(self, lams):
        """lams cut into runs for one solve each: as many as fit their lifted
        midpoints, nt n (white) or nt n(n+1)/2 (colored) doubles per lam,
        into _BATCH_DOUBLES, and at least one."""
        n = self.es.grid.n
        size = max(1, _BATCH_DOUBLES // (self.nt * (n if self.riesz is None else n * (n + 1) // 2)))
        return [lams[i:i + size] for i in range(0, len(lams), size)]


def _live_lengths(weights):
    """One past the last nonzero weight of each row of a (rows, k) window:
    0 for a row of zeros or a window of no columns; an interior zero does
    not end the run."""
    return ((weights != 0.0) * np.arange(1, weights.shape[1] + 1)).max(axis=1, initial=0)


def _log_split_steps(plan, lams, l_sigma, source, far, lift, unlift, keep):
    """The time stepper of both second-moment solvers, for a batch of lam.

    Slices are flat: source(j) is the deterministic term at t_j, kappa =
    (lam l_sigma)^2, and slice[keep] the entries a solve returns.  Returns
    logs, lam first: logs[i, j] the logs of the kept entries of slice j, -inf
    where they vanish.  Inside, slice j is stored as values exp(w - max w)
    with its log scale, the log of its largest entry; only slices j-1 and j
    are live.  Each pair's geometric midpoint sqrt(v_{p+1} v_p) (exact for
    exponential growth) is lifted once and re-framed by a scalar each step
    (the history sums are taken on lifted midpoints, unlift maps them back);
    the frame is the largest pair scale so far, so nothing overflows.
    Frames, log scales and pair means are (batch, 1) columns; a lam whose
    closure or log scale passes the double range raises NumericsError that
    names it, the latter at its own step.

    The history is summed in blocks of _STEP_BLOCK steps (Hairer, Lubich &
    Schlichte 1985).  Step j weighs pair p = j-1-m at lag cell m = 1..j-1.
    At the start of a block j0..j0+nb-1, far(older, scale, nb)[b, i] is lam
    b's step j0+i sum over the pairs made before the block, older[b, k] =
    pair j0-2-k at lag cell i+1+k, each weighed by scale[b, k] =
    exp(mean_log - frame0) in the block's starting frame frame0; for memory
    it runs a lam at a time.  Step j rescales that sum by exp(frame0 -
    frame), should its frame have risen since, and one far(newer, scale, 1)
    call for the batch adds the in-block pairs newer[b, k] = pair j-2-k at
    lag cell k+1, weighed in the step's frame.  The block length is fixed,
    so the summation order depends on neither lam nor nt.

    Both windows are newest first, so their oldest pairs come last, and a
    weight that has underflowed to 0.0 stays 0.0 at every later step, for
    the frame never falls.  A block start's far call is cut after its lam's
    last nonzero weight (``_live_lengths``); only that trailing run is
    dropped, never an interior zero, and each dropped term is a finite
    framed midpoint times 0.0, so the cut takes no part of any sum away.
    An in-block step passes its whole window of <= _STEP_BLOCK - 1 pairs.
    far keeps each lam's products apart (a stacked matmul is one BLAS call
    per lam, an einsum sums each lam's lags in order), a zero weight only
    adds a zero product to a lam's sum, and all else is elementwise in lam,
    so a lam's bits do not depend on its batch (the test suite checks the
    sweeps' lam grids bitwise against their solves alone).
    """
    nt, batch = plan.nt, len(lams)
    with np.errstate(over="ignore"):    # inf past the double range; z names its lam below
        kappa = np.square(np.asarray(lams) * l_sigma)[:, None]
    first = source(0)
    logs = np.full((batch, nt + 1) + first[keep].shape, -np.inf)
    logs[:, 0] = _log_positive(first[keep])
    if not first.any():
        return logs
    k = math.floor(math.log(first.max()))    # slice 0's maximum framed into [1, e)
    prev, scale = first * math.exp(-k), np.full((batch, 1), float(k))

    # newest-cell resolvent closure: z = kappa A Gamma(eta) Delta^eta, A matched
    # to the exact cell mass; each distinct z is evaluated once (a colored mass
    # is exactly symmetric).  mittag_leffler_log refuses a z whose log E_eta(z)
    # ~ z^(1/eta) is past the double range; the first lam with one is named
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.maximum(kappa * math.gamma(plan.eta) * plan.eta * plan.cell_mass.ravel(), 0.0)
        fits = np.isfinite(z.max(axis=1) ** (1.0 / plan.eta))
    if not fits.all():
        raise NumericsError(f"moment solver at lam={lams[np.argmin(fits)]!r} overflowed: log "
                            "E_eta of its newest-cell closure is past the double range")
    distinct, at = np.unique(z, return_inverse=True)
    ln_fac = mittag_leffler_log(plan.eta, distinct)[at].reshape(z.shape)
    # lifted pair midpoints, newest in the lowest slot: mids[:, nt-1-p] is pair p
    mids = np.empty((batch, nt) + lift(prev[None]).shape[1:])
    mean_log = np.empty((batch, nt))
    frame = np.zeros((batch, 1))
    for j0 in range(1, nt + 1, _STEP_BLOCK):
        nb = min(_STEP_BLOCK, nt + 1 - j0)
        frame0 = frame
        start = nt + 1 - j0
        scales = np.exp(mean_log[:, start:] - frame0)
        # a lam at a time, each over its own live run: a batch call would copy
        # every lam's older midpoints at once
        past = np.concatenate([far(mids[b:b + 1, start:start + k], scales[b:b + 1, :k], nb)
                               for b, k in enumerate(_live_lengths(scales).tolist())])
        for i in range(nb):
            j = j0 + i
            new = nt + 1 - j    # the slot of the step's newest pair
            weights = np.exp(mean_log[:, new:start] - frame)
            sums = past[:, i] * np.exp(frame0 - frame) + far(mids[:, new:start], weights, 1)[:, 0]
            w = _log_positive(source(j) * np.exp(-frame) + kappa * unlift(sums)) + ln_fac
            wmax = w.max(axis=1, keepdims=True)
            with np.errstate(over="ignore"):
                last, scale = scale, frame + wmax
            if not np.isfinite(scale).all():
                lam = lams[np.argmin(np.isfinite(scale))]
                raise NumericsError(f"moment solver at lam={lam!r} overflowed at step {j}")
            slices = np.exp(w - wmax)
            logs[:, j] = w[:, keep] + frame
            mids[:, nt - j] = lift(np.sqrt(slices * prev))
            # halves first: the sum of two finite scales may pass the double range
            mean = 0.5 * scale + 0.5 * last
            mean_log[:, nt - j] = mean[:, 0]
            frame = np.maximum(frame, mean)
            prev = slices
    return logs


def _solve(plan, params, l_sigma, lams, source, far, lift, unlift, keep=np.s_[:]):
    """The field of params.lam, or one field per lam of ``lams``, from one
    stepper pass per plan batch: its logs of the kept entries are the field."""
    number("l_sigma", l_sigma)
    grid = np.asarray([params.lam] if lams is None else lams, float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid) & (grid >= 0.0)):
        raise DomainError(f"lams must be a non-empty 1-d grid of finite lam >= 0, got {lams!r}")
    fields = [MomentField(times=plan.times, grid=plan.es.grid, logs=g)
              for batch in plan.batches(grid.tolist())
              for g in _log_split_steps(plan, batch, l_sigma, source, far, lift, unlift, keep)]
    return fields[0] if lams is None else fields


def second_moment_white(params, es, u0, l_sigma, T, nt, *, lams=None):
    """Solve the white-noise second-moment Volterra equation exactly (linear sigma).

    Returns a MomentField on the uniform time grid j T / nt.  Log-scaled
    throughout, so lam up to 1e6 and beyond stays representable.  ``lams``,
    a 1-d grid of lam (params.lam is then not read), returns one field per
    lam, each with the bits of its own solve: the call builds one
    MomentPlan, so G_B u0 and the kernel tables are paid for once, and steps
    the grid in the batches of ``MomentPlan.batches``, so its midpoint
    history stays within the budget (see the module docstring).
    """
    if params.noise.kind != "white":
        raise DomainError("second_moment_white requires white noise parameters")
    plan = MomentPlan.build(params, es, u0, T, nt)

    c, f = (es.grid.n + 1) // 2, es.grid.n // 2
    # row x of a parity block holds its S[m][x, :] for every lag m
    tables = [(t.reshape(len(t), -1), p) for t, p in zip(plan.history, (np.s_[:c], np.s_[c:]))]

    def lift(mids):    # the fold: (o + Jo)[:c], an odd n's middle node once; (o - Jo)[:f]
        flip = mids[:, ::-1]
        return np.hstack([mids[:, :f] + flip[:, :f], mids[:, f:c], mids[:, :f] - flip[:, :f]])

    def unlift(sums):
        even, odd = sums[:, :c], sums[:, c:]
        return 0.5 * np.hstack([even[:, :f] + odd, even[:, f:], (even[:, :f] - odd)[:, ::-1]])

    def far(older, scale, nb):
        # per parity and lam, Toeplitz, one contiguous row per step: row i
        # holds older[k] in the column block of lag i+1+k
        older, sums = older * scale[..., None], []
        lags = older.shape[1] + nb - 1
        for table, part in tables:
            size, block = len(table), older[..., part].reshape(len(older), -1)
            rows = np.zeros((len(older), nb, lags * size))
            for i in range(nb):
                rows[:, i, i * size:i * size + block.shape[1]] = block
            sums.append(table[:, size:(lags + 1) * size] @ rows.transpose(0, 2, 1))
        return np.concatenate(sums, axis=1).transpose(0, 2, 1)

    return _solve(plan, params, l_sigma, lams, lambda j: plan.det[j] ** 2, far, lift, unlift)


def second_moment_colored(params, es, u0, l_sigma, T, nt, *, lams=None):
    """Two-point Volterra solver for Riesz-colored noise (linear sigma).

    Same stepper as the white solver, applied per entry of the two-point
    function K(t; y, z); returns the one-point moment M(t, x) = K(t; x, x)
    as a MomentField with the exact diagonal logs.  The history contraction
    is the kernel sandwich h^2 Delta Gmid (Cbar * K) Gmid^T at the midpoint
    lag of each cell, summed in eigencoordinates: each slice is lifted once
    to h^2 Delta phi^T (Cbar * K) phi and kept as its packed upper triangle
    (the plan's order), with the diagonal at half weight, and each cell
    weighs it by the packed outer(e_m, e_m).  The sum unpacks to the upper
    triangle U of a symmetric X with U + U^T = X, so the history term
    phi X phi^T is H + H^T with H = phi U phi^T, symmetric by construction.
    Memory: see the module docstring.  The Riesz exponent gamma is
    ``params.noise.gamma``; ``lams`` as in the white solver.
    """
    if params.noise.kind != "riesz":
        raise DomainError("second_moment_colored requires riesz noise parameters")
    plan = MomentPlan.build(params, es, u0, T, nt)
    phi = es.phi
    n = es.grid.n
    upper = np.triu_indices(n)
    # h^2 Delta, halved on the diagonal
    weight = es.grid.h * es.grid.h * (plan.T / plan.nt) * np.where(upper[0] == upper[1], 0.5, 1.0)

    def lift(mids):
        lifted = phi.T @ (plan.riesz * mids.reshape(-1, n, n)) @ phi
        return weight * lifted[:, upper[0], upper[1]]

    table = plan.history    # packed outer(e_m, e_m) at lag m

    def far(older, scale, nb):
        older = older * scale[..., None]
        return np.stack([np.einsum("kp,bkp->bp", table[i + 1:i + 1 + older.shape[1]], older)
                         for i in range(nb)], axis=1)

    def unlift(sums):
        U = np.zeros((len(sums), n, n))    # its lower triangles stay zero
        U[:, upper[0], upper[1]] = sums
        H = phi @ U @ phi.T
        return (H + H.transpose(0, 2, 1)).reshape(len(sums), -1)

    det = plan.det
    return _solve(plan, params, l_sigma, lams, lambda j: np.outer(det[j], det[j]).ravel(),
                  far, lift, unlift, np.arange(n) * (n + 1))


# ---------------------------------------------------------------------------
# scalar renewal machinery
# ---------------------------------------------------------------------------

_RENEWAL_BLOCK = 64  # grid cells per block of ``renewal_volterra_solve``


def renewal_volterra_solve(c1, kappa, rho, T, nt):
    """Equality case of the renewal inequality:

        f(t) = c1 + kappa int_0^t (t-s)^(rho-1) f(s) ds,  0 < rho <= 1.

    Piecewise-linear product integration on the uniform grid, in blocks of
    _RENEWAL_BLOCK cells: the nodes of a block solve one lower-triangular
    Toeplitz system of its exact cells (the same for every block), and the
    cells before it enter through the history states of ``ExpSum.power``
    (kernel error below 3e-14; rho <= 1 keeps the kernel completely
    monotone), O(nt) work.  Returns a SampledFunction on the grid.
    """
    kappa = number("kappa", kappa, 0.0, math.inf, "left")
    rho = number("rho", rho, 0.0, 1.0, "right")
    c1, T, nt = number("c1", c1), number("T", T, 0.0, math.inf), integer("nt", nt, 2)

    delta = T / nt
    times = delta * np.arange(nt + 1)
    f = np.full(nt + 1, c1)
    # Lag cell m is [m Delta, (m+1) Delta]; with tau = m Delta + r there,
    #   f(t_j - tau) = f_{j-m} (1 - r/Delta) + f_{j-m-1} r/Delta,
    # so the cell weighs f at lag m by w_near[m] and at lag m+1 by w_far[m].
    B = min(_RENEWAL_BLOCK, nt)
    a, b = delta * np.arange(B), delta * np.arange(1, B + 1)
    I0 = (b ** rho - a ** rho) / rho                           # int tau^(rho-1)
    w_far = ((b ** (rho + 1.0) - a ** (rho + 1.0)) / (rho + 1.0) - a * I0) / delta
    w_near = I0 - w_far
    if kappa * w_near[0] >= 1.0:
        raise NumericsError("implicit newest-cell weight >= 1; refine nt or reduce kappa")
    # block node r weighs block node r - k by omega[k] (k >= 0)
    omega = np.concatenate([w_near[:1], w_near[1:] + w_far[:-1]])
    lag = np.subtract.outer(np.arange(B), np.arange(B))
    solve = np.linalg.inv(np.eye(B) - kappa * np.where(lag >= 0, omega[lag], 0.0))
    # kernel (t_(J0+r) - tau)^(rho-1) = Gamma(rho) sum_l w_l e^(-s_l (r Delta + t_J0 - tau))
    soe = ExpSum.power(rho, delta, T)
    history = kappa * math.gamma(rho) * soe.weights() * np.exp(-np.outer(b, soe.rates))
    advance = soe.march(times[:B + 1])
    state = np.zeros(soe.rates.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, nt, B):
            if j0:
                state = advance(state, f[j0 - B:j0 + 1])
            k = min(B, nt - j0)
            rhs = c1 + kappa * w_far[:k] * f[j0] + history[:k] @ state
            f[j0 + 1:j0 + k + 1] = solve[:k, :k] @ rhs
            if not np.all(np.isfinite(f[j0 + 1:j0 + k + 1])):
                raise NumericsError("renewal solution overflowed; use the "
                                    "log-scaled moment solvers for this regime")
    return SampledFunction(times=times, values=f)


def renewal_growth_exponent(kappa, rho):
    """Growth-rate scale (Gamma(rho) kappa)^(1/rho) of the renewal solution;
    NumericsError when it is past the double range."""
    kappa = number("kappa", kappa, 0.0, math.inf, "left")
    rho = number("rho", rho, 0.0, 1.0, "right")
    try:
        scale = (math.gamma(rho) * kappa) ** (1.0 / rho)
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise NumericsError(f"growth-rate scale (Gamma(rho) kappa)^(1/rho) is past the "
                            f"double range at kappa={kappa!r}, rho={rho!r}")
    return scale


#: terms per block of the log-space series sum; a wider window may be integrated
_SERIES_BLOCK = 1 << 18
_SERIES_KMAX = 2 ** 53  # every integer up to here is an exact double
_SERIES_TERMS = 1 << 26  # last index of a window from k = 1 (~0.6 s of terms)


def lower_series_log(t, rho):
    """log S(t) with S(t) = sum_{k>=1} (t / k^rho)^k.

    The log-terms peak at k* = t^(1/rho)/e with Gaussian half-width
    sqrt(k*/rho).  A window of +-12 half-widths, or for k* <= 5e4 one from
    k = 1 past where the log-terms (concave in k) are 70 below their peak,
    bounds the neglected tail below e^-70 of the total.  It is summed in
    blocks of 2^18 terms, unless it is wider and ends 12 half-widths from
    the peak on both sides: then the summand is smooth on the scale of the
    half-width (> 10^4) and tiny at the ends, so its integral, 16-point
    Gauss-Legendre on 24 panels, equals the sum to rounding.  Valid while
    the window ends below 2^53, i.e. k* up to about 9e15 (t up to about
    1.6e8 at rho = 0.5, 2.4e16 at rho = 1), and one from k = 1 below 2^26
    (rho above about 2e-7); DomainError beyond.
    """
    t, rho = number("t", t, 0.0, math.inf, "left"), number("rho", rho, 0.0, math.inf)
    if t == 0.0:
        return -np.inf
    # every window index must be an exact double; testing log k* first keeps
    # k* itself from overflowing
    refused = DomainError(
        f"lower series at t={t}, rho={rho}: the summation window around "
        f"k* = t^(1/rho)/e reaches past 2^53, where indices are not exact doubles")
    if math.log(t) / rho - 1.0 > math.log(_SERIES_KMAX):
        raise refused
    kstar = t ** (1.0 / rho) / math.e
    if kstar <= 5e4:
        kmin, kmax = 1, max(200, int(3 * kstar) + 50)
        peak = max(1.0, kstar) * (math.log(t) - rho * math.log(max(1.0, kstar)))
        while kmax <= _SERIES_KMAX and kmax * (math.log(t) - rho * math.log(kmax)) > peak - 70.0:
            kmax *= 2
    else:
        half = 12.0 * math.sqrt(kstar / rho)
        kmin = max(1, int(kstar - half))
        kmax = int(kstar + half) + 1
    if kmax > _SERIES_KMAX:
        raise refused
    if kmin == 1 and kmax > _SERIES_TERMS:
        raise DomainError(f"lower series at t={t}, rho={rho}: window from k = 1 past 2^26")
    if kmin > 1 and kmax - kmin >= _SERIES_BLOCK:
        blocks = [fixed_panel_nodes(np.linspace(kmin, kmax, 25), n=16)]
    else:
        blocks = ((np.arange(lo, min(lo + _SERIES_BLOCK - 1, kmax) + 1, dtype=float), None)
                  for lo in range(kmin, kmax + 1, _SERIES_BLOCK))
    m, total = -np.inf, 0.0
    for k, w in blocks:
        terms = k * (math.log(t) - rho * np.log(k))
        block_max = float(terms.max())
        if block_max > m:
            total *= math.exp(m - block_max)
            m = block_max
        terms = np.exp(terms - m)
        total += float(terms.sum() if w is None else w @ terms)
    return float(m + np.log(total))


def lower_series(t, rho):
    """S(t) = sum_{k>=1} (t/k^rho)^k = exp(lower_series_log(t, rho)).

    inf where S is past the double range; DomainError where
    ``lower_series_log`` refuses t.
    """
    try:
        return math.exp(lower_series_log(t, rho))
    except OverflowError:
        return math.inf
