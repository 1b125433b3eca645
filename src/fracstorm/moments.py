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
eta = 1 - d beta / alpha (white) or 1 - gamma beta / alpha (colored).  Naive
quadrature of the newest time cell both diverges and, at large lam, caps the
per-step growth at the size of a single quadrature weight, so the solver
closes the newest cell with the scalar renewal resolvent instead: freezing
the field spatially over the (narrow) kernel spread, the newest-cell
contribution is a one-cell renewal equation whose exact solution multiplies
the history by E_eta(kappa A Gamma(eta) Delta^eta), where A is matched to the
exact kernel mass of the cell.  To first order this reproduces implicit
product integration; composed over steps it reproduces the continuum renewal
growth exp(t (kappa A Gamma(eta))^(1/eta)) exactly, which is what makes
noise-level sweeps up to lam = 1e6 representable.  All slices are stored in
split form value * exp(log_scale) so nothing overflows.

Everything in a solve that does not depend on lam (G_B u0 at every time,
the newest-cell mass, the history tables) is a frozen ``MomentPlan``, which
a lam sweep builds once and passes as ``plan=``; its tables come from
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
once, and each step adds only its <= 16 in-block cells.  The white table is
stored node-major, (n, nt, n), so viewed as (n, nt n) its row x holds
S[m][x, :] for every lag m: the older cells of a whole block are one gemm
against a Toeplitz arrangement of the older midpoints, and a step's
in-block cells one gemv.  The colored contraction works entry by entry on
the packed triangle: a block's older cells are one two-operand dot per step
over midpoints pre-scaled once per block, and a step's in-block cells one
more, unpacked into a single reused n x n buffer for the two phi products.
The block length is fixed, so a solve's summation order depends on neither
lam nor nt nor the thread count of a sweep.

The scalar renewal solver ``renewal_volterra_solve`` handles the equality
case f = c1 + kappa int (t-s)^(rho-1) f(s) ds, 0 < rho <= 1 (exact cells in
a block, sum-of-exponentials history before it); its closed-form solution
c1 E_rho(kappa Gamma(rho) t^rho) is kept in the test suite as an
independent oracle.  ``lower_series_log`` evaluates log S(t) of the series
S(t) = sum_k (t / k^rho)^k that governs the lower excitation bound, in log
space so it stays finite far beyond overflow; ``lower_series`` is its
exponential.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericsError
from .fracfun import DECAY_CHUNK, SampledFunction, mittag_leffler, mittag_leffler_log, mode_decay
from .fracfun import _HISTORY_BLOCK, _soe_block, _soe_kernel
from .kernels import (
    EigenSystem,
    apply_semigroup,
    dirichlet_fractional_kernel,
    riesz_kernel_matrix,
)
from .params import ModelParams, SpaceGrid
from .quadrature import fixed_panel_nodes

__all__ = [
    "MomentField",
    "TwoPointField",
    "MomentPlan",
    "second_moment_white",
    "second_moment_colored",
    "renewal_volterra_solve",
    "renewal_growth_exponent",
    "lower_series",
    "lower_series_log",
    "colored_lower_bound_series",
    "initial_term_floor",
    "DEFAULT_LOWER_C1",
]

# Calibrated against the measured near-diagonal kernel floor of the default
# colored configuration (alpha=2, beta=0.5, n=128): floor constant ~ 0.055,
# squared because the recursion inserts two kernel factors per step.  The
# lower-bound slope checks are insensitive to this value; it only shifts the
# series' constant offset.
DEFAULT_LOWER_C1 = 3.0e-3

# Fixed history block length of the moment stepper, in steps; part of the
# deterministic summation order (see ``_log_split_steps``).
_STEP_BLOCK = 16


def _normalize(vals):
    """Split nonneg slice into (scaled, log_offset) with max in [1, e)."""
    m = float(np.max(np.abs(vals)))
    if m == 0.0 or not np.isfinite(m):
        if not np.isfinite(m):
            raise NumericsError("moment slice overflowed its split representation")
        return vals, 0.0
    k = math.floor(math.log(m))
    return vals * math.exp(-k), float(k)


def _log_positive(x):
    """log x where x > 0, -inf elsewhere."""
    out = np.full(x.shape, -np.inf)
    return np.log(x, out=out, where=x > 0.0)


@dataclass(frozen=True)
class MomentField:
    """Second-moment surface M(t_j, x_i) in split representation.

    values[j] * exp(log_scale[j]) is the moment slice at times[j]; each
    nonzero slice is normalized so its maximum lies in [1, e); all-zero
    slices carry log_scale 0.
    """

    times: np.ndarray
    grid: SpaceGrid
    values: np.ndarray
    log_scale: np.ndarray
    node_logs: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape != (len(self.times), self.grid.n):
            raise DomainError("MomentField shape mismatch")
        if np.any(self.values < 0.0):
            raise DomainError("moment values must be nonnegative")
        if self.node_logs is not None and self.node_logs.shape != self.values.shape:
            raise DomainError("node_logs shape mismatch")

    def dense(self):
        """M as plain floats (may overflow to inf for large lam)."""
        return self.values * np.exp(self.log_scale)[:, None]

    def log_values(self):
        """log M, elementwise (-inf where the moment vanishes).

        Prefers the solver's exact per-node logs when present: the framed
        (values, log_scale) pair can only span ~e^700 within one time slice,
        while at large lam the spatial profile of log M spans far more; the
        per-node logs keep every node's magnitude exactly.
        """
        if self.node_logs is not None:
            return self.node_logs.copy()
        with np.errstate(divide="ignore"):
            return np.log(self.values) + self.log_scale[:, None]

    def sup_log(self, j=-1):
        """log sup_x M(t_j, x)."""
        m = float(self.values[j].max())
        return -np.inf if m == 0.0 else math.log(m) + float(self.log_scale[j])

    def energy_log(self, j=-1):
        """log of the energy functional sqrt(int_B M(t_j, x) dx)."""
        s = float(self.values[j].sum() * self.grid.h)
        if s == 0.0:
            return -np.inf
        return 0.5 * (math.log(s) + float(self.log_scale[j]))


@dataclass(frozen=True)
class TwoPointField:
    """Two-point moment surface K(t_j; y, z), symmetric in (y, z)."""

    times: np.ndarray
    grid: SpaceGrid
    values: np.ndarray
    log_scale: np.ndarray
    diag_logs: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.n
        if self.values.shape != (len(self.times), n, n):
            raise DomainError("TwoPointField shape mismatch")
        if self.diag_logs is not None and self.diag_logs.shape != (len(self.times), n):
            raise DomainError("diag_logs shape mismatch")

    def diagonal_field(self):
        """The one-point moment M(t, x) = K(t; x, x) as a MomentField.

        Every slice is framed as ``_normalize`` frames it, bit for bit; an
        all-zero slice keeps log_scale 0.
        """
        d = np.clip(np.diagonal(self.values, axis1=1, axis2=2), 0.0, None)
        m = d.max(axis=1)
        if not np.all(np.isfinite(m)):
            raise NumericsError("moment slice overflowed its split representation")
        k = np.array([math.floor(math.log(x)) if x > 0.0 else 0.0 for x in m.tolist()])
        vals = d * np.array([math.exp(-x) for x in k.tolist()])[:, None]
        logs = np.where(m > 0.0, k + self.log_scale, 0.0)
        return MomentField(times=self.times, grid=self.grid, values=vals,
                           log_scale=logs, node_logs=self.diag_logs)

    def sup_log(self, j=-1):
        m = float(self.values[j].max())
        return -np.inf if m <= 0.0 else math.log(m) + float(self.log_scale[j])


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

    Records what it was built for: es, params (with lam = 0, so beta, eta
    and the noise), u0, T and nt.  A solver handed a plan built for other
    inputs raises DomainError.

    det[j]:     (G_B u0)(t_j), with det[0] = u0
    cell_mass:  exact kernel mass of the newest time cell, (n,) for white
                noise, (n, n) for colored
    history:    the lag-cell tables, lag m = 0 unused (zero).  White:
                node-major (n, nt, n), history[:, m] = S[m], h times the
                integral of G(tau)^2 over [m Delta, (m+1) Delta], so the
                (n, nt n) view holds every lag of node x in row x.
                Colored: lag-major (nt, n(n+1)/2), history[m] the upper
                triangle of outer(e_m, e_m), packed in np.triu_indices(n)
                order, e_m the mode decay at the cell's midpoint lag, so the
                kernel there is phi diag(e_m) phi^T.
    riesz:      cell-averaged Riesz matrix Cbar (colored), else None
    """

    es: EigenSystem
    params: ModelParams
    u0: np.ndarray
    T: float
    nt: int
    eta: float
    times: np.ndarray
    det: np.ndarray
    cell_mass: np.ndarray
    history: np.ndarray
    riesz: np.ndarray | None = None

    @classmethod
    def build(cls, params, es, u0, T, nt):
        """Validate the inputs of a solve and precompute its lam-free part."""
        colored = params.noise.kind == "riesz"
        q = float(params.noise.gamma) if colored else params.d
        eta = 1.0 - q * float(params.beta) / float(params.alpha)
        if params.d != 1:
            raise DomainError("moment solver is one-dimensional (d=1)")
        if eta <= 0.0:
            raise DomainError(f"lag singularity not integrable: eta = {eta} <= 0")
        if nt < 2:
            raise DomainError("nt >= 2 required")
        T = float(T)
        if T <= 0.0:
            raise DomainError("horizon T must be positive")
        u0 = np.asarray(u0, float)
        n = es.grid.n
        if colored and n > 48:
            raise DomainError("two-point solver grid capped at n=48 (memory)")
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
            # 6 Gauss nodes on each lag cell [m Delta, (m+1) Delta], m >= 1
            nodes, s_w = fixed_panel_nodes(delta * np.arange(1, nt + 1), n=6)
            step = 6 * max(1, DECAY_CHUNK // (6 * n * n))  # whole lag cells per call
            for q in range(0, nodes.size, step):
                G = dirichlet_fractional_kernel(es, beta, nodes[q:q + step])
                cells = h * (s_w[q:q + step, None, None] * G * G).reshape(-1, 6, n, n).sum(axis=1)
                history[:, 1 + q // 6:1 + (q + step) // 6] = cells.transpose(1, 0, 2)
        return cls(es=es, params=replace(params, lam=0.0), u0=u0, T=T, nt=nt,
                   eta=eta, times=times, det=det, cell_mass=cell_mass,
                   history=history, riesz=riesz)

    def check(self, params, es, u0, T, nt):
        """This plan, or DomainError unless it was built for these inputs."""
        wrong = [name for name, same in (
            ("es", self.es is es),
            ("params", self.params == replace(params, lam=0.0)),
            ("u0", np.array_equal(self.u0, np.asarray(u0, float))),
            ("T", self.T == float(T)),
            ("nt", self.nt == nt),
        ) if not same]
        if wrong:
            raise DomainError(f"plan was built for another {', '.join(wrong)}")
        return self


def _log_split_steps(plan, kappa, source, lift, far, near, logged=np.s_[:]):
    """The time stepper of both second-moment solvers.

    source[j] is the deterministic term at t_j (source[0] the initial slice).
    Returns (values, log_scale, logs); logs[j] keeps the exact log of the
    entries slice[logged] of every slice (all of them by default), which a
    framed slice loses for entries ~e^700 below its maximum.  Each slice
    pair's geometric midpoint sqrt(v_{p+1} v_p) (exact for exponential
    growth) is made once, stored as lift(midpoint), and re-framed by a scalar
    each step; the frame is the largest pair scale so far, so nothing
    overflows.  The log scales and their pair means are added in Python
    floats, so a scale past the double range raises NumericsError at its own
    step.

    The history is summed in blocks of _STEP_BLOCK steps (Hairer, Lubich &
    Schlichte 1985).  Step j weighs pair p = j-1-m at lag cell m = 1..j-1.
    At the start of a block j0..j0+nb-1, far(older, scale, nb)[i] is step
    j0+i's sum over the pairs made before the block, older[k] = pair j0-2-k
    at lag cell i+1+k, each weighed by scale[k] = exp(mean_log - frame0) in
    the block's starting frame frame0.  Step j rescales that sum by the
    scalar exp(frame0 - frame), should its frame have risen since, and
    near(base, newer, scale) adds to it its in-block pairs newer[k] = pair
    j-2-k at lag cell k+1, weighed in the step's frame.  The block length is
    fixed, so the summation order depends on neither lam nor nt.
    """
    nt = plan.nt
    values = np.zeros(source.shape)
    log_scale = np.zeros(nt + 1)
    logs = np.full((nt + 1,) + source[0][logged].shape, -np.inf)
    logs[0] = _log_positive(source[0][logged])
    values[0], log_scale[0] = _normalize(source[0])
    if not source[0].any():
        return values, log_scale, logs

    # newest-cell resolvent closure: z = kappa A Gamma(eta) Delta^eta, A matched
    # to the exact cell mass; a colored (n, n) mass is exactly symmetric, so
    # its upper triangle is evaluated and mirrored
    z = np.maximum(kappa * math.gamma(plan.eta) * plan.eta * plan.cell_mass, 0.0)
    upper = np.triu_indices(z.shape[0]) if z.ndim == 2 else np.s_[:]
    ln_fac = np.empty(z.shape)
    ln_fac[upper] = mittag_leffler_log(plan.eta, z[upper])
    ln_fac.T[upper] = ln_fac[upper]
    # lifted pair midpoints, newest in the lowest slot: mids[nt-1-p] is pair p;
    # a lift of the initial slice gives their shape
    mids = np.empty((nt,) + lift(values[0]).shape)
    mean_log = np.empty(nt)
    frame = 0.0
    for j0 in range(1, nt + 1, _STEP_BLOCK):
        nb = min(_STEP_BLOCK, nt + 1 - j0)
        frame0 = frame
        older = np.s_[nt + 1 - j0:]
        past = far(mids[older], np.exp(mean_log[older] - frame0), nb)
        for i in range(nb):
            j = j0 + i
            newer = np.s_[nt + 1 - j:nt + 1 - j0]
            sums = near(past[i] * math.exp(frame0 - frame), mids[newer],
                        np.exp(mean_log[newer] - frame))
            w = _log_positive(source[j] * math.exp(-frame) + kappa * sums) + ln_fac
            wmax = float(w.max())
            scale = frame + wmax
            if not math.isfinite(scale):
                raise NumericsError(f"moment solver overflowed at step {j}")
            values[j] = np.exp(w - wmax)
            logs[j] = w[logged] + frame
            mids[nt - j] = lift(np.sqrt(values[j] * values[j - 1]))
            # halves first: the sum of two finite scales may pass the double range
            mean = 0.5 * scale + 0.5 * float(log_scale[j - 1])
            log_scale[j], mean_log[nt - j] = scale, mean
            frame = max(frame, mean)
    return values, log_scale, logs


def second_moment_white(params, es, u0, l_sigma, T, nt, plan=None):
    """Solve the white-noise second-moment Volterra equation exactly (linear sigma).

    Returns a MomentField on the uniform time grid j T / nt.  Log-scaled
    throughout, so lam up to 1e6 and beyond stays representable.  ``plan``
    takes a MomentPlan built for the same inputs, so a lam sweep pays for
    G_B u0 and the kernel tables once; without one, a plan is built here.
    """
    if params.noise.kind != "white":
        raise DomainError("second_moment_white requires white noise parameters")
    plan = (MomentPlan.build(params, es, u0, T, nt) if plan is None
            else plan.check(params, es, u0, T, nt))

    n = es.grid.n
    table = plan.history.reshape(n, -1)    # row x: S[m][x, :] for every lag m

    def far(older, scale, nb):
        # Toeplitz: column i holds older[k] in the row block of lag i+1+k
        older = older * scale[:, None]
        lags = len(older) + nb - 1
        toeplitz = np.zeros((lags, n, nb))
        for i in range(nb):
            toeplitz[i:i + len(older), :, i] = older
        return (table[:, n:(lags + 1) * n] @ toeplitz.reshape(-1, nb)).T

    def near(base, newer, scale):
        return base + table[:, n:(len(newer) + 1) * n] @ (newer * scale[:, None]).ravel()

    values, log_scale, logs = _log_split_steps(
        plan, (params.lam * l_sigma) ** 2, plan.det * plan.det, lambda mid: mid, far, near)
    return MomentField(times=plan.times, grid=es.grid, values=values,
                       log_scale=log_scale, node_logs=logs)


def second_moment_colored(params, es, u0, l_sigma, T, nt, plan=None):
    """Two-point Volterra solver for Riesz-colored noise (linear sigma).

    Same stepper as the white solver, applied per matrix entry; the history
    contraction is the kernel sandwich h^2 Delta Gmid (Cbar * K) Gmid^T at
    the midpoint lag of each cell, summed in eigencoordinates: each slice is
    lifted once to h^2 Delta phi^T (Cbar * K) phi and kept as its packed
    upper triangle (the plan's order), with the diagonal at half weight, and
    each cell weighs it by the packed outer(e_m, e_m).  The sum unpacks to
    the upper triangle U of a symmetric X with U + U^T = X, so the history
    term phi X phi^T is H + H^T with H = phi U phi^T, symmetric by
    construction.  Grid is capped at n = 48 (the state is an (nt+1, n, n)
    array).  The Riesz exponent gamma is ``params.noise.gamma``.  ``plan`` as
    in the white solver.
    """
    if params.noise.kind != "riesz":
        raise DomainError("second_moment_colored requires riesz noise parameters")
    plan = (MomentPlan.build(params, es, u0, T, nt) if plan is None
            else plan.check(params, es, u0, T, nt))
    phi = es.phi
    n = es.grid.n
    upper = np.triu_indices(n)
    # h^2 Delta, halved on the diagonal
    weight = es.grid.h * es.grid.h * (plan.T / plan.nt) * np.where(upper[0] == upper[1], 0.5, 1.0)

    def lift(mid):
        return weight * (phi.T @ (plan.riesz * mid) @ phi)[upper]

    table = plan.history    # packed outer(e_m, e_m) at lag m

    def far(older, scale, nb):
        older = older * scale[:, None]
        return [np.einsum("kp,kp->p", table[i + 1:i + 1 + len(older)], older)
                for i in range(nb)]

    U = np.zeros((n, n))    # its lower triangle stays zero

    def near(base, newer, scale):
        U[upper] = base + np.einsum("kp,kp->p", table[1:len(newer) + 1], newer * scale[:, None])
        H = phi @ U @ phi.T
        return H + H.T

    det = plan.det
    values, log_scale, logs = _log_split_steps(
        plan, (params.lam * l_sigma) ** 2, det[:, :, None] * det[:, None, :], lift, far, near,
        logged=np.diag_indices(n))
    return TwoPointField(times=plan.times, grid=es.grid, values=values,
                         log_scale=log_scale, diag_logs=logs)


# ---------------------------------------------------------------------------
# scalar renewal machinery
# ---------------------------------------------------------------------------

def _renewal_kernel(kappa, rho):
    """(kappa, rho) as floats; DomainError unless 0 <= kappa < inf, 0 < rho <= 1."""
    if not (0.0 <= float(kappa) < math.inf and 0.0 < float(rho) <= 1.0):  # refuses NaN too
        raise DomainError(f"finite kappa >= 0, rho in (0, 1] violated: {kappa}, {rho}")
    return float(kappa), float(rho)


def renewal_volterra_solve(c1, kappa, rho, T, nt):
    """Equality case of the renewal inequality:

        f(t) = c1 + kappa int_0^t (t-s)^(rho-1) f(s) ds,  0 < rho <= 1.

    Piecewise-linear product integration on the uniform grid, in blocks of
    _HISTORY_BLOCK cells: the nodes of a block solve one lower-triangular
    Toeplitz system of its exact cells (the same for every block), and the
    cells before it enter through the sum-of-exponentials history states of
    ``fracfun`` (kernel error below 3e-14; rho <= 1 keeps the kernel
    completely monotone), O(nt) work.  Returns a SampledFunction on the grid.
    """
    kappa, rho = _renewal_kernel(kappa, rho)
    c1, T, nt = float(c1), float(T), int(nt)
    if not (math.isfinite(c1) and 0.0 < T < math.inf and nt >= 2):
        raise DomainError(f"finite c1, finite T > 0, nt >= 2 violated: {c1}, {T}, {nt}")

    delta = T / nt
    times = delta * np.arange(nt + 1)
    f = np.full(nt + 1, c1)
    # Lag cell m is [m Delta, (m+1) Delta]; with tau = m Delta + r there,
    #   f(t_j - tau) = f_{j-m} (1 - r/Delta) + f_{j-m-1} r/Delta,
    # so the cell weighs f at lag m by w_near[m] and at lag m+1 by w_far[m].
    B = min(_HISTORY_BLOCK, nt)
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
    s, w = _soe_kernel(rho, delta, T)
    history = kappa * math.gamma(rho) * w * np.exp(-np.outer(b, s))
    advance = _soe_block(s, times[:B + 1])
    state = np.zeros(s.size)
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
    kappa, rho = _renewal_kernel(kappa, rho)
    try:
        scale = (math.gamma(rho) * kappa) ** (1.0 / rho)
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise NumericsError(f"growth-rate scale (Gamma(rho) kappa)^(1/rho) is past the "
                            f"double range at kappa={kappa!r}, rho={rho!r}")
    return scale


_SERIES_BLOCK = 1 << 18  # terms per block of the log-space series sum
_SERIES_KMAX = 2 ** 53  # every integer up to here is an exact double


def _series_args(t, rho):
    """(t, rho) as floats; DomainError unless 0 <= t < inf, 0 < rho < inf."""
    if not (0.0 <= float(t) < math.inf and 0.0 < float(rho) < math.inf):  # refuses NaN too
        raise DomainError(f"finite t >= 0, finite rho > 0 violated: {t}, {rho}")
    return float(t), float(rho)


def _lower_series_log_terms(t, rho, kmin, kmax):
    k = np.arange(kmin, kmax + 1, dtype=float)
    return k * (math.log(t) - rho * np.log(k))


def lower_series_log(t, rho):
    """log S(t) with S(t) = sum_{k>=1} (t / k^rho)^k.

    The log-terms peak at k* = t^(1/rho)/e with Gaussian half-width
    sqrt(k*/rho); summing a +-12 half-width window in log space bounds the
    neglected tail below e^-70 of the total.  The window is summed in blocks
    of 2^18 terms, so memory stays bounded when it spans millions.  Valid
    while the window ends below 2^53, i.e. k* up to about 9e15 (t up to
    about 1.6e8 at rho = 0.5, 2.4e16 at rho = 1); DomainError beyond.
    """
    t, rho = _series_args(t, rho)
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
    else:
        half = 12.0 * math.sqrt(kstar / rho)
        kmin = max(1, int(kstar - half))
        kmax = int(kstar + half) + 1
    if kmax > _SERIES_KMAX:
        raise refused
    m, total = -np.inf, 0.0
    for lo in range(kmin, kmax + 1, _SERIES_BLOCK):
        terms = _lower_series_log_terms(t, rho, lo, min(lo + _SERIES_BLOCK - 1, kmax))
        block_max = float(terms.max())
        if block_max > m:
            total *= math.exp(m - block_max)
            m = block_max
        total += float(np.exp(terms - m).sum())
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


def colored_lower_bound_series(params, l_sigma, t, g_t, c1=DEFAULT_LOWER_C1):
    """log of the colored-noise lower bound

        g_t^2 (1 + sum_{k>=1} (lam^2 l^2 c1)^k (t/k)^(k (alpha-gamma beta)/alpha)).

    Returned in log space (the series dwarfs float range for large lam).
    lam and the Riesz exponent gamma come from ``params`` (riesz noise only).
    The series is lower_series(theta, eta) with eta = 1 - gamma beta / alpha
    and theta = lam^2 l^2 c1 t^eta.  c1 is a calibration constant measured
    from the near-diagonal kernel floor; it shifts the bound's offset, not
    its lam-scaling.
    """
    if params.noise.kind != "riesz":
        raise DomainError("colored_lower_bound_series requires riesz noise parameters")
    eta = 1.0 - float(params.noise.gamma) * float(params.beta) / float(params.alpha)
    if g_t <= 0.0:
        raise DomainError(f"g_t > 0 violated: {g_t}")
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"t > 0 violated: {t}")
    theta = (float(params.lam) * float(l_sigma)) ** 2 * float(c1) * t ** eta
    base = 2.0 * math.log(float(g_t))
    if theta == 0.0:
        return base
    return base + float(np.logaddexp(0.0, lower_series_log(theta, eta)))


def initial_term_floor(es, beta, u0, epsilon, t, t0, n_s=33):
    """Interior floor of the deterministic part:

        inf over |x| <= R - epsilon and s in [0, t] of (G_B u0)(s + t0, x).

    Strictly positive for nonnegative u0 that is positive somewhere; returns
    0.0 (with a warning) only when u0 vanishes identically on the grid.
    """
    eps = float(epsilon)
    if not (0.0 < eps < es.grid.R):
        raise DomainError(f"epsilon in (0, R) violated: {epsilon}")
    if t0 <= 0.0 or t < 0.0:
        raise DomainError("need t0 > 0 and t >= 0")
    s = np.linspace(0.0, float(t), int(n_s)) + float(t0)
    field = apply_semigroup(es, float(beta), s, u0)
    if not np.any(u0):
        warnings.warn("u0 is identically zero on the grid; floor is 0")
        return 0.0
    keep = np.abs(es.grid.nodes) <= es.grid.R - eps
    if not keep.any():
        raise DomainError("epsilon leaves no interior grid nodes")
    return float(field[:, keep].min())
