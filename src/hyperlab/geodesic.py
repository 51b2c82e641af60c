"""Exponential map from an origin event: timelike geodesics parametrized by
proper time rho, Jacobi fields realizing the intrinsic boost vector fields,
and a parallel-transported spatial triad E, orthogonal to B.

Each ray is one first-order system: x' = B, B' = -Gamma(B, B), and, in a
record with k, a payload: the parallel triad E' = -Gamma(B, E) and the
Jacobi fields J_a with J_a = 0 and DJ_a/drho = E_a at rho = 0 as triad
components, J_a = j_ab E_b and DJ_a/drho = p_ab E_b:  j' = p,  p' = -j Tt,
Tt_ab = T(E_a, E_b).

No Christoffel or Riemann array is built.  A plain lane (x and B alone)
takes B' from metric._ray_accel, five scalars per lane.  A lane with k
makes one metric._ray_terms call, which gives G^l_mn B^m and the tidal
tensor T_bd = R_abcd B^a B^c (from the four orthonormal curvature functions
K1-K4 of a static spherical metric) at once, as V^T c V + d I_s on the
per-lane basis V = (e0, u, v).  Both take their scalars from
metric._radial: a lane on the Schwarzschild chart (r >= r_out in the glued
model) takes closed exterior forms, and a lane in the blend annulus reads
them off the glued model's table (metric._table_ray), not the blend.

The second fundamental form of H_rho is read off the Jacobi fields, not
integrated: they are tangent to the leaf and commute with B, so
k(J_a, J_b) = <P_a, J_b>, and k in the triad is j^-1 p (q0 = trk - 3/rho
and the trace-free khat).  j ~ rho I and p ~ I have invariant sizes, so
the error norm holds k to the lane's tolerance at any rapidity (Jacobi
fields in coordinates grow like cosh(zeta), and k read off them is off by
about cosh(zeta)^2 times the tolerance).  _fields forms a record's fields
from its lane states: k, and the boost fields J_i = C_ia J_a,
C_ia = <W_i, E_a> at rho = 0, in coordinates.

Each record holds its straight line as one (2, dim) array _line: the lane
state at rho = 0 and its rho-derivative, with W_i = V^i e_0 + V^0 e_i the
boost Jacobi data (j = rho I, p = I, so J = rho W).  There k = gbar/rho
exactly, so q0 and khat are zero.  All lanes are seeded at once, in
stacked per-lane products, by one seed rule (_seed_rho, also the leaf
solver's origin check): from an origin in the flat core the integrator
starts from the line where it leaves the core, on r_in itself (the core is
exactly Minkowski up to and including r_in, so the line is exact there,
and no step is taken inside the core), or at the seed cap; from an origin
outside it a plain lane starts at rho = 0 from the origin state, and a
lane with k raises SeedRegionTooSmall.  state_at evaluates the line below
the seed.

The leaf solver's stencil needs only t and r at one rho of plain lanes
from a flat-core origin, and integrates nothing: the models are static and
spherical, so a lane keeps its energy and angular momentum
(_static_invariants), and _static_ends finds t and r by Gauss-Legendre
quadrature of the radial first integrals, zone by zone, with a Newton
solve per lane for the end radius.

Many rays are integrated together by a batched DOP853 (Hairer, Norsett and
Wanner, Solving ODEs I, II.4-6; the tableau and dense-output coefficients
are scipy's, kept bit for bit in dop853.npz, so the runtime needs numpy
alone) in which each ray is a lane with its own seed, step size, error
norm, tolerance, accept/reject decision and end point.  Only active lanes
are evaluated, and the system is autonomous.  _dop853 forms no dense
output and returns no end state: only its step log, the step ends (rho,
y, y') of all lanes, and its counters.  Every record made shares that
log, takes rho_reached off its lane's last row and reads at any rho up to
rho_reached.  A read gathers its steps by index (_dense).  A point on a
step end takes that end's row, the dense output there; the steps of the
others that are not yet cached are re-taken, per log, in one _stages pass
(the one stage loop) with the three dense stages, 15 right-hand-side
calls, bit for bit.  The error norm scales each block of the state (x^0,
x^i, B^0, B^i, the time and the spatial parts of E, and each field's row
of j and p) by the lane's tol (1 + |block|), so it does not change under
spatial rotations.  The glued profiles are only C^2 at r_in and r_out,
so a step that would straddle either radius is shortened onto it.  A
Schwarzschild lane stops on the horizon guard 2M (1 + 2 HORIZON_MARGIN)
and is marked truncated (a trial stage below it reads the guard's
scalars, metric._radial, and raises nothing).  Every contraction is per
lane (stacked matmuls, and one einsum per stage sum, summing the stage
axis in index order), so every record is bit-identical to the same
direction integrated alone at its own tolerance, whatever the rest of
the batch.  A scalar tolerance is the same as that value on every lane.
"""

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (OutOfRange, SeedRegionTooSmall, SingularityTruncated,
                     StepFailure)
from .metric import (HORIZON_MARGIN, _colsum, _orthonormalize,
                     _orthonormalize_stacked, _profiles, _ray_accel,
                     _ray_terms, metric_at)

DEFAULT_TOL = 1e-10
ZETA_MAX_DEFAULT = 6.0
RHO_SEED_MIN = 1e-3
SHELL_TOL = 1e-10       # a step lands on a radius R to within SHELL_TOL R
_FIELDS = ("x", "b", "j", "jp", "triad", "q0", "khat")   # keys of state_at
_DIM = (8, 38)          # lane width, plain or with k
_GL_NODES = 20          # nodes of _static_ends' rule, per panel
_ANNULUS_PANELS = (0.0, 0.15, 1.0)   # its panels over the annulus
_NEWTON_MAX = 12        # Newton steps of a lane's end in _static_ends


@dataclass(frozen=True)
class Direction:
    """Initial direction on the unit hyperboloid: rapidity zeta >= 0 and a
    unit 3-vector omega; the velocity is cosh(zeta) e0 + sinh(zeta) omega^i e_i
    in the orthonormal frame at the origin."""

    zeta: float
    omega: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if not (np.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError("zeta must be finite and nonnegative")
        w = np.asarray(self.omega, dtype=float)
        nw = np.linalg.norm(w)
        if w.shape != (3,) or not np.isfinite(nw) or nw == 0.0:
            raise ValueError("omega must be a nonzero 3-vector")
        object.__setattr__(self, "omega", tuple(w / nw))

    def hyperboloid_point(self):
        """Components (V^0, V^i) in the orthonormal frame at the origin."""
        w = np.asarray(self.omega)
        return np.concatenate([[np.cosh(self.zeta)], np.sinh(self.zeta) * w])

    def angles(self):
        """Polar and azimuthal angles (theta, phi) of omega; theta from
        arctan2, which keeps its full relative precision near the poles,
        where arccos(omega_z) rounds a tilt below about 1e-8 to 0."""
        om = np.asarray(self.omega)
        theta = np.arctan2(np.hypot(om[0], om[1]), om[2])
        return theta, np.arctan2(om[1], om[0])


def direction_from_angles(zeta, theta, phi):
    return Direction(zeta, (np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi),
                            np.cos(theta)))


@dataclass
class GeodesicRecord:
    """One rho-parametrized timelike geodesic; a record with k also carries
    the parallel triad, the boost Jacobi fields and k in that triad as read
    off them."""

    model: object
    origin: np.ndarray
    direction: Direction
    v0: np.ndarray                  # velocity at the origin, coordinates
    frame0: np.ndarray              # (4,4) rows e_0..e_3 at the origin
    rho: np.ndarray                 # requested sample grid
    x: np.ndarray                   # (n,4)
    b: np.ndarray                   # (n,4)
    j: np.ndarray = None            # (n,3,4) boost Jacobi fields J_i
    jp: np.ndarray = None           # (n,3,4) covariant rho-derivatives
    triad: np.ndarray = None        # (n,3,4) parallel triad, orthogonal to B
    q0: np.ndarray = None           # (n,)   trk - 3/rho, k = j^-1 p in the triad
    khat: np.ndarray = None         # (n,3,3) trace-free part of k in the triad
    ode_tol: float = DEFAULT_TOL    # this lane's own tolerance
    rho_seed: float = 0.0
    truncated: bool = False
    rho_reached: float = 0.0
    steps: int = 0                  # accepted integrator steps
    rejected: int = 0               # rejected steps, shell retries included
    rhs_evals: int = 0              # RHS evaluations; reads not counted
    _line: np.ndarray = field(default=None, repr=False)  # y, y' at rho = 0
    _log: object = field(default=None, repr=False)  # its integration's steps
    _at: int = field(default=0, repr=False)     # rows _at.._at + steps of _log
    _layout: bool = field(default=False, repr=False)   # with k
    _boost: np.ndarray = field(default=None, repr=False)  # with k: W | C

    @property
    def has_k(self):
        return self.q0 is not None

    def state_at(self, rho):
        """The integrated state at rho (scalar or array), any rho in
        (0, rho_reached]."""
        return _states_at([self], rho)[0]


def _states_at(recs, rho):
    """[rec.state_at(rho) for rec in recs], read in one _eval_rays batch
    (one model and layout)."""
    rho = np.asarray(rho, dtype=float)
    rq = np.atleast_1d(rho)
    for rec in recs:
        if np.any(rq <= 0.0) or np.any(rq > rec.rho_reached * (1 + 1e-12)):
            if rec.truncated and np.any(rq > rec.rho_reached):
                raise SingularityTruncated(
                    f"record truncated at rho={rec.rho_reached:.6g}")
            raise OutOfRange("rho outside the integrated range")
    got, n = _eval_rays(recs, [rq] * len(recs)), len(rq)
    return [{key: None if v is None else v[i] if rho.ndim == 0
             else v[i * n:(i + 1) * n] for key, v in got.items()}
            for i in range(len(recs))]


def _eval_rays(recs, rqs):
    """The fields of the records recs (one model and layout) at their proper
    times rqs[i], all at once, as arrays over the points, record after
    record (_fields): the straight line up to rho_seed, each step log's
    dense output above it (_dense)."""
    rq = np.concatenate(rqs)
    pr = np.repeat(np.arange(len(recs)), [len(r) for r in rqs])  # its rec
    line = np.array([rec._line for rec in recs])[pr]
    y = line[:, 0] + rq[:, None] * line[:, 1]
    up = rq > np.array([rec.rho_seed for rec in recs])[pr]
    lid = np.array([id(rec._log) for rec in recs])[pr]
    lo = np.array([rec._at for rec in recs])[pr]
    hi = lo + np.array([rec.steps for rec in recs])[pr]
    for log in {id(rec._log): rec._log for rec in recs}.values():
        p = up & (lid == id(log))
        if p.any():
            y[p] = _dense(log, lo[p], hi[p], rq[p], recs[0])
    return _fields(recs, pr, y, rq, up)


def _fields(recs, pr, y, rq, up):
    """The fields of _FIELDS at lane states y (m, dim) of the records
    recs[pr] (one layout) at proper times rq (m,), up where above the
    record's seed.  With k, k = j^-1 p and J_i = C_ia j_ab E_b,
    P_i = C_ia p_ab E_b above the seed, and J_i = rho W_i, P_i = W_i and
    zero q0, khat on the straight line below it."""
    raw = _unpack(y, recs[0]._layout)
    out = {key: raw.get(key) for key in _FIELDS}
    if recs[0]._layout:
        W, C = np.split(np.array([rec._boost for rec in recs])[pr], [4], 2)
        E, jt, pt = raw["triad"][up], raw["jt"][up], raw["pt"][up]
        out["j"], out["jp"] = rq[:, None, None] * W, W.copy()
        out["j"][up], out["jp"][up] = (C[up] @ jt) @ E, (C[up] @ pt) @ E
        k = np.zeros((len(rq), 3, 3))
        k[up] = np.linalg.solve(jt, pt)
        k = 0.5 * (k + k.transpose(0, 2, 1))
        trk = np.trace(k, axis1=1, axis2=2)
        out["q0"] = np.where(up, trk - 3.0 / rq, 0.0)
        out["khat"] = k - (trk / 3.0)[:, None, None] * np.eye(3)
    return out


def _dense(log, lo, hi, q, rec):
    """Lane states (m, dim) at the points q (m,) of one step log, whose
    lanes end their steps in rows lo to hi, each point's step found by
    index.  A point on its step's end takes the logged state there, which
    is the DOP853 dense output at that end (HNW II.6); the others take
    their step's dense output, by Horner.  Steps not yet cached are
    re-taken in one _stages pass with the three dense stages (model and
    layout of rec); each read's coefficients (y at the step's start,
    F_0..F_6) are kept whole: step s is row row[s] of coefs[chunk[s]]."""
    ts = log.ts
    ends = ts[np.minimum(lo[:, None] + np.arange((hi - lo).max() + 1),
                         hi[:, None])]
    s = lo + np.clip((ends < q[:, None]).sum(axis=1) - 1, 0, hi - lo - 1)
    y = log.yf[s + 1, 0]
    p = q != ts[s + 1]                  # off the step ends
    if not p.any():
        return y
    s, q = s[p], q[p]
    # each step once (np.unique's first call costs 0.7 MB of resident memory)
    new = np.flatnonzero(np.bincount(s[log.chunk[s] < 0], minlength=len(ts)))
    if len(new):
        (ya, f0), hs = log.yf[new].transpose(1, 0, 2), ts[new + 1] - ts[new]
        K, _ = _stages(_make_rhs(rec.model, rec._layout), ya, hs, f0, 16)
        h, dy = hs[:, None], log.yf[new + 1, 0] - ya
        coef = np.stack([ya, dy, h * K[0] - dy, 2 * dy - h * (K[12] + K[0])]
                        + [h * _lincomb(d, K) for d in _tableau().D], axis=1)
        log.chunk[new], log.row[new] = len(log.coefs), np.arange(len(new))
        log.coefs.append(coef)
    ch, c = log.chunk[s], np.empty((len(q), 8, log.yf.shape[2]))
    for j in np.flatnonzero(np.bincount(ch)):
        c[ch == j] = log.coefs[j][log.row[s[ch == j]]]
    x = ((q - ts[s]) / (ts[s + 1] - ts[s]))[:, None]
    d = np.zeros((len(q), c.shape[2]))
    for i in range(7, 0, -1):
        d += c[:, i]
        d *= x if i % 2 else 1.0 - x
    y[p] = d + c[:, 0]
    return y


def _unpack(y, with_k):
    """y: (m, dim) lane states -> dict of views: x, b and, with k, the triad
    with the triad components jt and pt of the J_a."""
    m = y.shape[0]
    o = {"x": y[:, 0:4], "b": y[:, 4:8]}
    if with_k:
        o["triad"] = y[:, 8:20].reshape(m, 3, 4)
        o["jt"] = y[:, 20:29].reshape(m, 3, 3)
        o["pt"] = y[:, 29:38].reshape(m, 3, 3)
    return o


def _make_rhs(model, with_k):
    """Right-hand side rhs(y) on lane states y (n, dim); the system is
    autonomous, so it reads no rho.  A plain lane (x and B alone) takes
    B' = -Gamma(B, B) from the five per-lane scalars of metric._ray_accel
    and forms no matrix.  A lane with k takes Gamma(B, .) and the tidal
    tensor T from one metric._ray_terms call; B and the rows of the triad
    E are contiguous rows of 4 in the state, so one per-lane matmul with
    gb^T gives Gamma(B, .) of every row at once."""

    def rhs(y):
        if not with_k:
            return np.concatenate([y[:, 4:8], _ray_accel(model, y[:, 0:4],
                                                         y[:, 4:8])], axis=1)
        n = len(y)
        gb, T = _ray_terms(model, y[:, 0:4], y[:, 4:8])
        Y = y[:, 4:20].reshape(n, 4, 4)
        dY = -(Y @ gb.transpose(0, 2, 1))   # -Gamma(B, row) for every row
        E = Y[:, 1:4]
        Tt = (E @ T) @ E.transpose(0, 2, 1)
        dy = np.empty_like(y)
        dy[:, 0:4] = y[:, 4:8]
        dy[:, 4:20] = dY.reshape(n, 16)
        dy[:, 20:29] = y[:, 29:38]          # dj = p, dp = -j E T E^T
        dy[:, 29:38] = -(y[:, 20:29].reshape(n, 3, 3) @ Tt).reshape(n, 9)
        return dy

    return rhs


# ---------------------------------------------------------------------------
# batched DOP853 with per-lane step control

def _norm_blocks(with_k):
    """Error-norm blocks of the state layout, an index table as wide as its
    longest block, padded with dim (a zero column): x^0, x^i, B^0, B^i and,
    with k, the time and the spatial parts of E over its three fields and
    each row of j and p (the invariant length of one J_a or DJ_a/drho)."""
    blocks = [[0], [1, 2, 3], [4], [5, 6, 7]]
    if with_k:
        f = np.arange(8, 20).reshape(3, 4)
        blocks += [f[:, 0], f[:, 1:].ravel(),
                   *np.arange(20, 38).reshape(6, 3)]
    table = np.full((len(blocks), max(map(len, blocks))), _DIM[with_k])
    for i, blk in enumerate(blocks):
        table[i, :len(blk)] = blk
    return table


def _block_sq(v, blocks):
    """Squared norm of every block of every lane, (n, blocks)."""
    s = np.concatenate([v * v, np.zeros((len(v), 1))], axis=1)
    return _colsum(s[:, blocks])


def _lincomb(coef, K):
    """sum_j coef[j] K[j], accumulated over j in index order per element."""
    return np.einsum('j,j...->...', coef, K[:len(coef)])


def _radius(y):
    return np.sqrt(_colsum(y[:, 1:4] * y[:, 1:4]))


def _reach(y, radii):
    """Proper time to the first crossing of any radius along each lane's
    tangent line (inf when it crosses none, or sits on the radius)."""
    x, v = y[:, 1:4], y[:, 5:8]
    xx, xv, vv = _colsum(x * x), _colsum(x * v), _colsum(v * v)
    out = np.full(len(y), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for R, _ in radii:
            c = xx - R * R
            root = np.sqrt(xv * xv - vv * c)
            s = np.where(c < 0, root - xv, np.where(xv < 0, -xv - root, -1.0))
            s = s / vv
            near = np.abs(np.sqrt(xx) - R) <= SHELL_TOL * R
            out = np.where((s > 0) & ~near, np.minimum(out, s), out)
    return out


def _crossing(ya, ys, hs, radii):
    """Secant step onto the first radius that a step straddles (inf if
    none), and whether the step ends on a terminal radius."""
    r0, r1 = _radius(ya), _radius(ys)
    sec = np.full(len(ya), np.inf)
    land = np.zeros(len(ya), bool)
    for R, terminal in radii:
        g0, g1 = r0 - R, r1 - R
        off = (np.abs(g0) > SHELL_TOL * R) & (np.abs(g1) > SHELL_TOL * R)
        cross = off & ((g0 > 0) != (g1 > 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            sec = np.where(cross, np.minimum(sec, hs * g0 / (g0 - g1)), sec)
        land |= terminal & (np.abs(g1) <= SHELL_TOL * R)
    return sec, land


@cache
def _tableau():
    """The DOP853 tableau A, C, E3, E5 and D, read from dop853.npz on first
    use (not at import); nothing writes to its arrays."""
    with np.load(Path(__file__).with_name("dop853.npz")) as f:
        return SimpleNamespace(**f)


def _stages(rhs, ya, hs, f0, n=13):
    """The first n stages K (16, lanes, dim) of DOP853 steps of size hs from
    ya, f0 = rhs(ya), and the last stage's argument: 13 take the steps (stage
    12's argument is the step end), 16 add the three dense-output stages."""
    A = _tableau().A
    K = np.empty((16,) + ya.shape)
    K[0] = f0
    for s in range(1, n):
        ys = ya + hs[:, None] * _lincomb(A[s, :s], K)
        K[s] = rhs(ys)
    return K, ys


def _dop853(rhs, t, y, t_end, tol, radii, blocks):
    """Integrate the lanes y (n, dim) from rho = t to t_end, both (n,),
    each at its own tolerance tol (n, 1).

    Step-size control and the starting step follow HNW II.4 as scipy does,
    with the block norm of _norm_blocks per lane.  radii holds (R, terminal)
    pairs: a step never straddles R, and a lane that lands on a terminal R
    stops there; a Schwarzschild trial stage below the horizon guard reads
    the guard's scalars (metric._radial).  Returns the step log and the
    per-lane (steps, rejected, rhs_evals) counts.  The log holds ts (N,)
    and yf (N, 2, dim), rho and y, y' at each lane's start and accepted
    step ends, lane after lane, from which _stages re-takes any step bit
    for bit; at (n,), each lane's first row (its last is at + steps); and
    an empty cache of re-taken steps (_dense; chunk[s] is -1).
    """
    n, dim = y.shape
    tab = _tableau()
    t, y = t.copy(), y.copy()
    f = rhs(y)
    sc = tol + tol * np.sqrt(_block_sq(y, blocks))

    def rms(v):
        return np.sqrt(_colsum(_block_sq(v, blocks) / sc**2) / dim)

    d0, d1 = rms(y), rms(f)
    with np.errstate(divide="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_end - t)
        dmax = np.maximum(d1, rms(rhs(y + h0[:, None] * f) - f) / h0)
        h1 = np.where(dmax <= 1e-15, np.maximum(1e-6, 1e-3 * h0),
                      (0.01 / dmax) ** 0.125)
    h = np.minimum(np.minimum(100.0 * h0, h1), t_end - t)
    cap = np.full(n, np.inf)            # secant step onto a straddled radius
    retry = np.zeros(n, bool)           # error-rejected since the last step
    done = np.zeros(n, bool)
    steps, nrej, nfev = np.zeros(n, int), np.zeros(n, int), np.full(n, 2)
    ends = [(np.arange(n), t.copy(), np.stack([y, f], axis=1))]
    while not done.all():
        a = np.flatnonzero(~done)
        ta, ya, ha = t[a], y[a], h[a]
        # written so that a NaN step (a non-finite lane state) fails too
        if not np.all(ha >= 10 * np.abs(np.nextafter(ta, np.inf) - ta)):
            raise StepFailure("step size fell below the rounding level of "
                              "rho, or is not finite")
        tn = np.minimum(ta + np.minimum(np.minimum(ha, cap[a]),
                                        _reach(ya, radii)), t_end[a])
        hs = tn - ta
        K, ys = _stages(rhs, ya, hs, f[a])
        nfev[a] += 12
        scale = tol[a] + tol[a] * np.sqrt(np.maximum(_block_sq(ya, blocks),
                                                     _block_sq(ys, blocks)))
        n5, n3 = (_colsum(_block_sq(_lincomb(e, K), blocks) / scale**2)
                  for e in (tab.E5, tab.E3))
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(n5 + n3 > 0,
                           hs * n5 / np.sqrt((n5 + 0.01 * n3) * dim), 0.0)
            fac = 0.9 * err ** -0.125
        sec, land = _crossing(ya, ys, hs, radii)
        ok = (err < 1) & np.isinf(sec)
        grow = hs * np.minimum(np.where(retry[a], 1.0, 10.0), fac)
        h[a] = np.where(ok, np.where(hs < ha, np.maximum(ha, grow), grow),
                        np.where(err < 1, ha, hs * np.fmax(0.2, fac)))
        retry[a] = ~ok & (retry[a] | ~(err < 1))
        cap[a] = np.where(ok, np.inf, np.minimum(cap[a], sec))
        nrej[a] += ~ok
        i = np.flatnonzero(ok)
        if len(i) == 0:
            continue
        acc, yf = a[i], np.stack([ys[i], K[12, i]], axis=1)
        t[acc], y[acc], f[acc] = tn[i], yf[:, 0], yf[:, 1]
        ends.append((acc, tn[i], yf))
        steps[acc] += 1
        done[acc] = land[i] | (tn[i] == t_end[acc])
    lane, ts, yf = (np.concatenate(c) for c in zip(*ends))
    o, at = np.argsort(lane, kind="stable"), np.cumsum(steps + 1) - steps - 1
    log = SimpleNamespace(ts=ts[o], yf=yf[o], at=at, coefs=[],
                          chunk=np.full(len(o), -1), row=np.zeros(len(o), int))
    return log, (steps, nrej, nfev)


def _velocities(model, origin, directions):
    """g at the origin (also g on each seed line), the orthonormal frame of
    the static observer there (4, 4), rows e_0..e_3, and per direction its
    hyperboloid point vh (Direction.hyperboloid_point) and coordinate
    velocity v0 = vh frame, each (n, 4)."""
    g0 = metric_at(model, origin, level=0).g
    e0 = np.eye(4)[0] / np.sqrt(-g0[0, 0])
    frame0 = np.vstack([e0, _orthonormalize(g0, [e0], np.eye(4)[1:], 3)])
    zw = np.array([(d.zeta,) + d.omega for d in directions]).reshape(-1, 4)
    vh = np.concatenate([np.cosh(zw[:, :1]), np.sinh(zw[:, :1]) * zw[:, 1:]],
                        axis=1)
    return g0, frame0, vh, (vh[:, None] @ frame0)[:, 0]


def _seed_rho(model, origin, v0, rho_max, with_k):
    """Per lane, v0 (n, 4) its velocity at the origin, the rho at which
    the straight line leaves the flat core (_core_exit), capped below the
    first samples; 0 when the origin is not inside that core.  with_k
    raises SeedRegionTooSmall at the first lane below RHO_SEED_MIN: k is
    checked against an independent oracle (the finite-difference fan) only
    from origins in the flat core."""
    xs, cap = origin[1:], min(1.0, 0.25 * rho_max)
    seed = np.zeros(len(v0))
    if xs @ xs < model.flat_core_radius ** 2:
        seed = np.minimum(_core_exit(model, origin, v0)[0], cap)
    if with_k and np.any(seed < RHO_SEED_MIN):
        raise SeedRegionTooSmall(
            f"flat-core seed rho={seed[seed < RHO_SEED_MIN][0]:.3g} below "
            f"{RHO_SEED_MIN:g}: a lane with k must start inside the flat core")
    return seed


def _core_exit(model, origin, v0):
    """Per lane of an origin inside the flat core, v0 (n, 4) its velocity
    there: the rho at which the straight line leaves the core, on its edge
    r_in (the core is exactly Minkowski up to and including r_in; inf on
    the central line, v2 < 1e-28, and in an infinite core), and x.v at the
    exit (r dr/drho there), formed from the origin's x.v as
    sqrt((x.v)^2 + v2 (r_in^2 - |x|^2)), without cancellation.  Dots are
    stacked per-lane matmuls and a square is libm's pow (a scalar's ** 2;
    an array's is x * x, at times a bit off), so a lane's exit is its
    own."""
    xs, b2 = origin[1:], model.flat_core_radius ** 2
    vs = v0[:, 1:, None]
    v2, xv = (vs.transpose(0, 2, 1) @ vs)[:, 0, 0], (xs @ vs)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.float_power(xv, 2) + v2 * (b2 - xs @ xs))
        return np.where(v2 < 1e-28, np.inf, (-xv + root) / v2), root


def _static_invariants(model, x, b):
    """The conserved energy E = n2 B^t and angular momentum L = A |x ^ v|
    of geodesics in a static spherical model (metric._profiles), at lane
    states x, b (n, 4), v the spatial part of B; elementwise per lane."""
    xs = x[:, 1:]
    n2, _, A, *_ = _profiles(model, np.sqrt(_colsum(xs * xs)), False)
    c = np.cross(xs, b[:, 1:])
    return n2 * b[:, 0], A * np.sqrt(_colsum(c * c))


@cache
def _gauss_legendre():
    """The _GL_NODES-point Gauss-Legendre rule on [-1, 1], nodes and
    weights, built on first use (not at import); nothing writes to it."""
    rule = np.polynomial.legendre.leggauss(_GL_NODES)
    for a in rule:
        a.flags.writeable = False
    return rule


def _quad(f, a, b, panels=(0.0, 1.0)):
    """Per lane, the sums over [a, b] (n,) of the integrands (k, n, nodes)
    that f maps the nodes (n, nodes) to, an array (k, n): the
    Gauss-Legendre rule on each panel of [a, b], its ends at the fractions
    panels of b - a, all nodes in one call of f and summed in index order
    (_colsum)."""
    x, w = _gauss_legendre()
    p = np.array(panels)
    h = 0.5 * np.diff(p)[:, None]
    y, wy = (p[:-1, None] + h * (1.0 + x)).ravel(), (h * w).ravel()
    return (b - a) * _colsum(wy * f(a[:, None] + (b - a)[:, None] * y))


def _end_by_newton(f, a, b, dist, panels=(0.0, 1.0)):
    """Per lane, the end b of [a, b] over which the first integrand of f
    (positive; f(u, lanes) as _quad's f, on those lanes) sums to dist, by
    Newton steps from b (n,), and the sums (k, n) of every integrand over
    [a, b].  Each lane stops on its own, on a step below 1e-9 (b - a) or
    after _NEWTON_MAX steps, and its last step moves its sums to first
    order, by the integrands at the step's start."""
    sums = np.zeros((2, len(b)))
    todo = np.arange(len(b))
    for _ in range(_NEWTON_MAX):
        if len(todo) == 0:
            break
        q = _quad(lambda u: f(u, todo), a[todo], b[todo], panels)
        g = f(b[todo, None], todo)[:, :, 0]
        d = (q[0] - dist[todo]) / g[0]
        b[todo] -= d
        sums[:, todo] = q - g * d
        todo = todo[np.abs(d) > 1e-9 * (b[todo] - a[todo])]
    return b, sums


def _static_ends(model, origin, directions, rho):
    """Time (relative to the origin) and radius at proper time rho of the
    plain lanes of directions from an origin in the flat core of a glued or
    Minkowski model, by quadrature, with no integration.  A lane follows
    its straight line up to its core exit (_core_exit, uncapped).  Past
    r_in it keeps E = n2 B^t and L = A |x ^ v| (_static_invariants, E = B^t
    in the core), so with v2 = |v|^2 = E^2 - 1, sigma^2 = v2 r^2 - L^2 and
        D = (r dr/drho)^2 C = sigma^2 + E^2 r^2 (1 - n2)/n2 + L^2 (A - 1)/A
    (metric._profiles, C = A + Bc r^2), drho/dr = r sqrt(C/D) and
    dt/drho = E/n2.  n2 <= 1 and A r^2 grows with r, so D >= sigma^2 > 0
    and no lane leaving the core turns back.  The profiles are only C^2 at
    r_out, so each zone takes its own Gauss-Legendre rule (_quad): the
    annulus in sigma, drho/dsigma = sigma sqrt(C/D)/v2, smooth also on a
    lane that leaves the core grazing it (sigma = 0 at r_in), and the
    exterior in ln r, drho/dln r = r^2 sqrt(C/D).  Newton steps from the
    straight line (_end_by_newton) find where each lane reaches rho.  Every
    operation is elementwise per lane, so a lane's t and r do not depend
    on the batch."""
    origin = np.asarray(origin, dtype=float)
    *_, v0 = _velocities(model, origin, directions)
    exit_, sig_in = _core_exit(model, origin, v0)
    t = rho * v0[:, 0]
    x = origin[1:] + rho * v0[:, 1:]
    r = np.sqrt(_colsum(x * x))
    i = np.flatnonzero(rho > exit_)             # lanes that leave the core
    if len(i) == 0:
        return t, r
    E, L = _static_invariants(model, np.broadcast_to(origin, v0.shape), v0)
    E, L2, sig_in, v0 = E[i], L[i] * L[i], sig_in[i], v0[i]
    v2 = _colsum(v0[:, 1:] * v0[:, 1:])
    b2, r_out = model.r_in ** 2, model.r_out

    def rates(lanes, r, sig2, jac):
        """drho and dt per unit of a zone's variable at radii r, jac being
        drho per unit of it times sqrt(D/C)."""
        n2, _, A, _, Bc, _ = _profiles(model, r, False)
        e = E[lanes, None]
        D = (sig2 + e * e * (r * r) * ((1.0 - n2) / n2)
             + L2[lanes, None] * ((A - 1.0) / A))
        drho = jac * np.sqrt((A + Bc * (r * r)) / D)
        return np.array([drho, e / n2 * drho])

    def r_of(s, lanes):                         # the annulus radius
        si = sig_in[lanes, None]
        return np.sqrt(b2 + (s - si) * (s + si) / v2[lanes, None])

    def annulus(s, lanes):
        return rates(lanes, r_of(s, lanes), s * s, s / v2[lanes, None])

    def exterior(s, lanes):
        r = np.exp(s)
        return rates(lanes, r, v2[lanes, None] * (r * r) - L2[lanes, None],
                     r * r)

    # the proper time left past the exit, and the whole annulus's sums;
    # each Newton solve starts from the straight line, sigma growing by v2
    # per unit of rho (sigma = x.v on a line)
    dist, t0 = rho - exit_[i], exit_[i] * E
    sig_out = np.sqrt(sig_in * sig_in + v2 * (r_out * r_out - b2))
    every = np.arange(len(i))
    full = _quad(lambda s: annulus(s, every), sig_in, sig_out,
                 _ANNULUS_PANELS)
    j = np.flatnonzero(dist <= full[0])         # ends in the annulus
    s, (_, dt) = _end_by_newton(
        lambda u, m: annulus(u, j[m]), sig_in[j],
        np.minimum(sig_in[j] + v2[j] * dist[j], sig_out[j]), dist[j],
        _ANNULUS_PANELS)
    t[i[j]], r[i[j]] = t0[j] + dt, r_of(s[:, None], j)[:, 0]
    k = np.flatnonzero(dist > full[0])          # ends in the exterior
    left = dist[k] - full[0, k]
    flat = sig_out[k] + v2[k] * left
    s, (_, dt) = _end_by_newton(
        lambda u, m: exterior(u, k[m]), np.full(len(k), np.log(r_out)),
        0.5 * np.log(r_out * r_out + (flat - sig_out[k]) * (flat + sig_out[k])
                     / v2[k]), left)
    t[i[k]], r[i[k]] = t0[k] + full[1, k] + dt, np.exp(s)
    return t, r


def _lanes(model, origin, directions, rho_grid, ode_tol, with_k):
    """Seed one lane per direction, as arrays over lanes (the hyperboloid
    points, v0, _seed_rho, the triad, the boost fields W and C and the lines
    (n, 2, dim)), and integrate them all to the end of rho_grid: the
    records, with their counters and step log but no samples yet."""
    origin = np.asarray(origin, dtype=float)
    if not np.all(np.isfinite(origin)):
        raise ValueError("origin must be finite")
    rho_grid = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    if (not np.all(np.isfinite(rho_grid)) or np.any(np.diff(rho_grid) <= 0)
            or rho_grid[0] <= 0):
        raise ValueError("rho grid must be finite, positive and strictly "
                         "increasing")
    n, dim = len(directions), _DIM[with_k]
    tol = np.broadcast_to(np.asarray(ode_tol, dtype=float), (n,))
    if not np.all(tol > 0):
        raise ValueError("ode_tol must be > 0")
    g0, frame0, vh, v0 = _velocities(model, origin, directions)
    seed = _seed_rho(model, origin, v0, rho_grid[-1], with_k)
    line = np.zeros((n, 2, dim))                # state, d/drho at rho = 0
    st, dst = _unpack(line[:, 0], with_k), _unpack(line[:, 1], with_k)
    st["x"][:], dst["x"][:] = origin, v0
    st["b"][:] = v0
    boost = [None] * n
    if with_k:  # the frame vectors are coordinate-constant in the core;
        # no triad remainder is below g-norm 1 for unit timelike v0
        E = st["triad"][:] = _orthonormalize_stacked(
            g0, v0[:, None], np.broadcast_to(frame0[1:], (n, 3, 4)), 3)
        st["pt"][:] = dst["jt"][:] = np.eye(3)          # J_a = rho E_a
        W = vh[:, 1:, None] * frame0[0] + vh[:, :1, None] * frame0[1:]
        boost = np.concatenate([W, (W @ g0) @ E.transpose(0, 2, 1)], axis=2)

    radii = [(R, False) for R in model.shell_radii]
    if model.kind == "schwarzschild":
        radii.append((2.0 * model.mass * (1.0 + 2.0 * HORIZON_MARGIN), True))
    log, counts = _dop853(
        _make_rhs(model, with_k), seed,
        line[:, 0] + seed[:, None] * line[:, 1], np.full(n, rho_grid[-1]),
        tol[:, None], radii, _norm_blocks(with_k))
    reached = log.ts[log.at + counts[0]]        # each lane's last row
    steps, nrej, nfev = (c.tolist() for c in counts)
    recs = [GeodesicRecord(
        model=model, origin=origin, direction=d, v0=v0[i], frame0=frame0,
        rho=rho_grid[rho_grid <= reached[i] * (1 + 1e-12)], x=None, b=None,
        ode_tol=float(tol[i]), rho_seed=float(seed[i]),
        truncated=bool(reached[i] < rho_grid[-1]),
        rho_reached=float(reached[i]),
        steps=steps[i], rejected=nrej[i], rhs_evals=nfev[i], _line=line[i],
        _log=log, _at=int(log.at[i]), _layout=with_k, _boost=boost[i])
        for i, d in enumerate(directions)]
    return recs


def integrate_rays(model, origin, directions, rho_grid, ode_tol=DEFAULT_TOL,
                   with_jacobi=False, with_k=False):
    """Integrate several directions from one origin, one lane each.

    ode_tol is one tolerance for all directions or one per direction.
    A record with k integrates x, B, the parallel triad and the Jacobi
    fields in the triad, and its q0 and khat are k in the triad, taken from
    the Jacobi fields.  with_jacobi is an alias of with_k, kept because the
    benchmark passes it: a record carries Jacobi fields exactly when it
    carries k.  Returns one GeodesicRecord per direction, each
    bit-identical to the same direction integrated alone at its own
    tolerance.  All directions must start inside the flat core when k is
    requested; a plain lane from an origin outside it starts at rho = 0.  A
    Schwarzschild lane that reaches the horizon guard stops there
    (truncated, with its own rho_reached).
    """
    recs = _lanes(model, origin, directions, rho_grid, ode_tol,
                  with_jacobi or with_k)
    out, i = _eval_rays(recs, [rec.rho for rec in recs]), 0
    for rec in recs:                    # len(rec.rho) rows each, in order
        for key, val in out.items():
            setattr(rec, key, None if val is None else val[i:i + len(rec.rho)])
        i += len(rec.rho)
    return recs


def exp_map(model, origin, direction, rho_grid, ode_tol=DEFAULT_TOL,
            with_k=False):
    """Integrate a single geodesic record (optionally with the triad, the
    Jacobi fields and k)."""
    return integrate_rays(model, origin, [direction], rho_grid,
                          ode_tol=ode_tol, with_k=with_k)[0]


@dataclass
class FanGrid:
    """Product family of records over (zeta, theta, phi) direction grids."""

    model: object
    origin: np.ndarray
    zeta_grid: np.ndarray
    theta_grid: np.ndarray
    phi_grid: np.ndarray
    rho_grid: np.ndarray
    records: list

    def index(self, iz, it, ip):
        return (iz * len(self.theta_grid) + it) * len(self.phi_grid) + ip

    def record(self, iz, it, ip):
        return self.records[self.index(iz, it, ip)]

    @property
    def shape(self):
        return (len(self.zeta_grid), len(self.theta_grid), len(self.phi_grid))


def fan_build(model, origin, zeta_grid, theta_grid, phi_grid, rho_grid,
              ode_tol=DEFAULT_TOL, with_k=True):
    """Build the full fan in a single batched integration.

    Record order is lexicographic in (zeta, theta, phi), independent of any
    parallel execution of downstream consumers.  Each grid may ascend or
    descend but must be strictly monotone; records follow the grids in the
    order given, and the finite-difference helpers over a fan use the signed
    mean spacing of each axis, so their stencils hold either way.
    """
    zeta_grid = np.atleast_1d(np.asarray(zeta_grid, dtype=float))
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    phi_grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    for g, name in ((zeta_grid, "zeta"), (theta_grid, "theta"), (phi_grid, "phi")):
        d = np.diff(g)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError(f"{name} grid must be strictly monotone")
    dirs = [direction_from_angles(z, th, ph)
            for z in zeta_grid for th in theta_grid for ph in phi_grid]
    recs = integrate_rays(model, origin, dirs, rho_grid, ode_tol=ode_tol,
                          with_k=with_k)
    return FanGrid(model=model, origin=np.asarray(origin, dtype=float),
                   zeta_grid=zeta_grid, theta_grid=theta_grid,
                   phi_grid=phi_grid, rho_grid=np.atleast_1d(rho_grid),
                   records=recs)
