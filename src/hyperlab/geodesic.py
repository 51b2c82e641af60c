"""Exponential map from an origin event: timelike geodesics parametrized by
proper time rho, Jacobi fields realizing the intrinsic boost vector fields,
a parallel-transported spatial triad, and the regularized second fundamental
form variables transported along each ray.

The full per-ray state is integrated as one first-order system:

    x' = B                                  (position)
    B'^l = -G^l_mn B^m B^n                  (geodesic)
    J'^l = P^l - G^l_mn B^m J^n             (Jacobi field, coordinate comps)
    P'^l = R^l_bcd B^b B^c J^d - G^l_mn B^m P^n     (D^2 J/drho^2 = R(B,J)B)
    E'^l = -G^l_mn B^m E^n                  (parallel triad, orthogonal to B)
    q0'  = -(2/rho) q0 - q0^2/3 - Ric(B,B) - |kh|^2      (q0 = trk - 3/rho)
    kh'  = -(2/3) trk kh - Rhat(B,E,B,E) - (kh^2 - |kh|^2 I/3)

with Rhat the trace-free tidal tensor in the triad.  Each evaluation makes
one metric._ray_terms call, which gives G^l_mn B^m in closed form from the
radial coefficients of metric._radial and, with a payload, the tidal tensor
T_bd = R_abcd B^a B^c from the four orthonormal curvature functions K1-K4
of a static spherical metric; no Christoffel or Riemann array is built.  A
lane on the Schwarzschild chart (r >= r_out in the glued model) takes the
closed exterior form, K = (-2, 1, -1, 2) 2M/R^3 with R = r + 2M, and skips
the blend; the other lanes of the batch take the blended profiles.  Both
curvature terms use T: Rhat is E T E^T less its trace, and
R^l_bcd B^b B^c = -g^{la} T_ad by pair symmetry.  Each record holds its
straight line as one (2, dim) array _line: the lane state at rho = 0
(x = origin, B = V, P = W, the triad E) and its rho-derivative (x' = V,
J' = W), with W_i = V^i e_0 + V^0 e_i the boost Jacobi data; the
regularized variables vanish, as k = gbar/rho exactly.  One seed rule holds
for every lane (_seed_rho): from an origin in the flat core the line is
exact there, and the integrator starts from it at the largest proper time
still inside the core, with or without k; from an origin outside the core
a lane without k starts at rho = 0 exactly, from the origin state (its
right-hand side does not read rho), and a lane with k, whose q0' has a
1/rho term, raises SeedRegionTooSmall.  state_at evaluates the line below
the seed.

Many rays are integrated together by a batched DOP853 (Hairer, Norsett and
Wanner, Solving ODEs I, II.4-6; the tableau and dense-output coefficients
A, C, E3, E5 and D are scipy's, kept bit for bit in dop853.npz, so the
runtime needs numpy alone) in which each ray is a lane with its own seed,
step size, error norm, tolerance, accept/reject decision, end point and
dense output.  Only active lanes are evaluated, and the right-hand side
takes one rho per lane.  _ray_ends, for every iterate of the leaf solver
(a loose one without k, a tight leaf record with k), runs the same steps
without the three dense-output stages and keeps only each lane's end
state, its one sample at rho.
The error norm scales each block of the state (x^0, x^i, B^0, B^i, the time
and the spatial parts of J, P and the triad, q0, khat) by the lane's tol
(1 + |block|), so it does not change under spatial rotations.  The glued
profiles are only C^2 at r_in and r_out, so no step straddles either
radius: a step is shortened onto the crossing.  A Schwarzschild lane stops
on the horizon guard 2M (1 + 2 HORIZON_MARGIN) and is marked truncated.
Every contraction is per lane: the right-hand side's products are stacked
matmuls, one small matrix product per lane (Gamma(B, .) of the B, J, P and
E rows at once, and the two curvature terms), each stage sum is one einsum
that sums the stage axis in index order, and the rest is elementwise in a
fixed order.  No lane's arithmetic sees another lane, so every record is
bit-identical to the same direction integrated alone at its own tolerance,
whatever the rest of the batch and its tolerances.  A scalar tolerance is
the same as that value on every lane.
"""

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (OutOfRange, SeedRegionTooSmall, SingularityTruncated,
                     StepFailure)
from .metric import (HORIZON_MARGIN, _colsum, _orthonormalize, _ray_terms,
                     metric_at)

DEFAULT_TOL = 1e-10
ZETA_MAX_DEFAULT = 6.0
RHO_SEED_MIN = 1e-3
SHELL_TOL = 1e-10       # a step lands on a radius R to within SHELL_TOL R
# packed upper triangle (00, 01, 02, 11, 12, 22) of a symmetric 3x3 matrix
_SYM6_ROW, _SYM6_COL = np.triu_indices(3)
_SYM6_OF = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_FIELDS = ("x", "b", "j", "jp", "triad", "q0", "khat")   # keys of _unpack


def sym6_to_mat(v):
    return v[..., _SYM6_OF]


def mat_to_sym6(m):
    return m[..., _SYM6_ROW, _SYM6_COL]


@dataclass(frozen=True)
class Direction:
    """Initial direction on the unit hyperboloid: rapidity zeta >= 0 and a
    unit 3-vector omega; the velocity is cosh(zeta) e0 + sinh(zeta) omega^i e_i
    in the orthonormal frame at the origin."""

    zeta: float
    omega: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if self.zeta < 0:
            raise ValueError("zeta must be nonnegative")
        w = np.asarray(self.omega, dtype=float)
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
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


def _frame(g):
    """Orthonormal frame {e_mu} at the origin from the metric g there, e_0
    along the static observer; rows are the frame vectors in coordinates."""
    e0 = np.zeros(4)
    e0[0] = 1.0 / np.sqrt(-g[0, 0])
    return np.vstack([e0, _orthonormalize(g, [e0], np.eye(4)[1:], 3)])


@dataclass
class GeodesicRecord:
    """One rho-parametrized timelike geodesic with optional Jacobi fields,
    parallel triad and transported second fundamental form."""

    model: object
    origin: np.ndarray
    direction: Direction
    v0: np.ndarray                  # velocity at the origin, coordinates
    frame0: np.ndarray              # (4,4) rows e_0..e_3 at the origin
    rho: np.ndarray                 # requested sample grid
    x: np.ndarray                   # (n,4)
    b: np.ndarray                   # (n,4)
    j: np.ndarray = None            # (n,3,4)
    jp: np.ndarray = None           # (n,3,4) covariant rho-derivatives
    triad: np.ndarray = None        # (n,3,4)
    q0: np.ndarray = None           # (n,)   trk - 3/rho
    khat: np.ndarray = None         # (n,3,3) trace-free part in the triad
    ode_tol: float = DEFAULT_TOL    # this lane's own tolerance
    rho_seed: float = 0.0
    truncated: bool = False
    rho_reached: float = 0.0
    steps: int = 0                  # accepted integrator steps
    rejected: int = 0               # rejected steps, shell retries included
    rhs_evals: int = 0              # right-hand-side evaluations of this lane
    _line: np.ndarray = field(default=None, repr=False)  # y, y' at rho = 0
    _dense: tuple = field(default=None, repr=False)    # (step ends, coefs)
    _layout: tuple = field(default=None, repr=False)   # (with_jacobi, with_k)

    @property
    def has_jacobi(self):
        return self.j is not None

    @property
    def has_k(self):
        return self.q0 is not None

    def state_at(self, rho):
        """Evaluate the integrated state at arbitrary rho (scalar or array).
        A record without dense output (_ray_ends) keeps its end state only:
        it returns that one sample at its own rho and raises OutOfRange at
        any other rho."""
        rho = np.asarray(rho, dtype=float)
        scalar = rho.ndim == 0
        rq = np.atleast_1d(rho)
        if np.any(rq <= 0.0) or np.any(rq > self.rho_reached * (1 + 1e-12)):
            if self.truncated and np.any(rq > self.rho_reached):
                raise SingularityTruncated(
                    f"record truncated at rho={self.rho_reached:.6g}")
            raise OutOfRange("rho outside the integrated range")
        if self._dense is None:
            if len(self.rho) == 0 or np.any(rq != self.rho[-1]):
                raise OutOfRange("record keeps its end state only")
            end = np.zeros(len(rq), int)
            out = {key: None if getattr(self, key) is None
                   else getattr(self, key)[end] for key in _FIELDS}
        else:
            out = _eval_ray(self, rq)
        if scalar:
            out = {k: (v[0] if v is not None else None) for k, v in out.items()}
        return out


def _eval_ray(rec, rq):
    """The lane's fields at the proper times rq: the straight line up to
    rho_seed, the dense output above it."""
    y = rec._line[0] + rq[:, None] * rec._line[1]
    above = rq > rec.rho_seed
    if np.any(above):
        y[above] = _dense_eval(*rec._dense, rq[above])
    return _unpack(y, *rec._layout)


def _dense_eval(ts, coef, rq):
    """DOP853 dense output of one lane at the proper times rq.  Step k runs
    from ts[k] to ts[k+1]; coef[k] holds y there and the seven
    interpolation coefficients F_0..F_6."""
    k = np.clip(np.searchsorted(ts, rq) - 1, 0, len(coef) - 1)
    x = ((rq - ts[k]) / (ts[k + 1] - ts[k]))[:, None]
    c = coef[k]
    y = np.zeros((len(rq), c.shape[2]))
    for i in range(7, 0, -1):
        y += c[:, i]
        y *= x if i % 2 else 1.0 - x
    return y + c[:, 0]


def _unpack(y, nj, nk):
    """y: (m, dim) lane states -> dict of views into y (khat, unpacked from
    its upper triangle, is a copy)."""
    m = y.shape[0]
    o = {}
    o["x"] = y[:, 0:4]
    o["b"] = y[:, 4:8]
    p = 8
    if nj:
        o["j"] = y[:, p:p + 12].reshape(m, 3, 4)
        o["jp"] = y[:, p + 12:p + 24].reshape(m, 3, 4)
        p += 24
    else:
        o["j"] = o["jp"] = None
    if nk:
        o["triad"] = y[:, p:p + 12].reshape(m, 3, 4)
        o["q0"] = y[:, p + 12]
        o["khat"] = sym6_to_mat(y[:, p + 13:p + 19])
        p += 19
    else:
        o["triad"] = o["q0"] = o["khat"] = None
    return o


def _make_rhs(model, nj, nk):
    """Right-hand side rhs(rho, y) on lane states y (n, dim), one rho per
    lane, with one metric._ray_terms call per evaluation: Gamma(B, .) and,
    with a payload, the tidal tensor T from the closed K1-K4 form.

    B, J, P and the triad E are contiguous rows of 4 in the state, so one
    per-lane matmul with gb^T gives Gamma(B, .) of every row at once."""
    eye3 = np.eye(3)
    m = 1 + 3 * (2 * nj + nk)               # rows B, J_i, P_i, E_i

    def rhs(rho, y):
        n = len(y)
        gb, T, g_inv = _ray_terms(model, y[:, 0:4], y[:, 4:8], nj or nk)
        Y = y[:, 4:4 + 4 * m].reshape(n, m, 4)
        dY = -(Y @ gb.transpose(0, 2, 1))   # -Gamma(B, row) for every row
        if nj:
            dY[:, 1:4] += Y[:, 4:7]                 # dJ = P - Gamma(B, J)
            dY[:, 4:7] -= (Y[:, 1:4] @ T) @ g_inv   # dP = R(B, J)B - Gamma(B, P)
        dy = np.empty_like(y)
        dy[:, 0:4] = y[:, 4:8]
        dy[:, 4:4 + 4 * m] = dY.reshape(n, 4 * m)
        if nk:
            p = 4 + 4 * m
            E = Y[:, m - 3:]
            q0 = y[:, p]
            kh = sym6_to_mat(y[:, p + 1:p + 7])
            tidal = (E @ T) @ E.transpose(0, 2, 1)
            ric_bb = np.einsum('nii->n', tidal)
            rhat = tidal - (ric_bb[:, None, None] / 3.0) * eye3
            kh2 = np.einsum('nij,njk->nik', kh, kh)
            kh_sq = np.einsum('nii->n', kh2)
            trk = 3.0 / rho + q0
            dq0 = -(2.0 / rho) * q0 - q0 * q0 / 3.0 - ric_bb - kh_sq
            dkh = (-(2.0 / 3.0) * trk[:, None, None] * kh - rhat
                   - (kh2 - (kh_sq[:, None, None] / 3.0) * eye3))
            dy[:, p] = dq0
            dy[:, p + 1:p + 7] = mat_to_sym6(dkh)
        return dy

    return rhs


# ---------------------------------------------------------------------------
# batched DOP853 with per-lane step control

def _norm_blocks(nj, nk):
    """Error-norm blocks of the state layout: an index table (blocks, 9)
    padded with dim (a zero column), and the weight of each component.
    The blocks are x^0, x^i, B^0, B^i, the time and the spatial parts of J,
    P and the triad over their three fields, q0 and khat, whose packed
    off-diagonals count twice."""
    blocks = [[0], [1, 2, 3], [4], [5, 6, 7]]
    p = 8
    for _ in range(2 * nj + nk):
        f = np.arange(p, p + 12).reshape(3, 4)
        blocks += [f[:, 0], f[:, 1:].ravel()]
        p += 12
    weight = np.ones(p + 7 * nk)
    if nk:
        blocks += [[p], np.arange(p + 1, p + 7)]
        weight[[p + 2, p + 3, p + 5]] = 2.0
    table = np.full((len(blocks), 9), len(weight))
    for i, blk in enumerate(blocks):
        table[i, :len(blk)] = blk
    return table, weight


def _block_sq(v, blocks):
    """Squared norm of every block of every lane, (n, blocks)."""
    table, weight = blocks
    s = np.concatenate([weight * v * v, np.zeros((len(v), 1))], axis=1)
    return _colsum(s[:, table])


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


def _dop853(rhs, t, y, t_end, tol, radii, blocks, dense):
    """Integrate the lanes y (n, dim) from rho = t to t_end, both (n,),
    each at its own tolerance tol (n, 1).

    Step-size control, starting step and dense output follow HNW II.4-6 as
    scipy does, with the block norm of _norm_blocks per lane.  radii holds
    (R, terminal) pairs: a step never straddles R, and a lane that lands on
    a terminal R stops there.  Returns the rho reached, the end states, the
    truncation flags, each lane's dense segments (step ends, coefficients)
    and the per-lane (steps, rejected, rhs_evals) counts.  Without dense the
    three extra stages of the dense output are skipped and the segments are
    None; the steps and the end states are the same.
    """
    n, dim = y.shape
    tab = _tableau()
    t, y = t.copy(), y.copy()
    f = rhs(t, y)
    sc = tol + tol * np.sqrt(_block_sq(y, blocks))

    def rms(v):
        return np.sqrt(_colsum(_block_sq(v, blocks) / sc**2) / dim)

    d0, d1 = rms(y), rms(f)
    with np.errstate(divide="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_end - t)
        dmax = np.maximum(d1, rms(rhs(t + h0, y + h0[:, None] * f) - f) / h0)
        h1 = np.where(dmax <= 1e-15, np.maximum(1e-6, 1e-3 * h0),
                      (0.01 / dmax) ** 0.125)
    h = np.minimum(np.minimum(100.0 * h0, h1), t_end - t)
    cap = np.full(n, np.inf)            # secant step onto a straddled radius
    retry = np.zeros(n, bool)           # error-rejected since the last step
    done, trunc = np.zeros(n, bool), np.zeros(n, bool)
    steps, nrej, nfev = np.zeros(n, int), np.zeros(n, int), np.full(n, 2)
    segs = [([ti], []) for ti in t] if dense else None
    while not done.all():
        a = np.flatnonzero(~done)
        ta, ya, ha = t[a], y[a], h[a]
        if np.any(ha < 10 * np.abs(np.nextafter(ta, np.inf) - ta)):
            raise StepFailure("step size fell below the rounding level of rho")
        tn = np.minimum(ta + np.minimum(np.minimum(ha, cap[a]),
                                        _reach(ya, radii)), t_end[a])
        hs = tn - ta
        K = np.empty((16, len(a), dim))
        K[0] = f[a]
        for s in range(1, 13):          # stage 12: the step end, y_new
            ys = ya + hs[:, None] * _lincomb(tab.A[s, :s], K)
            K[s] = rhs(ta + tab.C[s] * hs, ys)
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
        acc, hk, Ka = a[i], hs[i][:, None], K[:, i]
        if dense:
            for s in (13, 14, 15):      # extra stages of the dense output
                Ka[s] = rhs(ta[i] + tab.C[s] * hs[i],
                            ya[i] + hk * _lincomb(tab.A[s, :s], Ka))
            nfev[acc] += 3
            dy, f0, f1 = ys[i] - ya[i], Ka[0], Ka[12]
            coef = np.stack([ya[i], dy, hk * f0 - dy, 2 * dy - hk * (f1 + f0)]
                            + [hk * _lincomb(d, Ka) for d in tab.D], axis=1)
            for k, j in enumerate(acc):
                segs[j][0].append(tn[i[k]])
                segs[j][1].append(coef[k].copy())
        t[acc], y[acc], f[acc] = tn[i], ys[i], Ka[12]
        steps[acc] += 1
        trunc[acc] = land[i] & (tn[i] < t_end[acc])
        done[acc] = land[i] | (tn[i] == t_end[acc])
    if dense:
        segs = [(np.array(ts), np.array(cs)) for ts, cs in segs]
    return t, y, trunc, segs, (steps, nrej, nfev)


def _seed_rho(model, origin, v0, rho_max):
    """Largest rho for which the straight line is still inside the flat core
    (with a safety factor), capped to stay below the first samples; 0 when
    the origin is not inside that core, where no line is exact."""
    core = model.flat_core_radius
    cap = min(1.0, 0.25 * rho_max)
    if not np.isfinite(core):
        return cap
    if core <= 0.0:
        return 0.0
    xs = np.asarray(origin, dtype=float)[1:]
    b2 = (0.98 * core) ** 2
    if xs @ xs >= b2:
        return 0.0
    vs = np.asarray(v0)[1:]
    v2 = vs @ vs
    if v2 < 1e-28:                      # central line: never exits the core
        return cap
    # |xs + rho vs| = 0.98 * core, the exit ahead of the origin
    disc = (xs @ vs) ** 2 + v2 * (b2 - xs @ xs)
    rho_exit = (-(xs @ vs) + np.sqrt(disc)) / v2
    return min(rho_exit, cap)


def _k_seed_rho(model, origin, v0, rho_max):
    """_seed_rho of a lane with k, which must start inside the flat core:
    SeedRegionTooSmall when it is below RHO_SEED_MIN."""
    seed = _seed_rho(model, origin, v0, rho_max)
    if seed < RHO_SEED_MIN:
        raise SeedRegionTooSmall(
            f"flat-core seed rho={seed:.3g} below {RHO_SEED_MIN:g}: a "
            f"lane with k must start inside the flat core")
    return seed


def _lanes(model, origin, directions, rho_grid, ode_tol, nj, nk, dense):
    """Seed one lane per direction by _seed_rho and integrate them all to
    the end of rho_grid: the records, with their counters and (when dense)
    their dense output but no samples yet, and the end states (n, dim)."""
    origin = np.asarray(origin, dtype=float)
    rho_grid = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    if np.any(np.diff(rho_grid) <= 0) or rho_grid[0] <= 0:
        raise ValueError("rho grid must be positive and strictly increasing")
    tol = np.broadcast_to(np.asarray(ode_tol, dtype=float),
                          (len(directions),))
    if not np.all(tol > 0):
        raise ValueError("ode_tol must be > 0")
    rho_max = rho_grid[-1]
    g0 = metric_at(model, origin, level=0).g   # also g on each seed line
    frame0 = _frame(g0)
    blocks = _norm_blocks(nj, nk)
    recs = []
    for i, d in enumerate(directions):
        vh = d.hyperboloid_point()
        v0 = vh @ frame0
        seed = (_k_seed_rho if nk else _seed_rho)(model, origin, v0, rho_max)
        line = np.zeros((2, len(blocks[1])))      # state, d/drho at rho = 0
        st = _unpack(line, nj, nk)
        st["x"][:] = origin, v0
        st["b"][0] = v0
        if nj:      # the boost fields: W_i = V^i e_0 + V^0 e_i
            st["jp"][0] = st["j"][1] = (vh[1:, None] * frame0[0]
                                        + vh[0] * frame0[1:])
        if nk:      # the frame vectors are coordinate-constant in the core
            st["triad"][0] = _orthonormalize(g0, [v0], frame0[1:], 3)
        recs.append(GeodesicRecord(
            model=model, origin=origin, direction=d, v0=v0, frame0=frame0,
            rho=rho_grid, x=None, b=None, ode_tol=float(tol[i]),
            rho_seed=seed, _line=line, _layout=(nj, nk)))

    radii = [(R, False) for R in model.shell_radii]
    if model.kind == "schwarzschild":
        radii.append((2.0 * model.mass * (1.0 + 2.0 * HORIZON_MARGIN), True))
    rho0 = np.array([rec.rho_seed for rec in recs])
    y0 = np.array([rec._line[0] + rec.rho_seed * rec._line[1] for rec in recs])
    reached, y_end, trunc, segs, counts = _dop853(
        _make_rhs(model, nj, nk), rho0, y0, np.full(len(recs), rho_max),
        tol[:, None], radii, blocks, dense)
    for i, rec in enumerate(recs):
        rec._dense = segs[i] if dense else None
        rec.truncated = bool(trunc[i])
        rec.rho_reached = float(reached[i])
        rec.steps, rec.rejected, rec.rhs_evals = (int(c[i]) for c in counts)
        rec.rho = rho_grid[rho_grid <= rec.rho_reached * (1 + 1e-12)]
    return recs, y_end


def integrate_rays(model, origin, directions, rho_grid, ode_tol=DEFAULT_TOL,
                   with_jacobi=False, with_k=False):
    """Integrate several directions from one origin, one lane each.

    ode_tol is one tolerance for all directions or one per direction.
    Returns one GeodesicRecord per direction, each bit-identical to the
    same direction integrated alone at its own tolerance.  All directions
    must start inside the flat core when with_k is requested; without k, a
    lane from an origin outside it starts at rho = 0.  A Schwarzschild
    lane that reaches the horizon guard stops there (truncated, with its
    own rho_reached).
    """
    recs, _ = _lanes(model, origin, directions, rho_grid, ode_tol,
                     with_jacobi, with_k, True)
    for rec in recs:
        for key, val in _eval_ray(rec, rec.rho).items():
            setattr(rec, key, val)
    return recs


def _ray_ends(model, origin, directions, rho, ode_tol, with_k):
    """integrate_rays(model, origin, directions, [rho], ode_tol,
    with_jacobi=True, with_k=with_k) without the dense output: the same
    steps, and each record holds its one sample, the integrator's end state
    at rho (none when truncated).  state_at returns that sample at rho and
    raises OutOfRange at any other rho, as nothing else of the ray is
    kept."""
    recs, y_end = _lanes(model, origin, directions, [rho], ode_tol, True,
                         with_k, False)
    for rec, y in zip(recs, y_end):
        for key, val in _unpack(y[None][:len(rec.rho)], True,
                                with_k).items():
            setattr(rec, key, val)
    return recs


def exp_map(model, origin, direction, rho_grid, ode_tol=DEFAULT_TOL,
            with_jacobi=False, with_k=False):
    """Integrate a single geodesic record (optionally with Jacobi fields and
    the transported second fundamental form)."""
    return integrate_rays(model, origin, [direction], rho_grid,
                          ode_tol=ode_tol, with_jacobi=with_jacobi,
                          with_k=with_k)[0]


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
              ode_tol=DEFAULT_TOL, with_jacobi=True, with_k=True):
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
                          with_jacobi=with_jacobi, with_k=with_k)
    return FanGrid(model=model, origin=np.asarray(origin, dtype=float),
                   zeta_grid=zeta_grid, theta_grid=theta_grid,
                   phi_grid=phi_grid, rho_grid=np.atleast_1d(rho_grid),
                   records=recs)
