"""Exponential map from an origin event: timelike geodesics parametrized by
proper time rho, Jacobi fields realizing the intrinsic boost vector fields,
a parallel-transported spatial triad, and the regularized second fundamental
form variables transported along each ray.

The full per-ray state is integrated as one first-order system so that all
components share step-size control:

    x' = B                                  (position)
    B'^l = -G^l_mn B^m B^n                  (geodesic)
    J'^l = P^l - G^l_mn B^m J^n             (Jacobi field, coordinate comps)
    P'^l = R^l_bcd B^b B^c J^d - G^l_mn B^m P^n     (D^2 J/drho^2 = R(B,J)B)
    E'^l = -G^l_mn B^m E^n                  (parallel triad, orthogonal to B)
    q0'  = -(2/rho) q0 - q0^2/3 - Ric(B,B) - |kh|^2      (q0 = trk - 3/rho)
    kh'  = -(2/3) trk kh - Rhat(B,E,B,E) - (kh^2 - |kh|^2 I/3)

with Rhat the trace-free tidal tensor in the triad.  Both curvature terms
use T_bd = R_abcd B^a B^c, contracted once per step: Rhat is E T E^T less
its trace, and R^l_bcd B^b B^c = -g^{la} T_ad by pair symmetry.  Rays from
an origin in the flat core are exact straight lines there, so the system is
seeded with closed-form flat values at the largest proper time still inside
the core (k = gbar/rho exactly; the regularized variables vanish).

Many rays can be integrated in a single batched solve; results are
independent of the batch composition up to integrator tolerance.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (OutOfRange, SeedRegionTooSmall, SingularityTruncated,
                     StepFailure)
from .metric import HORIZON_MARGIN, _orthonormalize, metric_at

DEFAULT_TOL = 1e-10
ZETA_MAX_DEFAULT = 6.0
RHO_SEED_MIN = 1e-3
# packed upper triangle (00, 01, 02, 11, 12, 22) of a symmetric 3x3 matrix
_SYM6_ROW, _SYM6_COL = np.triu_indices(3)
_SYM6_OF = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


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
        """Polar and azimuthal angles (theta, phi) of omega."""
        om = np.asarray(self.omega)
        return np.arccos(np.clip(om[2], -1.0, 1.0)), np.arctan2(om[1], om[0])


def direction_from_angles(zeta, theta, phi):
    return Direction(zeta, (np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi),
                            np.cos(theta)))


def frame_at_origin(model, origin):
    """Orthonormal frame {e_mu} at the origin, e_0 along the static observer.

    Rows of the returned (4,4) array are the frame vectors in coordinates.
    """
    g = metric_at(model, np.asarray(origin, dtype=float), level=0).g
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
    ode_tol: float = DEFAULT_TOL
    rho_seed: float = 0.0
    truncated: bool = False
    rho_reached: float = 0.0
    _dense: object = field(default=None, repr=False)
    _layout: tuple = field(default=None, repr=False)
    _node: int = field(default=0, repr=False)

    @property
    def has_jacobi(self):
        return self.j is not None

    @property
    def has_k(self):
        return self.q0 is not None

    def state_at(self, rho):
        """Evaluate the integrated state at arbitrary rho (scalar or array)."""
        rho = np.asarray(rho, dtype=float)
        scalar = rho.ndim == 0
        rq = np.atleast_1d(rho)
        if np.any(rq <= 0.0) or np.any(rq > self.rho_reached * (1 + 1e-12)):
            if self.truncated and np.any(rq > self.rho_reached):
                raise SingularityTruncated(
                    f"record truncated at rho={self.rho_reached:.6g}")
            raise OutOfRange("rho outside the integrated range")
        out = _eval_ray(self, rq)
        if scalar:
            out = {k: (v[0] if v is not None else None) for k, v in out.items()}
        return out


def _flat_state(rec, rho, nj, nk):
    """Closed-form state inside the flat core (straight-line regime)."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    n = rho.shape[0]
    x = rec.origin[None, :] + rho[:, None] * rec.v0[None, :]
    b = np.broadcast_to(rec.v0, (n, 4)).copy()
    out = {"x": x, "b": b, "j": None, "jp": None,
           "triad": None, "q0": None, "khat": None}
    if nj:
        W = rec._jacobi_ic                       # (3,4)
        out["j"] = rho[:, None, None] * W[None, :, :]
        out["jp"] = np.broadcast_to(W, (n, 3, 4)).copy()
    if nk:
        out["triad"] = np.broadcast_to(rec._triad_ic, (n, 3, 4)).copy()
        out["q0"] = np.zeros(n)
        out["khat"] = np.zeros((n, 3, 3))
    return out


def _eval_ray(rec, rq):
    nj, nk = rec._layout[0], rec._layout[1]
    below = rq <= rec.rho_seed
    out = _flat_state(rec, rq, nj, nk)
    if np.all(below):
        return out
    if rec._dense is None:
        raise OutOfRange("record has no dense solution beyond the seed")
    sel = ~below
    y = rec._dense(rq[sel])                      # (dim_total, m)
    parts = _unpack(y.T, rec._layout, rec._node)
    for key in out:
        if out[key] is not None:
            out[key][sel] = parts[key]
    return out


def _layout_dims(nj, nk):
    dim = 8 + (24 if nj else 0) + (19 if nk else 0)
    return dim


def _unpack(y, layout, node):
    """y: (m, n_nodes*dim) -> dict of arrays for one node."""
    nj, nk, dim, n_nodes = layout
    m = y.shape[0]
    y = y.reshape(m, n_nodes, dim)[:, node, :]
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


def _make_rhs(model, nj, nk, n_nodes):
    level = 2 if (nj or nk) else 1
    dim = _layout_dims(nj, nk)
    eye3 = np.eye(3)

    def rhs(rho, yflat):
        y = yflat.reshape(n_nodes, dim)
        b = y[:, 4:8]
        jet = metric_at(model, y[:, 0:4], level=level)
        dy = np.empty_like(y)
        dy[:, 0:4] = b
        gb = np.einsum('nlmk,nm->nlk', jet.gamma, b)
        dy[:, 4:8] = -np.einsum('nlk,nk->nl', gb, b)
        p = 8
        if level == 2:
            T = np.einsum('nbcd,nc->nbd',
                          np.einsum('nabcd,na->nbcd', jet.riemann, b), b)
        if nj:
            J = y[:, p:p + 12].reshape(-1, 3, 4)
            P = y[:, p + 12:p + 24].reshape(-1, 3, 4)
            RB = -np.einsum('nlb,nbd->nld', jet.g_inv, T)   # R^l_bcd B^b B^c
            dJ = P - np.einsum('nlk,njk->njl', gb, J)
            dP = np.einsum('nld,njd->njl', RB, J) - np.einsum('nlk,njk->njl', gb, P)
            dy[:, p:p + 12] = dJ.reshape(-1, 12)
            dy[:, p + 12:p + 24] = dP.reshape(-1, 12)
            p += 24
        if nk:
            E = y[:, p:p + 12].reshape(-1, 3, 4)
            q0 = y[:, p + 12]
            kh = sym6_to_mat(y[:, p + 13:p + 19])
            dE = -np.einsum('nlk,njk->njl', gb, E)
            tidal = np.einsum('nbd,nib,njd->nij', T, E, E)
            ric_bb = np.einsum('nii->n', tidal)
            rhat = tidal - (ric_bb[:, None, None] / 3.0) * eye3
            kh2 = np.einsum('nij,njk->nik', kh, kh)
            kh_sq = np.einsum('nij,nij->n', kh, kh)
            trk = 3.0 / rho + q0
            dq0 = -(2.0 / rho) * q0 - q0 * q0 / 3.0 - ric_bb - kh_sq
            dkh = (-(2.0 / 3.0) * trk[:, None, None] * kh - rhat
                   - (kh2 - (kh_sq[:, None, None] / 3.0) * eye3))
            dy[:, p:p + 12] = dE.reshape(-1, 12)
            dy[:, p + 12] = dq0
            dy[:, p + 13:p + 19] = mat_to_sym6(dkh)
        return dy.ravel()

    return rhs, dim


def _seed_rho(model, origin, v0, zeta, rho_max):
    """Largest rho for which the straight line is still inside the flat core
    (with a safety factor), capped to stay below the first samples."""
    core = model.flat_core_radius
    cap = min(1.0, 0.25 * rho_max)
    if not np.isfinite(core):
        return cap
    if core <= 0.0:
        return 0.0
    xs = np.asarray(origin, dtype=float)[1:]
    vs = np.asarray(v0)[1:]
    v2 = vs @ vs
    if v2 < 1e-28:                      # central line: never exits the core
        return cap
    # |xs + rho vs| = 0.98 * core
    b2 = (0.98 * core) ** 2
    disc = (xs @ vs) ** 2 + v2 * (b2 - xs @ xs)
    if disc <= 0.0:
        raise SeedRegionTooSmall("origin is not inside the flat core")
    rho_exit = (-(xs @ vs) + np.sqrt(disc)) / v2
    return min(rho_exit, cap)


def _jacobi_ics(frame0, vh):
    """Initial DJ/drho for the three boost fields: W_i = V^i e_0 + V^0 e_i."""
    return np.stack([vh[i + 1] * frame0[0] + vh[0] * frame0[i + 1]
                     for i in range(3)])


def _triad_ics(model, x_seed, v0, frame0):
    """Orthonormal triad orthogonal to the velocity at the seed point.

    Valid in the flat core where frame vectors are coordinate-constant."""
    g = metric_at(model, x_seed, level=0).g
    return _orthonormalize(g, [v0], frame0[1:], 3)


def integrate_rays(model, origin, directions, rho_grid, ode_tol=DEFAULT_TOL,
                   with_jacobi=False, with_k=False, events_on=False):
    """Integrate one batched system for several directions from one origin.

    Returns a list of GeodesicRecord sharing a dense solution.  All
    directions must start inside the flat core when with_k is requested.
    """
    origin = np.asarray(origin, dtype=float)
    rho_grid = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    if np.any(np.diff(rho_grid) <= 0) or rho_grid[0] <= 0:
        raise ValueError("rho grid must be positive and strictly increasing")
    rho_max = rho_grid[-1]
    frame0 = frame_at_origin(model, origin)
    n_nodes = len(directions)

    recs = []
    seeds = []
    for d in directions:
        vh = d.hyperboloid_point()
        v0 = vh @ frame0
        rec = GeodesicRecord(model=model, origin=origin, direction=d, v0=v0,
                             frame0=frame0, rho=rho_grid, x=None, b=None,
                             ode_tol=ode_tol)
        rec._jacobi_ic = _jacobi_ics(frame0, vh) if with_jacobi else None
        recs.append(rec)
        if with_k:
            seeds.append(_seed_rho(model, origin, v0, d.zeta, rho_max))
        else:
            seeds.append(min(1e-6, 0.5 * rho_grid[0]))
    rho_seed = min(seeds)
    if with_k and rho_seed < RHO_SEED_MIN:
        raise SeedRegionTooSmall(
            f"flat-core seed rho={rho_seed:.3g} below {RHO_SEED_MIN:g}")

    nj, nk = with_jacobi, with_k
    rhs, dim = _make_rhs(model, nj, nk, n_nodes)
    y0 = np.zeros((n_nodes, dim))
    for i, rec in enumerate(recs):
        rec.rho_seed = rho_seed
        rec._triad_ic = None
        x_s = rec.origin + rho_seed * rec.v0
        y0[i, 0:4] = x_s
        y0[i, 4:8] = rec.v0
        p = 8
        if nj:
            y0[i, p:p + 12] = (rho_seed * rec._jacobi_ic).ravel()
            y0[i, p + 12:p + 24] = rec._jacobi_ic.ravel()
            p += 24
        if nk:
            rec._triad_ic = _triad_ics(model, x_s, rec.v0, frame0)
            y0[i, p:p + 12] = rec._triad_ic.ravel()
            y0[i, p + 12] = 0.0
            y0[i, p + 13:p + 19] = 0.0

    events = None
    if events_on and model.kind == "schwarzschild":
        guard = 2.0 * model.mass * (1.0 + 2.0 * HORIZON_MARGIN)

        def horizon_event(rho, y):
            xs = y.reshape(n_nodes, dim)[:, 1:4]
            return np.min(np.sqrt(np.sum(xs * xs, axis=1))) - guard
        horizon_event.terminal = True
        horizon_event.direction = -1.0
        events = horizon_event

    sol = solve_ivp(rhs, (rho_seed, rho_max), y0.ravel(), method='DOP853',
                    rtol=ode_tol, atol=ode_tol, dense_output=True,
                    events=events)
    if sol.status == -1:
        raise StepFailure(sol.message)
    truncated = sol.status == 1
    rho_reached = sol.t[-1]

    layout = (nj, nk, dim, n_nodes)
    for i, rec in enumerate(recs):
        rec._dense = sol.sol
        rec._layout = layout
        rec._node = i
        rec.truncated = truncated
        rec.rho_reached = rho_reached
        grid = rho_grid[rho_grid <= rho_reached * (1 + 1e-12)]
        rec.rho = grid
        st = _eval_ray(rec, grid)
        rec.x, rec.b = st["x"], st["b"]
        rec.j, rec.jp = st["j"], st["jp"]
        rec.triad, rec.q0, rec.khat = st["triad"], st["q0"], st["khat"]
    return recs


def exp_map(model, origin, direction, rho_grid, ode_tol=DEFAULT_TOL,
            with_jacobi=False, with_k=False):
    """Integrate a single geodesic record (optionally with Jacobi fields and
    the transported second fundamental form)."""
    return integrate_rays(model, origin, [direction], rho_grid,
                          ode_tol=ode_tol, with_jacobi=with_jacobi,
                          with_k=with_k, events_on=True)[0]


def jacobi_boosts(model, rec):
    """Return a copy of rec with the boost Jacobi fields populated."""
    return integrate_rays(model, rec.origin, [rec.direction], rec.rho,
                          ode_tol=rec.ode_tol, with_jacobi=True,
                          with_k=rec.has_k)[0]


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
