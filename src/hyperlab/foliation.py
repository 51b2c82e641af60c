"""Leaf scalars, intrinsic frames, transported second fundamental form in the
leaf basis, spheres S_{t,rho} with their null second fundamental forms, and
the per-ray / per-fan consistency residual tables.

Conventions.  All foliation scalars use time relative to the origin event,
t := x^0 - t_origin.  With T = n^{-1} d_t the static observer,

    b^{-1}   = -(rho/t) <B, T>            (foliation lapse)
    tau      = rho V^0
    rtilde   = sqrt((b^{-1} t)^2 - rho^2),  u = b^{-1}t - rtilde,
    ubar     = b^{-1}t + rtilde,            a = rho / rtilde,

and the frame identities

    B    = (b^{-1}t/rho) T + (rtilde/rho) N,
    Nbar = (rtilde/rho) T + (b^{-1}t/rho) N,
    L = T + N,  Lb = T - N,   2 rho B = ubar L + u Lb.

One evaluator, leaf_frames, builds all of this at n points (several records
at several rho) from one level-0 metric jet: the leaf scalars, the frame set
with the radial overlap varpi = N(r), and k in the leaf basis, as arrays
with a leading point axis that every consumer reads.  Its batching rule is
elementwise per point: arithmetic runs over all points at once, and each
contraction is a stacked einsum or matmul with no reduction across points
and, per point, the operand shapes of the one-point product.  Only the
sphere-pair Gram-Schmidt, whose candidate order and skips branch per point,
runs one point at a time.  So every point's result is bit-identical to that
point evaluated alone.

The models are static with zero shift, so the maximal-slice second
fundamental form vanishes identically and the static-observer acceleration
is <D_T T, X> = X(log n).

The fan diagnostics difference across the exponential map with one 5-point
stencil per parameter axis (zeta, theta, phi).  _stencil5 is the one
definition of a fan fine enough to difference: at least 5 nodes on every
axis, the probe at least 2 nodes from every boundary and no signed mean
spacing above 2e-2 in size, else FanTooCoarse.  It returns the probe's 12
neighbours axis by axis, each axis in _SIDES5 order (offsets -2, -1, +1,
+2), and _fan_partials takes the values at those 12 neighbours.
second_fundamental_fd_oracle reads the probe and its neighbours at rho; the
transverse residuals of structure_residuals integrate only the 12 neighbours
of a mini-fan of spacing _FAN_DELTA about the record's own parameters.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import (BracketFailure, CentralLineDegenerate,
                     CoordinateSingularity, FanTooCoarse, MissingK, OutOfRange,
                     SingularityTruncated, Unreachable)
from .geodesic import (ZETA_MAX_DEFAULT, Direction, _k_seed_rho, _ray_ends,
                       direction_from_angles, integrate_rays)
from .metric import (_check_regular, _colsum, _optical_mass_terms,
                     _orthonormalize, _zs_floor, curvature_at, metric_at)

FRAME_FLOOR = 1e-6
# Tolerance of a loose Newton iterate of the leaf solver: LOOSE_TOL before
# the first step, then NEWTON_TOL_C dz^2 after a step dz (solve_level_nodes).
# A loose iterate carries Jacobi fields but no k and keeps only its end
# state, and the step is Newton's with the flat level's curvature term.  A
# lane at tol tau moves the next z by about alpha tau, with alpha larger
# on level uhat than on level t; after the flat-root step (dz ~ 3e-3) that
# error must stay below the acceptance threshold, about 1e-10 in z, or the
# first tight iterate misses it and a fourth integration follows.  Scan on
# glued M = 0.01, RHS calls over 12 centred t-leaves (t/rho = 2, 4, 8) and
# integrations of the uhat leaf rho = 15, uhat = 3 (angular_grid(6, 1)):
# 1e-4 15,785 and 4; 3e-5 14,378 and 4; 1e-5 14,145 and 4; 3e-6 14,565
# and 3; 1e-6 14,937 and 3.  3e-6 is the largest that leaves every leaf
# three integrations (at 1e-4 and 3e-5 the t = 2 rho leaves take four).
LOOSE_TOL = 1e-8
NEWTON_TOL_C = 3e-6
TIGHT_TOL = 1e-12           # tolerance of every accepted leaf record
_FAN_DELTA = 5e-3           # parameter spacing of the transverse mini-fan
_STENCIL5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0   # f' * h
_SIDES5 = tuple((s, _STENCIL5[s + 2]) for s in (-2, -1, 1, 2))


@dataclass
class LeafScalars:
    rho: float
    t: float
    tau: float
    b: float
    n: float
    rtilde: float
    u: float
    ubar: float
    a: float


@dataclass
class FrameSet:
    T: np.ndarray
    N: np.ndarray
    Nbar: np.ndarray
    B: np.ndarray
    L: np.ndarray
    Lb: np.ndarray
    eA: np.ndarray          # (2, 4)
    g: np.ndarray           # metric at the point, for downstream contractions
    x: np.ndarray
    r: float = None         # radial overlap: r, varpi = N(r), snr_A = e_A(r)
    varpi: float = None
    snr: np.ndarray = None  # (2,)


@dataclass
class SecondFundamental:
    k: np.ndarray           # (3,3) in the orthonormal leaf basis {Nbar, eA}
    trk: float
    khat: np.ndarray        # (3,3) trace-free part, same basis


def _pick(batch, i):
    """Point i of a dataclass whose fields carry a leading point axis."""
    return type(batch)(*(getattr(batch, f.name)[i] for f in fields(batch)))


@dataclass
class LeafFrames:
    """leaf_frames at n points; every array has a leading axis of length n."""
    st: dict                    # the states, keys as GeodesicRecord.state_at
    binv: np.ndarray            # b^{-1}
    scalars: LeafScalars
    frames: FrameSet            # eA and the radial overlap zero where degenerate
    degenerate: np.ndarray      # rtilde < FRAME_FLOOR: no frame there
    k: SecondFundamental = None     # when the records carry k

    def require_frames(self):
        """Raise CentralLineDegenerate unless every point has a frame."""
        if np.any(self.degenerate):
            raise CentralLineDegenerate(
                f"rtilde={np.min(self.scalars.rtilde):.3g} below frame floor "
                f"{FRAME_FLOOR:.3g}")
        return self


def _sphere_pair(g, fixed):
    """g-orthonormal pair orthogonal to the unit vectors fixed: the spatial
    coordinate axes least aligned with fixed[-1], orthogonalized."""
    cands = np.eye(4)[1:]
    cands = cands[np.argsort([abs(c @ g @ fixed[-1]) for c in cands])]
    return _orthonormalize(g, fixed, cands, 2)


def leaf_frames(model, recs, rhos):
    """Leaf scalars, frames, radial overlap and (when the records carry k) k
    in the leaf basis of every record of recs at every rho of rhos, record
    by record, from one level-0 metric jet.

    Points with rtilde below FRAME_FLOOR are flagged in `degenerate`; their
    scalars are valid, their frames are not built.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    sts = [rec.state_at(rhos) for rec in recs]
    st = {key: None if sts[0][key] is None
          else np.concatenate([s[key] for s in sts]) for key in sts[0]}
    rho = np.tile(rhos, len(recs))
    of_rec = np.repeat(np.arange(len(recs)), len(rhos))   # record of each point
    x, B = st["x"], st["b"]
    t = x[:, 0] - np.array([rec.origin[0] for rec in recs])[of_rec]
    if np.any(t <= 0):
        raise OutOfRange("leaf scalars need t > 0 past the origin")
    jet = metric_at(model, x, level=0)
    n = jet.lapse
    binv = rho * n * B[:, 0] / t        # -(rho/t)<B,T>, <B,T> = -n B^t
    bt = binv * t
    rtilde = np.sqrt(np.maximum(bt * bt - rho * rho, 0.0))
    b = 1.0 / binv
    with np.errstate(divide="ignore"):
        a = rho / rtilde
    v0 = np.array([rec.direction.hyperboloid_point()[0] for rec in recs])
    sc = LeafScalars(rho=rho, t=t, tau=rho * v0[of_rec], b=b, n=n,
                     rtilde=rtilde, u=bt - rtilde, ubar=bt + rtilde, a=a)

    degenerate = rtilde < FRAME_FLOOR
    T = np.zeros_like(x)
    T[:, 0] = 1.0 / n
    # N = (rho B - bt T)/rtilde with bt = rho n B^t: the time part is 0
    N = np.zeros_like(x)
    N[:, 1:] = (rho[:, None] * B[:, 1:]
                / np.maximum(rtilde, FRAME_FLOOR)[:, None])
    Nbar = (rtilde[:, None] * T + bt[:, None] * N) / rho[:, None]
    eA = np.zeros((len(x), 2, 4))
    r, varpi, snr = np.zeros(len(x)), np.zeros(len(x)), np.zeros((len(x), 2))
    ok = ~degenerate
    for i in np.flatnonzero(ok):
        eA[i] = _sphere_pair(jet.g[i], [T[i], N[i]])
    xs = x[ok, 1:, None]
    r[ok] = np.sqrt(_T(xs) @ xs)[:, 0, 0]
    rad = xs / r[ok, None, None]
    varpi[ok] = (N[ok, None, 1:] @ rad)[:, 0, 0]
    snr[ok] = (eA[ok, :, 1:] @ rad)[:, :, 0]
    frames = FrameSet(T=T, N=N, Nbar=Nbar, B=B, L=T + N, Lb=T - N, eA=eA,
                      g=jet.g, x=x, r=r, varpi=varpi, snr=snr)
    k = None
    if st["q0"] is not None:
        # k in the orthonormal leaf basis f = {Nbar, eA}, from C = <f_a, E_b>
        trk = 3.0 / rho + st["q0"]
        leaf = np.concatenate([Nbar[:, None], eA], axis=1)
        C = np.einsum('nai,nij,nbj->nab', leaf, jet.g, st["triad"])
        k_leaf = C @ _k_triad(st["q0"], st["khat"], rho) @ _T(C)
        k_leaf = 0.5 * (k_leaf + _T(k_leaf))
        k = SecondFundamental(
            k=k_leaf, trk=trk,
            khat=k_leaf - (trk / 3.0)[:, None, None] * np.eye(3))
    return LeafFrames(st=st, binv=binv, scalars=sc, frames=frames,
                      degenerate=degenerate, k=k)


def _T(a):
    """The transpose of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def leaf_scalars(model, rec, rho):
    """Leaf scalars of the record at proper time rho (scalar)."""
    return _pick(leaf_frames(model, [rec], rho).scalars, 0)


def frames_at(model, rec, rho):
    """Intrinsic frame set {T, N, Nbar, B, L, Lb, eA} at rho along the record,
    with the radial overlap r, varpi = N(r) and snr_A = e_A(r)."""
    return _pick(leaf_frames(model, [rec], rho).require_frames().frames, 0)


def second_fundamental_at(model, rec, rho):
    """Transported k expressed in the orthonormal leaf basis {Nbar, eA}."""
    if not rec.has_k:
        raise MissingK("record has no transported second fundamental form")
    return _pick(leaf_frames(model, [rec], rho).require_frames().k, 0)


def _k_triad(q0, khat, rho):
    """k in the parallel triad, khat + (1/rho + q0/3) I, batched."""
    return khat + np.asarray(1.0 / rho + q0 / 3.0)[..., None, None] * np.eye(3)


# ---------------------------------------------------------------------------
# fan differentials: the pushforward of the exponential map via Jacobi fields

def _vparam_jacobian(zeta, theta, phi):
    """d V / d(zeta, theta, phi) in frame components, shape (4, 3)."""
    sz, cz = np.sinh(zeta), np.cosh(zeta)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    om = np.array([st * cp, st * sp, ct])
    dom_t = np.array([ct * cp, ct * sp, -st])
    dom_p = np.array([-st * sp, st * cp, 0.0])
    M = np.zeros((4, 3))
    M[0, 0] = sz
    M[1:, 0] = cz * om
    M[1:, 1] = sz * dom_t
    M[1:, 2] = sz * dom_p
    return M


def param_tangents(recs, j):
    """Coordinate tangent vectors d x / d(zeta, theta, phi), shape (n, 3
    params, 4 coords), at n states of the records recs whose Jacobi fields
    are j, shape (n, 3, 4).

    A hyperboloid tangent with frame-spatial part w is realized by
    sum_i (w_i / V^0) J_i.
    """
    coef = np.stack([_vparam_jacobian(d.zeta, *d.angles())[1:]
                     / np.cosh(d.zeta) for d in (r.direction for r in recs)])
    return np.einsum('nip,nia->npa', coef, j)


# ---------------------------------------------------------------------------
# leaf slices

@dataclass
class LeafSlice:
    """The sphere through the solved records of one leaf: their leaf frames
    at rho, the induced-area measure and the static null forms, one row per
    node."""
    t: float
    rho: float
    records: list
    frames: LeafFrames
    weight: np.ndarray          # induced-area measure d(mu_gamma) per node
    trchi: np.ndarray
    trchib: np.ndarray
    chihat: np.ndarray          # (n, 2, 2)
    chibhat: np.ndarray
    area: float
    area_radius: float


def angular_grid(n_theta, n_phi, axis=None):
    """Gauss-Legendre x trapezoid nodes (theta_k, phi_k, weight) on S^2.

    Weights sum to 4*pi.  With n_phi == 1 the grid is the axisymmetric
    reduction (full phi ring weight on one node); axis, when given, rotates
    the polar axis of the grid onto that direction.
    """
    xs, ws = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(xs)
    nodes = []
    if n_phi == 1:
        for th, w in zip(thetas, ws):
            nodes.append((th, 0.0, 2.0 * np.pi * w))
    else:
        phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
        wp = 2.0 * np.pi / n_phi
        for th, w in zip(thetas, ws):
            for ph in phis:
                nodes.append((th, ph, w * wp))
    if axis is None:
        return nodes
    R = _rotation_to(np.asarray(axis, dtype=float))
    out = []
    for th, ph, w in nodes:
        om = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                       np.cos(th)])
        th_r, ph_r = Direction(0.0, R @ om).angles()
        out.append((float(th_r), float(ph_r), w))
    return out


def _rotation_to(axis):
    a = axis / np.linalg.norm(axis)
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, a)
    c = z @ a
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _level_value(model, origin_t, x, level):
    """The level function t or uhat = t - gamma_r, t relative to origin_t."""
    t = x[..., 0] - origin_t
    if level == "t":
        return t
    if level == "uhat":
        xs = x[..., 1:]
        r = np.sqrt(np.sum(xs * xs, axis=-1))
        return t - r - _optical_mass_terms(model.mass, r)[0]
    raise ValueError(level)


def _level_gradient(model, x, level):
    """Coordinate gradient of the level function t or uhat = t - gamma_r."""
    grad = np.zeros_like(x)
    grad[..., 0] = 1.0
    if level == "uhat":
        xs = x[..., 1:]
        r = np.sqrt(np.sum(xs * xs, axis=-1))
        dgam = 1.0 + _optical_mass_terms(model.mass, r)[1]
        grad[..., 1:] = -dgam[..., None] * xs / r[..., None]
    return grad


def _level_slope(model, recs, level, r_floor):
    """The level function t or uhat at the end of each record, its one
    sample at the leaf's rho, and its exact derivative p_zeta . grad F along
    the rapidity from the Jacobi fields."""
    if any(rec.truncated for rec in recs):
        raise SingularityTruncated("a level iterate stopped short of rho")
    x = np.stack([rec.x[-1] for rec in recs])
    if np.any(np.linalg.norm(x[:, 1:], axis=1) <= r_floor):
        raise BracketFailure("level function undefined inside the bracket")
    grad = _level_gradient(model, x, level)
    p_zeta = param_tangents(recs, np.stack([rec.j[-1] for rec in recs]))[:, :1]
    df = (p_zeta @ grad[:, :, None])[:, 0, 0]
    return _level_value(model, recs[0].origin[0], x, level), df


def _level_iterates(model, origin, rho, dirs, tol):
    """One Newton round of solve_level_nodes: every lane integrated with
    Jacobi fields to its end state only, the one sample at rho that
    _level_slope and every reader of a leaf record use; the loose lanes
    (tol above TIGHT_TOL) without k, the tight lanes as leaf records with
    k.  One _ray_ends call for each kind present."""
    recs = [None] * len(dirs)
    for tight in (False, True):
        idx = np.flatnonzero((tol == TIGHT_TOL) == tight)
        if len(idx) == 0:
            continue
        got = _ray_ends(model, origin, [dirs[i] for i in idx], rho, tol[idx],
                        tight)
        for i, rec in zip(idx, got):
            recs[i] = rec
    return recs


def solve_level_nodes(model, origin, rho, target, angles, level="t"):
    """Find, for each direction (theta, phi), the rapidity zeta at which the
    level function (t or uhat) equals target on H_rho; target is one value,
    or one per direction.

    Every node starts at the flat root, arccosh(max(target/rho, 1)) on level
    t and ln(rho/target) on level uhat (ZETA_MAX_DEFAULT if target <= 0),
    clipped into the bracket [1e-8, ZETA_MAX_DEFAULT].  Each step is
    z - d - c d^2 / 2 with d = f / df: Newton's step with the exact
    df = p_zeta . grad F from the Jacobi fields, corrected to second order
    by the curvature c = F''/F' of the flat level, coth(z) on level t and
    -1 on level uhat (uhat = rho e^-z).  The sign of f df tells on which
    side of z the root lies, the bracket shrinks onto it, and a step
    leaving the bracket bisects it.  A node whose last step was |dz| (inf
    before the first) is integrated at clip(NEWTON_TOL_C dz^2, TIGHT_TOL,
    LOOSE_TOL).  Every iterate keeps only its end state, with no dense
    output: a returned record is read only at rho.  A loose one only moves
    z and the bracket, so it carries Jacobi fields and no k.  A node is
    accepted only on a record integrated at TIGHT_TOL, with Jacobi fields
    and k, whose residual is below 1e-10 max(|target|, 1), so every
    returned record is tight.  A round makes one batched integration of its
    loose lanes and one of its tight lanes, when it has them.  The
    integrator's lanes are independent, so each root and record is the same
    whatever the order or grouping of the nodes.
    Returns the zeta array and those records.  A centred leaf takes three
    integrations: two loose, one tight.  An exact flat root (Minkowski)
    still takes two: the loose one that finds it and the tight one that
    accepts it.

    Errors come from the Newton iterates: Unreachable when a node's bracket
    collapses onto one of its ends with |f| still above 3e-6 max(|target|,
    1) (the target is not attained for zeta in the bracket);
    BracketFailure("level function not monotone on the bracket") when a
    node's df changes sign between iterates; BracketFailure when the
    iteration does not converge, or when a uhat iterate falls below the
    exterior zone, where uhat is undefined.  An origin outside the flat
    core raises SeedRegionTooSmall before any integration.
    """
    origin = np.asarray(origin, dtype=float)
    # every returned record carries k, and no lane keeps a longer flat-core
    # seed than the static line (spatial velocity 0), so an origin where
    # that seed is too short fails every tight round; a singular origin
    # raises first, as in integrate_rays
    _check_regular(model, np.linalg.norm(origin[1:]))
    _k_seed_rho(model, origin, np.eye(4)[0], rho)
    thetas = np.array([a[0] for a in angles])
    phis = np.array([a[1] for a in angles])
    m = len(angles)
    target = np.broadcast_to(np.asarray(target, dtype=float), (m,))
    scale = np.maximum(np.abs(target), 1.0)
    r_floor = max(_zs_floor(model, 0.02) if level == "uhat" else 0.0, 1e-12)

    # the flat root: t = rho cosh(zeta) and uhat = rho exp(-zeta) on H_rho
    if level == "t":
        z0 = np.arccosh(np.maximum(target / rho, 1.0))
    else:
        z0 = np.full(m, ZETA_MAX_DEFAULT)
        z0[target > 0] = np.log(rho / target[target > 0])
    lo = np.full(m, 1e-8)
    hi = np.full(m, ZETA_MAX_DEFAULT)
    z = np.clip(z0, lo, hi)
    sgn = np.zeros(m)               # sign of df at the last iterate, 0 before
    step = np.full(m, np.inf)       # |dz| of the last iterate, inf before
    out = [None] * m
    todo = np.arange(m)
    for _ in range(30):
        tol = np.clip(NEWTON_TOL_C * step[todo] ** 2, TIGHT_TOL, LOOSE_TOL)
        recs = _level_iterates(
            model, origin, rho, [direction_from_angles(z[i], thetas[i],
                                                       phis[i])
                                 for i in todo], tol)
        F, df = _level_slope(model, recs, level, r_floor)
        f = F - target[todo]
        if np.any(sgn[todo] * df < 0):
            raise BracketFailure("level function not monotone on the bracket")
        sgn[todo] = np.sign(df)
        below = f * df < 0
        lo[todo] = np.where(below, z[todo], lo[todo])
        hi[todo] = np.where(below, hi[todo], z[todo])
        if np.any((hi[todo] <= lo[todo]) & (np.abs(f) > 3e-6 * scale[todo])):
            raise Unreachable("target level not attained on the zeta bracket")
        d = f / df
        curv = 1.0 / np.tanh(z[todo]) if level == "t" else -1.0
        zn = z[todo] - d - 0.5 * curv * d * d
        zn = np.where((zn >= lo[todo]) & (zn <= hi[todo]), zn,
                      0.5 * (lo[todo] + hi[todo]))
        step[todo] = np.abs(zn - z[todo])
        z[todo] = zn
        done = (tol == TIGHT_TOL) & (np.abs(f) <= 1e-10 * scale[todo])
        for i, rec, accepted in zip(todo, recs, done):
            if accepted:
                out[i] = rec
        todo = todo[~done]
        if len(todo) == 0:
            return np.array([rec.direction.zeta for rec in out]), out
    raise BracketFailure("level root iteration did not converge")


def leaf_slice(model, origin, t, rho, omega_nodes, level="t", target=None):
    """Quadrature-ready sphere S_{t,rho} (or a uhat-level sphere on H_rho).

    omega_nodes: list of (theta, phi, solid-angle weight) triples, e.g. from
    angular_grid().  The induced-area measure of each node is computed from
    the exact pushforward tangents (Jacobi fields), constrained to the level
    set.
    """
    _, recs = solve_level_nodes(model, origin, rho,
                                t if target is None else target, omega_nodes,
                                level=level)
    return _slice_of_records(model, t, rho, omega_nodes, recs, level)


def _slice_of_records(model, t, rho, omega_nodes, recs, level):
    """The slice through the solved records of solve_level_nodes.

    Static models: the maximal second fundamental form vanishes, so
    trchi = (rho/rtilde)((2/3) trk - khat_NbNb), trchib = -trchi, and the
    trace-free parts are +-(rho/rtilde)(khat_AB + khat_NbNb delta_AB / 2).
    """
    lf = leaf_frames(model, recs, rho).require_frames()
    grad = _level_gradient(model, lf.st["x"], level)[:, :, None]
    p = param_tangents(recs, lf.st["j"])        # rows: d x/d(zeta,theta,phi)
    dzeta = -(p[:, 1:] @ grad) / (p[:, :1] @ grad)
    tang = p[:, 1:] + dzeta * p[:, :1]          # (n, 2, 4) slice tangents
    gam2 = np.einsum('nai,nij,nbj->nab', tang, lf.frames.g, tang)
    th, _, w = np.array(omega_nodes).T
    weight = (w * np.sqrt(np.maximum(np.linalg.det(gam2), 0.0))
              / np.maximum(np.sin(th), 1e-300))
    area = float(_colsum(weight))               # in node order
    fac = lf.scalars.rho / lf.scalars.rtilde
    delta_b = lf.k.khat[:, 0, 0]
    trchi = fac * ((2.0 / 3.0) * lf.k.trk - delta_b)
    hat = lf.k.khat[:, 1:, 1:] + (0.5 * delta_b)[:, None, None] * np.eye(2)
    chihat = fac[:, None, None] * hat
    return LeafSlice(t=float(t), rho=float(rho), records=recs, frames=lf,
                     weight=weight, trchi=trchi, trchib=-trchi, chihat=chihat,
                     chibhat=-chihat, area=area,
                     area_radius=float(np.sqrt(area / (4.0 * np.pi))))


# ---------------------------------------------------------------------------
# finite-difference oracle for k across a fan

def _stencil5(shape, index, steps):
    """Index offsets, shape (12, 3), of the 12 neighbours of the 5-point
    stencil at index on a fan of the given shape and signed mean axis
    spacings: axis by axis, each axis in _SIDES5 order.

    FanTooCoarse unless every axis has at least 5 nodes, the probe lies at
    least 2 nodes from every boundary and no spacing exceeds 2e-2 in size.
    """
    if min(shape) < 5:
        raise FanTooCoarse("5-point fan stencil needs >= 5 nodes per axis")
    if not all(2 <= i < n - 2 for i, n in zip(index, shape)):
        raise FanTooCoarse("probe index too close to the fan boundary")
    hmax = max(abs(h) for h in steps)
    if hmax > 2e-2:
        raise FanTooCoarse(f"fan spacing {hmax:.3g} exceeds 2e-2")
    return np.array([s * np.eye(3, dtype=int)[a]
                     for a in range(3) for s, _ in _SIDES5])


def _fan_partials(values, steps):
    """5-point first partials along the three parameter axes, stacked on a
    new leading axis, from the values at the 12 stencil neighbours in
    _stencil5 order; steps holds the signed axis spacings."""
    return np.stack([sum(coef * values[4 * a + i] / h
                         for i, (_, coef) in enumerate(_SIDES5))
                     for a, h in enumerate(steps)])


def second_fundamental_fd_oracle(model, fan, index, rho):
    """Brute-force k at fan.records[flat index] by differencing the velocity
    field across neighboring rays: k(X, Y) = <D_X B, Y> with 5-point stencils
    in each fan parameter.  Returns k in the probe record's parallel triad.
    """
    steps = [np.diff(grid).mean()
             for grid in (fan.zeta_grid, fan.theta_grid, fan.phi_grid)]
    sts = [fan.record(*j).state_at(rho)
           for j in np.add(index, _stencil5(fan.shape, index, steps))]
    center = fan.record(*index).state_at(rho)
    x0, b0 = center["x"], center["b"]
    jet = metric_at(model, x0, level=1)
    X = _fan_partials([st["x"] for st in sts], steps)
    dB = _fan_partials([st["b"] for st in sts], steps)
    covB = dB + np.einsum('lmn,am,n->al', jet.gamma, X, b0)
    k_param = np.einsum('al,lm,bm->ab', covB, jet.g, X)
    # express in the probe triad: X_a ~ sum_i <X_a, E_i> E_i
    E = center["triad"]
    if E is None:
        raise MissingK("probe record lacks the parallel triad")
    Mm = np.einsum('al,lm,im->ai', X, jet.g, E)
    Minv = np.linalg.inv(Mm)
    k_triad = Minv @ k_param @ Minv.T
    return 0.5 * (k_triad + k_triad.T)


# ---------------------------------------------------------------------------
# structure-equation residual table along one record

def _rho_cluster(rhos, h):
    """5-point clusters rho + (-2..2) h around each probe rho.

    Returns the flat array of cluster points and two maps taking a value
    over those points to its value and to its 5-point rho-derivative at the
    probe rhos.
    """
    shape = (5, len(rhos))
    cl = (rhos[None, :] + (np.arange(-2, 3) * h)[:, None]).ravel()

    def center(v):
        return v.reshape(shape + v.shape[1:])[2]

    def ddr(v):
        return np.tensordot(_STENCIL5, v.reshape(shape + v.shape[1:]),
                            axes=(0, 0)) / h

    return cl, center, ddr


def _residual_table(res):
    """The table of max-abs entries of {key: (residual, scale)}: key holds
    max |residual| and key_scale max |scale|, floored at 1e-300."""
    table = {}
    for key, (r, scale) in res.items():
        table[key] = float(np.max(np.abs(r)))
        table[key + "_scale"] = float(np.max(np.abs(scale)) + 1e-300)
    return table


def structure_residuals(model, rec, probe_rhos=None, transverse=True):
    """Residual table of the per-ray structure equations.

    Keys: Bb1, ctt, s1, eq_3_14_1, s1_1, Bu and (with transverse=True,
    needing a local mini-fan) t_of_u (T(u) identity) and n_of_binv (N(b^-1)
    identity); zbar_max is a derived diagnostic.  Each entry is the maximum
    absolute residual over the probe rhos; *_scale entries give the size of
    the terms entering the equation.
    """
    if not rec.has_k:
        raise MissingK("record has no transported second fundamental form")
    if transverse and not rec.has_jacobi:
        raise MissingK("transverse residuals need the record's Jacobi fields")
    if transverse and rec.direction.zeta < 2.0 * _FAN_DELTA:
        raise CentralLineDegenerate(
            f"zeta={rec.direction.zeta:.3g} leaves no room for the transverse "
            f"mini-fan (needs zeta >= {2.0 * _FAN_DELTA:.3g})")
    rhos = np.asarray(probe_rhos if probe_rhos is not None
                      else rec.rho[1:-1], dtype=float)
    rhos = rhos[(rhos > max(2.0 * rec.rho_seed, 0.05))
                & (rhos < rec.rho_reached * 0.999)]
    if len(rhos) == 0:
        raise OutOfRange("no admissible probe rhos")
    h = min(6e-3, 0.03 * float(rhos.min()))

    cl, center, ddr = _rho_cluster(rhos, h)
    lf = leaf_frames(model, [rec], cl).require_frames()
    S, st = lf.scalars, lf.st

    t, n, binv = center(S.t), center(S.n), center(lf.binv)
    bt = binv * t
    rtilde, u = center(S.rtilde), center(S.u)
    q0 = center(st["q0"])
    khat = center(st["khat"])
    B = center(st["b"])
    trk = 3.0 / rhos + q0

    # pointwise curvature along the probe points (independent of transport)
    jet = curvature_at(model, center(st["x"]))
    ric_bb = np.einsum('nab,na,nb->n', jet.ricci, B, B)
    E = center(st["triad"])
    tidal = np.einsum('nabcd,na,nib,nc,njd->nij', jet.riemann, B, E, B, E)
    rhat = tidal - (np.einsum('nii->n', tidal)[:, None, None] / 3.0) * np.eye(3)

    # static lapse: d_mu n = n Gamma^t_{t mu}, analytic
    gradn = jet.lapse[:, None] * jet.gamma[:, 0, 0, :]
    Bn = np.einsum('na,na->n', B, gradn)
    N_log_n = np.einsum('na,na->n', center(lf.frames.N), gradn) / n

    res = {}

    d_nb = ddr(S.n - lf.binv)
    lhs = d_nb + (binv / (n * rhos)) * (n - binv)
    rhs = (rtilde * binv / rhos) * N_log_n + Bn
    res["Bb1"] = (lhs - rhs, np.abs(rhs) + np.abs(d_nb))

    d_ctt = ddr(np.log(S.t / S.tau))
    res["ctt"] = (d_ctt - (binv / n - 1.0) / rhos,
                  np.abs(d_ctt) + 1.0 / rhos)

    kh_sq = np.einsum('nij,nij->n', khat, khat)
    d_trk = ddr(3.0 / cl + st["q0"])
    res["s1"] = (d_trk + trk ** 2 / 3.0 + ric_bb + kh_sq,
                 np.abs(d_trk) + trk ** 2 / 3.0)

    d_q0 = ddr(st["q0"])
    res["eq_3_14_1"] = (d_q0 + 2.0 * q0 / rhos + q0 ** 2 / 3.0 + ric_bb + kh_sq,
                        np.abs(d_q0) + np.abs(ric_bb) + 2.0 * np.abs(q0) / rhos
                        + 1e-14)

    d_kh = ddr(st["khat"])
    kh2 = np.einsum('nij,njk->nik', khat, khat)
    s11 = (d_kh + (2.0 / 3.0) * trk[:, None, None] * khat + rhat
           + kh2 - (kh_sq[:, None, None] / 3.0) * np.eye(3))
    res["s1_1"] = (np.max(np.abs(s11), axis=(1, 2)),
                   np.max(np.abs(rhat), axis=(1, 2))
                   + (2.0 / 3.0) * trk * np.max(np.abs(khat), axis=(1, 2)) + 1e-14)

    d_u = ddr(S.u)
    rhs_bu = u / rhos + (bt * u / rhos) * N_log_n
    res["Bu"] = (d_u - rhs_bu, np.abs(d_u) + np.abs(rhs_bu))

    table = _residual_table(res)

    # zbar diagnostic: zbar_A = -(b^{-1} t / rtilde) e_A(log n)
    ealogn = np.einsum('nAa,na->nA', center(lf.frames.eA), gradn) / n[:, None]
    table["zbar_max"] = float(np.max(np.abs((bt / rtilde)[:, None] * ealogn)))

    if transverse:
        tb = _transverse_residuals(model, rec, rhos, lf,
                                   dict(t=t, bt=bt, u=u, rtilde=rtilde,
                                        q0=q0, khat=khat, N_log_n=N_log_n,
                                        d_u=d_u, d_binv=ddr(lf.binv)))
        table.update(tb)
    return table


def _transverse_residuals(model, rec, rhos, lf, C):
    """T(u) and N(b^-1) identities, using a mini-fan for leaf gradients; lf
    holds the record at the 5-point rho clusters around the probe rhos."""
    d = rec.direction
    params = np.array([d.zeta, *d.angles()])
    # the mini-fan: a 5x5x5 fan of spacing _FAN_DELTA with the record in the
    # middle, of which only the 12 stencil neighbours are integrated
    steps = [_FAN_DELTA] * 3
    dirs = [direction_from_angles(*(params + _FAN_DELTA * j))
            for j in _stencil5((5, 5, 5), (2, 2, 2), steps)]
    recs = integrate_rays(model, rec.origin, dirs, [float(rhos.max())],
                          ode_tol=rec.ode_tol, with_jacobi=False, with_k=True)
    sc = leaf_frames(model, recs, rhos).scalars
    du_p = _fan_partials(sc.u.reshape(len(recs), -1), steps)
    dbinv_p = _fan_partials((1.0 / sc.b).reshape(len(recs), -1), steps)

    mid = slice(2 * len(rhos), 3 * len(rhos))   # probe rhos in the clusters
    g, Nbar = lf.frames.g[mid], lf.frames.Nbar[mid]
    p_t = param_tangents([rec] * len(rhos), lf.st["j"][mid])   # (n, 3, 4)
    gram = np.einsum('nai,nij,nbj->nab', p_t, g, p_t)
    # leaf gradient coefficients of Nbar: Nbar = sum beta_a p_a
    rhsv = np.einsum('nai,nij,nj->na', p_t, g, Nbar)
    try:
        beta = np.linalg.solve(gram, rhsv[:, :, None])[:, None, :, 0]
    except np.linalg.LinAlgError:
        # on the polar axis of the (theta, phi) chart d/dphi vanishes
        raise CoordinateSingularity(
            f"direction zeta={d.zeta:.6g}, omega={tuple(map(float, d.omega))} "
            f"is on the polar axis of the mini-fan's (theta, phi) chart"
        ) from None
    Nbar_u = (beta @ du_p.T[:, :, None])[:, 0, 0]
    Nbar_binv = (beta @ dbinv_p.T[:, :, None])[:, 0, 0]
    bt, rt = C["bt"], C["rtilde"]
    Tu = (bt / rhos) * C["d_u"] - (rt / rhos) * Nbar_u
    leafN = np.einsum('na,nab,nib->ni', Nbar, g, lf.st["triad"][mid])[:, None]
    kh_nn = (leafN @ C["khat"] @ _T(leafN))[:, 0, 0]
    ck_nn = kh_nn + C["q0"] / 3.0          # khat_NN + q0/3 = k_NN - 1/rho
    rhs_tu = 1.0 + C["u"] * ((rt / rhos) * ck_nn + C["N_log_n"])
    N_binv = (bt / rhos) * Nbar_binv - (rt / rhos) * C["d_binv"]
    rhs_nb = (rt / C["t"]) * (bt / rhos) * ck_nn
    return _residual_table({
        "t_of_u": (Tu - rhs_tu, 1.0),
        "n_of_binv": (N_binv - rhs_nb, np.abs(C["d_binv"]) + 1e-2)})
