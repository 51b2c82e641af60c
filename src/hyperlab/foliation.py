"""Leaf scalars, intrinsic frames, the second fundamental form in the leaf
basis, spheres S_{t,rho} with their null second fundamental forms, and
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
contraction is a stacked einsum, matmul or 3x3 inverse with no reduction
across points and, per point, the operand shapes of the one-point product.
The sphere pairs too are one stacked Gram-Schmidt, each point with its own
order of candidate axes.  So every point's result is bit-identical to that
point evaluated alone.

The spheres come from solve_level_nodes, which finds each node's
rapidity in one integration as a rule.  Its stencil integrates nothing:
the level function of plain lanes at the Chebyshev points of a rapidity
span about the flat root comes from a quadrature of the static first
integrals (geodesic._static_ends), and the root of its interpolant is the
first iterate.  Only the tight rounds that follow integrate, each one
integrate_rays call with k: the triad, the Jacobi fields in it and k, as
every record with k carries, and leaf_frames rotates that k into the leaf
basis.

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
transverse residuals of structure_residuals read the 12 neighbours of a
mini-fan of spacing _FAN_DELTA about the record's own parameters
(mini_fan_directions), which the caller integrates, as a rule in the
record's own batch.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import (BracketFailure, CentralLineDegenerate,
                     CoordinateSingularity, FanTooCoarse, MissingK, OutOfRange,
                     SingularityTruncated, Unreachable)
from .geodesic import (ZETA_MAX_DEFAULT, Direction, _seed_rho, _states_at,
                       _static_ends, direction_from_angles, integrate_rays)
from .metric import (_check_regular, _colsum, _optical_mass_terms,
                     _orthonormalize_stacked, _zs_floor, curvature_at,
                     metric_at)

FRAME_FLOOR = 1e-6
# The leaf solver's stencil (solve_level_nodes): the level function of
# _Z_POINTS plain lanes per node, their t and r at rho by quadrature
# (geodesic._static_ends), at the Chebyshev points of _Z_SPAN about the
# flat root.  Scan on glued M = 0.01 unless named: the largest first tight
# residual |f| / max(|target|, 1) over the 12 centred t-leaves (t/rho = 2,
# 4, 8; rho = 5, 10, 15.79, 20; angular_grid(4, 1)), uhat rho 15 target 3
# and rho 6 target 1, t 40 on rho 10 at M = 0.05 and M = 0.2, the
# zs-compare cone sphere, the mass subcommand's batch at rho 10 and 12
# leaves from the origins (0.5, 0, 0), (0, 0.3, 0.6) and (0.97, 0, 0); a
# residual above the acceptance bound 1e-10 takes a second integration:
#     points                   5        6        7        9
#     [-0.03, 0.005]     7.4e-09  7.9e-11  5.1e-12  2.7e-10
#     [-0.06, 0.005]     9.3e-10  6.1e-12  3.6e-12  3.5e-12
#     [-0.09, 0.005]     1.6e-10  4.0e-12  3.6e-12  3.5e-12
#     [-0.12, 0.005]     8.1e-10  5.2e-12  3.6e-12  3.5e-12
#     [-0.15, 0.005]     1.2e-09  1.7e-11  3.6e-12  3.6e-12
# 3.6e-12 (uhat rho 6) is the tight records' own error.  [-0.12, 0.005]
# holds the M = 0.2 root, 0.076 below the flat root, which the narrower
# spans reach only by extrapolation (9 points on [-0.03, 0.005] miss it),
# and 7 points reach the floor with a margin of 28 below the bound.
_Z_SPAN = (-0.12, 0.005)    # the stencil's span about the flat root
_Z_POINTS = 7               # its Chebyshev points, ends included
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


def _sphere_pairs(g, fixed):
    """g-orthonormal pairs (n, 2, 4) g-orthogonal to the unit vectors fixed
    (n, k, 4): per point, metric._orthonormalize of the spatial axes sorted
    by |<e_i, fixed[-1]>|, least aligned first, keeping two.  An axis with
    no remainder, which takes an exact alignment with the fixed vectors, is
    skipped for the next; a point left with one raises."""
    f, axes = fixed[:, -1], np.eye(4)[1:]
    tilt = np.stack([np.abs(((np.broadcast_to(c, f.shape)[:, None] @ g)
                             @ f[:, :, None])[:, 0, 0]) for c in axes], axis=1)
    return _orthonormalize_stacked(g, fixed, axes[np.argsort(tilt)], 2)


def leaf_frames(model, recs, rhos):
    """Leaf scalars, frames, radial overlap and k in the leaf basis (when
    the records carry k) of every record of recs
    at every rho of rhos, read in one batch, from one level-0 metric jet.

    Points with rtilde below FRAME_FLOOR are flagged in `degenerate`; their
    scalars are valid, their frames are not built.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    sts = _states_at(recs, rhos)
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
    eA[ok] = _sphere_pairs(jet.g[ok], np.stack([T, N], axis=1)[ok])
    xs = x[ok, 1:, None]
    r[ok] = np.sqrt(_T(xs) @ xs)[:, 0, 0]
    rad = xs / r[ok, None, None]
    varpi[ok] = (N[ok, None, 1:] @ rad)[:, 0, 0]
    snr[ok] = (eA[ok, :, 1:] @ rad)[:, :, 0]
    frames = FrameSet(T=T, N=N, Nbar=Nbar, B=B, L=T + N, Lb=T - N, eA=eA,
                      g=jet.g, x=x, r=r, varpi=varpi, snr=snr)
    # k in the orthonormal leaf basis f = {Nbar, eA}; 0 where degenerate:
    # the triad's khat rotated by C_ab = <f_a, E_b>, plus trk/3 I, so the
    # error of C (terms of size cosh(zeta)^2) meets only the small khat
    k = None
    if st["q0"] is not None:
        leaf = np.concatenate([Nbar[:, None], eA], axis=1)[ok]
        C = leaf @ jet.g[ok] @ _T(st["triad"][ok])
        k = np.zeros((len(x), 3, 3))
        k[ok] = C @ st["khat"][ok] @ _T(C) + (1.0 / rho[ok] + st["q0"][ok]
                                              / 3.0)[:, None, None] * np.eye(3)
        k = 0.5 * (k + _T(k))
        trk = np.trace(k, axis1=1, axis2=2)
        k = SecondFundamental(
            k=k, trk=trk, khat=k - (trk / 3.0)[:, None, None] * np.eye(3))
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
    """k in the orthonormal leaf basis {Nbar, eA}, as leaf_frames takes it."""
    lf = leaf_frames(model, [rec], rho).require_frames()
    if lf.k is None:
        raise MissingK("record has no k")
    return _pick(lf.k, 0)


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
    phis = [0.0] if n_phi == 1 else 2.0 * np.pi * np.arange(n_phi) / n_phi
    nodes = [(th, ph, w * (2.0 * np.pi / n_phi))
             for th, w in zip(np.arccos(xs), ws) for ph in phis]
    if axis is None:
        return nodes
    R = _rotation_to(np.asarray(axis, dtype=float))
    out = []
    for th, ph, w in nodes:
        om = R @ [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
        out.append((*map(float, Direction(0.0, om).angles()), w))
    return out


def origin_grid(origin, n_theta):
    """angular_grid(n_theta, 1) about the origin's spatial offset, or about
    z when it is 0: the axisymmetric reduction is exact only about the
    problem's axis, and an offset origin's axis is its offset."""
    off = np.asarray(origin, dtype=float)[1:]
    return angular_grid(n_theta, 1, axis=off if off.any() else None)


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
    xs = x[..., 1:]
    return _level_of(model, x[..., 0] - origin_t,
                     np.sqrt(np.sum(xs * xs, axis=-1)), level)


def _level_of(model, t, r, level):
    """The level function at time t (relative to the origin) and radius r."""
    if level == "t":
        return t
    if level == "uhat":
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
    """The level function t or uhat at the end of each tight record, its
    one sample at the leaf's rho, and its exact derivative p_zeta . grad F
    along the rapidity from the Jacobi fields.  SingularityTruncated when a
    record stopped short of rho, BracketFailure when one ends where the
    level function is undefined."""
    if any(rec.truncated for rec in recs):
        raise SingularityTruncated("a level iterate stopped short of rho")
    x = np.concatenate([rec.x for rec in recs])
    if np.any(np.linalg.norm(x[:, 1:], axis=1) <= r_floor):
        raise BracketFailure("level function undefined inside the bracket")
    F = _level_value(model, recs[0].origin[0], x, level)
    grad = _level_gradient(model, x, level)
    p_zeta = param_tangents(recs, np.concatenate([rec.j for rec in recs]))
    return F, (p_zeta[:, :1] @ grad[:, :, None])[:, 0, 0]


def _stencil_level(model, origin, rho, zk, thetas, phis, level, r_floor):
    """The level function F at the rapidities zk (m, p), a node per row,
    from the time and radius at rho of the plain lane of each point, all
    m p points by quadrature of the static first integrals
    (geodesic._static_ends) in one batch; NaN where one ends at
    r <= r_floor."""
    m, p = zk.shape
    dirs = [direction_from_angles(*a) for a in
            zip(zk.ravel(), np.repeat(thetas, p), np.repeat(phis, p))]
    t, r = _static_ends(model, origin, dirs, rho)
    out = r > r_floor
    F = np.full(m * p, np.nan)
    F[out] = _level_of(model, t[out], r[out], level)
    return F.reshape(m, p)


def _interp_root(zk, f, z):
    """Each node's root of the polynomial interpolating f at zk (m, p), by
    eight Newton steps from z on its divided differences, elementwise."""
    c = f.copy()
    for j in range(1, zk.shape[1]):
        c[:, j:] = (c[:, j:] - c[:, j - 1:-1]) / (zk[:, j:] - zk[:, :-j])
    for _ in range(8):
        v, dv = c[:, -1], 0.0
        for j in range(zk.shape[1] - 2, -1, -1):
            dv = dv * (z - zk[:, j]) + v
            v = v * (z - zk[:, j]) + c[:, j]
        z = z - v / dv
    return z


def _narrow(zk, f, s, lo, hi, scale, zn):
    """Each node's bracket [lo, hi] shrunk by its values f (m, p) at zk, s
    the sign of its slope, and its next iterate: zn, or the midpoint when
    zn leaves the bracket; a point where f is NaN lies below the root.
    Unreachable on a collapsed bracket."""
    below = ~(f * s[:, None] >= 0)          # the root lies above the point
    lo = np.maximum(lo, np.where(below, zk, -np.inf).max(axis=1))
    hi = np.minimum(hi, np.where(below, np.inf, zk).min(axis=1))
    fmin = np.fmin.reduce(np.abs(f), axis=1)            # NaN when all are
    if np.any((hi <= lo) & (fmin > 3e-6 * scale)):
        raise Unreachable("target level not attained on the zeta bracket")
    return lo, hi, np.where((zn >= lo) & (zn <= hi), zn, 0.5 * (lo + hi))


def solve_level_nodes(model, origin, rho, target, angles, level="t"):
    """Find, for each direction (theta, phi), the rapidity zeta at which the
    level function (t or uhat) equals target on H_rho; target is one value,
    or one per direction.

    The first round is the stencil (_stencil_level): F at the _Z_POINTS
    Chebyshev points of the span _Z_SPAN about each node's flat root,
    arccosh(max(target/rho, 1)) on level t and ln(rho/target) on level
    uhat, the span shifted into the bracket [1e-8, ZETA_MAX_DEFAULT], by
    quadrature of the static first integrals, with no integration.  Its
    values shrink each node's bracket, and the root of their interpolant
    (_interp_root) is the next zeta.  A point that ends below the exterior
    zone (level uhat) and those below it only bound the root from below: a
    node interpolates the points above them, and bisects its bracket when
    fewer than two remain.  Each later round is tight: one integrate_rays
    call to rho at TIGHT_TOL with k (the triad, the Jacobi fields in it and
    k), with the exact slope df = p_zeta . grad F from each record's Jacobi
    fields in coordinates.  A node is accepted on a tight residual below
    1e-10 max(|target|, 1); else it steps to z - d - c d^2 / 2, d = f / df,
    with the flat level's curvature c = F''/F' (coth(z) on level t, -1 on
    level uhat = rho e^-z).  A next zeta outside the bracket bisects it.
    Lanes are independent and roots are taken per node, so no root or
    record depends on the order or grouping of the nodes.  Returns the zeta
    array and the records; a leaf takes one integration when the stencil's
    root meets the bound.

    Errors: Unreachable when a node's bracket collapses onto one of its
    ends with |f| above 3e-6 max(|target|, 1); BracketFailure("level
    function not monotone on the bracket") when F is not monotone over a
    node's stencil or its slope changes sign between rounds; BracketFailure
    when the iteration does not converge, or when a tight uhat iterate
    falls below the exterior zone, where uhat is undefined.  An origin outside
    the flat core raises SeedRegionTooSmall before the stencil, and a tight
    lane that leaves the core too soon (_seed_rho) raises it in its round,
    before that round integrates.
    """
    origin = np.asarray(origin, dtype=float)
    # a leaf record carries k, which is checked against an independent
    # oracle only from origins in the flat core: until an off-core oracle
    # for k exists, an origin whose static line (no lane's seed is longer)
    # has too short a seed raises (_seed_rho with k) before the stencil,
    # whose quadrature starts in the flat core; a singular origin first, as
    # in integrate_rays
    _check_regular(model, np.linalg.norm(origin[1:]))
    _seed_rho(model, origin, np.eye(4)[:1], rho, True)
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
    width = _Z_SPAN[1] - _Z_SPAN[0]
    cheb = 0.5 * (1.0 - np.cos(np.pi * np.arange(_Z_POINTS) / (_Z_POINTS - 1)))
    a = np.clip(z0 + _Z_SPAN[0], lo, hi - width)
    zk = np.minimum(a[:, None] + width * cheb, hi[:, None])
    f = _stencil_level(model, origin, rho, zk, thetas, phis, level,
                       r_floor) - target[:, None]
    # NaN below the zone's floor, and below such a point: the k points
    # above them are interpolated, and the rest bound the root from below
    f[np.cumsum(np.isnan(f[:, ::-1]), axis=1)[:, ::-1] > 0] = np.nan
    k = np.sum(~np.isnan(f), axis=1)
    sgn = np.sign(f[:, -1] - f[np.arange(m), np.minimum(-k, -1)])
    sgn[k < 2] = 1.0 if level == "t" else -1.0      # the flat level's
    if np.any(np.diff(f, axis=1) * sgn[:, None] < 0):
        raise BracketFailure("level function not monotone on the bracket")
    zn = np.full(m, np.nan)
    for kk in set(k[k > 1]):                # nodes by their count of points
        i = np.flatnonzero(k == kk)
        zn[i] = _interp_root(zk[i, -kk:], f[i, -kk:],
                             np.clip(z0[i], zk[i, -kk], zk[i, -1]))
    lo, hi, z = _narrow(zk, f, sgn, lo, hi, scale, zn)
    out = [None] * m
    todo = np.arange(m)
    for _ in range(30):
        recs = integrate_rays(
            model, origin, [direction_from_angles(z[i], thetas[i], phis[i])
                            for i in todo], [rho], TIGHT_TOL, with_k=True)
        F, df = _level_slope(model, recs, level, r_floor)
        f = F - target[todo]
        if np.any(sgn[todo] * df < 0):
            raise BracketFailure("level function not monotone on the bracket")
        sgn[todo] = np.sign(df)
        d = f / df
        c = 1.0 / np.tanh(z[todo]) if level == "t" else -1.0   # flat F''/F'
        zn = z[todo] - d - 0.5 * c * d * d
        lo[todo], hi[todo], z[todo] = _narrow(
            z[todo, None], f[:, None], sgn[todo], lo[todo], hi[todo],
            scale[todo], zn)
        done = np.abs(f) <= 1e-10 * scale[todo]
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
    nbrs = np.add(index, _stencil5(fan.shape, index, steps))
    *sts, center = _states_at([fan.record(*j) for j in nbrs]
                              + [fan.record(*index)], rho)
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


def mini_fan_directions(direction):
    """The 12 neighbours of the transverse mini-fan about direction: the
    5-point stencil (_stencil5 order) of a 5x5x5 fan of spacing _FAN_DELTA
    in (zeta, theta, phi) with direction in the middle.

    CentralLineDegenerate when zeta < 2 _FAN_DELTA leaves no room for it.
    """
    if direction.zeta < 2.0 * _FAN_DELTA:
        raise CentralLineDegenerate(
            f"zeta={direction.zeta:.3g} leaves no room for the transverse "
            f"mini-fan (needs zeta >= {2.0 * _FAN_DELTA:.3g})")
    params = np.array([direction.zeta, *direction.angles()])
    return [direction_from_angles(*(params + _FAN_DELTA * j))
            for j in _stencil5((5, 5, 5), (2, 2, 2), [_FAN_DELTA] * 3)]


def structure_residuals(model, rec, probe_rhos=None, neighbours=()):
    """Residual table of the per-ray structure equations.

    Keys: Bb1, ctt, s1, eq_3_14_1, s1_1, Bu and, when neighbours holds the
    records of the record's mini-fan, t_of_u (T(u) identity) and n_of_binv
    (N(b^-1) identity); zbar_max is a derived diagnostic.  Each entry is
    the maximum absolute residual over the probe rhos; *_scale entries give
    the size of the terms entering the equation.

    neighbours is empty (no transverse rows) or exactly the 12 records of
    mini_fan_directions(rec.direction), in that order, from rec's origin and
    reaching the largest probe rho; they may be plain or carry k.  Else
    ValueError, naming what is wrong.
    """
    if not rec.has_k:
        raise MissingK("record has no triad and k")
    if len(neighbours):
        if len(neighbours) != 12:
            raise ValueError(f"{len(neighbours)} neighbour records; the "
                             f"mini-fan has 12")
        if any(not np.array_equal(nb.origin, rec.origin) for nb in neighbours):
            raise ValueError("a neighbour record has another origin")
        if any(nb.direction != d for nb, d in
               zip(neighbours, mini_fan_directions(rec.direction))):
            raise ValueError("neighbour directions are not the record's "
                             "mini-fan in _stencil5 order")
    rhos = np.asarray(probe_rhos if probe_rhos is not None
                      else rec.rho[1:-1], dtype=float)
    rhos = rhos[(rhos > max(2.0 * rec.rho_seed, 0.05))
                & (rhos < rec.rho_reached * 0.999)]
    if len(rhos) == 0:
        raise OutOfRange("no admissible probe rhos")
    short = [nb.rho_reached for nb in neighbours if nb.rho_reached < rhos.max()]
    if short:
        raise ValueError(f"a neighbour record ends at rho={short[0]:.6g}, "
                         f"below the largest probe rho {rhos.max():.6g}")
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

    if len(neighbours):
        tb = _transverse_residuals(model, rec, neighbours, rhos, lf,
                                   dict(t=t, bt=bt, u=u, rtilde=rtilde,
                                        q0=q0, khat=khat, N_log_n=N_log_n,
                                        d_u=d_u, d_binv=ddr(lf.binv)))
        table.update(tb)
    return table


def _transverse_residuals(model, rec, neighbours, rhos, lf, C):
    """T(u) and N(b^-1) identities, using the mini-fan's neighbour records
    for leaf gradients (only their leaf scalars u and b^-1 are read); lf
    holds the record at the 5-point rho clusters around the probe rhos."""
    d = rec.direction
    steps = [_FAN_DELTA] * 3
    sc = leaf_frames(model, neighbours, rhos).scalars
    du_p = _fan_partials(sc.u.reshape(len(neighbours), -1), steps)
    dbinv_p = _fan_partials((1.0 / sc.b).reshape(len(neighbours), -1), steps)

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
