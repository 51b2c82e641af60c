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

The models are static with zero shift, so the maximal-slice second
fundamental form vanishes identically and the static-observer acceleration
is <D_T T, X> = X(log n).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (BracketFailure, CentralLineDegenerate, FanTooCoarse,
                     MissingK, OutOfRange, Unreachable)
from .geodesic import Direction, direction_from_angles, integrate_rays
from .metric import (_optical_mass_terms, _orthonormalize, curvature_at,
                     lapse_gradient, metric_at)

FRAME_FLOOR = 1e-6
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


@dataclass
class SecondFundamental:
    k: np.ndarray           # (3,3) in the orthonormal leaf basis {Nbar, eA}
    trk: float
    khat: np.ndarray        # (3,3) trace-free part, same basis
    k_nn: float
    k_na: np.ndarray        # (2,)
    k_ab: np.ndarray        # (2,2)


def _time_of(rec, x):
    return x[..., 0] - rec.origin[0]


def leaf_scalars(model, rec, rho):
    """Leaf scalars of the record at proper time rho (scalar)."""
    st = rec.state_at(float(rho))
    return _leaf_scalars_from_state(model, rec, float(rho), st)


def _leaf_scalar_arrays(rec, rho, x, B, n):
    """Leaf scalars t, b^{-1}, b^{-1}t, rtilde, tau, u, ubar along the record,
    vectorised over rho (x, B: states at rho; n: the lapse there)."""
    t = _time_of(rec, x)
    binv = rho * n * B[..., 0] / t      # -(rho/t)<B,T>, <B,T> = -n B^t
    bt = binv * t
    rtilde = np.sqrt(np.maximum(bt * bt - rho * rho, 0.0))
    tau = rho * rec.direction.hyperboloid_point()[0]
    return {"t": t, "binv": binv, "bt": bt, "rtilde": rtilde, "tau": tau,
            "u": bt - rtilde, "ubar": bt + rtilde}


def _leaf_scalars_from_state(model, rec, rho, st, n=None):
    """LeafScalars at one state; n: the lapse at st["x"], if already known."""
    x = st["x"]
    if _time_of(rec, x) <= 0:
        raise OutOfRange("leaf scalars need t > 0 past the origin")
    if n is None:
        n = float(metric_at(model, x, level=0).lapse)
    s = _leaf_scalar_arrays(rec, rho, x, st["b"], n)
    rtilde = float(s["rtilde"])
    return LeafScalars(rho=rho, t=float(s["t"]), tau=float(s["tau"]),
                       b=float(1.0 / s["binv"]), n=n, rtilde=rtilde,
                       u=float(s["u"]), ubar=float(s["ubar"]),
                       a=float(rho / rtilde) if rtilde > 0 else np.inf)


def frames_at(model, rec, rho, frame_floor=FRAME_FLOOR):
    """Intrinsic frame set {T, N, Nbar, B, L, Lb, eA} at rho along the record."""
    st = rec.state_at(float(rho))
    return _frames_from_state(model, rec, float(rho), st, frame_floor)[0]


def _frames_from_state(model, rec, rho, st, frame_floor=FRAME_FLOOR):
    """(FrameSet, LeafScalars) at one state, from one level-0 metric jet."""
    x, B = st["x"], st["b"]
    jet = metric_at(model, x, level=0)
    sc = _leaf_scalars_from_state(model, rec, rho, st, float(jet.lapse))
    if sc.rtilde < frame_floor:
        raise CentralLineDegenerate(
            f"rtilde={sc.rtilde:.3g} below frame floor {frame_floor:.3g}")
    g = jet.g
    T = np.zeros(4)
    T[0] = 1.0 / sc.n
    bt = sc.t / sc.b
    N = (rho * B - bt * T) / sc.rtilde
    Nbar = (sc.rtilde * T + bt * N) / rho
    # orthonormal pair tangent to the leaf: the spatial axes least aligned
    # with N, orthogonalized against {T, N}
    cands = np.eye(4)[1:]
    cands = cands[np.argsort([abs(c @ g @ N) for c in cands])]
    eA = _orthonormalize(g, [T, N], cands, 2)
    return FrameSet(T=T, N=N, Nbar=Nbar, B=B.copy(), L=T + N, Lb=T - N,
                    eA=eA, g=g, x=x.copy()), sc


def _radial_overlap(frames):
    """r, the radial unit 3-vector, varpi = N(r) and the angular gradient
    snr_A = e_A(r) at a frame point (Euclidean components)."""
    r = float(np.linalg.norm(frames.x[1:]))
    rad = frames.x[1:] / r
    return r, rad, float(frames.N[1:] @ rad), frames.eA[:, 1:] @ rad


def second_fundamental_transport(model, rec):
    """Record with the transported second fundamental form populated."""
    if rec.has_k:
        return rec
    return integrate_rays(model, rec.origin, [rec.direction], rec.rho,
                          ode_tol=rec.ode_tol, with_jacobi=rec.has_jacobi,
                          with_k=True)[0]


def second_fundamental_at(model, rec, rho, frames=None):
    """Transported k expressed in the orthonormal leaf basis {Nbar, eA}."""
    if not rec.has_k:
        raise MissingK("record has no transported second fundamental form")
    st = rec.state_at(float(rho))
    if frames is None:
        frames = _frames_from_state(model, rec, float(rho), st)[0]
    return _second_fundamental_from_state(rec, float(rho), st, frames)


def _k_triad(q0, khat, rho):
    """k in the parallel triad, khat + (1/rho + q0/3) I, batched."""
    return khat + np.asarray(1.0 / rho + q0 / 3.0)[..., None, None] * np.eye(3)


def _second_fundamental_from_state(rec, rho, st, frames):
    trk = 3.0 / rho + st["q0"]
    k_triad = _k_triad(st["q0"], st["khat"], rho)
    leaf = np.stack([frames.Nbar, frames.eA[0], frames.eA[1]])
    C = np.einsum('ai,ij,bj->ab', leaf, frames.g, st["triad"])   # <f_a, E_b>
    k_leaf = C @ k_triad @ C.T
    k_leaf = 0.5 * (k_leaf + k_leaf.T)
    khat_leaf = k_leaf - (trk / 3.0) * np.eye(3)
    return SecondFundamental(k=k_leaf, trk=float(trk), khat=khat_leaf,
                             k_nn=float(k_leaf[0, 0]),
                             k_na=k_leaf[0, 1:].copy(),
                             k_ab=k_leaf[1:, 1:].copy())


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


def param_tangents(rec, st):
    """Coordinate tangent vectors d x / d(zeta, theta, phi) at a state.

    Uses the Jacobi fields: a hyperboloid tangent with frame-spatial part w
    is realized by sum_i (w_i / V^0) J_i.
    """
    d = rec.direction
    M = _vparam_jacobian(d.zeta, *d.angles())
    v0 = np.cosh(d.zeta)
    coef = M[1:, :] / v0                      # (3 frame-spatial, 3 params)
    return np.einsum('ip,ia->pa', coef, st["j"])   # (3 params, 4 coords)


# ---------------------------------------------------------------------------
# leaf slices

@dataclass
class LeafNode:
    direction: Direction
    record: object
    weight: float               # induced-area measure d(mu_gamma) of the node
    solid_weight: float         # quadrature weight on the direction sphere
    scalars: LeafScalars = None
    frames: FrameSet = None
    k: SecondFundamental = None
    x: np.ndarray = None
    trchi: float = None
    trchib: float = None
    chihat: np.ndarray = None
    chibhat: np.ndarray = None
    status: str = "ok"


@dataclass
class LeafSlice:
    t: float
    rho: float
    nodes: list
    area: float
    area_radius: float
    level: str = "t"
    target: float = None
    model: object = None


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


def _uhat_gradient(model, x):
    """Coordinate gradient of uhat = t - gamma_r (exterior zone)."""
    xs = x[..., 1:]
    r = np.sqrt(np.sum(xs * xs, axis=-1))
    dgam = 1.0 + _optical_mass_terms(model.mass, r)[1]
    grad = np.zeros_like(x)
    grad[..., 0] = 1.0
    grad[..., 1:] = -dgam[..., None] * xs / r[..., None]
    return grad


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


def solve_level_nodes(model, origin, rho, target, angles, level="t",
                      zeta_max=6.0, ode_tol=1e-11, root_tol_rel=1e-10,
                      n_scan=25):
    """Find, for each direction (theta, phi), the rapidity zeta at which the
    level function (t or uhat) equals target on H_rho.

    A batched scan over zeta locates per-node brackets (masking rapidities
    whose endpoint falls below the zone where the level function is defined),
    verifies monotonicity on them, and a safeguarded secant refines the root.
    Returns the zeta array and fully populated records (Jacobi + k).
    """
    origin = np.asarray(origin, dtype=float)
    thetas = np.array([a[0] for a in angles])
    phis = np.array([a[1] for a in angles])
    m = len(angles)
    if level == "uhat":
        r_floor = model.r_out + 0.02 if model.kind == "glued" else \
            2.0 * model.mass * 1.2
    else:
        r_floor = -np.inf

    def evaluate(zs, tol):
        dirs = [direction_from_angles(z, th, ph)
                for z, th, ph in zip(zs, thetas, phis)]
        recs = integrate_rays(model, origin, dirs, [rho], ode_tol=tol,
                              with_jacobi=False, with_k=False)
        xs = np.stack([r.x[-1] for r in recs])
        rr = np.linalg.norm(xs[:, 1:], axis=1)
        bad = rr <= max(r_floor, 1e-12)
        safe = xs.copy()
        if np.any(bad):
            safe[bad, 1] = max(2.0 * abs(r_floor), 1.0)
            safe[bad, 2:] = 0.0
        val = _level_value(model, origin[0], safe, level)
        return np.where(bad, np.nan, val)

    # scan stage: one batch over (node, zeta_scan)
    z_scan = np.concatenate([[1e-8], np.linspace(0.05, zeta_max, n_scan - 1)])
    zz = np.tile(z_scan, m)
    tt = np.repeat(thetas, len(z_scan))
    pp = np.repeat(phis, len(z_scan))
    dirs = [direction_from_angles(z, th, ph) for z, th, ph in zip(zz, tt, pp)]
    recs = integrate_rays(model, origin, dirs, [rho], ode_tol=1e-9,
                          with_jacobi=False, with_k=False)
    xs = np.stack([r.x[-1] for r in recs]).reshape(m, len(z_scan), 4)
    rr = np.linalg.norm(xs[..., 1:], axis=-1)
    valid = rr > max(r_floor, 1e-12)
    safe_xs = np.where(valid[..., None], xs, 0.0)
    safe_xs[..., 1] = np.where(valid, safe_xs[..., 1], max(2 * abs(r_floor), 1.0))
    fvals = _level_value(model, origin[0], safe_xs, level) - target
    fvals = np.where(valid, fvals, np.nan)

    a = np.empty(m)
    b = np.empty(m)
    fa = np.empty(m)
    fb = np.empty(m)
    for i in range(m):
        ok = np.where(valid[i])[0]
        f = fvals[i, ok]
        if len(ok) < 3:
            raise Unreachable("level function defined on too small a bracket")
        df = np.diff(f)
        if not (np.all(df > 0) or np.all(df < 0)):
            raise BracketFailure("level function not monotone on the bracket")
        sgn = np.sign(f)
        cross = np.where(sgn[:-1] * sgn[1:] <= 0)[0]
        if len(cross) == 0:
            raise Unreachable("target level not attained on the zeta bracket")
        j = cross[0]
        a[i], b[i] = z_scan[ok[j]], z_scan[ok[j + 1]]
        fa[i], fb[i] = f[j], f[j + 1]

    tol_abs = root_tol_rel * max(abs(target), 1.0)

    # phase 1: plain bisection at loose tolerance down to a narrow bracket
    while (b - a).max() > 1e-4:
        z = 0.5 * (a + b)
        fz = evaluate(z, 1e-9) - target
        if np.any(np.isnan(fz)):
            raise BracketFailure("level function undefined inside the bracket")
        left = (fz * fa) <= 0
        b = np.where(left, z, b)
        fb = np.where(left, fz, fb)
        a = np.where(left, a, z)
        fa = np.where(left, fa, fz)

    # phase 2: batched secant at tight tolerance down to a coarse target.
    # Nodes in a shared batch couple weakly through the adaptive stepper
    # (~1e-8 relative), so the last digits are refined per node below.
    tight = min(ode_tol, 1e-12)
    lo_b, hi_b = a - 1e-3, b + 1e-3
    coarse = max(tol_abs, 3e-6 * max(abs(target), 1.0))
    z0, z1 = a.copy(), b.copy()
    f0 = evaluate(z0, tight) - target
    f1 = evaluate(z1, tight) - target
    for it in range(12):
        done = np.abs(f1) <= coarse
        if np.all(done):
            break
        step = f1 * (z1 - z0) / (f1 - f0 + 1e-300)
        z = np.clip(np.where(done, z1, z1 - step), lo_b, hi_b)
        fz = evaluate(z, tight) - target
        if np.any(np.isnan(fz)):
            raise BracketFailure("level function undefined inside the bracket")
        z0 = np.where(done, z0, z1)
        f0 = np.where(done, f0, f1)
        z1, f1 = z, fz
    else:
        raise BracketFailure("level root iteration did not converge")

    # phase 3: per-node decoupled secant with the final full-payload solve;
    # the accepted residual is measured on the returned record itself
    recs = [None] * m
    zs = np.empty(m)
    for i in range(m):
        za, fa_i = z0[i], f0[i]
        zb, fb_i = z1[i], f1[i]
        if abs(fb_i - fa_i) < 1e-300:
            zb = za + 1e-7
        ok = False
        for it in range(15):
            zn = zb - fb_i * (zb - za) / (fb_i - fa_i + 1e-300)
            zn = min(max(zn, lo_b[i]), hi_b[i])
            rec = integrate_rays(model, origin,
                                 [direction_from_angles(zn, thetas[i], phis[i])],
                                 [rho], ode_tol=tight, with_jacobi=True,
                                 with_k=True)[0]
            fn = float(_level_value(model, origin[0], rec.x[-1], level)) - target
            za, fa_i, zb, fb_i = zb, fb_i, zn, fn
            if abs(fn) <= tol_abs:
                ok = True
                break
        if not ok:
            raise BracketFailure(
                f"node {i}: per-node refinement stalled at |df|={abs(fb_i):.2e}")
        zs[i] = zb
        recs[i] = rec
    return zs, recs


def leaf_slice(model, origin, t, rho, omega_nodes, zeta_max=6.0,
               ode_tol=1e-11, level="t", target=None):
    """Quadrature-ready sphere S_{t,rho} (or a uhat-level sphere on H_rho).

    omega_nodes: list of (theta, phi, solid-angle weight) triples, e.g. from
    angular_grid().  The induced-area measure of each node is computed from
    the exact pushforward tangents (Jacobi fields), constrained to the level
    set.
    """
    tgt = t if target is None else target
    zs, recs = solve_level_nodes(model, origin, rho, tgt, omega_nodes,
                                 level=level, zeta_max=zeta_max,
                                 ode_tol=ode_tol)
    nodes = []
    area = 0.0
    for (th, ph, w), z, rec in zip(omega_nodes, zs, recs):
        st = rec.state_at(rho)
        frames, sc = _frames_from_state(model, rec, rho, st)
        k = _second_fundamental_from_state(rec, rho, st, frames)
        p = param_tangents(rec, st)              # rows: d x/d(zeta,theta,phi)
        if level == "t":
            gradF = np.array([1.0, 0, 0, 0])
        else:
            gradF = _uhat_gradient(model, st["x"])
        dzeta = -(p[1:] @ gradF) / (p[0] @ gradF)
        tang = p[1:] + dzeta[:, None] * p[0]     # (2,4) tangent to the slice
        gam2 = np.einsum('ai,ij,bj->ab', tang, frames.g, tang)
        dens = np.sqrt(max(np.linalg.det(gam2), 0.0))
        dmu = w * dens / max(np.sin(th), 1e-300)
        area += dmu
        nodes.append(LeafNode(direction=rec.direction, record=rec,
                              weight=float(dmu), solid_weight=w, scalars=sc,
                              frames=frames, k=k, x=st["x"].copy()))
    return LeafSlice(t=float(t), rho=float(rho), nodes=nodes, area=float(area),
                     area_radius=float(np.sqrt(area / (4.0 * np.pi))),
                     level=level, target=tgt, model=model)


def slice_null_forms(model, sl):
    """Populate trchi, trchib, chihat, chibhat on every node of the slice.

    Static models: the maximal second fundamental form vanishes, so
    trchi = (rho/rtilde)((2/3) trk - khat_NbNb), trchib = -trchi, and the
    trace-free parts are +-(rho/rtilde)(khat_AB + khat_NbNb delta_AB / 2).
    """
    for node in sl.nodes:
        if node.k is None:
            raise MissingK("slice node lacks the second fundamental form")
        sc, k = node.scalars, node.k
        fac = sl.rho / sc.rtilde
        delta_b = k.khat[0, 0]
        base = (2.0 / 3.0) * k.trk - delta_b
        node.trchi = float(fac * base)
        node.trchib = float(-fac * base)
        hat = k.khat[1:, 1:] + 0.5 * delta_b * np.eye(2)
        node.chihat = fac * hat
        node.chibhat = -fac * hat
    return sl


# ---------------------------------------------------------------------------
# finite-difference oracle for k across a fan

def _fan_steps(fan):
    """Signed mean spacings of the (zeta, theta, phi) fan axes."""
    return [np.diff(grid).mean()
            for grid in (fan.zeta_grid, fan.theta_grid, fan.phi_grid)]


def _fan_partials(value_at, index, steps):
    """5-point first partials along the three parameter axes at index.

    value_at(j) returns a tuple of arrays at the parameter index j; steps
    holds the signed axis spacings.  Returns one array per tuple entry, with
    the three partials stacked on a new leading axis.
    """
    partials = []
    for a, h in enumerate(steps):
        terms = []
        for s, coef in _SIDES5:
            j = list(index)
            j[a] += s
            terms.append([coef * v / h for v in value_at(tuple(j))])
        partials.append([sum(t) for t in zip(*terms)])
    return [np.stack(p) for p in zip(*partials)]


def second_fundamental_fd_oracle(model, fan, index, rho):
    """Brute-force k at fan.records[flat index] by differencing the velocity
    field across neighboring rays: k(X, Y) = <D_X B, Y> with 5-point stencils
    in each fan parameter.  Returns k in the probe record's parallel triad.
    """
    iz, it, ip = index
    nz, nt, npp = fan.shape
    if min(nz, nt, npp) < 5:
        raise FanTooCoarse("fd oracle needs >= 5 nodes per fan axis")
    if not (2 <= iz < nz - 2 and 2 <= it < nt - 2 and 2 <= ip < npp - 2):
        raise FanTooCoarse("probe index too close to the fan boundary")
    steps = _fan_steps(fan)
    hmax = max(abs(h) for h in steps)
    if hmax > 2e-2:
        raise FanTooCoarse(f"fan spacing {hmax:.3g} exceeds 2e-2")

    def x_and_b(j):
        st = fan.record(*j).state_at(rho)
        return st["x"], st["b"]

    center = fan.record(iz, it, ip).state_at(rho)
    x0, b0 = center["x"], center["b"]
    jet = metric_at(model, x0, level=1)
    X, dB = _fan_partials(x_and_b, index, steps)
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
# boost deformation report across a fan

def _boost_coeffs(direction):
    """Parameter-space directions realizing the three boost generators at V.

    Returns s (3 boosts, 3 params) with R_c = sum_a s[c,a] d/d(param_a).
    """
    M = _vparam_jacobian(direction.zeta, *direction.angles())     # (4, 3)
    V = direction.hyperboloid_point()
    out = np.zeros((3, 3))
    for c in range(3):
        K = np.zeros(4)
        K[0] = V[c + 1]
        K[c + 1] = V[0]
        s, *_ = np.linalg.lstsq(M, K, rcond=None)
        out[c] = s
    return out


def _fan_directional(fan, values, index, coeffs):
    """Directional derivatives over the fan of a per-node array of values.

    values: array shaped fan.shape + tail.  coeffs: (3, 3) parameter-space
    directions.
    """
    partials, = _fan_partials(lambda j: (values[j],), index, _fan_steps(fan))
    return np.einsum('ca,a...->c...', coeffs, partials)


def deformation_boost(model, fan, rho, probe=None):
    """Boost deformation-tensor report at proper time rho.

    pi_bb[c]     = 2 <D J_c/drho, B> at the probe node (should vanish),
    pi_br[c][j]  = <DJ_c/drho, J_j> - <DJ_j/drho, J_c>  (Gram asymmetry),
    trpr_residual: finite-difference residual of d_B(tr pi^R) = 2 R(trk-3/rho),
    bpr0_residual: residual of the trace-free deformation transport equation
                   (reported diagnostic; FD-limited).
    """
    nz, nt, npp = fan.shape
    if min(nz, nt, npp) < 5:
        raise FanTooCoarse("deformation report needs >= 5 nodes per fan axis")
    if probe is None:
        probe = (nz // 2, nt // 2, npp // 2)
    iz, it, ip = probe
    center = fan.record(iz, it, ip)
    if not (center.has_jacobi and center.has_k):
        raise MissingK("fan records need Jacobi fields and k populated")

    def gather(r):
        """Per-node frame data at proper time r over the full fan."""
        shp = fan.shape
        G = np.zeros(shp + (3, 3))
        K = np.zeros(shp + (3, 3))
        q0 = np.zeros(shp)
        Vs = np.zeros(shp + (4,))
        for jz in range(nz):
            for jt in range(nt):
                for jp in range(npp):
                    rec = fan.record(jz, jt, jp)
                    st = rec.state_at(r)
                    g = metric_at(model, st["x"], level=0).g
                    G[jz, jt, jp] = np.einsum('ia,ab,jb->ij', st["j"], g, st["j"])
                    K[jz, jt, jp] = np.einsum('ia,ab,jb->ij', st["jp"], g, st["j"])
                    q0[jz, jt, jp] = st["q0"]
                    Vs[jz, jt, jp] = rec.direction.hyperboloid_point()
        return G, K, q0, Vs

    coeffs = _boost_coeffs(center.direction)

    def frame_fields(r):
        """tr pi, pihat, khat frame components and helpers at proper time r."""
        G, K, q0, Vs = gather(r)
        dG = _fan_directional(fan, G, probe, coeffs)       # (3, 3, 3)
        G0 = G[iz, it, ip]
        V = Vs[iz, it, ip]
        Ginv = np.linalg.inv(G0)
        pis = np.zeros((3, 3, 3))
        for c in range(3):
            comm = (V[c + 1] * G0 - V[1 + np.arange(3)][:, None] * G0[c]) / V[0]
            pis[c] = dG[c] - comm - comm.T
        trpi = np.einsum('ab,cab->c', Ginv, pis)
        pihat = pis - trpi[:, None, None] / 3.0 * G0
        khf = K - ((3.0 / r + q0)[..., None, None] / 3.0) * G
        return {"trpi": trpi, "pihat": pihat, "G0": G0, "Ginv": Ginv,
                "K0": K[iz, it, ip], "q0": q0, "khf": khf, "V": V}

    h = 1e-3 * max(rho, 1.0)
    rho = min(rho, center.rho_reached - h)      # keep the stencil integrable
    Fp = frame_fields(rho + h)
    Fm = frame_fields(rho - h)
    F0 = frame_fields(rho)
    trpi0, pihat0 = F0["trpi"], F0["pihat"]
    G0, Ginv, K0, V = F0["G0"], F0["Ginv"], F0["K0"], F0["V"]
    d_trpi = (Fp["trpi"] - Fm["trpi"]) / (2.0 * h)
    rq0 = _fan_directional(fan, F0["q0"], probe, coeffs)   # (3,)
    trpr_res = np.abs(d_trpi - 2.0 * rq0)
    trpr_scale = (np.max(np.abs(2.0 * rq0))
                  + np.max(np.abs(trpi0)) / max(rho, 1.0) + 1e-14)

    st0 = center.state_at(rho)
    g0 = metric_at(model, st0["x"], level=0).g
    pi_bb = 2.0 * np.einsum('ca,ab,b->c', st0["jp"], g0, st0["b"])
    pi_br = K0 - K0.T

    # bpr0: D_B pihat + (khat * pihat) - 2 Lie_R khat + (2/3) tr pi khat = 0
    kh0 = F0["khf"][iz, it, ip]
    dkh = _fan_directional(fan, F0["khf"], probe, coeffs)  # (3,3,3)
    lie_kh = np.zeros((3, 3, 3))
    for c in range(3):
        comm = (V[c + 1] * kh0 - V[1 + np.arange(3)][:, None] * kh0[c]) / V[0]
        lie_kh[c] = dkh[c] - comm - comm.T
    # D_B of pihat in the J-frame: d/drho of components minus P-corrections
    dpihat = (Fp["pihat"] - Fm["pihat"]) / (2.0 * h)
    Pmix = K0 @ Ginv                                      # P_a = Pmix[a,c] J_c
    covp = dpihat - np.einsum('ac,ncb->nab', Pmix, pihat0) \
        - np.einsum('bc,nac->nab', Pmix, pihat0)
    # (khat * pi)_ab = khat_a^c pi_cb + khat_b^c pi_ac, raising with G^{-1}
    khmix = kh0 @ Ginv
    kstar = np.einsum('ac,ncb->nab', khmix, pihat0) \
        + np.einsum('bc,nac->nab', khmix, pihat0)
    trpi_kh = trpi0[:, None, None] * kh0
    bpr0 = covp + kstar - 2.0 * lie_kh + (2.0 / 3.0) * trpi_kh
    bpr0_res = np.max(np.abs(bpr0))
    bpr0_scale = np.max(np.abs(lie_kh)) + np.max(np.abs(kh0)) / max(rho, 1.0) + 1e-14

    return {
        "pi_bb": pi_bb,
        "pi_br": pi_br,
        "pi_br_scale": float(np.max(np.abs(K0))),
        "trpr_residual": float(np.max(trpr_res)),
        "trpr_scale": float(trpr_scale),
        "bpr0_residual": float(bpr0_res),
        "bpr0_scale": float(bpr0_scale),
    }


# ---------------------------------------------------------------------------
# structure-equation residual table along one record

def _ray_scalars(model, rec, rhos):
    """Scalars along the ray at an array of rhos (vectorized)."""
    st = rec.state_at(rhos)
    x, B = st["x"], st["b"]
    n, gradn = lapse_gradient(model, x)
    out = _leaf_scalar_arrays(rec, rhos, x, B, n)
    out.update(n=n, Bn=np.einsum('na,na->n', B, gradn),   # B(n), analytic
               x=x, B=B, q0=st["q0"], khat=st["khat"], triad=st["triad"])
    return out


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


def structure_residuals(model, rec, probe_rhos=None, h=None,
                        transverse=True, fan_delta=5e-3):
    """Residual table of the per-ray structure equations.

    Keys: Bb1, ctt, s1, eq_3_14_1, s1_1, Bu and (with transverse=True,
    needing a local mini-fan) t_of_u (T(u) identity) and n_of_binv (N(b^-1)
    identity); zbar_max is a derived diagnostic.  Each entry is the maximum
    absolute residual over the probe rhos; *_scale entries give the size of
    the terms entering the equation.
    """
    if not rec.has_k:
        rec = second_fundamental_transport(model, rec)
    rhos = np.asarray(probe_rhos if probe_rhos is not None
                      else rec.rho[1:-1], dtype=float)
    rhos = rhos[(rhos > max(2.0 * rec.rho_seed, 0.05))
                & (rhos < rec.rho_reached * 0.999)]
    if len(rhos) == 0:
        raise OutOfRange("no admissible probe rhos")
    if h is None:
        h = min(6e-3, 0.03 * float(rhos.min()))

    cl, center, ddr = _rho_cluster(rhos, h)
    S = _ray_scalars(model, rec, cl)

    t, n = center(S["t"]), center(S["n"])
    binv, bt = center(S["binv"]), center(S["bt"])
    rtilde, tau, u = center(S["rtilde"]), center(S["tau"]), center(S["u"])
    q0 = center(S["q0"])
    khat = center(S["khat"])
    x, B = center(S["x"]), center(S["B"])
    Bn = center(S["Bn"])
    trk = 3.0 / rhos + q0

    # pointwise curvature along the probe points (independent of transport)
    jet = curvature_at(model, x)
    ric_bb = np.einsum('nab,na,nb->n', jet.ricci, B, B)
    E = center(S["triad"])
    tidal = np.einsum('nabcd,na,nib,nc,njd->nij', jet.riemann, B, E, B, E)
    rhat = tidal - (np.einsum('nii->n', tidal)[:, None, None] / 3.0) * np.eye(3)

    _, gradn = lapse_gradient(model, x)
    Nvec = (rhos[:, None] * B - bt[:, None] * _tvec(n)) / rtilde[:, None]
    N_log_n = np.einsum('na,na->n', Nvec, gradn) / n

    res = {}

    d_nb = ddr(S["n"] - S["binv"])
    lhs = d_nb + (binv / (n * rhos)) * (n - binv)
    rhs = (rtilde * binv / rhos) * N_log_n + Bn
    res["Bb1"] = (lhs - rhs, np.abs(rhs) + np.abs(d_nb))

    d_ctt = ddr(np.log(S["t"] / S["tau"]))
    res["ctt"] = (d_ctt - (binv / n - 1.0) / rhos,
                  np.abs(d_ctt) + 1.0 / rhos)

    kh_sq = np.einsum('nij,nij->n', khat, khat)
    d_trk = ddr(3.0 / cl + S["q0"])
    res["s1"] = (d_trk + trk ** 2 / 3.0 + ric_bb + kh_sq,
                 np.abs(d_trk) + trk ** 2 / 3.0)

    d_q0 = ddr(S["q0"])
    res["eq_3_14_1"] = (d_q0 + 2.0 * q0 / rhos + q0 ** 2 / 3.0 + ric_bb + kh_sq,
                        np.abs(d_q0) + np.abs(ric_bb) + 2.0 * np.abs(q0) / rhos
                        + 1.0 / rhos ** 2 * 0 + 1e-14)

    d_kh = ddr(S["khat"])
    kh2 = np.einsum('nij,njk->nik', khat, khat)
    s11 = (d_kh + (2.0 / 3.0) * trk[:, None, None] * khat + rhat
           + kh2 - (kh_sq[:, None, None] / 3.0) * np.eye(3))
    res["s1_1"] = (np.max(np.abs(s11), axis=(1, 2)),
                   np.max(np.abs(rhat), axis=(1, 2))
                   + (2.0 / 3.0) * trk * np.max(np.abs(khat), axis=(1, 2)) + 1e-14)

    d_u = ddr(S["u"])
    rhs_bu = u / rhos + (bt * u / rhos) * N_log_n
    res["Bu"] = (d_u - rhs_bu, np.abs(d_u) + np.abs(rhs_bu))

    table = {}
    for key, (r, scale) in res.items():
        table[key] = float(np.max(np.abs(r)))
        table[key + "_scale"] = float(np.max(np.abs(scale)) + 1e-300)

    # zbar diagnostic: zbar_A = -(b^{-1} t / rtilde) e_A(log n)
    zb = []
    for i, r in enumerate(rhos):
        fr = frames_at(model, rec, float(r))
        ealogn = np.einsum('Aa,a->A', fr.eA, gradn[i]) / n[i]
        zb.append(np.max(np.abs(-(bt[i] / rtilde[i]) * ealogn)))
    table["zbar_max"] = float(np.max(zb))

    if transverse:
        tb = _transverse_residuals(model, rec, rhos, h, fan_delta,
                                   dict(t=t, bt=bt, u=u, rtilde=rtilde,
                                        q0=q0, khat=khat, N_log_n=N_log_n,
                                        d_u=d_u, d_binv=ddr(S["binv"])))
        table.update(tb)
    return table


def _tvec(n):
    T = np.zeros(np.shape(n) + (4,))
    T[..., 0] = 1.0 / n
    return T


def _transverse_residuals(model, rec, rhos, h, delta, C):
    """T(u) and N(b^-1) identities, using a mini-fan for leaf gradients."""
    d = rec.direction
    params = np.array([d.zeta, *d.angles()])
    # the mini-fan: stencil neighbours of the parameter index (0, 0, 0)
    shifts = [tuple(s if b == a else 0 for b in range(3))
              for a in range(3) for s, _ in _SIDES5]
    dirs = [direction_from_angles(*(params + delta * np.array(j)))
            for j in shifts]
    recs = integrate_rays(model, rec.origin, dirs, [float(rhos.max())],
                          ode_tol=rec.ode_tol, with_jacobi=False, with_k=True)
    near = dict(zip(shifts, recs))

    out_tu = []
    out_nb = []
    for i, r in enumerate(rhos):
        st0 = rec.state_at(float(r))
        fr = _frames_from_state(model, rec, float(r), st0)[0]
        p_t = param_tangents(rec, st0)           # (3 params, 4)
        gram = np.einsum('ai,ij,bj->ab', p_t, fr.g, p_t)
        # leaf gradient coefficients of Nbar: Nbar = sum beta_a p_a
        rhsv = np.einsum('ai,ij,j->a', p_t, fr.g, fr.Nbar)
        beta = np.linalg.solve(gram, rhsv)

        def u_and_binv(j):
            rr = near[j]
            sc = _leaf_scalars_from_state(model, rr, float(r),
                                          rr.state_at(float(r)))
            return sc.u, 1.0 / sc.b

        du_p, dbinv_p = _fan_partials(u_and_binv, (0, 0, 0), [delta] * 3)
        Nbar_u = beta @ du_p
        Nbar_binv = beta @ dbinv_p
        bt, rt = C["bt"][i], C["rtilde"][i]
        Tu = (bt / r) * C["d_u"][i] - (rt / r) * Nbar_u
        kcheck = C["khat"][i]
        E = rec.state_at(float(r))["triad"]
        leafN = np.einsum('a,ab,ib->i', fr.Nbar, fr.g, E)
        kh_nn = leafN @ kcheck @ leafN
        ck_nn = kh_nn + C["q0"][i] / 3.0          # khat_NN + q0/3 = k_NN - 1/rho
        rhs_tu = 1.0 + C["u"][i] * ((rt / r) * ck_nn + C["N_log_n"][i])
        out_tu.append(Tu - rhs_tu)

        N_binv = (bt / r) * Nbar_binv - (rt / r) * C["d_binv"][i]
        rhs_nb = (rt / C["t"][i]) * (bt / r) * ck_nn
        out_nb.append(N_binv - rhs_nb)
    return {"t_of_u": float(np.max(np.abs(out_tu))),
            "t_of_u_scale": 1.0,
            "n_of_binv": float(np.max(np.abs(out_nb))),
            "n_of_binv_scale": float(np.max(np.abs(C["d_binv"])) + 1e-2)}


# ---------------------------------------------------------------------------
# Codazzi residual at fan probes

def codazzi_residual(model, fan, index, rho):
    """|div k - grad(trk) + Ric(B, .)| on H_rho at a fan probe, by
    finite-differencing the transported k field across the fan (FD-limited)."""
    iz, it, ip = index
    nz, nt, npp = fan.shape
    if min(nz, nt, npp) < 5:
        raise FanTooCoarse("codazzi residual needs >= 5 nodes per fan axis")
    hr = 1e-3 * max(rho, 1.0)
    rho = min(rho, fan.records[0].rho_reached - hr)

    def K_and_x(jz, jt, jp, r):
        rec = fan.record(jz, jt, jp)
        st = rec.state_at(r)
        g = metric_at(model, st["x"], level=0).g
        E_low = st["triad"] @ g
        kmat = _k_triad(st["q0"], st["khat"], r)
        Kf = np.einsum('ij,ia,jb->ab', kmat, E_low, E_low)
        return Kf, st["x"], (1.0 / r * 3.0 + st["q0"])

    K0, x0, trk0 = K_and_x(iz, it, ip, rho)
    rec0 = fan.record(iz, it, ip)
    st0 = rec0.state_at(rho)
    jet = curvature_at(model, x0)
    B = st0["b"]

    # parameter derivatives of K, x, trk: rho then (zeta, theta, phi)
    Kp, xp, tp = K_and_x(iz, it, ip, rho + hr)
    Km, xm, tm = K_and_x(iz, it, ip, rho - hr)
    fan_d = _fan_partials(lambda j: K_and_x(*j, rho), index, _fan_steps(fan))
    dK, dxp, dtrk = (np.concatenate([[(p - m) / (2 * hr)], d])
                     for p, m, d in zip((Kp, xp, tp), (Km, xm, tm), fan_d))

    Jac = dxp.T                                  # dx^mu/dparam_a -> (mu, a)
    Jinv = np.linalg.inv(Jac)                    # (a, mu)
    dK_coord = np.einsum('am,aij->mij', Jinv, dK)
    dtrk_coord = Jinv.T @ dtrk
    # cov_m K_ij = d_m K_ij - G^l_mi K_lj - G^l_mj K_il
    covK = dK_coord - np.einsum('lmi,lj->mij', jet.gamma, K0) \
        - np.einsum('lmj,il->mij', jet.gamma, K0)
    ginvb = jet.g_inv + np.einsum('a,b->ab', B, B)
    divk = np.einsum('mi,mij->j', ginvb, covK)
    ric_b = np.einsum('ab,a->b', jet.ricci, B)
    resid = divk - dtrk_coord + ric_b
    # project tangentially to H_rho (components along the triad)
    E = st0["triad"]
    res_t = np.einsum('ia,a->i', E, resid)
    scale = np.abs(np.einsum('ia,a->i', E, dtrk_coord)).max() + np.abs(ric_b).max() + 1e-14
    return float(np.max(np.abs(res_t))), float(scale)
