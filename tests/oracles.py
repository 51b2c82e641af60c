"""Independent numerical oracles used only by the test suite."""

import numpy as np

_S21 = np.sqrt(21.0)

# Cooper-Verner 11-stage explicit Runge-Kutta method of order 8.
RK8_C = np.array([0, 1/2, 1/2, (7 + _S21) / 14, (7 + _S21) / 14, 1/2,
                  (7 - _S21) / 14, (7 - _S21) / 14, 1/2, (7 + _S21) / 14, 1])
RK8_A = np.zeros((11, 11))
RK8_A[1, 0] = 1/2
RK8_A[2, :2] = [1/4, 1/4]
RK8_A[3, :3] = [1/7, -(7 + 3*_S21)/98, (21 + 5*_S21)/49]
RK8_A[4, 0] = (11 + _S21)/84
RK8_A[4, 2] = (18 + 4*_S21)/63
RK8_A[4, 3] = (21 - _S21)/252
RK8_A[5, 0] = (5 + _S21)/48
RK8_A[5, 2] = (9 + _S21)/36
RK8_A[5, 3] = (-231 + 14*_S21)/360
RK8_A[5, 4] = (63 - 7*_S21)/80
RK8_A[6, 0] = (10 - _S21)/42
RK8_A[6, 2] = (-432 + 92*_S21)/315
RK8_A[6, 3] = (633 - 145*_S21)/90
RK8_A[6, 4] = (-504 + 115*_S21)/70
RK8_A[6, 5] = (63 - 13*_S21)/35
RK8_A[7, 0] = 1/14
RK8_A[7, 4] = (14 - 3*_S21)/126
RK8_A[7, 5] = (13 - 3*_S21)/63
RK8_A[7, 6] = 1/9
RK8_A[8, 0] = 1/32
RK8_A[8, 4] = (91 - 21*_S21)/576
RK8_A[8, 5] = 11/72
RK8_A[8, 6] = -(385 + 75*_S21)/1152
RK8_A[8, 7] = (63 + 13*_S21)/128
RK8_A[9, 0] = 1/14
RK8_A[9, 4] = 1/9
RK8_A[9, 5] = -(733 + 147*_S21)/2205
RK8_A[9, 6] = (515 + 111*_S21)/504
RK8_A[9, 7] = -(51 + 11*_S21)/56
RK8_A[9, 8] = (132 + 28*_S21)/245
RK8_A[10, 4] = (-42 + 7*_S21)/18
RK8_A[10, 5] = (-18 + 28*_S21)/45
RK8_A[10, 6] = -(273 + 53*_S21)/72
RK8_A[10, 7] = (301 + 53*_S21)/72
RK8_A[10, 8] = (28 - 28*_S21)/45
RK8_A[10, 9] = (49 - 7*_S21)/18
RK8_B = np.array([1/20, 0, 0, 0, 0, 0, 0, 49/180, 16/45, 49/180, 1/20])


def rk8_fixed(f, t0, y0, t1, n_steps):
    """Fixed-step 8th-order integration of y' = f(t, y) from t0 to t1."""
    h = (t1 - t0) / n_steps
    y = np.array(y0, dtype=float)
    t = t0
    k = np.zeros((11,) + y.shape)
    for _ in range(n_steps):
        for i in range(11):
            k[i] = f(t + RK8_C[i] * h, y + h * np.tensordot(RK8_A[i, :i],
                                                            k[:i], axes=1))
        y = y + h * np.tensordot(RK8_B, k, axes=1)
        t += h
    return y


def geodesic_rhs(model):
    """Plain (x, B) geodesic right-hand side for the oracle integrations."""
    from hyperlab.metric import metric_at

    def f(rho, y):
        x, b = y[:4], y[4:8]
        jet = metric_at(model, x, level=1)
        db = -np.einsum('lmn,m,n->l', jet.gamma, b, b)
        return np.concatenate([b, db])

    return f


def _bc_second(model, r):
    """Bc'' of g_ij = A delta_ij + Bc x_i x_j, which the package does not
    form.  On the Schwarzschild chart Bc'' = (g Bc)' with
    g = Bc'/Bc = 1/R - 4/r - 1/(r - 2M), R = r + 2M; the glued model blends
    it as d2s f + 2 ds f' + s f'' with f = Bc of the chart."""
    from hyperlab.metric import HORIZON_MARGIN, _schw_profiles, _smoothstep

    M = model.mass
    if model.kind == "minkowski" or M == 0.0:
        return np.zeros(np.shape(r))
    if model.kind == "schwarzschild":
        safe = np.maximum(r, 2.0 * M * (1.0 + HORIZON_MARGIN))
    else:
        safe = np.maximum(r, model.r_in)
    Bc, dBc = _schw_profiles(M, safe, False)[4:6]
    ir = 1.0 / safe
    iR, irm = 1.0 / (safe + 2.0 * M), 1.0 / (safe - 2.0 * M)
    d2Bc = (dBc * (iR - 4.0 * ir - irm)
            + Bc * (4.0 * ir * ir - iR * iR + irm * irm))
    if model.kind == "schwarzschild":
        return d2Bc
    width = model.r_out - model.r_in
    s, ds, d2s = _smoothstep(np.clip((r - model.r_in) / width, 0.0, 1.0),
                             True)
    return d2s / width**2 * Bc + 2.0 * (ds / width) * dBc + s * d2Bc


def cartesian_level2(model, x):
    """Second derivatives of g and Riemann from them at points x (n, 4):
    (d2g, riemann) with d2g[k, m, a, b] = d_k d_m g_ab and
    R_abcd = Z_abcd - Z_abdc, Z_abcd = Gamma^e_bc Gamma_ead
    - (1/2)(d_a d_c g_bd - d_b d_c g_ad).

    The Cartesian reference for metric_at's level 2: it uses the radial
    profiles and the level-1 jet, not the K1-K4 formulas.
    """
    from hyperlab.metric import _profiles, metric_at

    x = np.asarray(x, dtype=float)
    jet = metric_at(model, x, level=1)
    shape = x.shape[:-1]
    xs = x[..., 1:]
    r = np.sqrt(np.sum(xs * xs, axis=-1))
    _, dn2, _, dA, Bc, dBc, d2n2, d2A = _profiles(model, r, True)
    rs = np.maximum(r, 1e-300)
    u = xs / rs[..., None]
    eye3 = np.eye(3)
    # The Hessians of the radial profiles n2, A, Bc are
    # f'' u_k u_m + f' (delta_km - u_k u_m) / r.
    fr = np.stack([dn2, dA, dBc]) / rs
    uu = u[..., :, None] * u[..., None, :]
    Hn2, HA, HBc = ((np.stack([d2n2, d2A, _bc_second(model, r)]) - fr)
                    [..., None, None] * uu + fr[..., None, None] * eye3)
    d2g = np.zeros(shape + (4, 4, 4, 4))
    d2g[..., 1:, 1:, 0, 0] = -Hn2
    # spatial block (k, l, i, j): Hess(A)_kl delta_ij + Hess(Bc)_kl x_i x_j,
    # plus delta_il W_kj symmetrised over (i, j) and over (k, l), where
    # W_kj = dBc u_k x_j + (Bc/2) delta_kj carries the terms linear in x
    W = dBc[..., None, None] * u[..., :, None] * xs[..., None, :] \
        + (0.5 * Bc)[..., None, None] * eye3
    C = W[..., :, None, None, :] * eye3[:, :, None]
    C = C + np.swapaxes(C, -1, -2)
    d2g[..., 1:, 1:, 1:, 1:] = (
        C + np.swapaxes(C, -4, -3)
        + HA[..., :, :, None, None] * eye3
        + HBc[..., :, :, None, None]
        * (xs[..., :, None] * xs[..., None, :])[..., None, None, :, :])

    # Gamma_ead = sym[a, e, d] / 2
    dg = jet.dg
    sym = dg + np.swapaxes(dg, -3, -1) - np.swapaxes(dg, -3, -2)
    gg = np.matmul(np.swapaxes(jet.gamma.reshape(-1, 4, 16), -1, -2),
                   0.5 * np.swapaxes(sym, -3, -2).reshape(-1, 4, 16))
    X = np.swapaxes(d2g, -3, -2)
    Z = (np.moveaxis(gg.reshape(shape + (4, 4, 4, 4)), -2, -4)
         - 0.5 * (X - np.swapaxes(X, -4, -3)))
    return d2g, Z - np.swapaxes(Z, -1, -2)


def jet_ray_rhs(model, with_k):
    """Geodesic right-hand side built on the Cartesian jet: Gamma(B, .)
    from metric_at's level-1 gamma and T_bd = R_abcd B^a B^c from
    cartesian_level2, so independent of the K1-K4 formulas, with the same
    transport arithmetic as geodesic._make_rhs: with k, the triad E and the
    triad components j and p of the Jacobi fields (j' = p, p' = -j E T E^T)."""
    from hyperlab.metric import metric_at

    def rhs(y):
        b = y[:, 4:8]
        jet = metric_at(model, y[:, 0:4], level=1)
        gb = np.einsum('nlmk,nm->nlk', jet.gamma, b)
        T = np.einsum('nbcd,nc->nbd', np.einsum(
            'nabcd,na->nbcd', cartesian_level2(model, y[:, 0:4])[1], b), b)
        dy = np.empty_like(y)
        dy[:, 0:4] = b
        dy[:, 4:8] = -np.einsum('nlk,nk->nl', gb, b)
        if with_k:
            E = y[:, 8:20].reshape(-1, 3, 4)
            jt = y[:, 20:29].reshape(-1, 3, 3)
            Tt = np.einsum('nai,nij,nbj->nab', E, T, E)
            dy[:, 8:20] = -np.einsum('nlk,njk->njl', gb, E).reshape(-1, 12)
            dy[:, 20:29] = y[:, 29:38]
            dy[:, 29:38] = -np.einsum('nac,ncb->nab', jt, Tt).reshape(-1, 9)
        return dy

    return rhs


def lane_seed(model, origin, direction, rho_max, with_k):
    """One lane's seed by the per-lane rule, one direction at a time: v0,
    the seed rho, the straight line (2, dim) (state and rho-derivative at
    rho = 0) and, with k, the boost block W | C, with the triad from
    orthonormalize.  A lane with k whose seed is below
    RHO_SEED_MIN raises SeedRegionTooSmall."""
    from hyperlab.errors import SeedRegionTooSmall
    from hyperlab.geodesic import _DIM, RHO_SEED_MIN, _unpack
    from hyperlab.metric import metric_at

    g0 = metric_at(model, origin, level=0).g
    e0 = np.zeros(4)
    e0[0] = 1.0 / np.sqrt(-g0[0, 0])
    frame0 = np.vstack([e0, orthonormalize(g0, [e0], np.eye(4)[1:], 3)])
    vh = direction.hyperboloid_point()
    v0 = vh @ frame0
    core, cap = model.flat_core_radius, min(1.0, 0.25 * rho_max)
    xs, vs = np.asarray(origin, dtype=float)[1:], v0[1:]
    b2 = (0.98 * core) ** 2
    if not np.isfinite(core):
        seed = cap
    elif core <= 0.0 or xs @ xs >= b2:
        seed = 0.0
    elif vs @ vs < 1e-28:               # central line: never exits the core
        seed = cap
    else:               # |xs + rho vs| = 0.98 * core, the exit ahead
        disc = (xs @ vs) ** 2 + (vs @ vs) * (b2 - xs @ xs)
        seed = min((-(xs @ vs) + np.sqrt(disc)) / (vs @ vs), cap)
    if with_k and seed < RHO_SEED_MIN:
        raise SeedRegionTooSmall(
            f"flat-core seed rho={seed:.3g} below {RHO_SEED_MIN:g}: a "
            f"lane with k must start inside the flat core")
    line = np.zeros((2, _DIM[with_k]))
    st = _unpack(line, with_k)
    st["x"][:] = origin, v0
    st["b"][0] = v0
    boost = None
    if with_k:
        E = st["triad"][0] = orthonormalize(g0, [v0], frame0[1:], 3)
        st["pt"][0] = st["jt"][1] = np.eye(3)
        W = vh[1:, None] * frame0[0] + vh[0] * frame0[1:]
        boost = np.concatenate([W, W @ g0 @ E.T], axis=1)
    return v0, seed, line, boost


def orthonormalize(g, fixed, cands, keep):
    """metric._orthonormalize by the per-point rule, one point at a time:
    the first `keep` candidates, in the order given, made g-orthonormal to
    each other and g-orthogonal to the unit vectors `fixed`; a candidate
    whose remainder has norm <= 1e-10 is skipped, and fewer than `keep`
    survivors raise CentralLineDegenerate."""
    from hyperlab.errors import CentralLineDegenerate

    out = []
    for c in cands:
        coef = [np.sign(f @ g @ f) * (c @ g @ f) for f in fixed]
        for a, f in zip(coef, fixed):
            c = c - a * f
        for e in out:
            c = c - (c @ g @ e) * e
        nc = np.sqrt(max(c @ g @ c, 0.0))
        if nc > 1e-10:
            out.append(c / nc)
            if len(out) == keep:
                return np.stack(out)
    raise CentralLineDegenerate(
        f"only {len(out)} of {keep} candidates survive orthonormalization")


def sphere_pair(g, fixed):
    """One point's sphere pair by the per-point rule: the spatial
    coordinate axes sorted by |<e_i, fixed[-1]>|, least aligned first, and
    orthonormalize of them against the unit vectors fixed, keeping two."""
    cands = np.eye(4)[1:]
    cands = cands[np.argsort([abs(c @ g @ fixed[-1]) for c in cands])]
    return orthonormalize(g, fixed, cands, 2)


def riemann_fd(model, x, h=1e-3):
    """Fully lowered R_abcd at one point from central differences of Gamma.

    d_k Gamma^l_mn is taken by the 5-point stencil on level-1 jets, then
    R^r_smn = d_m G^r_ns - d_n G^r_ms + G^r_ml G^l_ns - G^r_nl G^l_ms is
    lowered with g.  Independent of the K1-K4 formulas that metric_at uses
    at level 2 and of the second derivatives in cartesian_level2.
    """
    from hyperlab.metric import metric_at

    x = np.asarray(x, dtype=float)
    jet = metric_at(model, x, level=1)
    dgam = np.zeros((4, 4, 4, 4))                   # dgam[k, l, m, n]
    for k in range(4):
        for s, c in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
            dx = np.zeros(4)
            dx[k] = s * h
            dgam[k] += c * metric_at(model, x + dx, level=1).gamma
    dgam /= 12.0 * h
    gam = jet.gamma
    gg = np.einsum('rml,lns->rsmn', gam, gam)
    riem_ud = (np.einsum('mrns->rsmn', dgam) - np.einsum('nrms->rsmn', dgam)
               + gg - np.swapaxes(gg, -2, -1))
    return np.einsum('ra,asmn->rsmn', jet.g, riem_ud)


def gauss_curvature_axisym(thetas, E, G):
    """Gauss curvature of an axisymmetric 2-metric E(th) dth^2 + G(th) dph^2
    by 4th-order finite differences on a uniform theta grid (interior)."""
    h = thetas[1] - thetas[0]

    def d(f):
        out = np.full_like(f, np.nan)
        out[2:-2] = (-f[4:] + 8*f[3:-1] - 8*f[1:-3] + f[:-4]) / (12*h)
        return out

    sG = np.sqrt(G)
    dsG = d(sG)
    inner = dsG / np.sqrt(E)
    K = -d(inner) / (np.sqrt(E) * sG)
    return K


def kg_radial_exact(r, t, phi0, support):
    """Exact psi = r phi of the spherically symmetric flat Klein-Gordon field
    phi_tt = Delta phi - phi with phi(0) = phi0(r) and phi_t(0) = 0.

    psi solves psi_tt = psi_rr - psi on the line once r phi0 is continued to
    the odd function F(s) = s phi0(|s|).  Riemann's method for this
    one-dimensional Klein-Gordon equation, whose Riemann function is
    J0(sqrt(t^2 - (r - s)^2)), gives (Courant & Hilbert, Methods of
    Mathematical Physics, vol. II, ch. V)

        psi(t, r) = (F(r + t) + F(r - t)) / 2
                    - (t / 2) int_{r-t}^{r+t} J1(z) / z F(s) ds,
        z = sqrt(t^2 - (r - s)^2).

    J1(z)/z is an entire function of z^2, so the integrand is smooth except
    where F is: F is only C^1 at s = 0 (the axis kink of the odd
    continuation) and is cut off at |s| = support, where phi0 must vanish.
    So the integral over the part of [r - t, r + t] inside [-support,
    support] is split at s = 0, and each panel takes one fixed 40-node
    Gauss-Legendre rule, for all r at once.  On the default grid at t = 80
    28 nodes already agree with 256 to 6e-14.  phi0 must take arrays.
    """
    from scipy.special import j1

    def F(s):
        return np.where(np.abs(s) < support, s * phi0(np.abs(s)), 0.0)

    rr = np.atleast_1d(np.asarray(r, dtype=float))
    psi = 0.5 * (F(rr + t) + F(rr - t))
    if t <= 0:
        return psi
    lo, hi = np.maximum(rr - t, -support), np.minimum(rr + t, support)
    xg, wg = np.polynomial.legendre.leggauss(40)
    for a, b in ((lo, np.minimum(hi, 0.0)), (np.maximum(lo, 0.0), hi)):
        b = np.maximum(b, a)            # an empty panel has zero length
        s = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * xg
        z = np.sqrt(np.maximum(t * t - (rr[:, None] - s) ** 2, 0.0))
        small = z < 1e-8
        kernel = np.where(small, 0.5, j1(z) / np.where(small, 1.0, z))
        psi = psi - 0.25 * t * (b - a) * ((kernel * F(s)) @ wg)
    return psi


def kg_rk4_in_stage_ko(cfg, times):
    """psi = r phi of the flat Klein-Gordon evolution by a plain full-grid
    classical RK4 whose right-hand side carries the Kreiss-Oliger term.

    The method of lines for psi_tt = psi_rr - m psi reads

        psi_t = pi + K psi,    pi_t = D2 psi - m psi + K pi,

    with D2 the 4th-order second difference and K = sigma / (64 dr) D^6 the
    6th-order Kreiss-Oliger dissipation.  Both rows are odd across the
    axis (ghost cell -1 - i holds minus cell i) and vanish past the grid.
    Steps are k1..k4 with dt = cfl * dr from psi = r phi0, pi = 0 over the
    whole grid; returns psi at each of times, snapped to the step grid.
    """
    n = int(round(cfg.r_max / cfg.dr))
    r = (np.arange(n) + 0.5) * cfg.dr
    phi0 = cfg.amplitude * np.exp(-((r - cfg.center) / cfg.width) ** 2)
    phi0[np.abs(phi0) < 1e-16 * abs(cfg.amplitude)] = 0.0
    dt = cfg.cfl * cfg.dr
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * cfg.dr ** 2)
    d6 = (cfg.ko_sigma / (64.0 * cfg.dr)
          * np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]))

    def stencil(f, coef):
        h = len(coef) // 2
        return np.correlate(np.concatenate([-f[h - 1::-1], f, np.zeros(h)]),
                            coef, 'valid')

    def rhs(y):
        psi, pi = y
        return np.stack([pi + stencil(psi, d6),
                         stencil(psi, d2) - cfg.kg_mass * psi
                         + stencil(pi, d6)])

    y = np.stack([r * phi0, np.zeros(n)])
    out, step = [], 0
    for target in sorted(int(round(t / dt)) for t in times):
        while step < target:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            step += 1
        out.append(y[0].copy())
    return out


def kg_rk4_long_double(cfg, times):
    """psi = r phi of the flat Klein-Gordon scheme of kgflat, stepped in long
    double: RK4 of psi_t = pi, pi_t = D2 psi - m psi with dt = cfl * dr,
    followed in every step by the Kreiss-Oliger filter y <- y + dt K y on
    both rows.  D2 is the 4th-order second difference and K = sigma /
    (64 dr) D^6; both take odd ghosts across the axis and zeros past the
    grid.  The data are the solver's, kgflat.initial_data.  Returns psi at
    each of times, snapped to the step grid.
    """
    from hyperlab.kgflat import initial_data
    ld = np.longdouble
    r, phi0 = initial_data(cfg)
    n = r.size
    dt = ld(cfg.cfl) * ld(cfg.dr)
    c2 = 1 / (12 * ld(cfg.dr) ** 2)
    c6 = dt * ld(cfg.ko_sigma) / (64 * ld(cfg.dr))
    m = ld(cfg.kg_mass)
    g = np.zeros(n + 6, dtype=ld)        # 3 ghost cells on each side

    def ghosted(f):
        g[3:n + 3] = f
        g[:3] = -f[2::-1]
        return g

    def d2(f):
        g = ghosted(f)
        return c2 * (16 * (g[2:-4] + g[4:-2]) - (g[1:-5] + g[5:-1])
                     - 30 * g[3:-3])

    def filtered(f):
        g = ghosted(f)
        return f + c6 * ((g[:-6] + g[6:]) - 6 * (g[1:-5] + g[5:-1])
                         + 15 * (g[2:-4] + g[4:-2]) - 20 * g[3:-3])

    p, q = (r * phi0).astype(ld), np.zeros(n, dtype=ld)
    out, step = [], 0
    for target in sorted(int(round(t / float(dt))) for t in times):
        while step < target:
            # the RK4 step of this linear system is the degree-4 Taylor
            # polynomial of dt L, here in Horner form: z <- y + (dt/j) L z
            zp, zq = p, q
            for j in (4, 3, 2, 1):
                zp, zq = (p + dt / j * zq,
                          q + dt / j * (d2(zp) - m * zp))
            p, q = zp, zq
            if cfg.ko_sigma:
                p, q = filtered(p), filtered(q)
            step += 1
        out.append(p.astype(float))
    return out
