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


def riemann_fd(model, x, h=1e-3):
    """Fully lowered R_abcd at one point from central differences of Gamma.

    d_k Gamma^l_mn is taken by the 5-point stencil on level-1 jets, then
    R^r_smn = d_m G^r_ns - d_n G^r_ms + G^r_ml G^l_ns - G^r_nl G^l_ms is
    lowered with g.  Independent of the second-derivative formula that
    metric_at uses at level 2.
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

    J1(z)/z is an entire function of z^2, so the integrand is smooth.  phi0
    must vanish for |s| > support; the integral is taken by adaptive
    quadrature over the part of [r - t, r + t] inside [-support, support].
    """
    from scipy.integrate import quad
    from scipy.special import j1

    def F(s):
        return s * phi0(abs(s)) if abs(s) < support else 0.0

    def kernel(s, rr):
        z = np.sqrt(max(t * t - (rr - s) ** 2, 0.0))
        return (0.5 if z < 1e-8 else j1(z) / z) * F(s)

    out = []
    for rr in np.atleast_1d(np.asarray(r, dtype=float)):
        psi = 0.5 * (F(rr + t) + F(rr - t))
        lo, hi = max(rr - t, -support), min(rr + t, support)
        if t > 0 and lo < hi:
            psi -= 0.5 * t * quad(kernel, lo, hi, args=(rr,), limit=200,
                                  epsabs=1e-13, epsrel=1e-11)[0]
        out.append(psi)
    return np.array(out)
