"""Closed-form metric catalog and pointwise curvature engine.

Three spacetimes are supported, all static and shift-free, written in
Cartesian coordinates x = (t, x1, x2, x3) with G = c = 1:

* Minkowski: diag(-1, 1, 1, 1).
* "Schwarzschild" in the chart where the line element reads
      -n^2 dt^2 + n^{-2} dr^2 + (r + 2M)^2 dOmega^2,
  n^2 = (r - 2M)/(r + 2M).  The area radius is r + 2M and the ADM mass of
  the model is 2M.
* A glued model: exactly Minkowski for r <= r_in, exactly the Schwarzschild
  chart above for r >= r_out, with each radial profile function blended by
  the quintic smoothstep 6w^5 - 15w^4 + 10w^3 in between.  The blend is C^2,
  so curvature is continuous but the annulus r_in < r < r_out is NOT a
  vacuum solution; exterior-zone identities are only asserted for
  r >= r_out.

All spatial metric components reduce to two radial profiles,
    g_tt = -n2(r),   g_ij = A(r) delta_ij + Bc(r) x_i x_j,
whose first and second r-derivatives are coded analytically (also through
the blend), so jets up to level 2 are exact up to rounding everywhere.

Index conventions (used throughout the package):
    Gamma[l, m, n]   = Gamma^l_{mn}
    riemann[a,b,c,d] = R_{abcd} = (1/2)(g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
                       + g_ef (Gamma^e_bc Gamma^f_ad - Gamma^e_bd Gamma^f_ac),
                       so that R^r_{smn} = d_m G^r_{ns} - d_n G^r_{ms} + ...
    ricci[s, n]      = R^r_{srn},  schouten = ricci - (scalar/6) g
    weyl per W_abcd  = R_abcd - (1/2)(g_ac S_bd + g_bd S_ac - g_bc S_ad - g_ad S_bc)

Evaluation is batched: x may have any leading shape (..., 4).  Level 2
builds d2g and Riemann only; ricci, scalar, schouten and weyl are built
from them on first access and cached on the jet.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (CentralLineDegenerate, CoordinateSingularity,
                     UnsupportedLevel)

HORIZON_MARGIN = 1e-6   # relative guard above r = 2M
_R_FLOOR = 1e-300       # avoids 0/0 in direction vectors at the origin


@dataclass(frozen=True)
class MetricModel:
    """Closed-form spacetime description.

    kind is one of "minkowski", "schwarzschild", "glued".  mass is the
    parameter M of the chart above (the ADM mass is 2M).  kg_mass is the
    Klein-Gordon mass, fixed to 1 in all experiments.
    """

    kind: str
    mass: float = 0.0
    r_in: float = 1.0
    r_out: float = 2.0
    kg_mass: float = 1.0

    def __post_init__(self):
        if self.kind not in ("minkowski", "schwarzschild", "glued"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.mass < 0.0:
            raise ValueError("mass must be nonnegative")
        if self.kind in ("schwarzschild", "glued"):
            if not self.mass > 0.0:
                raise ValueError("schwarzschild kinds need mass > 0")
            if not (2.0 * self.mass < self.r_in < self.r_out):
                raise ValueError("need 0 < 2M < r_in < r_out")

    @property
    def flat_core_radius(self):
        """Radius below which the metric is exactly Minkowski (inf/0 allowed)."""
        if self.kind == "minkowski":
            return np.inf
        if self.kind == "glued":
            return self.r_in
        return 0.0

    @staticmethod
    def minkowski():
        return MetricModel("minkowski")

    @staticmethod
    def schwarzschild(mass):
        return MetricModel("schwarzschild", mass=mass)

    @staticmethod
    def glued(mass, r_in=1.0, r_out=2.0):
        return MetricModel("glued", mass=mass, r_in=r_in, r_out=r_out)


@dataclass
class MetricJet:
    """Metric and curvature data at one or many points (leading shape S)."""

    x: np.ndarray                    # (S, 4)
    level: int
    g: np.ndarray                    # (S, 4, 4)
    g_inv: np.ndarray                # (S, 4, 4)
    dg: np.ndarray = None            # (S, 4, 4, 4)  dg[m,a,b] = d_m g_ab
    gamma: np.ndarray = None         # (S, 4, 4, 4)  gamma[l,m,n] = Gamma^l_mn
    d2g: np.ndarray = None           # (S, 4, 4, 4, 4) d2g[k,m,a,b] = d_k d_m g_ab
    riemann: np.ndarray = None       # (S, 4, 4, 4, 4) fully lowered
    sqrt_det: np.ndarray = None      # (S,) sqrt(-det g)
    lapse: np.ndarray = None         # (S,) static lapse n = sqrt(-g_tt)
    model: MetricModel = field(default=None, repr=False)

    @cached_property
    def ricci(self):                 # (S, 4, 4); None below level 2
        return None if self.riemann is None else np.einsum(
            '...ra,...asrn->...sn', self.g_inv, self.riemann)

    @cached_property
    def scalar(self):                # (S,)
        return None if self.riemann is None else np.einsum(
            '...sn,...sn->...', self.g_inv, self.ricci)

    @cached_property
    def schouten(self):              # (S, 4, 4)
        return None if self.riemann is None else (
            self.ricci - (self.scalar[..., None, None] / 6.0) * self.g)

    @cached_property
    def weyl(self):                  # (S, 4, 4, 4, 4)
        if self.riemann is None:
            return None
        # g_ac S_bd + g_bd S_ac, less the same with c and d exchanged
        gS = np.einsum('...ac,...bd->...abcd', self.g, self.schouten)
        gS = gS + np.einsum('...abcd->...badc', gS)
        return self.riemann - 0.5 * (gS - np.swapaxes(gS, -1, -2))


def _smoothstep(w):
    """Quintic smoothstep and its first two derivatives on the raw argument."""
    s = ((6.0 * w - 15.0) * w + 10.0) * w**3
    ds = ((30.0 * w - 60.0) * w + 30.0) * w**2
    d2s = ((120.0 * w - 180.0) * w + 60.0) * w
    return s, ds, d2s


def _schw_profiles(M, r):
    """n2, A, Bc of the Schwarzschild chart with two r-derivatives each."""
    rp = r + 2.0 * M
    rm = r - 2.0 * M
    n2 = rm / rp
    dn2 = 4.0 * M / rp**2
    d2n2 = -8.0 * M / rp**3
    C = rp / rm                       # polar radial-radial component
    dC = -4.0 * M / rm**2
    d2C = 8.0 * M / rm**3
    A = (rp / r) ** 2
    dA = -4.0 * M * rp / r**3
    d2A = 4.0 * M * (2.0 * r + 6.0 * M) / r**4
    Bc = (C - A) / r**2
    dBc = (dC - dA) / r**2 - 2.0 * (C - A) / r**3
    d2Bc = (d2C - d2A) / r**2 - 4.0 * (dC - dA) / r**3 + 6.0 * (C - A) / r**4
    return np.stack([n2, dn2, d2n2, A, dA, d2A, Bc, dBc, d2Bc])


def _optical_mass_terms(M, r):
    """Mass terms of the Schwarzschild optical function uhat = t - gamma_r.

    gamma_r = r + 4M ln(r - 2M) and dgamma_r/dr = 1 + 4M/(r - 2M) are r and 1
    plus the two returned terms, which vanish for M = 0.  Callers add r and 1
    themselves, so the level function t - r - 4M ln(r - 2M) keeps its own
    operation order: the leaf solver's secant iteration count follows the
    last bits of uhat.
    """
    if M == 0.0:
        return 0.0 * r, 0.0 * r
    return 4.0 * M * np.log(r - 2.0 * M), 4.0 * M / (r - 2.0 * M)


def _orthonormalize(g, fixed, cands, keep):
    """Gram-Schmidt with the metric matrix g: the first `keep` candidates,
    taken in the order given, made g-orthonormal to each other and
    g-orthogonal to the unit vectors `fixed` (timelike or spacelike).

    A candidate whose remainder has norm <= 1e-10 is skipped; fewer than
    `keep` survivors raise CentralLineDegenerate.  Returns (keep, 4).
    """
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


def _profiles(model, r):
    """Radial profiles (n2, A, Bc + derivatives) for any model, batched over r.

    Returns an array of shape (9,) + r.shape ordered as in _schw_profiles.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros((9,) + r.shape)
    out[0] = 1.0  # n2
    out[3] = 1.0  # A
    if model.kind == "minkowski" or model.mass == 0.0:
        return out
    if model.kind == "schwarzschild":
        safe = np.maximum(r, 2.0 * model.mass * (1.0 + HORIZON_MARGIN))
        return _schw_profiles(model.mass, safe)
    # glued: piecewise exact + smoothstep blend of the three profiles
    width = model.r_out - model.r_in
    w = np.clip((r - model.r_in) / width, 0.0, 1.0)
    s, ds, d2s = _smoothstep(w)
    ds /= width
    d2s /= width**2
    inner = r <= model.r_in
    s = np.where(inner, 0.0, s)
    ds = np.where(inner, 0.0, ds)
    d2s = np.where(inner, 0.0, d2s)
    safe = np.maximum(r, 0.5 * model.r_in)  # profiles only used where s > 0
    p = _schw_profiles(model.mass, safe)
    for j, flat in ((0, 1.0), (3, 1.0), (6, 0.0)):
        f, df, d2f = p[j] - flat, p[j + 1], p[j + 2]
        out[j] = flat + s * f
        out[j + 1] = ds * f + s * df
        out[j + 2] = d2s * f + 2.0 * ds * df + s * d2f
    return out


def _check_regular(model, r):
    if model.kind == "schwarzschild":
        bad = r <= 2.0 * model.mass * (1.0 + HORIZON_MARGIN)
        if np.any(bad):
            raise CoordinateSingularity(
                f"r={float(np.min(r)):.6g} too close to horizon 2M={2*model.mass:.6g}")
    if model.kind in ("schwarzschild", "glued"):
        # the blend keeps the metric regular down to r=0 for glued
        if model.kind == "schwarzschild" and np.any(r < 1e-12):
            raise CoordinateSingularity("r=0 is singular for the schwarzschild chart")


def metric_at(model, x, level=2):
    """Evaluate the metric jet at x (shape (..., 4)) to the requested level."""
    if level not in (0, 1, 2):
        raise UnsupportedLevel(f"level must be 0, 1 or 2, got {level}")
    x = np.asarray(x, dtype=float)
    scalar_input = x.ndim == 1
    x = np.atleast_2d(x)
    shape = x.shape[:-1]
    xs = x[..., 1:]
    r = np.sqrt(np.sum(xs * xs, axis=-1))
    _check_regular(model, r)
    p = _profiles(model, r)
    n2, dn2, d2n2, A, dA, d2A, Bc, dBc, d2Bc = (p[j] for j in range(9))
    rs = np.maximum(r, _R_FLOOR)
    u = xs / rs[..., None]                       # spatial unit radial vector
    eye3 = np.eye(3)

    g = np.zeros(shape + (4, 4))
    g[..., 0, 0] = -n2
    g[..., 1:, 1:] = (A[..., None, None] * eye3
                      + Bc[..., None, None] * xs[..., :, None] * xs[..., None, :])

    g_inv = np.zeros_like(g)
    g_inv[..., 0, 0] = -1.0 / n2
    Cr = A + Bc * r * r                          # radial-radial eigenvalue
    coef = Bc / (A * Cr)
    g_inv[..., 1:, 1:] = ((1.0 / A)[..., None, None] * eye3
                          - coef[..., None, None] * xs[..., :, None] * xs[..., None, :])

    jet = MetricJet(x=x, level=level, g=g, g_inv=g_inv, model=model)
    jet.sqrt_det = np.sqrt(n2 * A * A * Cr)
    jet.lapse = np.sqrt(n2)
    if level == 0:
        return _squeeze(jet, scalar_input)

    # first derivatives: dg[m, a, b] = d_m g_ab, time derivatives vanish
    dg = np.zeros(shape + (4, 4, 4))
    dg[..., 1:, 0, 0] = -dn2[..., None] * u
    dg_sp = (dA[..., None, None, None] * u[..., :, None, None] * eye3
             + dBc[..., None, None, None] * u[..., :, None, None]
             * xs[..., None, :, None] * xs[..., None, None, :]
             + Bc[..., None, None, None]
             * (eye3[:, :, None] * xs[..., None, None, :]
                + eye3[:, None, :] * xs[..., None, :, None]))
    dg[..., 1:, 1:, 1:] = dg_sp
    jet.dg = dg
    # dg index order is (m, a, b); build F[m,s,n] = d_m g_sn + d_n g_sm - d_s g_mn
    sym = dg + np.swapaxes(dg, -3, -1) - np.swapaxes(dg, -3, -2)
    gamma = 0.5 * np.einsum('...ls,...msn->...lmn', g_inv, sym)
    jet.gamma = gamma
    if level == 1:
        return _squeeze(jet, scalar_input)

    # second derivatives d2g[k, m, a, b] = d_k d_m g_ab.  The Hessians of the
    # radial profiles n2, A, Bc are f'' u_k u_m + f' (delta_km - u_k u_m) / r.
    fr = p[1::3] / rs
    uu = u[..., :, None] * u[..., None, :]
    Hn2, HA, HBc = ((p[2::3] - fr)[..., None, None] * uu
                    + fr[..., None, None] * eye3)
    d2g = jet.d2g = np.zeros(shape + (4, 4, 4, 4))
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

    # R_abcd = Z_abcd - Z_abdc with Z_abcd = Gamma^e_bc Gamma_ead
    # - (1/2)(d_a d_c g_bd - d_b d_c g_ad); Gamma_ead = sym[a, e, d] / 2
    gg = np.matmul(np.swapaxes(gamma.reshape(-1, 4, 16), -1, -2),
                   0.5 * np.swapaxes(sym, -3, -2).reshape(-1, 4, 16))
    X = np.swapaxes(d2g, -3, -2)
    Z = (np.moveaxis(gg.reshape(shape + (4, 4, 4, 4)), -2, -4)
         - 0.5 * (X - np.swapaxes(X, -4, -3)))
    jet.riemann = Z - np.swapaxes(Z, -1, -2)
    return _squeeze(jet, scalar_input)


def _squeeze(jet, scalar_input):
    if not scalar_input:
        return jet
    for name in ("x", "g", "g_inv", "dg", "gamma", "d2g", "riemann",
                 "sqrt_det", "lapse"):
        v = getattr(jet, name)
        if v is not None and isinstance(v, np.ndarray):
            setattr(jet, name, v[0])
    return jet


def curvature_at(model, x):
    """Level-2 jet; Ricci, scalar, Schouten and Weyl are built on access."""
    return metric_at(model, x, level=2)


def schouten_scalar_field(jet, dphi, phi, kg_mass=1.0):
    """Matter Schouten tensor of a scalar field snapshot at the jet's point(s).

    S_ab = d_a phi d_b phi - (1/6) g_ab (d^m phi d_m phi - m phi^2).
    """
    dphi = np.asarray(dphi, dtype=float)
    grad_sq = np.einsum('...a,...ab,...b->...', dphi, jet.g_inv, dphi)
    trace_part = grad_sq - kg_mass * np.asarray(phi) ** 2
    return (dphi[..., :, None] * dphi[..., None, :]
            - (trace_part[..., None, None] / 6.0) * jet.g)


def lapse_gradient(model, x):
    """Static lapse n and its coordinate gradient (dn/dx^mu), batched."""
    x = np.asarray(x, dtype=float)
    xs = x[..., 1:]
    r = np.sqrt(np.sum(xs * xs, axis=-1))
    p = _profiles(model, r)
    n = np.sqrt(p[0])
    dn_dr = p[1] / (2.0 * n)
    grad = np.zeros_like(x)
    grad[..., 1:] = dn_dr[..., None] * xs / np.maximum(r, _R_FLOOR)[..., None]
    return n, grad
