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
whose first r-derivatives, and the second ones of n2 and A that the
curvature reads, are coded analytically (also through the blend), so jets
up to level 2 are exact up to rounding everywhere.

Index conventions (used throughout the package):
    Gamma[l, m, n]   = Gamma^l_{mn}
    riemann[a,b,c,d] = R_{abcd} = (1/2)(g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
                       + g_ef (Gamma^e_bc Gamma^f_ad - Gamma^e_bd Gamma^f_ac),
                       so that R^r_{smn} = d_m G^r_{ns} - d_n G^r_{ms} + ...
    ricci[s, n]      = R^r_{srn},  schouten = ricci - (scalar/6) g
    weyl per W_abcd  = R_abcd - (1/2)(g_ac S_bd + g_bd S_ac - g_bc S_ad - g_ad S_bc)

Evaluation is batched: x may have any leading shape (..., 4).  Every
radial coefficient is picked per point by one helper, _radial: on the
Schwarzschild chart (the Schwarzschild model, and the glued model for
r >= r_out) it is a closed form of a Schwarzschild metric of mass 2M and
area radius R = r + 2M, with the orthonormal curvature functions
(K1, K2, K3, K4) = (-2, 1, -1, 2) 2M/R^3.  Elsewhere (the flat core and the
blend annulus) metric_at takes the general form of _radial_terms on the
blended profiles, and stays the independent oracle of the geodesic
right-hand side.  That reads the per-lane scalars of _general_ray, and
takes them in the blend annulus from a table per glued model
(_annulus_table, built on the first right-hand side call of the model,
never at import): piecewise polynomials fitted to _general_ray's values,
read by _table_ray in one gather and one polynomial pass over all lanes
and scalars; in the flat core they are exact zeros and ones.  Level 2
adds Riemann as Kulkarni-Nomizu products of K1-K4; no second derivatives
of g are formed.  ricci, scalar, schouten and weyl are built from Riemann
on first access.  The geodesic terms form no Christoffel or Riemann array:
_ray_accel gives Gamma(B, B) from five scalars per lane, and _ray_terms
builds Gamma(B, .) and R(B, ., B, .) at once as V^T c V + d I_s on the
per-lane basis V = (e0, u, v).
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (CentralLineDegenerate, CoordinateSingularity,
                     UnsupportedLevel)

HORIZON_MARGIN = 1e-6   # relative guard above r = 2M
_R_FLOOR = 1e-300       # avoids 0/0 in direction vectors at the origin
_EYE3 = np.eye(3)
# the annulus table: panels, and the degree of each polynomial (_DEGREE + 1
# a power of 2, for Estrin's scheme); per scalar of _annulus_table (hF,
# n2'/(2C), hA, c_uv, c_uu, F, C, A, K1-K4), the order of its zero at r_in
# (the power of x divided out before the fit) and its flat value
_PANELS, _DEGREE = 64, 7
_TABLE_POW = np.array([2, 2, 2, 2, 2, 0, 0, 0, 1, 2, 1, 2])
_TABLE_FLAT = np.array([0.0] * 5 + [1.0] * 3 + [0.0] * 4)[:, None]
_X_TOP = np.nextafter(_PANELS, 0.0)     # x below it lies in a panel


@dataclass(frozen=True)
class MetricModel:
    """Closed-form spacetime description.

    kind is one of "minkowski", "schwarzschild", "glued".  mass is the
    parameter M of the chart above (the ADM mass is 2M).
    """

    kind: str
    mass: float = 0.0
    r_in: float = 1.0
    r_out: float = 2.0

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

    @property
    def shell_radii(self):
        """Radii where the radial profiles are only C^2 (the glued shells)."""
        return (self.r_in, self.r_out) if self.kind == "glued" else ()

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
    g: np.ndarray                    # (S, 4, 4)
    g_inv: np.ndarray                # (S, 4, 4)
    dg: np.ndarray = None            # (S, 4, 4, 4)  dg[m,a,b] = d_m g_ab
    gamma: np.ndarray = None         # (S, 4, 4, 4)  gamma[l,m,n] = Gamma^l_mn
    riemann: np.ndarray = None       # (S, 4, 4, 4, 4) fully lowered, K1-K4
    sqrt_det: np.ndarray = None      # (S,) sqrt(-det g)
    lapse: np.ndarray = None         # (S,) static lapse n = sqrt(-g_tt)

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


def _smoothstep(w, second):
    """Quintic smoothstep and its first derivative on the raw argument, and
    its second derivative when second is set."""
    s = ((6.0 * w - 15.0) * w + 10.0) * w**3
    ds = ((30.0 * w - 60.0) * w + 30.0) * w**2
    if not second:
        return s, ds
    return s, ds, ((120.0 * w - 180.0) * w + 60.0) * w


def _schw_profiles(M, r, second):
    """n2, n2', A, A', Bc, Bc' of the Schwarzschild chart, followed, when
    second is set, by n2'' and A''.  With R = r + 2M the area radius of a
    Schwarzschild metric of mass 2M,
        n2 = (r - 2M)/R,   A = R^2/r^2,   Bc = 4M^2 R/(r^4 (r - 2M)),
        n2' = 2 hF n2,   A' = 2 hA A,   Bc'/Bc = 1/R - 4/r - 1/(r - 2M),
        n2'' = -2 n2'/R,   A'' = A' (1/R - 3/r),
    hA = A'/(2A) = -2M/(rR), hF = n2'/(2 n2) = 2M/(R(r - 2M)).  Bc is
    formed without the cancellation of C - A at large r (C = 1/n2)."""
    m2 = 2.0 * M
    R = r + m2
    rm = r - m2
    iR, irm, ir = 1.0 / R, 1.0 / rm, 1.0 / r
    n2 = rm * iR
    hA = -m2 * ir * iR
    hF = m2 * iR * irm
    Rr = R * ir
    A = Rr * Rr
    Bc = m2 * m2 * Rr * ir * ir * ir * irm
    dn2, dA = 2.0 * hF * n2, 2.0 * hA * A
    out = (n2, dn2, A, dA, Bc, Bc * (iR - 4.0 * ir - irm))
    if not second:
        return out
    return out + (-2.0 * dn2 * iR, dA * (iR - 3.0 * ir))


def _exterior_terms(M, r, curvature):
    """_radial_terms on the Schwarzschild chart, in closed form: the
    profiles of _schw_profiles, C = R/(r - 2M), 1/A and 1/C = n2, and with
    curvature (K1, K2, K3, K4) = (-2, 1, -1, 2) 2M/R^3, R = r + 2M."""
    m2 = 2.0 * M
    R = r + m2
    p = _schw_profiles(M, r, False)
    terms = p + (R * (1.0 / (r - m2)), 1.0 / p[2], p[0])
    if not curvature:
        return terms
    iR = 1.0 / R
    k = m2 * iR * iR * iR
    return terms + (-2.0 * k, k, -k, 2.0 * k)


def _exterior_ray(M, r, tidal):
    """_general_ray on the Schwarzschild chart, in closed form.  With
    R = r + 2M,
        hF = 2M/(R(r - 2M)),   n2'/(2C) = hF n2^2 = 2M(r - 2M)/R^3,
        hA = -2M/(rR),   c_uv = 2M/r^2,
        c_uu = -8M^2 (r - M)/(r^2 R (r - 2M)) = -2 (r - M) hF c_uv,
    and with tidal F = 1/C = (r - 2M)/R, A = R^2/r^2 and
    (K1, K2, K3, K4) = (-2, 1, -1, 2) 2M/R^3.
    Nothing here cancels, down to the horizon margin."""
    m2 = 2.0 * M
    R = r + m2
    rm = r - m2
    ir, iR = 1.0 / r, 1.0 / R
    mR = m2 * iR
    F = rm * iR
    hF = mR / rm
    c_uv = m2 * ir * ir
    coefs = (ir, hF, hF * F * F, -mR * ir, c_uv, 2.0 * (M - r) * hF * c_uv)
    if not tidal:
        return coefs
    C, Rr = R / rm, R * ir
    k = mR * iR * iR
    return coefs + (F, C, Rr * Rr, -2.0 * k, k, -k, 2.0 * k)


def _optical_mass_terms(M, r):
    """Mass terms of the Schwarzschild optical function uhat = t - gamma_r.

    gamma_r = r + 4M ln(r - 2M) and dgamma_r/dr = 1 + 4M/(r - 2M) are r and 1
    plus the two returned terms, which vanish for M = 0.  Callers add r and 1
    themselves.
    """
    if M == 0.0:
        return 0.0 * r, 0.0 * r
    return 4.0 * M * np.log(r - 2.0 * M), 4.0 * M / (r - 2.0 * M)


def _zs_floor(model, margin=0.0):
    """Inner radius of the exterior zone, where uhat is defined: 0 for
    Minkowski, just above the horizon for Schwarzschild, r_out + margin for
    the glued model."""
    if model.kind == "minkowski":
        return 0.0
    if model.kind == "schwarzschild":
        return 2.0 * model.mass * (1.0 + 1e-5)
    return model.r_out + margin


def _orthonormalize(g, fixed, cands, keep):
    """Gram-Schmidt with the metric matrix g: the first `keep` candidates,
    taken in the order given, made g-orthonormal to each other and
    g-orthogonal to the unit vectors `fixed` (timelike or spacelike).

    A candidate whose remainder has norm <= 1e-10 is skipped; fewer than
    `keep` survivors raise CentralLineDegenerate.  Returns (keep, 4).
    """
    return _orthonormalize_stacked(g, np.asarray(fixed)[None],
                                   np.asarray(cands)[None], keep)[0]


def _orthonormalize_stacked(g, fixed, cands, keep):
    """_orthonormalize at n points at once in stacked matmuls: g (n, 4, 4)
    or one (4, 4), fixed (n, k, 4) and cands (n, c, 4), each point with its
    own candidates, each point's arithmetic that of the point alone."""
    def dot(a, b):                              # a g b, point by point
        return ((a[:, None] @ g) @ b[:, :, None])[:, 0]

    n, fixed = len(cands), np.swapaxes(fixed, 0, 1)
    out, got = np.zeros((n, keep, 4)), np.zeros(n, dtype=int)
    for c in np.swapaxes(cands, 0, 1):
        if np.all(got == keep):
            break
        coef = [np.sign(dot(f, f)) * dot(c, f) for f in fixed]
        for a, f in zip(coef, fixed):
            c = c - a * f
        for j, e in enumerate(np.swapaxes(out, 0, 1)):  # survivors, in order
            c = np.where((got > j)[:, None], c - dot(c, e) * e, c)
        nc = np.sqrt(np.maximum(dot(c, c), 0.0))
        take = (nc[:, 0] > 1e-10) & (got < keep)
        out[take, got[take]] = c[take] / nc[take]
        got += take
    if np.any(got < keep):
        raise CentralLineDegenerate(f"only {got.min()} of {keep} candidates "
                                    "survive orthonormalization")
    return out


def _profiles(model, r, second):
    """Radial profiles of any model, batched over r: the tuple
    (n2, n2', A, A', Bc, Bc') of r's shape, followed by (n2'', A'') when
    second is set.  Nothing in the package reads Bc'', so it is not formed.
    """
    r = np.asarray(r, dtype=float)
    if model.kind == "minkowski" or model.mass == 0.0:
        one, zero = np.ones(r.shape), np.zeros(r.shape)
        return (one, zero, one, zero, zero, zero) + ((zero, zero) if second
                                                     else ())
    if model.kind == "schwarzschild":
        safe = np.maximum(r, 2.0 * model.mass * (1.0 + HORIZON_MARGIN))
        return _schw_profiles(model.mass, safe, second)
    # glued: piecewise exact + smoothstep blend of the three profiles.  The
    # clip makes s and its derivatives exactly 0 in the core and s = 1 with
    # vanishing derivatives outside, so both zones are exact.
    width = model.r_out - model.r_in
    w = ((r - model.r_in) / width).clip(0.0, 1.0)
    s, ds, *d2s = _smoothstep(w, second)
    ds /= width
    safe = np.maximum(r, model.r_in)   # below r_in, s = ds = d2s = 0
    p = _schw_profiles(model.mass, safe, second)
    out = []
    for j, flat in ((0, 1.0), (2, 1.0), (4, 0.0)):
        f, df = p[j] - flat, p[j + 1]
        out += [flat + s * f, ds * f + s * df]
    if second:
        d2s = d2s[0] / width**2
        out += [d2s * (p[j] - 1.0) + 2.0 * ds * p[j + 1] + s * d2f
                for j, d2f in ((0, p[6]), (2, p[7]))]
    return tuple(out)


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
    n2, dn2, A, dA, Bc, dBc, C, iA, iC, *K = _radial(
        model, r, _exterior_terms, _radial_terms, level == 2)
    u = xs / np.maximum(r, _R_FLOOR)[..., None]  # spatial unit radial vector

    g = np.zeros(shape + (4, 4))
    g[..., 0, 0] = -n2
    g[..., 1:, 1:] = (A[..., None, None] * _EYE3
                      + Bc[..., None, None] * xs[..., :, None] * xs[..., None, :])

    g_inv = np.zeros_like(g)
    g_inv[..., 0, 0] = -1.0 / n2
    coef = Bc * iA * iC                          # C: radial-radial eigenvalue
    g_inv[..., 1:, 1:] = (iA[..., None, None] * _EYE3
                          - coef[..., None, None] * xs[..., :, None] * xs[..., None, :])

    jet = MetricJet(x=x, g=g, g_inv=g_inv)
    jet.sqrt_det = np.sqrt(n2 * A * A * C)
    jet.lapse = np.sqrt(n2)
    if level == 0:
        return _squeeze(jet, scalar_input)

    # first derivatives: dg[m, a, b] = d_m g_ab, time derivatives vanish
    dg = np.zeros(shape + (4, 4, 4))
    dg[..., 1:, 0, 0] = -dn2[..., None] * u
    dg_sp = (dA[..., None, None, None] * u[..., :, None, None] * _EYE3
             + dBc[..., None, None, None] * u[..., :, None, None]
             * xs[..., None, :, None] * xs[..., None, None, :]
             + Bc[..., None, None, None]
             * (_EYE3[:, :, None] * xs[..., None, None, :]
                + _EYE3[:, None, :] * xs[..., None, :, None]))
    dg[..., 1:, 1:, 1:] = dg_sp
    jet.dg = dg
    # dg index order is (m, a, b); build F[m,s,n] = d_m g_sn + d_n g_sm - d_s g_mn
    sym = dg + np.swapaxes(dg, -3, -1) - np.swapaxes(dg, -3, -2)
    jet.gamma = 0.5 * np.einsum('...ls,...msn->...lmn', g_inv, sym)
    if level == 1:
        return _squeeze(jet, scalar_input)

    # R = KN(tt, K1 rr + K2 P) + KN(K3 rr + (K4/2) P, P), tt = n2 dt^2,
    # rr = C u u, P = A (delta - u u) and KN(h, k)_abcd = h_ac k_bd + h_bd k_ac
    # - h_ad k_bc - h_bc k_ad.  KN is linear in h (x) k, so Z_abcd = h_ac k_bd
    # is symmetrised once, and all but the first Bianchi symmetry are exact.
    K1, K2, K3, K4 = K
    uu = u[..., :, None] * u[..., None, :]
    P = A[..., None, None] * (_EYE3 - uu)
    rr = C[..., None, None] * uu
    H = K3[..., None, None] * rr + (0.5 * K4)[..., None, None] * P
    Z = np.zeros(shape + (4, 4, 4, 4))
    Z[..., 1:, 1:, 1:, 1:] = (H[..., :, None, :, None]
                              * P[..., None, :, None, :])
    Z[..., 0, 1:, 0, 1:] = n2[..., None, None] * (K1[..., None, None] * rr
                                                  + K2[..., None, None] * P)
    Z = Z + np.swapaxes(np.swapaxes(Z, -4, -3), -2, -1)
    jet.riemann = Z - np.swapaxes(Z, -1, -2)
    return _squeeze(jet, scalar_input)


def _colsum(a):
    """Sum over the last axis in index order, elementwise, so a lane's
    value does not depend on the batch (reductions and BLAS may)."""
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j]
    return out


def _radial_terms(model, r, curvature):
    """The terms of _radial from the profiles of _profiles, blend included,
    for Minkowski, the flat core and the blend annulus; without curvature
    no second derivative is formed.  For -F dt^2
    + C dr^2 + S dOmega^2 (F = n2, S = A r^2) the orthonormal Riemann
    components in this module's convention are
        K1 = R_trtr = (2CFF'' - CF'^2 - FC'F')/(4C^2F^2),
        K2 = R_tAtA = F'S'/(4CFS),
        K3 = R_rArA = (-2CSS'' + CS'^2 + SC'S')/(4C^2S^2),
        K4 = R_ABAB = (4CS - S'^2)/(4CS^2),
    written below with S'/S = 2 hA + 2/r and the 1/r^2 terms cancelled, so
    every 1/r multiplies a profile derivative and the flat core gives exact
    zeros.
    """
    F, dF, A, dA, Bc, dBc, *d2 = _profiles(model, r, curvature)
    C = A + Bc * (r * r)
    iA, iC = 1.0 / A, 1.0 / C
    terms = (F, dF, A, dA, Bc, dBc, C, iA, iC)
    if not curvature:
        return terms
    d2F, d2A = d2
    ir = 1.0 / np.maximum(r, _R_FLOOR)
    hA = 0.5 * dA * iA
    hF = 0.5 * dF / F
    hC = 0.5 * (dA + (dBc * r + 2.0 * Bc) * r) * iC     # C'/(2C)
    m = hA + ir                                          # S'/(2S)
    K1 = 0.5 * (d2F - dF * (hF + hC)) / F * iC
    K2 = hF * m * iC
    hAr, hA2 = 2.0 * hA * ir, hA * hA
    K3 = (-0.5 * d2A * iA - hAr + hA2 + hC * m) * iC
    K4 = (Bc * iA - hAr - hA2) * iC
    return terms + (K1, K2, K3, K4)


def _radial(model, r, exterior, general, flag):
    """Radial coefficients at radii r (any shape), in the form each caller
    reads: exterior(M, r, flag) on the Schwarzschild chart, every
    Schwarzschild lane (raised to the horizon guard) and every glued lane
    with r >= r_out; general(model, r, flag) on the others, the flat core
    and the blend annulus.  metric_at takes _exterior_terms and
    _radial_terms, the geodesic terms _exterior_ray and _table_ray.  A
    glued batch with lanes of both kinds computes both and picks per lane
    with np.where, so each lane's values depend on its own r alone."""
    if model.kind == "schwarzschild":
        guard = 2.0 * model.mass * (1.0 + HORIZON_MARGIN)
        return exterior(model.mass, np.maximum(r, guard), flag)
    if model.kind == "glued":
        out = r >= model.r_out
        if out.all():
            return exterior(model.mass, r, flag)
        if out.any():
            ext = exterior(model.mass, np.maximum(r, model.r_out), flag)
            return tuple(np.where(out, e, g) for e, g in
                         zip(ext, general(model, r, flag)))
    return general(model, r, flag)


def _general_ray(model, r):
    """Per-lane scalars of the geodesic terms at radii r (n,) of the blend
    annulus, from the terms of _radial_terms, which _annulus_table is
    fitted to: (1/r, hF, n2'/(2C), hA, c_uv, c_uu), hA = A'/(2A),
    hF = n2'/(2 n2),
        c_uv = (Bc r - A'/2)/C,   c_uu = r^2 (Bc'/2 - 2 Bc hA)/C,
    followed by (F, C, A) and K1-K4 (F = n2)."""
    F, dF, A, dA, Bc, dBc, C, iA, iC, *K = _radial_terms(model, r, True)
    hA = 0.5 * dA * iA
    return (1.0 / np.maximum(r, _R_FLOOR), 0.5 * dF / F, 0.5 * dF * iC, hA,
            (Bc * r - 0.5 * dA) * iC,
            (r * r) * (0.5 * dBc - 2.0 * Bc * hA) * iC, F, C, A, *K)


@cache
def _annulus_table(model):
    """The table of the glued model's blend annulus, built on first use:
    on each of _PANELS panels of equal width in x = _PANELS (r - r_in)/
    (r_out - r_in), the coefficients of the polynomials of degree _DEGREE
    in u = x - panel in [0, 1] that interpolate the scalars of _general_ray
    but 1/r at the panel's Chebyshev points, an array (_DEGREE + 1, 12,
    _PANELS), lowest power first.  The Gamma scalars, K2 and K4 vanish like
    x^2 at r_in and K1 and K3 like x, so each is divided by its power of x
    (_TABLE_POW) before the fit, which keeps its relative accuracy near
    r_in (a table of the undivided scalars loses it there)."""
    u = 0.5 - 0.5 * np.cos(np.pi * (np.arange(_DEGREE + 1) + 0.5)
                           / (_DEGREE + 1))
    width = model.r_out - model.r_in
    r = model.r_in + (width / _PANELS) * (np.arange(_PANELS)[:, None] + u)
    x = (r - model.r_in) * (_PANELS / width)    # as _table_ray forms it
    vals = np.array(_general_ray(model, r.ravel())[1:]).reshape(
        12, _PANELS, -1) / x ** _TABLE_POW[:, None, None]
    u = x - np.arange(_PANELS)[:, None]
    V = u[..., None] ** np.arange(_DEGREE + 1)  # (panels, points, powers)
    table = np.linalg.solve(V, vals.transpose(1, 2, 0)).transpose(1, 2, 0)
    table.flags.writeable = False           # one array for every caller
    return table


def _table_ray(model, r, tidal):
    """_general_ray's scalars at radii r (n,) of a glued model, without
    (F, C, A) and K1-K4 unless tidal is set: 1/r, and from _annulus_table
    one gather of each lane's panel, one pass of Estrin's scheme (pairs of
    terms in u, u^2, u^4) over the scalars stacked (k, n) and the powers of
    x divided out, with exact zeros and ones at r <= r_in.  Minkowski takes
    the flat values.  Elementwise per lane, so a lane's values do not
    depend on the batch."""
    k = 12 if tidal else 5
    ir = 1.0 / np.maximum(r, _R_FLOOR)
    if model.kind == "minkowski":
        return (ir, *np.broadcast_to(_TABLE_FLAT[:k], (k, len(r))))
    x = (r - model.r_in) * (_PANELS / (model.r_out - model.r_in))
    x = np.minimum(np.fmax(x, 0.0), _X_TOP)     # NaN: 0; exterior: any panel
    p = x.astype(int)
    c, u = _annulus_table(model)[:, :k].take(p, axis=2), x - p
    while len(c) > 1:
        c = c[0::2] + c[1::2] * u
        u = u * u
    c = c[0]
    c[:5] *= x * x                  # the powers of x of _TABLE_POW
    if tidal:
        c[8:] *= x
        c[9::2] *= x
    return (ir, *np.where(x > 0.0, c, _TABLE_FLAT[:k]))


def _lane_coefs(model, x, b, tidal):
    """u.v and the per-lane scalars of _table_ray (or _exterior_ray) at
    lane states x, b (n, 4); u = x/r and v the spatial part of B."""
    xs = x[:, 1:]
    r = np.sqrt(_colsum(xs * xs))
    coefs = _radial(model, r, _exterior_ray, _table_ray, tidal)
    return _colsum(xs * b[:, 1:]) * coefs[0], coefs


def _ray_accel(model, x, b):
    """The geodesic acceleration B' = -Gamma(B, B) at lane states x, b
    (n, 4), from five per-lane scalars of _general_ray:
        Gamma(B, B)^t = 2 hF B^t (u.v),
        Gamma(B, B)^i = (n2' (B^t)^2/(2C) + c_uu (u.v)^2 + c_uv |v|^2) u^i
                        + 2 hA (u.v) v^i,
    u = x/r and v the spatial part of B.  Every operation is elementwise,
    so a lane's value does not depend on the batch."""
    v, bt = b[:, 1:], b[:, 0]
    uv, (ir, hF, q, hA, c_uv, c_uu) = _lane_coefs(model, x, b, False)
    s = -(q * bt * bt + c_uu * uv * uv + c_uv * _colsum(v * v)) * ir
    out = np.empty_like(b)
    out[:, 0] = -2.0 * hF * bt * uv
    out[:, 1:] = s[:, None] * x[:, 1:] - (2.0 * hA * uv)[:, None] * v
    return out


def _ray_terms(model, x, b):
    """Closed-form geodesic terms at lane states x, b (n, 4):
    gb[l, k] = Gamma^l_mk B^m and the tidal tensor T_bd = R_abcd B^a B^c.

    Each is V^T c V + d I_s on the per-lane basis V = (e0, (0, u), (0, v))
    (rows), u = x/r and v the spatial part of B, with a 3x3 coefficient
    matrix c and d times the spatial identity I_s: the entries of c and d
    from _general_ray are stacked by one np.array, and two stacked matmuls
    build all the matrices at once.  With C = A + Bc r^2,
        gb:    c_tt = hF (u.v), c_tu = hF B^t, c_ut = n2' B^t/(2C),
               c_uu = c_uu (u.v), c_uv = c_uv, c_vu = hA, d = hA (u.v).
    With K1-K4, the coframe th_t = sqrt(F) dt, th_r = sqrt(C) dr, the
    transverse metric P = A (d - u u), p = P v and |B_perp|^2 = v.P v,
        T = K1 w w + K2 [(th_t.B)^2 P - (th_t.B)(p th_t + th_t p)
            + |B_perp|^2 th_t th_t] + (the same with th_r for K3)
            + K4 [|B_perp|^2 P - p p],   w = (th_t.B) th_r - (th_r.B) th_t,
    which expands on the basis to the symmetric c of the code below.  Every
    lane is computed alone (elementwise, and a matmul per lane), and
    _radial picks each lane's form by its own r, so a lane's terms do not
    depend on the rest of the batch.
    """
    n = len(x)
    v, bt = b[:, 1:], b[:, 0]
    uv, (ir, hF, q, hA, c_uv, c_uu, F, C, A,
         K1, K2, K3, K4) = _lane_coefs(model, x, b, True)
    zero = np.zeros(n)
    Fbt, uv2 = F * bt, uv * uv
    Ft2 = Fbt * bt                                       # (th_t.B)^2
    bp2 = A * (_colsum(v * v) - uv2)                     # |B_perp|^2
    K1C, K2A, K3CA, K4A = K1 * C, K2 * A, K3 * C * A, K4 * A
    A2K4 = A * K4A
    sig = K2A * Ft2 + K3CA * uv2 + K4A * bp2
    t_u = (K2A - K1C) * Fbt * uv
    t_v = -K2A * Fbt
    u_v = (A2K4 - K3CA) * uv
    t_uu = (K1 * Ft2 + K3 * bp2) * C - sig + (2.0 * K3CA - A2K4) * uv2
    # the rows of c for gb^T (so that the caller's matmul Y @ gb^T takes a
    # contiguous operand) and T, then d of each
    cd = np.array([hF * uv, q * bt, zero,
                   F * (K1C * uv2 + K2 * bp2), t_u, t_v,
                   hF * bt, c_uu * uv, hA, t_u, t_uu, u_v,
                   zero, c_uv, zero, t_v, u_v, -A2K4,
                   hA * uv, sig]).T                      # (n, 20)
    V = np.zeros((n, 3, 4))
    V[:, 0, 0] = 1.0
    V[:, 1, 1:] = x[:, 1:] * ir[:, None]
    V[:, 2, 1:] = v
    # V^T (c_0 | c_1 | c_2), then each block times V, in contiguous
    # stacked matmuls (a broadcast or transposed operand is far slower)
    vc = V.transpose(0, 2, 1).copy() @ cd[:, :18].reshape(n, 3, 6)
    out = (vc.reshape(n, 4, 2, 3).transpose(0, 2, 1, 3).reshape(n, 8, 3)
           @ V).reshape(n, 2, 16)
    out[:, :, 5::5] += cd[:, 18:, None]                 # d I_s
    out = out.reshape(n, 2, 4, 4)
    return out[:, 0].transpose(0, 2, 1), out[:, 1]


def _squeeze(jet, scalar_input):
    if not scalar_input:
        return jet
    for name in ("x", "g", "g_inv", "dg", "gamma", "riemann", "sqrt_det",
                 "lapse"):
        v = getattr(jet, name)
        if v is not None and isinstance(v, np.ndarray):
            setattr(jet, name, v[0])
    return jet


def curvature_at(model, x):
    """Level-2 jet; Ricci, scalar, Schouten and Weyl are built on access."""
    return metric_at(model, x, level=2)
