"""Exterior-zone comparison between the intrinsic hyperboloidal foliation and
the static sphere-adapted structures: the radial overlap varpi = N(r), the
almost-optical property of u against the exact optical function
uhat = t - r - 4M ln(r - 2M), transport-equation residuals, and the geometry
of the cone-spheres cut on H_rho by uhat level sets.

All identities here hold only where the metric is exactly the exterior chart
(r >= r_out for the glued model); rows and residuals are restricted
accordingly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Horizon, OutsideZs, SphereExitsZone
from .foliation import (_T, _pick, _residual_table, _rho_cluster,
                        _sphere_pairs, leaf_frames, leaf_slice)
from .metric import (MetricModel, _optical_mass_terms, _zs_floor, curvature_at,
                     metric_at)
from .nullgeom import gauss_residual


@dataclass
class ComparisonRow:
    rho: float
    t: float
    r: float
    n: float
    varpi: float
    n_minus_varpi: float
    rt_over_r_minus_ninv: float
    u: float
    uhat: float
    u_minus_uhat: float
    status: str = "ok"


@dataclass
class ConeSphereReport:
    rho: float
    uhat: float
    dag_a: np.ndarray            # lapse of the uhat foliation, per node
    dag_a_def: np.ndarray        # from the definition -<B, L^s>^-1
    dag_nb_t: np.ndarray         # dag Nbar(t) per node
    dag_nb_t_model: np.ndarray   # n^-1 rtilde / rho per node
    osc_t: float
    K_sphere: np.ndarray         # Gauss curvature per node (dag Gauss path)
    K_model: np.ndarray          # n^2/(r+2M)^2 per node
    diam_bound: float
    chi_tracefree_ratio: float   # umbilicity of dag chi
    t_nodes: np.ndarray
    r_nodes: np.ndarray


def schw_optical(M, t, r):
    """uhat, the null generator Lhat and the eikonal residual at (t, r)."""
    if r <= 2.0 * M:
        raise Horizon(f"r={r:.6g} inside the horizon")
    log_term, dlog_term = _optical_mass_terms(M, r)
    uhat = t - (r + log_term)
    x = np.array([t, r, 0.0, 0.0])
    if M > 0:
        jet = metric_at(MetricModel.schwarzschild(M), x, level=0)
    else:
        jet = metric_at(MetricModel.minkowski(), x, level=0)
    n2 = -jet.g[0, 0]
    Lhat = np.array([1.0, n2, 0.0, 0.0])
    du = np.array([1.0, -(1.0 + dlog_term), 0.0, 0.0])
    eik = float(np.einsum('ab,a,b->', jet.g_inv, du, du))
    return {"uhat": float(uhat), "Lhat": Lhat, "eikonal": eik}


def radial_comparison_series(model, rec):
    """ComparisonRow list over the record samples with r in the exterior zone."""
    lf = leaf_frames(model, [rec], rec.rho)
    keep = (lf.frames.r >= max(_zs_floor(model), 1e-6)) & ~lf.degenerate
    sc = _pick(lf.scalars, keep)
    r, varpi = lf.frames.r[keep], lf.frames.varpi[keep]
    uhat = sc.t - (r + _optical_mass_terms(model.mass, r)[0])
    return [ComparisonRow(*row) for row in zip(
        sc.rho, sc.t, r, sc.n, varpi, sc.n - varpi, sc.rtilde / r - 1.0 / sc.n,
        sc.u, uhat, sc.u - uhat)]


def transport_residuals_zs(model, rec, probe_rhos=None):
    """Residuals of the varpi and rtilde/r transport equations in the
    exterior zone, with the rho-derivative taken by a 5-point cluster on the
    dense solution and every other ingredient evaluated pointwise."""
    floor = _zs_floor(model, 0.1)
    if probe_rhos is None:
        probe_rhos = rec.rho[1:-1]
    rhos = np.atleast_1d(np.asarray(probe_rhos, dtype=float))
    rhos = rhos[np.linalg.norm(rec.state_at(rhos)["x"][:, 1:], axis=1) >= floor]
    if len(rhos) == 0:
        raise OutsideZs("no probe rhos inside the exterior zone")
    cl, center, ddr = _rho_cluster(rhos, min(6e-3, 0.03 * rhos.min()))

    lf = leaf_frames(model, [rec], cl)
    r_all = np.linalg.norm(lf.st["x"][:, 1:], axis=1)
    if np.any(r_all < floor):
        raise OutsideZs("cluster leaves the exterior zone")
    lf.require_frames()
    n_all, rt_all, varpi_all = lf.scalars.n, lf.scalars.rtilde, lf.frames.varpi

    M = model.mass
    n, varpi = center(n_all), center(varpi_all)
    r = center(r_all)
    bt, rt = center(lf.binv * lf.scalars.t), center(rt_all)
    R = r + 2.0 * M

    # radial-overlap transport.  The coefficient of (1 - varpi^2/n^2) is
    # assembled from the connection-difference tensor between the chart and
    # the Euclidean connection: the flat part of the polar Christoffel is
    # already carried by the Euclidean rotation term, leaving
    # r/R^2 - 2 M n^2/(r R) rather than the naive polar value.
    d_nv = ddr(n_all - varpi_all)
    coef = r / R**2 - 2.0 * M * n**2 / (r * R)
    lhs_bv = d_nv + (rt / rhos) * coef * (1.0 - varpi**2 / n**2)
    rhs_bv = (2.0 * M / (n**2 * R**2)) * ((rt / rhos) * varpi
                                          + (bt**2 / (rhos * rt)) * (n + varpi)) * (n - varpi)
    bv = lhs_bv - rhs_bv
    bv_scale = np.abs(d_nv) + np.abs(rhs_bv) + (rt / rhos) * np.abs(coef) * np.abs(
        1.0 - varpi**2 / n**2) + 1e-14

    # N(log n) = 2 M varpi / (n^2 (r+2M)^2) in the exterior chart
    N_log_n = 2.0 * M * varpi / (n**2 * R**2)
    q = rt_all / r_all - 1.0 / n_all
    qc = center(q)
    d_q = ddr(q)
    lhs_c = d_q + qc / rhos
    rhs_c = (-( n / rhos * qc + (rt / rhos) * N_log_n) * qc
             + (rt**2 / (r**2 * rhos)) * (n - varpi) - (rhos / r) * N_log_n)
    cm = lhs_c - rhs_c
    cm_scale = np.abs(d_q) + np.abs(qc) / rhos + np.abs(rhs_c) + 1e-14

    return {**_residual_table({"bvarpi": (bv, bv_scale),
                               "cmr_1": (cm, cm_scale)}),
            "rhos": rhos}


def _grad_ls(model, jet):
    """Covariant derivative of the static field L^s = n^-2 d_t + d_r at the
    points of the jet (level >= 1): (cov_m Ls)^nu = d_m Ls^nu
    + G^nu_m,lam Ls^lam."""
    x = jet.x
    r = np.linalg.norm(x[..., 1:], axis=-1)
    rad = x[..., 1:] / r[..., None]
    M = model.mass
    Ls = np.zeros(x.shape)
    Ls[..., 0] = -1.0 / jet.g[..., 0, 0]
    Ls[..., 1:] = rad
    dLs = np.zeros(x.shape + (4,))            # d_m Ls^nu
    dLs[..., 1:, 0] = (-4.0 * M / (r - 2.0 * M) ** 2)[..., None] * rad
    dLs[..., 1:, 1:] = ((np.eye(3) - rad[..., :, None] * rad[..., None, :])
                        / r[..., None, None])
    return dLs + np.einsum('...nml,...l->...mn', jet.gamma, Ls)


def cone_sphere_geometry(model, rho, uhat, omega_nodes, origin=None):
    """Geometry report for the sphere S_{rho, uhat} on H_rho.

    The dag-lapse is computed both from its definition -<B, L^s>^{-1} and
    from the closed formula; the Gauss curvature comes from the dag-tetrad
    Gauss equation with the null second fundamental forms assembled out of
    the leaf's k (from the Jacobi fields) and the analytic gradient of L^s.
    """
    origin = np.zeros(4) if origin is None else np.asarray(origin, dtype=float)
    sl = leaf_slice(model, origin, 0.0, rho, omega_nodes, level="uhat",
                    target=uhat)
    lf = sl.frames
    sc, fr, st = lf.scalars, lf.frames, lf.st
    r, n, B, g = fr.r, sc.n, st["b"], fr.g
    low = r[r < _zs_floor(model)]
    if len(low):
        raise SphereExitsZone(f"node at r={low[0]:.4g} below r_out")
    # the dag-lapse from its definition -<B, L^s>^-1 and from the formula
    Ls = np.zeros_like(B)
    Ls[:, 0] = 1.0 / n**2
    Ls[:, 1:] = fr.x[:, 1:] / r[:, None]
    dag_a_def = -1.0 / ((B[:, None] @ g) @ Ls[:, :, None])[:, 0, 0]
    dag_a_inv = -(sc.rtilde / rho) * (fr.varpi - n) / n**2 + sc.u / (n * rho)
    dag_a = 1.0 / dag_a_inv
    dag_nb = dag_a[:, None] * Ls - B
    nbu = dag_nb / np.sqrt((dag_nb[:, None] @ g) @ dag_nb[:, :, None])[:, 0]
    # orthonormal pair orthogonal to {B, dag_nb}
    eA = _sphere_pairs(g, np.stack([B, nbu], axis=1))
    # dag chi_AC = dag_a <cov_{eA} L^s, eC>;  dag chib = 2 k(eA, eC) - chi
    jet = curvature_at(model, fr.x)     # its Christoffels and its Weyl tensor
    chi = dag_a[:, None, None] * np.einsum(
        'nAm,nmk,nks,nCs->nAC', eA, _grad_ls(model, jet), g, eA)
    # k(eA, eC) from the leaf's k in its basis f = {Nbar, eA of the leaf}
    f = np.concatenate([fr.Nbar[:, None], fr.eA], axis=1)
    coefA = np.einsum('nAa,nab,nib->nAi', eA, g, f)
    k_AC = coefA @ lf.k.k @ _T(coefA)
    chib = 2.0 * k_AC - chi
    trchi, trchib = (np.trace(c, axis1=1, axis2=2) for c in (chi, chib))
    chih = chi - 0.5 * trchi[:, None, None] * np.eye(2)
    chibh = chib - 0.5 * trchib[:, None, None] * np.eye(2)
    dagL, dagLb = B + nbu, B - nbu
    w_ll = np.einsum('nabcd,na,nb,nc,nd->n', jet.weyl,
                     dagL, dagLb, dagL, dagLb)
    Ks = -gauss_residual(0.0, trchi, trchib, chih, chibh, w_ll)
    umb = np.abs(chih).max(axis=(1, 2)) / (np.abs(trchi) + 1e-300)
    t_bar = float(np.sum(sl.weight * sc.t) / np.sum(sl.weight))
    return ConeSphereReport(
        rho=float(rho), uhat=float(uhat), dag_a=dag_a, dag_a_def=dag_a_def,
        dag_nb_t=dag_a / n**2 - (1.0 / (sc.b * n)) * sc.t / rho,
        dag_nb_t_model=sc.rtilde / (sc.n * rho),
        osc_t=float(np.max(np.abs(sc.t - t_bar))),
        K_sphere=Ks, K_model=sc.n**2 / (r + 2.0 * model.mass) ** 2,
        diam_bound=float(np.pi / np.sqrt(max(Ks.min(), 1e-300))),
        chi_tracefree_ratio=float(np.max(umb)),
        t_nodes=sc.t, r_nodes=r)
