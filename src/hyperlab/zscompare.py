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
from .foliation import (_frames_from_state, _k_triad, _leaf_scalar_arrays,
                        _leaf_scalars_from_state, _radial_overlap, _rho_cluster,
                        frames_at, leaf_slice)
from .metric import (MetricModel, _optical_mass_terms, _orthonormalize,
                     curvature_at, lapse_gradient, metric_at)


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
    sigma_n_norm: float
    snr_norm: float
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
    t_bar: float
    K_sphere: np.ndarray         # Gauss curvature per node (dag Gauss path)
    K_model: np.ndarray          # n^2/(r+2M)^2 per node
    diam_bound: float
    chi_tracefree_ratio: float   # umbilicity of dag chi
    t_nodes: np.ndarray
    r_nodes: np.ndarray
    area: float


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


def _zs_floor(model, margin=0.0):
    if model.kind == "minkowski":
        return 0.0
    if model.kind == "schwarzschild":
        return 2.0 * model.mass * (1.0 + 1e-5)
    return model.r_out + margin


def varpi_at(model, rec, rho):
    """Radial overlap varpi = N(r) with the Euclidean-component split
    N = Sigma N + varpi d_r; snr holds the angular gradient e_A(r)."""
    fr = frames_at(model, rec, rho)
    r, rad, varpi, snr = _radial_overlap(fr)
    sigma_n = np.zeros(4)
    sigma_n[1:] = fr.N[1:] - varpi * rad
    return {"varpi": varpi, "SigmaN": sigma_n, "snr": snr, "frames": fr, "r": r}


def radial_comparison_series(model, rec, margin=0.0):
    """ComparisonRow list over the record samples with r in the exterior zone."""
    floor = _zs_floor(model, margin)
    rows = []
    for rho in rec.rho:
        st = rec.state_at(float(rho))
        r = float(np.linalg.norm(st["x"][1:]))
        if r < max(floor, 1e-6):
            continue
        sc = _leaf_scalars_from_state(model, rec, float(rho), st)
        if sc.rtilde < 1e-6:
            continue
        vp = varpi_at(model, rec, float(rho))
        opt = schw_optical(model.mass if model.kind != "minkowski" else 0.0,
                           sc.t, r)
        rows.append(ComparisonRow(
            rho=float(rho), t=sc.t, r=r, n=sc.n, varpi=vp["varpi"],
            n_minus_varpi=sc.n - vp["varpi"],
            rt_over_r_minus_ninv=sc.rtilde / r - 1.0 / sc.n,
            u=sc.u, uhat=opt["uhat"], u_minus_uhat=sc.u - opt["uhat"],
            sigma_n_norm=float(np.linalg.norm(vp["SigmaN"])),
            snr_norm=float(np.linalg.norm(vp["snr"]))))
    return rows


def transport_residuals_zs(model, rec, probe_rhos=None, h=None, margin=0.1):
    """Residuals of the varpi and rtilde/r transport equations in the
    exterior zone, with the rho-derivative taken by a 5-point cluster on the
    dense solution and every other ingredient evaluated pointwise."""
    floor = _zs_floor(model, margin)
    if probe_rhos is None:
        probe_rhos = rec.rho[1:-1]
    rhos = []
    for rho in np.atleast_1d(probe_rhos):
        st = rec.state_at(float(rho))
        if np.linalg.norm(st["x"][1:]) >= floor:
            rhos.append(float(rho))
    if not rhos:
        raise OutsideZs("no probe rhos inside the exterior zone")
    rhos = np.asarray(rhos)
    if h is None:
        h = min(6e-3, 0.03 * rhos.min())
    cl, center, ddr = _rho_cluster(rhos, h)

    st = rec.state_at(cl)
    x = st["x"]
    r_all = np.linalg.norm(x[:, 1:], axis=1)
    if np.any(r_all < floor):
        raise OutsideZs("cluster leaves the exterior zone")
    n_all, _ = lapse_gradient(model, x)
    sc = _leaf_scalar_arrays(rec, cl, x, st["b"], n_all)
    rt_all = sc["rtilde"]

    M = model.mass
    # varpi along the cluster (frames per point)
    varpi_all = np.empty_like(cl)
    for i, rho in enumerate(cl):
        stp = {k: (v[i] if v is not None else None) for k, v in st.items()}
        varpi_all[i] = _radial_overlap(
            _frames_from_state(model, rec, float(rho), stp)[0])[2]

    n, varpi = center(n_all), center(varpi_all)
    r = center(r_all)
    bt, rt = center(sc["bt"]), center(rt_all)
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

    return {
        "bvarpi": float(np.max(np.abs(bv))),
        "bvarpi_scale": float(np.max(bv_scale)),
        "cmr_1": float(np.max(np.abs(cm))),
        "cmr_1_scale": float(np.max(cm_scale)),
        "rhos": rhos,
    }


def _dag_frames(model, rec, rho, st, frames, sc):
    """dag-lapse (two ways), dag normal and sphere pair at a cone-sphere node."""
    _, rad, varpi, _ = _radial_overlap(frames)
    n = sc.n
    Ls = np.zeros(4)
    Ls[0] = 1.0 / n**2
    Ls[1:] = rad
    g = frames.g
    dag_a_def = -1.0 / float(st["b"] @ g @ Ls)
    a_inv = sc.rtilde / rho
    dag_a_inv = -a_inv * (varpi - n) / n**2 + sc.u / (n * rho)
    dag_a = 1.0 / dag_a_inv
    dag_nb = dag_a * Ls - st["b"]
    dag_nb_t = dag_a / n**2 - (1.0 / (sc.b * n)) * sc.t / rho
    # orthonormal pair orthogonal to {B, dag_nb}
    cands = np.eye(4)[1:]
    nbu = dag_nb / np.sqrt(dag_nb @ g @ dag_nb)
    cands = cands[np.argsort([abs(c @ g @ nbu) for c in cands])]
    eA = _orthonormalize(g, [st["b"], nbu], cands, 2)
    return dag_a, dag_a_def, nbu, eA, Ls, dag_nb_t, varpi


def _grad_ls(model, x):
    """Covariant derivative of the static field L^s = n^-2 d_t + d_r:
    (cov_m Ls)^nu = d_m Ls^nu + G^nu_m,lam Ls^lam."""
    jet = metric_at(model, x, level=1)
    r = float(np.linalg.norm(x[1:]))
    rad = x[1:] / r
    n2 = float(-jet.g[0, 0])
    M = model.mass
    dn2inv_dr = -4.0 * M / (r - 2.0 * M) ** 2
    Ls = np.zeros(4)
    Ls[0] = 1.0 / n2
    Ls[1:] = rad
    dLs = np.zeros((4, 4))            # d_m Ls^nu
    dLs[1:, 0] = dn2inv_dr * rad
    dLs[1:, 1:] = (np.eye(3) - np.outer(rad, rad)) / r
    cov = dLs + np.einsum('nml,l->mn', jet.gamma, Ls)
    return cov, jet


def cone_sphere_geometry(model, rho, uhat, omega_nodes, origin=None,
                         zeta_max=6.0, ode_tol=1e-11):
    """Geometry report for the sphere S_{rho, uhat} on H_rho.

    The dag-lapse is computed both from its definition -<B, L^s>^{-1} and
    from the closed formula; the Gauss curvature comes from the dag-tetrad
    Gauss equation with the null second fundamental forms assembled out of
    the transported k and the analytic gradient of L^s.
    """
    origin = np.zeros(4) if origin is None else np.asarray(origin, dtype=float)
    sl = leaf_slice(model, origin, 0.0, rho, omega_nodes,
                    zeta_max=zeta_max, ode_tol=ode_tol,
                    level="uhat", target=uhat)
    floor = _zs_floor(model)
    dag_a = []
    dag_a_def = []
    dag_nbt = []
    dag_nbt_model = []
    Ks = []
    Kmod = []
    ts = []
    rs = []
    ws = []
    umb = []
    for node in sl.nodes:
        st = node.record.state_at(rho)
        sc, fr = node.scalars, node.frames
        r = float(np.linalg.norm(st["x"][1:]))
        if r < floor:
            raise SphereExitsZone(f"node at r={r:.4g} below r_out")
        da, da_def, nbu, eA, Ls, nbt, varpi = _dag_frames(
            model, node.record, rho, st, fr, sc)
        covLs, jet1 = _grad_ls(model, st["x"])
        # dag chi_AC = dag_a <cov_{eA} L^s, eC>;  dag chib = 2 k(eA, eC) - chi
        chi = da * np.einsum('Am,mn,ns,Cs->AC', eA, covLs, fr.g, eA)
        # k(eA, eC) from the transported k (triad components)
        E = st["triad"]
        kmat = _k_triad(st["q0"], st["khat"], rho)
        coefA = np.einsum('Aa,ab,ib->Ai', eA, fr.g, E)
        k_AC = coefA @ kmat @ coefA.T
        chib = 2.0 * k_AC - chi
        trchi = np.trace(chi)
        trchib = np.trace(chib)
        chih = chi - 0.5 * trchi * np.eye(2)
        chibh = chib - 0.5 * trchib * np.eye(2)
        jet = curvature_at(model, st["x"])
        dagL = st["b"] + nbu
        dagLb = st["b"] - nbu
        w_ll = np.einsum('abcd,a,b,c,d->', jet.weyl, dagL, dagLb, dagL, dagLb)
        K = (-0.25 * trchi * trchib + 0.5 * float(np.sum(chih * chibh))
             - 0.25 * float(w_ll))
        n = sc.n
        dag_a.append(da)
        dag_a_def.append(da_def)
        dag_nbt.append(nbt)
        dag_nbt_model.append(sc.rtilde / (n * rho))
        Ks.append(K)
        Kmod.append(n**2 / (r + 2.0 * model.mass) ** 2)
        ts.append(sc.t)
        rs.append(r)
        ws.append(node.weight)
        umb.append(np.abs(chih).max() / (abs(trchi) + 1e-300))
    ts = np.asarray(ts)
    ws = np.asarray(ws)
    t_bar = float(np.sum(ws * ts) / np.sum(ws))
    Ks = np.asarray(Ks)
    return ConeSphereReport(
        rho=float(rho), uhat=float(uhat), dag_a=np.asarray(dag_a),
        dag_a_def=np.asarray(dag_a_def), dag_nb_t=np.asarray(dag_nbt),
        dag_nb_t_model=np.asarray(dag_nbt_model),
        osc_t=float(np.max(np.abs(ts - t_bar))), t_bar=t_bar,
        K_sphere=Ks, K_model=np.asarray(Kmod),
        diam_bound=float(np.pi / np.sqrt(max(Ks.min(), 1e-300))),
        chi_tracefree_ratio=float(np.max(umb)),
        t_nodes=ts, r_nodes=np.asarray(rs), area=sl.area)
