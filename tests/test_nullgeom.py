import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import nullgeom as ng
from hyperlab.errors import BadTetrad, Horizon, OutsideZs
from hyperlab.foliation import frames_at
from hyperlab.geodesic import Direction, exp_map
from hyperlab.metric import (MetricModel, curvature_at, metric_at,
                             schouten_scalar_field)

MINK = MetricModel.minkowski()
SCHW = MetricModel.schwarzschild(0.05)
GLUED = MetricModel.glued(0.01)


@pytest.fixture(scope="module")
def schw_jet():
    return curvature_at(SCHW, np.array([0.0, 0.0, 3.0, 4.0]))


def test_null_decompose_minkowski_zero():
    jet = curvature_at(MINK, [0.0, 2.0, 0.0, 0.0])
    tet = ng.hat_tetrad(jet)
    dec = ng.null_decompose(jet, tet)
    assert dec.varrho == 0.0 and dec.sigma == 0.0
    assert np.abs(dec.alpha).max() == 0.0
    assert np.abs(dec.beta).max() == 0.0


def test_hat_tetrad_only_varrho(schw_jet):
    dec = ng.null_decompose(schw_jet, ng.hat_tetrad(schw_jet))
    assert dec.varrho == pytest.approx(-0.001507712, abs=1e-8)
    vr = abs(dec.varrho)
    for comp in (dec.alpha, dec.alphab, dec.beta, dec.betab):
        assert np.abs(comp).max() <= 1e-6 * vr
    assert abs(dec.sigma) <= 1e-6 * vr
    # trace-free 2x2 parts (scale set by the one surviving component)
    assert abs(np.trace(dec.alpha)) <= 1e-9 * vr


def test_hat_vanishing_at_multiple_radii():
    for r in (3.0, 5.0, 10.0):
        jet = curvature_at(SCHW, [0.0, r, 0.0, 0.0])
        dec = ng.null_decompose(jet, ng.hat_tetrad(jet))
        vr = abs(dec.varrho)
        assert vr == pytest.approx(4 * 0.05 / (r + 0.1) ** 3, rel=1e-10)
        for comp in (dec.alpha, dec.alphab, dec.beta, dec.betab):
            assert np.abs(comp).max() <= 1e-6 * vr
        assert abs(dec.sigma) <= 1e-6 * vr


def test_bad_tetrad_rejected(schw_jet):
    tet = ng.hat_tetrad(schw_jet)
    bad = ng.NullTetrad(e4=tet.e4 * 1.01, e3=tet.e3, eA=tet.eA)
    with pytest.raises(BadTetrad):
        ng.null_decompose(schw_jet, bad)


def test_duality_left_equals_right(schw_jet):
    Wl = ng.left_dual(schw_jet.weyl, schw_jet.g_inv, schw_jet.sqrt_det)
    Wr = ng.right_dual(schw_jet.weyl, schw_jet.g_inv, schw_jet.sqrt_det)
    assert np.abs(Wl - Wr).max() < 1e-8 * max(np.abs(schw_jet.weyl).max(), 1e-30)


def test_spin2_rotation_covariance(schw_jet):
    tet = ng.hat_tetrad(schw_jet)
    th = np.pi / 4
    c, s = np.cos(th), np.sin(th)
    eA_rot = np.stack([c * tet.eA[0] + s * tet.eA[1],
                       -s * tet.eA[0] + c * tet.eA[1]])
    rot = ng.NullTetrad(e4=tet.e4, e3=tet.e3, eA=eA_rot)
    d0 = ng.null_decompose(schw_jet, tet)
    d1 = ng.null_decompose(schw_jet, rot)
    R = np.array([[c, s], [-s, c]])
    assert np.abs(R @ d0.alpha @ R.T - d1.alpha).max() < 1e-9
    assert np.abs(R @ d0.beta - d1.beta).max() < 1e-9
    assert d1.varrho == pytest.approx(d0.varrho, abs=1e-12)


def test_em_decompose_static_frame(schw_jet):
    from hyperlab.foliation import FrameSet
    x = schw_jet.x
    n = float(schw_jet.lapse)
    rad = np.zeros(4)
    rad[1:] = x[1:] / 5.0
    T = np.array([1.0 / n, 0, 0, 0])
    N = n * rad
    tet = ng.hat_tetrad(schw_jet)
    fr = FrameSet(T=T, N=N, Nbar=N, B=T, L=T + N, Lb=T - N, eA=tet.eA,
                  g=schw_jet.g, x=x)
    em = ng.em_decompose(schw_jet, fr, which="T")
    assert em.E[0, 0] == pytest.approx(-0.001507712, abs=1e-8)
    assert em.E[1, 1] == pytest.approx(0.000753856, abs=1e-8)
    assert em.E[2, 2] == pytest.approx(0.000753856, abs=1e-8)
    assert np.abs(em.H).max() < 1e-12
    assert abs(np.trace(em.E)) <= 1e-9 * np.abs(em.E).max()
    # Bel-Robinson two ways: direct contraction vs |E|^2 + |H|^2
    q = ng.bel_robinson_scalar(schw_jet, T, T, T, T)
    assert q == pytest.approx(float(np.sum(em.E**2) + np.sum(em.H**2)),
                              abs=1e-10)


def test_bel_robinson_minkowski_zero():
    jet = curvature_at(MINK, [0.0, 1.0, 2.0, 0.5])
    v = np.array([1.0, 0.1, 0.2, 0.0])
    assert ng.bel_robinson_scalar(jet, v, v, v, v) == 0.0


@settings(max_examples=15, deadline=None)
@given(r=st.floats(3.0, 20.0), zeta=st.floats(0.0, 1.5),
       costh=st.floats(-0.9, 0.9))
def test_bel_robinson_positivity(r, zeta, costh):
    # Q(X,X,X,X) >= 0 for future causal X, here a boosted observer
    x = np.array([0.0, r, 0.0, 0.0])
    jet = curvature_at(SCHW, x)
    sinth = np.sqrt(1 - costh**2)
    w = np.array([sinth, 0.0, costh])
    n = float(jet.lapse)
    e0 = np.array([1.0 / n, 0, 0, 0])
    X = np.cosh(zeta) * e0
    # boost within the orthonormal static frame
    from hyperlab.geodesic import frame_at_origin
    fr = frame_at_origin(SCHW, x)
    X = np.cosh(zeta) * fr[0] + np.sinh(zeta) * (w @ fr[1:])
    q = ng.bel_robinson_scalar(jet, X, X, X, X)
    assert q >= -1e-18


def test_gauss_residual_schwarzschild_sphere():
    cf = ng.schwarzschild_closed_forms(0.05, 5.0)
    n = np.sqrt(4.9 / 5.1)
    # static pair normalized to <L, Lb> = -2 carries a factor n
    res = ng.gauss_residual(cf["K_sphere"], n * cf["trchi_s"],
                            n * cf["trchib_s"], np.zeros((2, 2)),
                            np.zeros((2, 2)), 4.0 * cf["varrho_hat_n4"])
    assert abs(res) < 1e-8
    # the displayed closure: K - (r-2M)/(r+2M)^3 = -n^-4 varrho_hat
    assert cf["K_sphere"] - 4.9 / 5.1**3 == pytest.approx(0.0015077157,
                                                          abs=1e-8)


def test_gauss_residual_minkowski_round_sphere():
    r = 4.0
    res = ng.gauss_residual(1.0 / r**2, 2.0 / r, -2.0 / r, np.zeros((2, 2)),
                            np.zeros((2, 2)), 0.0)
    assert abs(res) < 1e-14


def test_gauss_residual_offset_slice_with_fd_oracle():
    # K from an independent angular finite-difference curvature oracle
    from hyperlab.foliation import leaf_slice
    from oracles import gauss_curvature_axisym
    origin = np.array([0.0, 0.2, 0.0, 0.0])
    nth = 33
    thetas = np.linspace(0.2, np.pi - 0.2, nth)
    nodes = [(float(th), 0.0, 1.0) for th in thetas]
    sl = leaf_slice(GLUED, origin, 50.0, 10.0, nodes)
    fr = sl.frames.frames
    from hyperlab.foliation import param_tangents
    E = np.empty(nth)
    G = np.empty(nth)
    for i, rec in enumerate(sl.records):
        st = rec.state_at(10.0)
        p = param_tangents([rec], st["j"][None])[0]
        gradF = np.array([1.0, 0, 0, 0])
        dz = -(p[1:] @ gradF) / (p[0] @ gradF)
        tang = p[1:] + dz[:, None] * p[0]
        gam = np.einsum('ai,ij,bj->ab', tang, fr.g[i], tang)
        E[i], G[i] = gam[0, 0], gam[1, 1]
        assert abs(gam[0, 1]) < 1e-8 * max(E[i], G[i])
    K_or = gauss_curvature_axisym(thetas, E, G)
    for i in (nth // 2 - 2, nth // 2, nth // 2 + 2):
        jet = curvature_at(GLUED, fr.x[i])
        w_ll = np.einsum('abcd,a,b,c,d->', jet.weyl, fr.L[i], fr.Lb[i],
                         fr.L[i], fr.Lb[i])
        res = ng.gauss_residual(K_or[i], sl.trchi[i], sl.trchib[i],
                                sl.chihat[i], sl.chibhat[i], w_ll)
        assert abs(res) < 1e-4


def test_schwarzschild_closed_forms_values():
    cf = ng.schwarzschild_closed_forms(0.05, 5.0)
    assert cf["varrho_hat_n4"] == pytest.approx(-0.001507712, abs=1e-8)
    assert cf["trchi_s"] == pytest.approx(0.39215686, abs=1e-7)
    assert cf["trchib_s"] == pytest.approx(-0.39215686, abs=1e-7)
    assert cf["K_sphere"] == pytest.approx(0.03844675, abs=1e-7)
    assert cf["gamma_r"] == pytest.approx(5.3178470, abs=1e-6)
    flat = ng.schwarzschild_closed_forms(0.0, 4.0)
    assert flat["varrho_hat_n4"] == 0.0
    assert flat["trchi_s"] == pytest.approx(0.5)
    assert flat["K_sphere"] == pytest.approx(1.0 / 16.0)
    assert flat["gamma_r"] == 4.0
    with pytest.raises(Horizon):
        ng.schwarzschild_closed_forms(0.05, 0.1)


def test_intrinsic_tetrad_null_relations_deep_zone(offset_record):
    # alpha = alphab, beta = betab, sigma = 0 in the intrinsic tetrad
    rho = 50.0
    fr = frames_at(GLUED, offset_record, rho)
    jet = curvature_at(GLUED, fr.x)
    dec = ng.null_decompose(jet, ng.intrinsic_tetrad(fr))
    vr = abs(dec.varrho)
    assert np.abs(dec.alpha - dec.alphab).max() <= 1e-6 * vr
    assert np.abs(dec.beta - dec.betab).max() <= 1e-6 * vr
    assert abs(dec.sigma) <= 1e-6 * vr
    assert np.abs(dec.betab).max() > 1e-12      # offset makes it nonzero


def test_varrho_consistency_centered(glued_record):
    out = ng.varrho_consistency(GLUED, glued_record, 25.0)
    assert out["varrho_direct"] == pytest.approx(out["varrho_formula"],
                                                 rel=1e-8)
    assert abs(out["varpi"] - 1.0) < 0.2


def test_varrho_consistency_offset(offset_record):
    out = ng.varrho_consistency(GLUED, offset_record, 50.0)
    assert out["varrho_direct"] == pytest.approx(out["varrho_formula"],
                                                 rel=1e-6)
    assert np.abs(out["betab_direct"] - out["betab_formula"]).max() <= \
        1e-6 * max(np.abs(out["betab_formula"]).max(), abs(out["varrho_direct"]))


def test_varrho_consistency_outside_zone(glued_record):
    with pytest.raises(OutsideZs):
        ng.varrho_consistency(GLUED, glued_record, 1.0)


def test_varrho_consistency_minkowski():
    rec = exp_map(MINK, np.zeros(4), Direction(1.0, (1, 0, 0)), [5.0],
                  with_jacobi=True, with_k=True)
    out = ng.varrho_consistency(MINK, rec, 5.0)
    assert abs(out["varrho_direct"]) < 1e-14
    assert abs(out["varrho_formula"]) < 1e-14


def test_weyl_current_vacuum_and_constant():
    assert np.abs(ng.weyl_current(np.zeros((4, 4, 4)))).max() == 0.0
    # constant Schouten field in flat space: covariant derivative vanishes
    jet = metric_at(MINK, [0.0, 1.0, 0.0, 0.0], level=2)
    S = np.diag([0.3, 0.1, 0.1, 0.1])
    dS = ng.covariant_schouten_derivative(jet, S, np.zeros((4, 4, 4)))
    assert np.abs(ng.weyl_current(dS)).max() == 0.0


def test_weyl_current_vs_symbolic_oracle():
    # S from the scalar-field formula with a Gaussian profile; the partial
    # derivatives are generated symbolically with sympy at probe points
    import sympy as sp
    ts, xs, ys, zs = sp.symbols('t x y z')
    w, A = sp.Rational(1, 2), sp.Rational(3, 4)
    phi_s = A * sp.exp(-((xs - 1)**2 + ys**2 + zs**2 + (ts / 2)**2) / w**2)
    coords = (ts, xs, ys, zs)
    eta = sp.diag(-1, 1, 1, 1)
    dphi_s = [sp.diff(phi_s, c) for c in coords]
    grad2 = sum(eta[m, m] * dphi_s[m]**2 for m in range(4))
    S_s = sp.Matrix(4, 4, lambda a, b: dphi_s[a] * dphi_s[b]
                    - eta[a, b] * (grad2 - phi_s**2) / 6)
    dS_s = [[[sp.diff(S_s[a, b], coords[m]) for b in range(4)]
             for a in range(4)] for m in range(4)]
    J_s = [[[sp.simplify(sp.Rational(1, 2)
                         * (dS_s[c][b][d] - dS_s[d][b][c]))
             for d in range(4)] for c in range(4)] for b in range(4)]
    jet = metric_at(MINK, [0.0, 1.0, 0.0, 0.0], level=2)
    for pt in ([0.2, 1.3, 0.1, -0.2], [0.0, 0.8, 0.4, 0.0],
               [-0.1, 1.0, 0.0, 0.3]):
        subs = dict(zip(coords, pt))
        # numeric side: finite-difference partials of the packaged S field
        h = 1e-5
        def S_num(p):
            jloc = metric_at(MINK, p, level=0)
            phi = float(phi_s.subs(dict(zip(coords, p))))
            dphi = np.array([float(d.subs(dict(zip(coords, p))))
                             for d in dphi_s])
            return schouten_scalar_field(jloc, dphi, phi)
        dS_num = np.zeros((4, 4, 4))
        for mu in range(4):
            dp = np.zeros(4)
            dp[mu] = h
            dS_num[mu] = (S_num(np.array(pt) + dp)
                          - S_num(np.array(pt) - dp)) / (2 * h)
        J_num = ng.weyl_current(dS_num)
        J_ref = np.array([[[float(J_s[b][c][d].subs(subs))
                            for d in range(4)] for c in range(4)]
                          for b in range(4)])
        assert np.abs(J_num - J_ref).max() < 1e-6
        # antisymmetry in the last index pair
        assert np.abs(J_num + np.swapaxes(J_num, -2, -1)).max() < 1e-12


def test_h_metric_and_oneform_energy():
    jet = metric_at(MINK, [0.0, 1.0, 0.0, 0.0], level=0)
    T = np.array([1.0, 0, 0, 0])
    h, h_inv = ng.h_metric(jet, T)
    assert np.allclose(h, np.eye(4))
    assert np.allclose(h @ h_inv, np.eye(4), atol=1e-14)
    # constant 1-form: Q_mn = -(m/2) g_mn |F|_h^2
    F = np.array([0.3, 0.2, 0.0, 0.0])
    Q = ng.q_oneform(jet, F, np.zeros((4, 4)), T, kg_mass=1.0)
    fh = float(F @ h_inv @ F)
    assert np.allclose(Q, -0.5 * jet.g * fh, atol=1e-14)
