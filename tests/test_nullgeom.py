import numpy as np
import pytest

from hyperlab import nullgeom as ng
from hyperlab.errors import BadTetrad, Horizon, OutsideZs
from hyperlab.foliation import frames_at
from hyperlab.geodesic import Direction, exp_map
from hyperlab.metric import MetricModel, curvature_at

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
                  with_k=True)
    out = ng.varrho_consistency(MINK, rec, 5.0)
    assert abs(out["varrho_direct"]) < 1e-14
    assert abs(out["varrho_formula"]) < 1e-14
