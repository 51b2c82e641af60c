import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.errors import (CentralLineDegenerate, CoordinateSingularity,
                             UnsupportedLevel)
from hyperlab.metric import (MetricModel, _orthonormalize, curvature_at,
                             metric_at, schouten_scalar_field)

from oracles import riemann_fd

MINK = MetricModel.minkowski()
SCHW = MetricModel.schwarzschild(0.05)
GLUED = MetricModel.glued(0.01)


def riemann_symmetry_residuals(jet):
    R = jet.riemann
    return max(
        np.abs(R + np.swapaxes(R, -4, -3)).max(),
        np.abs(R + np.swapaxes(R, -2, -1)).max(),
        np.abs(R - np.einsum('...abcd->...cdab', R)).max(),
        np.abs(R + np.einsum('...acdb->...abcd', R)
               + np.einsum('...adbc->...abcd', R)).max(),
    )


def test_minkowski_flat():
    jet = metric_at(MINK, [0.3, 1.0, -2.0, 0.5], level=2)
    assert np.allclose(jet.g, np.diag([-1.0, 1, 1, 1]))
    assert np.abs(jet.gamma).max() == 0.0
    assert np.abs(jet.riemann).max() == 0.0
    assert np.abs(jet.weyl).max() == 0.0
    assert np.abs(jet.schouten).max() == 0.0


def test_schwarzschild_closed_form_components():
    # chart values at r = 5, M = 0.05
    jet = metric_at(SCHW, [0.0, 5.0, 0.0, 0.0], level=1)
    assert jet.g[0, 0] == pytest.approx(-0.96078431372549, abs=1e-10)
    assert jet.g[1, 1] == pytest.approx(1.04081632653061, abs=1e-10)
    # Gamma^r_tt on the x-axis is the x-component
    assert jet.gamma[1, 0, 0] == pytest.approx(0.003693904, abs=1e-9)
    # polar Gamma^r_thth = r^2 Gamma^x_zz - r must equal -(r - 2M) = -4.9
    assert 25.0 * jet.gamma[1, 3, 3] - 5.0 == pytest.approx(-4.9, abs=1e-12)
    assert np.abs(jet.gamma - np.swapaxes(jet.gamma, -2, -1)).max() == 0.0


def test_schwarzschild_vacuum_and_symmetries():
    for r in (3.0, 5.0, 10.0):
        x = np.array([1.0, 0.0, r / np.sqrt(2), r / np.sqrt(2)])
        jet = curvature_at(SCHW, x)
        assert np.abs(jet.ricci).max() < 1e-7
        assert riemann_symmetry_residuals(jet) < 1e-8
        tracew = np.einsum('ac,abcd->bd', jet.g_inv, jet.weyl)
        assert np.abs(tracew).max() < 1e-7


def test_weyl_hat_contraction_closed_form():
    jet = curvature_at(SCHW, [0.0, 5.0, 0.0, 0.0])
    n2 = -jet.g[0, 0]
    L = np.array([1.0, n2, 0, 0])
    Lb = np.array([1.0, -n2, 0, 0])
    q = 0.25 * np.einsum('abcd,a,b,c,d->', jet.weyl, L, Lb, L, Lb) / n2**2
    assert q == pytest.approx(-4 * 0.05 / 5.1**3, rel=1e-12)
    assert q == pytest.approx(-0.001507712, abs=1e-7)


def test_glued_flat_core_and_exterior():
    core = metric_at(GLUED, [0.2, 0.5, 0.1, 0.0], level=2)
    assert np.abs(core.g - np.diag([-1.0, 1, 1, 1])).max() == 0.0
    assert np.abs(core.riemann).max() == 0.0
    x = np.array([0.0, 0.0, 3.0, 4.0])
    outer = metric_at(GLUED, x, level=2)
    ref = metric_at(MetricModel.schwarzschild(0.01), x, level=2)
    assert np.abs(outer.g - ref.g).max() == 0.0
    assert np.abs(outer.riemann - ref.riemann).max() == 0.0
    assert np.abs(outer.ricci).max() < 1e-7


def test_glued_annulus_symmetries_and_weyl_trace():
    x = np.array([0.0, 1.4, 0.3, 0.2])
    jet = curvature_at(GLUED, x)
    assert riemann_symmetry_residuals(jet) < 1e-5
    tracew = np.einsum('ac,abcd->bd', jet.g_inv, jet.weyl)
    assert np.abs(tracew).max() < 1e-7
    # the blend annulus is not vacuum
    assert np.abs(jet.ricci).max() > 1e-6


@pytest.mark.parametrize("model, x", [
    (MINK, [0.1, 0.3, -0.2, 0.5]),
    (SCHW, [0.4, 3.0, 1.0, -2.0]),
    (SCHW, [0.0, 0.3, 0.2, -0.1]),       # r = 0.37: strong field
    (GLUED, [0.0, 1.4, 0.3, -0.6]),      # inside the blend annulus
    (GLUED, [0.0, 1.05, 0.0, 0.2]),      # annulus, near r_in
    (GLUED, [0.0, 2.5, -1.0, 0.7]),      # exterior
], ids=["minkowski", "schwarzschild", "schwarzschild-near", "glued-annulus",
        "glued-annulus-inner", "glued-exterior"])
def test_riemann_matches_gamma_difference_oracle(model, x):
    R = metric_at(model, x, level=2).riemann
    ref = riemann_fd(model, x)
    scale = max(np.abs(ref).max(), 1e-300)
    assert np.abs(R - ref).max() <= 1e-8 * scale + 1e-14


def test_lazy_curvature_fields_scalar_input():
    x = np.array([0.0, 1.4, 0.3, -0.6])
    one = metric_at(GLUED, x, level=2)
    batch = metric_at(GLUED, np.stack([x, 2.0 * x]), level=2)
    for name, shape in (("riemann", (4, 4, 4, 4)), ("ricci", (4, 4)),
                        ("scalar", ()), ("schouten", (4, 4)),
                        ("weyl", (4, 4, 4, 4))):
        got = np.asarray(getattr(one, name))
        assert got.shape == shape, name
        assert np.array_equal(got, getattr(batch, name)[0]), name
    assert getattr(batch, "weyl").shape == (2, 4, 4, 4, 4)
    for level in (0, 1):
        low = metric_at(GLUED, x, level=level)
        assert low.riemann is None and low.weyl is None and low.ricci is None


def test_glued_c2_continuity_at_blend_boundaries():
    # one-sided finite-difference jumps of g and dg across r_in, r_out
    for rb in (GLUED.r_in, GLUED.r_out):
        h = 1e-5
        for field in ("g", "dg"):
            lo = getattr(metric_at(GLUED, [0.0, rb - h, 0.0, 0.0], level=1), field)
            hi = getattr(metric_at(GLUED, [0.0, rb + h, 0.0, 0.0], level=1), field)
            assert np.abs(hi - lo).max() < 1e-6


def test_levi_civita_consistency():
    # Gamma from dg matches a finite-difference of g (independent check)
    x = np.array([0.0, 2.5, 1.0, -0.7])
    jet = metric_at(GLUED, x, level=1)
    h = 1e-6
    dg_fd = np.zeros((4, 4, 4))
    for mu in range(4):
        dx = np.zeros(4)
        dx[mu] = h
        gp = metric_at(GLUED, x + dx, level=0).g
        gm = metric_at(GLUED, x - dx, level=0).g
        dg_fd[mu] = (gp - gm) / (2 * h)
    assert np.abs(dg_fd - jet.dg).max() < 1e-8
    gam = 0.5 * np.einsum('ls,msn->lmn', jet.g_inv,
                          dg_fd + np.swapaxes(dg_fd, 0, 2)
                          - np.swapaxes(dg_fd, 0, 1))
    assert np.abs(gam - jet.gamma).max() < 1e-8


def test_errors():
    with pytest.raises(CoordinateSingularity):
        metric_at(SCHW, [0.0, 0.1, 0.0, 0.0], level=0)
    with pytest.raises(UnsupportedLevel):
        metric_at(MINK, [0.0, 1.0, 0.0, 0.0], level=3)
    with pytest.raises(ValueError):
        MetricModel("schwarzschild", mass=0.0)
    with pytest.raises(ValueError):
        MetricModel("glued", mass=0.6, r_in=1.0, r_out=2.0)


def test_schouten_scalar_field_values():
    jet = metric_at(MINK, [0.0, 1.0, 0.0, 0.0], level=0)
    S0 = schouten_scalar_field(jet, np.zeros(4), 0.0)
    assert np.abs(S0).max() == 0.0
    S1 = schouten_scalar_field(jet, np.array([1.0, 0, 0, 0]), 0.0)
    assert S1[0, 0] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert S1[1, 1] == pytest.approx(1.0 / 6.0, abs=1e-12)
    S2 = schouten_scalar_field(jet, np.zeros(4), 1.0)
    assert np.allclose(S2, jet.g / 6.0)


@settings(max_examples=25, deadline=None)
@given(dphi=st.tuples(*[st.floats(-2, 2) for _ in range(4)]),
       phi=st.floats(-2, 2))
def test_schouten_scalar_field_trace_property(dphi, phi):
    # g^{ab} S_ab = -(1/3) d phi . d phi + (2/3) m phi^2 for any inputs
    jet = metric_at(MINK, [0.0, 1.0, 0.0, 0.0], level=0)
    dphi = np.asarray(dphi)
    S = schouten_scalar_field(jet, dphi, phi)
    tr = np.einsum('ab,ab->', jet.g_inv, S)
    grad2 = np.einsum('a,ab,b->', dphi, jet.g_inv, dphi)
    assert tr == pytest.approx(grad2 / 3.0 + 2.0 / 3.0 * phi**2, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(r=st.floats(2.5, 50.0), costh=st.floats(-0.99, 0.99),
       phi=st.floats(0, 2 * np.pi))
def test_schwarzschild_symmetry_properties(r, costh, phi):
    sinth = np.sqrt(1 - costh**2)
    x = np.array([0.0, r * sinth * np.cos(phi), r * sinth * np.sin(phi),
                  r * costh])
    jet = curvature_at(SCHW, x)
    assert np.abs(jet.ricci).max() < 1e-7 * max(1.0, np.abs(jet.riemann).max())
    assert riemann_symmetry_residuals(jet) < 1e-8


def _boosted_pair(g, zeta=0.7):
    """A g-unit timelike B and a g-unit spacelike Nbar orthogonal to it."""
    T = np.array([1.0 / np.sqrt(-g[0, 0]), 0.0, 0.0, 0.0])
    v = np.array([0.0, 0.6, -0.8, 0.3])
    N = v / np.sqrt(v @ g @ v)
    return (np.cosh(zeta) * T + np.sinh(zeta) * N,
            np.sinh(zeta) * T + np.cosh(zeta) * N)


@pytest.mark.parametrize("model, x", [
    (MINK, [0.0, 0.3, -0.2, 0.5]),
    (SCHW, [0.0, 3.0, 1.0, -2.0]),
    (GLUED, [0.0, 1.4, 0.3, -0.6]),      # inside the blend annulus
], ids=["minkowski", "schwarzschild", "glued"])
def test_orthonormalize_g_orthonormal(model, x):
    g = metric_at(model, x, level=0).g
    fixed = _boosted_pair(g)
    eA = _orthonormalize(g, fixed, np.eye(4)[1:], 2)
    assert np.abs(eA @ g @ eA.T - np.eye(2)).max() <= 1e-12
    assert np.abs(eA @ g @ np.stack(fixed).T).max() <= 1e-12
    # a full spatial triad against the timelike vector alone
    triad = _orthonormalize(g, fixed[:1], np.eye(4)[1:], 3)
    assert np.abs(triad @ g @ triad.T - np.eye(3)).max() <= 1e-12
    assert np.abs(triad @ g @ fixed[0]).max() <= 1e-12


def test_orthonormalize_skips_and_rejects_parallel_candidates():
    g = metric_at(GLUED, [0.0, 1.4, 0.3, -0.6], level=0).g
    B, Nbar = _boosted_pair(g)
    cands = np.eye(4)[1:]
    ref = _orthonormalize(g, [B, Nbar], cands, 2)
    # a candidate parallel to a fixed vector leaves no remainder: skipped
    got = _orthonormalize(g, [B, Nbar], np.vstack([2.5 * Nbar, cands]), 2)
    assert np.abs(got - ref).max() <= 1e-12
    with pytest.raises(CentralLineDegenerate):
        _orthonormalize(g, [B, Nbar], np.stack([2.5 * Nbar, -3.0 * B,
                                                cands[0]]), 2)
