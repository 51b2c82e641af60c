import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.errors import (CentralLineDegenerate, CoordinateSingularity,
                             UnsupportedLevel)
from hyperlab.geodesic import _make_rhs
from hyperlab.metric import (HORIZON_MARGIN, MetricModel, _orthonormalize,
                             _orthonormalize_stacked, _exterior_ray,
                             _ray_terms, curvature_at, metric_at)

from oracles import cartesian_level2, jet_ray_rhs, orthonormalize, riemann_fd

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


@pytest.mark.parametrize("model, x", [
    (MetricModel.glued(0.3), [0.0, 0.6, 0.0, 0.0]),     # r = 2M
    (MetricModel.glued(0.45), [0.0, 0.0, 0.9, 0.0]),    # r = 2M, near r_in
    (MetricModel.glued(0.45), [0.0, 0.3, 0.0, -0.4]),   # r = 0.5 < 2M
], ids=["m03-r06", "m045-r09", "m045-r05"])
def test_glued_core_flat_inside_schwarzschild_horizon(model, x):
    # where 2M >= r_in / 2 the core holds radii at which the Schwarzschild
    # chart is singular; the blend weights are exactly 0 there, so the
    # jet and the geodesic terms are exactly flat
    jet = metric_at(model, x, level=2)
    assert np.array_equal(jet.g, np.diag([-1.0, 1, 1, 1]))
    assert np.array_equal(jet.g_inv, np.diag([-1.0, 1, 1, 1]))
    assert np.abs(jet.gamma).max() == 0.0
    assert np.abs(jet.riemann).max() == 0.0
    xb = np.array([x])
    b = np.array([[1.25, 0.6, 0.0, -0.45]])
    gb, T = _ray_terms(model, xb, b)
    assert np.abs(gb).max() == 0.0 and np.abs(T).max() == 0.0


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


@pytest.mark.parametrize("model, xs", [
    (MINK, [[0.1, 0.3, -0.2, 0.5]]),
    (SCHW, [[0.4, 3.0, 1.0, -2.0], [0.0, 0.3, 0.2, -0.1]]),
    (GLUED, [[0.0, 1.4, 0.3, -0.6], [0.0, 1.05, 0.0, 0.2],
             [0.0, 2.5, -1.0, 0.7]]),
], ids=["minkowski", "schwarzschild", "glued"])
def test_riemann_algebraic_symmetries_exact(model, xs):
    # the points of test_riemann_matches_gamma_difference_oracle: the
    # Kulkarni-Nomizu build makes the pair symmetries exact, and leaves the
    # first Bianchi sum at rounding
    R = metric_at(model, xs, level=2).riemann
    assert np.abs(R + np.swapaxes(R, -4, -3)).max() == 0.0
    assert np.abs(R + np.swapaxes(R, -2, -1)).max() == 0.0
    assert np.abs(R - np.einsum('...abcd->...cdab', R)).max() == 0.0
    bianchi = (R + np.einsum('...acdb->...abcd', R)
               + np.einsum('...adbc->...abcd', R))
    assert np.all(_lane_max(bianchi) <= 1e-15 * _lane_max(R))


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


def test_orthonormalize_stacked_matches_point_rule():
    # the stacked Gram-Schmidt gives each point the per-point rule's result
    # bit for bit, each point with its own candidates, also where a point
    # skips a candidate parallel to a fixed vector and its neighbours do not
    rng = np.random.default_rng(5)
    x = np.zeros((24, 4))
    x[:, 1:] = rng.normal(size=(24, 3)) * 1.5
    g = metric_at(GLUED, x, level=0).g
    fixed = np.stack([np.stack(_boosted_pair(gi, z)) for gi, z in
                      zip(g, rng.uniform(0.0, 3.0, 24))])
    cands = np.stack([np.eye(4)[1:][rng.permutation(3)] for _ in range(24)])
    cands = np.concatenate([cands[:, :1], cands], axis=1)
    cands[::3, 0] = 2.5 * fixed[::3, 1]         # no remainder: skipped
    for keep, k in ((2, 2), (3, 1)):
        got = _orthonormalize_stacked(g, fixed[:, :k], cands, keep)
        for i in range(len(x)):
            want = orthonormalize(g[i], list(fixed[i, :k]), cands[i], keep)
            assert np.array_equal(got[i], want)
    with pytest.raises(CentralLineDegenerate):
        _orthonormalize_stacked(g, fixed, cands[:, :2], 2)


GUARD = 2.0 * SCHW.mass * (1.0 + HORIZON_MARGIN) * (1.0 + 1e-12)  # lowest r allowed


def _ray_states(model, radii, seed):
    """Random lane states at the given radii: random directions (plus the
    six axis directions, so listed radii are hit exactly), random times and
    spatial velocities, B^t from <B, B> = -1."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(len(radii), 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    d[:6] = np.vstack([np.eye(3), -np.eye(3)])[:len(d)]
    x = np.zeros((len(radii), 4))
    x[:, 0] = rng.uniform(0.0, 5.0, len(radii))
    x[:, 1:] = radii[:, None] * d
    b = np.zeros_like(x)
    b[:, 1:] = rng.normal(size=(len(radii), 3))
    g = metric_at(model, x, level=0).g
    vv = np.einsum('nij,ni,nj->n', g[:, 1:, 1:], b[:, 1:], b[:, 1:])
    b[:, 0] = np.sqrt((1.0 + vv) / -g[:, 0, 0])
    return x, b


def _lane_max(a):
    return np.abs(a).reshape(len(a), -1).max(axis=1)


@pytest.mark.parametrize("lo, hi, bound", [
    (0.05, 0.95, 0.0), (1.05, 1.95, 1e-9), (2.05, 20.0, 1e-9)],
    ids=["core", "annulus", "exterior"])
def test_cartesian_d2g_matches_fd_of_dg(lo, hi, bound):
    # the oracle's second derivatives of g against the 4th-order central
    # difference (h = 1e-3) of metric_at's level-1 dg, at random points of
    # each zone of the glued M = 0.05 model; the difference reads <= 7.6e-11
    # (annulus) and 5.7e-12 (exterior) of the point's largest entry, and
    # both are exact zeros in the flat core
    model, h = MetricModel.glued(0.05), 1e-3
    rng = np.random.default_rng(3)
    d = rng.normal(size=(20, 3))
    x = np.zeros((20, 4))
    x[:, 0] = rng.uniform(0.0, 5.0, 20)
    x[:, 1:] = d * (rng.uniform(lo, hi, 20)
                    / np.linalg.norm(d, axis=1))[:, None]
    d2g = cartesian_level2(model, x)[0]
    fd = np.zeros_like(d2g)         # d_t of the static dg is 0
    for k in (1, 2, 3):
        dgs = [metric_at(model, x + s * h * np.eye(4)[k], level=1).dg
               for s in (-2, -1, 1, 2)]
        fd[:, k] = (dgs[0] - 8.0 * dgs[1] + 8.0 * dgs[2] - dgs[3]) / (12.0 * h)
    assert np.all(_lane_max(fd - d2g) <= bound * _lane_max(d2g))


@pytest.mark.parametrize("model, lo, hi, exact, vacuum", [
    (MINK, 0.0, 5.0, [0.0, 1.0], True),
    (GLUED, 0.0, 1.0, [0.0, 1.0], True),           # flat core, r_in included
    (GLUED, 1.0, 2.0, [1.0, 2.0], False),          # blend annulus
    (GLUED, 2.0, 60.0, [2.0], True),               # exterior
    (MetricModel.glued(0.05), 1.0, 2.0, [1.0, 2.0], False),
    (SCHW, 0.3, 60.0, [0.3], True),
    (SCHW, GUARD, GUARD * (1.0 + 1e-3), [GUARD], True),  # horizon margin
], ids=["minkowski", "glued-core", "glued-annulus", "glued-exterior",
        "glued-m005-annulus", "schwarzschild", "schwarzschild-horizon"])
def test_ray_terms_match_jet(model, lo, hi, exact, vacuum):
    # The closed-form Gamma(B, .) and tidal tensor, and the RHS built on
    # them, against the contractions of the level-1 jet and of the
    # Cartesian Riemann of cartesian_level2.  The bound is 1e-13 of the size
    # of the terms the jet sums (g^{-1} dg for Gamma, d2g and Gamma dg for
    # Riemann, times the |B| factors), which is where its own rounding sits:
    # near the horizon the Cartesian T is only good to ~1e-9 of |T| while
    # those terms are ~1e10 |T|.  In the flat core both are exact zeros.
    radii = np.concatenate([exact, np.random.default_rng(7).uniform(lo, hi, 200)])
    x, b = _ray_states(model, radii, seed=11)
    jet = metric_at(model, x, level=1)
    d2g, riemann = cartesian_level2(model, x)
    gb, T = _ray_terms(model, x, b)
    # the jet's g^{-1}, which the scales below and the vacuum check read:
    # g g^{-1} = I at level 0 to the rounding of the product, measured
    # <= 4.4e-16 of |g| |g^{-1}| (3.1e-11 absolute at the horizon margin,
    # where both reach 2e6), and exactly in the flat core
    jet0 = metric_at(model, x, level=0)
    eye = jet0.g @ jet0.g_inv - np.eye(4)
    assert np.all(_lane_max(eye) <= 1e-15 * _lane_max(jet0.g)
                  * _lane_max(jet0.g_inv))
    babs = np.abs(b).sum(axis=1)
    s_gb = _lane_max(jet.g_inv) * _lane_max(jet.dg) * babs
    s_T = (_lane_max(d2g) + _lane_max(jet.gamma) * _lane_max(jet.dg)) * babs**2
    ref_gb = np.einsum('nlmk,nm->nlk', jet.gamma, b)
    ref_T = np.einsum('nabcd,na,nc->nbd', riemann, b, b)
    assert np.all(_lane_max(gb - ref_gb) <= 1e-13 * s_gb)
    assert np.all(_lane_max(T - ref_T) <= 1e-13 * s_T)
    if vacuum:
        # Ric(B, B) = g^bd T_bd = 0 holds without the jet's curvature; it
        # reads <= 8e-12 of its terms at the horizon margin and <= 2.4e-15
        # elsewhere
        terms = np.einsum('nbd,nbd->n', np.abs(jet.g_inv), np.abs(T))
        assert np.all(np.abs(np.einsum('nbd,nbd->n', jet.g_inv, T))
                      <= 1e-10 * terms)

    rng = np.random.default_rng(5)
    for with_k, dim in ((False, 8), (True, 38)):
        y = rng.normal(size=(len(x), dim))
        y[:, 0:4], y[:, 4:8] = x, b
        got, ref = _make_rhs(model, with_k)(y), jet_ray_rhs(model, with_k)(y)
        # every term that differs is gb times at most two state factors, or
        # T times j and two triad rows, which the same scale still bounds
        s_rhs = ((s_gb + (1.0 + _lane_max(jet.g_inv)) * s_T)
                 * np.maximum(1.0, _lane_max(y)) ** 2)
        assert np.all(_lane_max(got - ref) <= 1e-13 * s_rhs)


@pytest.mark.parametrize("model, radii", [
    (GLUED, np.concatenate([[2.0], np.geomspace(2.0, 60.0, 40)])),
    (SCHW, np.concatenate([[GUARD], 2.0 * SCHW.mass + np.geomspace(
        GUARD - 2.0 * SCHW.mass, 60.0, 60)])),
], ids=["glued-exterior", "schwarzschild"])
def test_exterior_vacuum_ricci(model, radii):
    # on the Schwarzschild chart K = (-2, 1, -1, 2) 2M/R^3, so the level-2
    # jet is vacuum to rounding, down to the horizon margin
    x, _ = _ray_states(model, radii, seed=17)
    jet = metric_at(model, x, level=2)
    assert np.all(_lane_max(jet.ricci) <= 1e-14 * _lane_max(jet.riemann))


def test_ray_terms_batch_independent_across_zones():
    # lanes in the core, at r_in, in the annulus, at r_out and outside: each
    # lane of the mixed batch is the lane alone, bit for bit, and each
    # exterior lane is its value in an all-exterior batch
    radii = np.array([0.0, 0.4, 1.0, 1.3, 1.9, 2.0, 2.7, 15.0])
    x, b = _ray_states(GLUED, radii, seed=19)
    outer = radii >= GLUED.r_out
    mixed = _ray_terms(GLUED, x, b)
    ext = _ray_terms(GLUED, x[outer], b[outer])
    for i in range(len(x)):
        alone = _ray_terms(GLUED, x[i:i + 1], b[i:i + 1])
        for got, ref in zip(mixed, alone):
            assert got[i:i + 1].tobytes() == ref.tobytes(), i
    for got, ref in zip(mixed, ext):
        assert got[outer].tobytes() == ref.tobytes()


@pytest.mark.parametrize("payload", [False, True], ids=["plain", "payload"])
def test_rhs_batch_independent_across_zones(payload):
    # the right-hand side at the radii of the _ray_terms test: each lane of
    # a mixed batch is the lane alone, bit for bit, and each exterior lane
    # is its value in an all-exterior batch
    radii = np.array([0.0, 0.4, 1.0, 1.3, 1.9, 2.0, 2.7, 15.0])
    x, b = _ray_states(GLUED, radii, seed=23)
    rng = np.random.default_rng(29)
    y = rng.normal(size=(len(x), 8 + 30 * payload))
    y[:, 0:4], y[:, 4:8] = x, b
    rhs = _make_rhs(GLUED, payload)
    mixed = rhs(y)
    for i in range(len(y)):
        assert mixed[i:i + 1].tobytes() == rhs(y[i:i + 1]).tobytes(), i
    outer = radii >= GLUED.r_out
    assert mixed[outer].tobytes() == rhs(y[outer]).tobytes()


def _mp_ray_coefs(M, r):
    """_general_ray at one radius, at 60 digits, from its formulas on
    F = (r - 2M)/(r + 2M), A = (r + 2M)^2/r^2 and Bc = (1/F - A)/r^2, every
    derivative by mpmath.diff, and K1-K4 from the formulas of
    metric._radial_terms' docstring (C = A + Bc r^2, S = A r^2)."""
    with mpmath.workdps(60):
        M, r = mpmath.mpf(M), mpmath.mpf(float(r))

        def F(s):
            return (s - 2 * M) / (s + 2 * M)

        def A(s):
            return (s + 2 * M) ** 2 / s ** 2

        def Bc(s):
            return (1 / F(s) - A(s)) / s ** 2

        def C(s):
            return A(s) + Bc(s) * s ** 2

        def S(s):
            return A(s) * s ** 2

        d = mpmath.diff
        f, a, bc, c, sa = F(r), A(r), Bc(r), C(r), S(r)
        hA = d(A, r) / (2 * a)
        coefs = [1 / r, d(F, r) / (2 * f), d(F, r) / (2 * c), hA,
                 (bc * r - d(A, r) / 2) / c,
                 r ** 2 * (d(Bc, r) / 2 - 2 * bc * hA) / c, f, c, a]
        dF, d2F, dC = d(F, r), d(F, r, 2), d(C, r)
        dS, d2S = d(S, r), d(S, r, 2)
        coefs += [(2 * c * f * d2F - c * dF ** 2 - f * dC * dF)
                  / (4 * c ** 2 * f ** 2),
                  dF * dS / (4 * c * f * sa),
                  (-2 * c * sa * d2S + c * dS ** 2 + sa * dC * dS)
                  / (4 * c ** 2 * sa ** 2),
                  (4 * c * sa - dS ** 2) / (4 * c * sa ** 2)]
        return np.array([float(v) for v in coefs])


def test_exterior_ray_coefs_match_mpmath():
    # the closed forms of the Schwarzschild chart (the Gamma(B, B) scalars,
    # the metric factors and K1-K4 of _exterior_ray) against their general
    # form at 60 digits, from r = 15 down to the horizon margin, where the
    # jet is no oracle (it cancels large terms of C)
    radii = np.concatenate([[GUARD], 2.0 * SCHW.mass + np.geomspace(
        GUARD - 2.0 * SCHW.mass, 15.0 - 2.0 * SCHW.mass, 24)])
    got = np.array(_exterior_ray(SCHW.mass, radii, True)).T
    for r, g in zip(radii, got):
        ref = _mp_ray_coefs(SCHW.mass, r)
        assert np.all(np.abs(g - ref) <= 4e-15 * np.abs(ref)), r


def _mp_tidal(M, x, b):
    """T_bd = R_abcd B^a B^c of the Schwarzschild chart at one point, at 60
    digits: K1-K4 of F = (r - 2M)/(r + 2M), C = 1/F, S = (r + 2M)^2 from
    their closed-form derivatives, contracted through
    KN(h, k)(B, ., B, .) = h(B, B) k + k(B, B) h - (hB)(kB) - (kB)(hB)."""
    with mpmath.workdps(60):
        M = mpmath.mpf(M)
        xs = [mpmath.mpf(float(c)) for c in x[1:]]
        B = mpmath.matrix([mpmath.mpf(float(c)) for c in b])
        r = mpmath.sqrt(sum(c * c for c in xs))
        rp, rm = r + 2 * M, r - 2 * M
        F, dF, d2F = rm / rp, 4 * M / rp**2, -8 * M / rp**3
        C, dC = rp / rm, -4 * M / rm**2
        S, dS, d2S = rp**2, 2 * rp, 2
        K1 = (2 * C * F * d2F - C * dF**2 - F * dC * dF) / (4 * C**2 * F**2)
        K2 = dF * dS / (4 * C * F * S)
        K3 = (-2 * C * S * d2S + C * dS**2 + S * dC * dS) / (4 * C**2 * S**2)
        K4 = (4 * C * S - dS**2) / (4 * C * S**2)
        u = [c / r for c in xs]
        tt, rr, P = (mpmath.zeros(4, 4) for _ in range(3))
        tt[0, 0] = F
        for i in range(3):
            for j in range(3):
                rr[i + 1, j + 1] = C * u[i] * u[j]
                P[i + 1, j + 1] = S / r**2 * (int(i == j) - u[i] * u[j])
        T = mpmath.zeros(4, 4)
        for h, k in ((tt, K1 * rr + K2 * P), (K3 * rr + K4 / 2 * P, P)):
            hB, kB = h * B, k * B
            hBB, kBB = (B.T * hB)[0], (B.T * kB)[0]
            T += hBB * k + kBB * h - hB * kB.T - kB * hB.T
        return np.array(T.tolist(), dtype=float)


@pytest.mark.parametrize("gaps, bound", [
    (np.geomspace(9e-6, 7e-5, 8), 1e-11),
    (np.array([0.02, 0.5, 3.0]), 1e-14),
], ids=["near-horizon", "away"])
def test_level2_tidal_matches_mpmath(gaps, bound):
    # R(B, ., B, .) of metric_at's level 2, B unit timelike, against K1-K4
    # at 60 digits where r - 2M = gaps; Cartesian second derivatives cancel
    # large terms of C here and read up to 1.7e-9 of |T| on these states
    x, b = _ray_states(SCHW, 2.0 * SCHW.mass + gaps, seed=13)
    T = np.einsum('nabcd,na,nc->nbd', metric_at(SCHW, x, level=2).riemann,
                  b, b)
    for Tn, xn, bn in zip(T, x, b):
        ref = _mp_tidal(SCHW.mass, xn, bn)
        assert np.abs(Tn - ref).max() <= bound * np.abs(ref).max()
