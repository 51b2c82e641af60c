from dataclasses import fields

import numpy as np
import pytest

from hyperlab.errors import SeedRegionTooSmall, SingularityTruncated
from hyperlab.foliation import second_fundamental_fd_oracle
from hyperlab.geodesic import (RHO_SEED_MIN, Direction, GeodesicRecord,
                               _lincomb, _make_rhs, _tableau, exp_map,
                               fan_build, integrate_rays, mat_to_sym6,
                               sym6_to_mat)
from hyperlab.metric import HORIZON_MARGIN, MetricModel, metric_at

from oracles import geodesic_rhs, rk8_fixed

MINK = MetricModel.minkowski()
GLUED = MetricModel.glued(0.01)
SCHW = MetricModel.schwarzschild(0.05)
OFFSET = np.array([0.0, 0.2, 0.0, 0.0])


def minkowski_norm(v):
    return -v[..., 0] ** 2 + np.sum(v[..., 1:] ** 2, axis=-1)


def test_direction_unit_hyperboloid():
    for z in (0.0, 0.5, 3.0, 6.0):
        d = Direction(z, (0.3, -1.2, 0.5))
        V = d.hyperboloid_point()
        assert abs(minkowski_norm(V) + 1.0) < 1e-14 * np.cosh(z) ** 2


@pytest.mark.parametrize("pole", [1.0, -1.0], ids=["north", "south"])
def test_direction_angles_near_poles(pole):
    # theta keeps its relative precision at any tilt off a pole; arccos of
    # omega_z rounds a 1e-8 tilt to theta = 0
    eps = np.finfo(float).eps
    for tilt in 10.0 ** np.arange(-12, -1):
        d = Direction(0.5, (np.sin(tilt) * np.cos(0.7),
                            np.sin(tilt) * np.sin(0.7), pole * np.cos(tilt)))
        theta, phi = d.angles()
        want = tilt if pole > 0 else np.pi - tilt
        assert abs(theta - want) <= 4 * eps * want, tilt
        assert phi == pytest.approx(0.7, rel=1e-14)


def test_sym6_packing_matches_loop_reference():
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    v = np.random.default_rng(3).normal(size=(5, 2, 6))
    ref = np.zeros((5, 2, 3, 3))
    for a, (i, j) in enumerate(pairs):
        ref[..., i, j] = v[..., a]
        ref[..., j, i] = v[..., a]
    m = sym6_to_mat(v)
    assert np.array_equal(m, ref)
    assert np.array_equal(mat_to_sym6(m),
                          np.stack([ref[..., i, j] for i, j in pairs], -1))
    assert np.array_equal(sym6_to_mat(v[0, 0]), ref[0, 0])


def test_minkowski_straight_lines():
    rec = exp_map(MINK, np.zeros(4), Direction(0.0, (1, 0, 0)), [2.5])
    assert np.allclose(rec.x[-1], [2.5, 0, 0, 0], atol=1e-12)
    assert np.allclose(rec.b[-1], [1, 0, 0, 0], atol=1e-12)

    rec = exp_map(MINK, np.zeros(4), Direction(0.5, (1, 0, 0)), [3.0])
    assert np.allclose(rec.x[-1], [3.3828780, 1.5632859, 0, 0], atol=1e-6)
    assert np.allclose(rec.b[-1], [1.1276260, 0.5210953, 0, 0], atol=1e-6)
    assert np.allclose(rec.x[-1],
                       [3 * np.cosh(0.5), 3 * np.sinh(0.5), 0, 0], atol=1e-10)


def test_minkowski_boost_jacobi_closed_form():
    rec = exp_map(MINK, np.zeros(4), Direction(0.5, (1, 0, 0)), [3.0],
                  with_jacobi=True)
    # J1 is the exact Lorentz boost x^1 d_t + t d_1 along the ray
    assert np.allclose(rec.j[-1, 0], [1.5632859, 3.3828780, 0, 0], atol=1e-6)
    assert np.allclose(rec.j[-1, 0],
                       [3 * np.sinh(0.5), 3 * np.cosh(0.5), 0, 0], atol=1e-10)


def test_minkowski_exactness_large_rho():
    rec = exp_map(MINK, np.zeros(4), Direction(1.3, (0, 0.6, 0.8)),
                  [10.0, 50.0, 100.0], with_jacobi=True, with_k=True)
    V = rec.v0
    for i, rho in enumerate(rec.rho):
        assert np.abs(rec.x[i] - rho * V).max() < 1e-10
        assert np.abs(rec.b[i] - V).max() < 1e-10
    assert np.abs(rec.q0).max() < 1e-10
    assert np.abs(rec.khat).max() < 1e-10


def test_glued_endpoint_vs_rk8_oracle():
    # golden endpoint frozen from the fixed-step 8th-order oracle (1600 steps)
    golden_x = np.array([34.03071699584913, 15.801585550519516, 0.0, 0.0])
    golden_b = np.array([1.1304840454443055, 0.5235155288860657, 0.0, 0.0])
    rec = exp_map(GLUED, np.zeros(4), Direction(0.5, (1, 0, 0)), [30.0],
                  ode_tol=1e-11)
    assert np.abs(rec.x[-1] - golden_x).max() < 1e-8
    assert np.abs(rec.b[-1] - golden_b).max() < 1e-8
    # and the oracle itself, re-run fresh at the same step count
    V = np.array([np.cosh(0.5), np.sinh(0.5), 0, 0])
    y = rk8_fixed(geodesic_rhs(GLUED), 0.5, np.concatenate([0.5 * V, V]),
                  30.0, 1600)
    assert np.abs(y[:4] - golden_x).max() < 1e-9
    assert np.abs(rec.x[-1] - y[:4]).max() < 1e-8


def test_rk8_oracle_is_eighth_order():
    # nonlinear pendulum-type problem; halving the step must gain ~2^8
    def f(t, y):
        return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1] + 0.3 * np.cos(t)])

    y0 = np.array([0.4, -0.2])
    ref = rk8_fixed(f, 0.0, y0, 5.0, 640)
    e1 = np.abs(rk8_fixed(f, 0.0, y0, 5.0, 20) - ref).max()
    e2 = np.abs(rk8_fixed(f, 0.0, y0, 5.0, 40) - ref).max()
    order = np.log2(e1 / e2)
    assert order > 7.0


def test_norm_and_tangency_invariants_glued():
    rec = exp_map(GLUED, np.zeros(4), Direction(1.0, (1, 0, 0)),
                  np.linspace(1, 30, 6), ode_tol=1e-10,
                  with_jacobi=True, with_k=True)
    for i, rho in enumerate(rec.rho):
        g = metric_at(GLUED, rec.x[i], level=0).g
        assert abs(rec.b[i] @ g @ rec.b[i] + 1.0) < 1e-9
        for j in range(3):
            assert abs(rec.j[i, j] @ g @ rec.b[i]) < 1e-9 * max(
                1.0, np.abs(rec.j[i, j]).max())
            assert abs(rec.jp[i, j] @ g @ rec.b[i]) < 1e-8
        tri = np.einsum('ia,ab,jb->ij', rec.triad[i], g, rec.triad[i])
        assert np.abs(tri - np.eye(3)).max() < 1e-9


def test_gram_symmetry_along_ray(glued_record):
    rec = glued_record
    for i in range(len(rec.rho)):
        g = metric_at(GLUED, rec.x[i], level=0).g
        K = np.einsum('ia,ab,jb->ij', rec.jp[i], g, rec.j[i])
        assert np.abs(K - K.T).max() < 1e-7 * max(np.abs(K).max(), 1e-30)


def test_jacobi_vs_neighbor_finite_difference():
    # J agrees with the centered difference of endpoints over boosted
    # initial velocities (exact boost flow on the hyperboloid)
    eps = 1e-5
    rho = 20.0
    boost = np.zeros((4, 4))
    boost[0, 1] = boost[1, 0] = 1.0
    from scipy.linalg import expm
    recs = []
    for s in (-eps, 0.0, eps):
        V = expm(s * boost) @ np.array([np.cosh(0.8), np.sinh(0.8), 0, 0])
        z = np.arccosh(V[0])
        w = V[1:] / np.linalg.norm(V[1:])
        recs.append(exp_map(GLUED, np.zeros(4), Direction(z, tuple(w)),
                            [rho], ode_tol=1e-11, with_jacobi=True))
    fd = (recs[2].x[-1] - recs[0].x[-1]) / (2 * eps)
    J1 = recs[1].j[-1, 0]
    assert np.abs(fd - J1).max() < 1e-4 * max(1.0, np.abs(J1).max())


def test_fan_build_centered_symmetry():
    fan = fan_build(GLUED, np.zeros(4), [0.4, 0.9],
                    [np.pi / 3, np.pi / 2], [0.3, 1.0, 2.0],
                    np.linspace(1, 20, 5), ode_tol=1e-10)
    # spherical symmetry: all omega at fixed zeta share the (t, r) history
    for iz in range(2):
        base = None
        for it in range(2):
            for ip in range(3):
                rec = fan.record(iz, it, ip)
                tr = np.stack([rec.x[:, 0],
                               np.linalg.norm(rec.x[:, 1:], axis=1)])
                if base is None:
                    base = tr
                else:
                    assert np.abs(tr - base).max() < 1e-10


def assert_same_lane(a, b):
    """Two records of one direction hold bit-identical samples, seed, end
    point and work counts."""
    for key in ("x", "b", "j", "jp", "triad", "q0", "khat"):
        va, vb = getattr(a, key), getattr(b, key)
        assert (va is None) == (vb is None), key
        assert va is None or np.array_equal(va, vb), key
    for key in ("rho_seed", "rho_reached", "truncated", "steps", "rejected",
                "rhs_evals"):
        assert getattr(a, key) == getattr(b, key), key


def reversed_theta(fan, payload=True):
    """The fan's directions with the theta axis reversed, and the fan itself
    rebuilt when payload is False."""
    kw = dict(ode_tol=1e-11, with_jacobi=payload, with_k=payload)
    up = fan if payload else fan_build(GLUED, fan.origin, fan.zeta_grid,
                                       fan.theta_grid, fan.phi_grid,
                                       fan.rho_grid, **kw)
    down = fan_build(GLUED, fan.origin, fan.zeta_grid, fan.theta_grid[::-1],
                     fan.phi_grid, fan.rho_grid, **kw)
    return up, down


def assert_mirrored(up, down):
    for iz in range(5):
        for it in range(5):
            for ip in range(5):
                assert_same_lane(up.record(iz, it, ip),
                                 down.record(iz, 4 - it, ip))


def test_fan_reversed_axis_mirrors_records(probe_fan, offset_fan):
    # a descending theta grid gives the fan in mirrored order; each lane is
    # integrated on its own, so mirrored records are bit-identical, and the
    # signed spacing keeps the finite-difference k unchanged
    for fan in (probe_fan, offset_fan):
        up, down = reversed_theta(fan)
        assert_mirrored(up, down)
        rho = fan.rho_grid[-1]
        ku = second_fundamental_fd_oracle(GLUED, up, (2, 2, 2), rho)
        kd = second_fundamental_fd_oracle(GLUED, down, (2, 2, 2), rho)
        assert np.abs(ku - kd).max() <= 1e-9 * np.abs(ku).max()


def test_fan_reversed_axis_without_payload(probe_fan, offset_fan):
    for fan in (probe_fan, offset_fan):
        assert_mirrored(*reversed_theta(fan, payload=False))


def test_fan_non_monotone_grid_rejected():
    with pytest.raises(ValueError):
        fan_build(GLUED, np.zeros(4), [1.0], [0.1, 0.3, 0.2], [0.0], [1.0])


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan])
def test_nonpositive_ode_tol_rejected(tol):
    # a zero tolerance made the step size NaN and the step loop endless
    with pytest.raises(ValueError):
        integrate_rays(GLUED, np.zeros(4), [Direction(1.0)], [2.0],
                       ode_tol=tol)
    with pytest.raises(ValueError):
        integrate_rays(GLUED, np.zeros(4), [Direction(1.0)] * 2, [2.0],
                       ode_tol=[1e-10, tol])


def test_fan_offset_planarity():
    # origin offset along x, direction in the x-z plane: motion stays planar
    rec = exp_map(GLUED, np.array([0.0, 0.2, 0.0, 0.0]),
                  Direction(1.0, (0.5, 0.0, np.sqrt(0.75))),
                  np.linspace(1, 25, 5), ode_tol=1e-10)
    assert np.abs(rec.x[:, 2]).max() < 1e-8


def test_seed_region_guard():
    with pytest.raises(SeedRegionTooSmall):
        integrate_rays(MetricModel.glued(0.4, r_in=0.9, r_out=2.0),
                       np.array([0.0, 0.895, 0.0, 0.0]),
                       [Direction(1.0, (1, 0, 0))], [5.0], with_k=True)
    # this line runs into the core, but from an origin in the curved blend
    with pytest.raises(SeedRegionTooSmall):
        integrate_rays(GLUED, np.array([0.0, 1.5, 0.0, 0.0]),
                       [Direction(1.0, (-1, 0, 0))], [5.0], with_jacobi=True,
                       with_k=True)


@pytest.mark.parametrize("model, origin, payload", [
    (GLUED, OFFSET, True), (GLUED, OFFSET, False),
    (SCHW, np.array([0.0, 1.0, 0.0, 0.0]), False)],
    ids=["glued-payload", "glued-bare", "schwarzschild-bare"])
def test_state_below_seed_is_the_straight_line(model, origin, payload):
    # up to rho_seed a record is its straight line, exactly, and the
    # integrator starts from that line at rho_seed, with or without k.  An
    # origin outside the flat core (Schwarzschild) has no line: the lane
    # starts at rho = 0 from the origin state.
    rec = exp_map(model, origin, Direction(1.2, (0.6, 0.0, -0.8)),
                  [2.0, 6.0], with_jacobi=payload, with_k=payload)
    ts, coef = rec._dense
    assert ts[0] == rec.rho_seed
    assert np.array_equal(coef[0][0],
                          rec._line[0] + rec.rho_seed * rec._line[1])
    if model is SCHW:
        assert rec.rho_seed == 0.0
        assert np.array_equal(coef[0][0][:8], np.concatenate([origin,
                                                              rec.v0]))
        return
    assert rec.rho_seed >= RHO_SEED_MIN      # the flat-core seed, k or not
    V, e = rec.direction.hyperboloid_point(), rec.frame0
    W = np.stack([V[i + 1] * e[0] + V[0] * e[i + 1] for i in range(3)])
    rhos = rec.rho_seed * np.array([1e-3, 0.3, 0.7, 1.0])
    st = rec.state_at(rhos)
    assert np.array_equal(st["x"], origin + rhos[:, None] * rec.v0)
    assert np.array_equal(st["b"], np.tile(rec.v0, (4, 1)))
    if payload:
        assert np.array_equal(st["j"], rhos[:, None, None] * W)
        assert np.array_equal(st["jp"], np.tile(W, (4, 1, 1)))
        assert not st["q0"].any() and not st["khat"].any()
        assert np.array_equal(st["triad"], np.tile(st["triad"][0], (4, 1, 1)))
    else:
        assert st["j"] is st["triad"] is st["q0"] is None
    assert np.array_equal(rec.state_at(rec.rho_seed)["x"], coef[0][0][:4])


def test_dop853_tableau_matches_scipy():
    # the tableau kept with the package is scipy's, bit for bit
    from scipy.integrate._ivp import dop853_coefficients as ref
    for key in ("A", "C", "E3", "E5", "D"):
        got, want = getattr(_tableau(), key), getattr(ref, key)
        assert got.dtype == want.dtype and got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key


def test_batch_matches_single_ray():
    dirs = [Direction(z, (1, 0, 0)) for z in (0.4, 0.9, 1.5)]
    recs = integrate_rays(GLUED, np.zeros(4), dirs, np.linspace(1, 20, 4),
                          ode_tol=1e-11, with_jacobi=True, with_k=True)
    for d, rec in zip(dirs, recs):
        single = exp_map(GLUED, np.zeros(4), d, np.linspace(1, 20, 4),
                         ode_tol=1e-11, with_jacobi=True, with_k=True)
        assert_same_lane(rec, single)
        rq = np.linspace(0.5, 20.0, 17)
        sa, sb = rec.state_at(rq), single.state_at(rq)
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)


def test_batch_matches_single_ray_offset_payload():
    # an offset origin: the lanes cross the shells at different proper times
    # and see different radii and angles at every stage
    dirs = [Direction(0.4, (0.0, 0.6, 0.8)), Direction(1.1, (1, 0, 0)),
            Direction(1.6, (-0.3, 0.2, -0.9))]
    rho = np.linspace(1, 18, 4)
    recs = integrate_rays(GLUED, OFFSET, dirs, rho, ode_tol=1e-11,
                          with_jacobi=True, with_k=True)
    rq = np.linspace(0.5, 18.0, 13)
    for d, rec in zip(dirs, recs):
        single = exp_map(GLUED, OFFSET, d, rho, ode_tol=1e-11,
                         with_jacobi=True, with_k=True)
        assert_same_lane(rec, single)
        sa, sb = rec.state_at(rq), single.state_at(rq)
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)


def _same_field(va, vb):
    """Equality of two record field values, arrays (also inside tuples)
    compared bit for bit."""
    if isinstance(va, tuple):
        return len(va) == len(vb) and all(map(_same_field, va, vb))
    if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
        return np.array_equal(va, vb)
    return va == vb


@pytest.mark.parametrize("origin", [np.zeros(4), OFFSET],
                         ids=["centred", "offset"])
def test_per_lane_tolerance_matches_single_ray(origin):
    # one batch whose lanes run at three tolerances: each record is the
    # same direction integrated alone at its own tolerance, field by field
    dirs = [Direction(0.4, (0.0, 0.6, 0.8)), Direction(1.1, (1, 0, 0)),
            Direction(1.6, (-0.3, 0.2, -0.9))]
    tols = (1e-8, 1e-10, 1e-12)
    rho = np.linspace(1, 18, 4)
    recs = integrate_rays(GLUED, origin, dirs, rho, ode_tol=tols,
                          with_jacobi=True, with_k=True)
    for d, tol, rec in zip(dirs, tols, recs):
        assert rec.ode_tol == tol
        single = exp_map(GLUED, origin, d, rho, ode_tol=tol,
                         with_jacobi=True, with_k=True)
        for f in fields(GeodesicRecord):
            assert _same_field(getattr(rec, f.name),
                               getattr(single, f.name)), f.name
    assert len({rec.rhs_evals for rec in recs}) == 3


def test_wide_batch_matches_single_ray(probe_fan):
    # a 125-lane batch: the first, middle and last lanes are each the same
    # direction integrated alone, field by field and counter by counter;
    # the per-lane matmuls of the right-hand side see the whole batch
    for i in (0, 62, 124):
        rec = probe_fan.records[i]
        single = exp_map(GLUED, probe_fan.origin, rec.direction,
                         probe_fan.rho_grid, ode_tol=1e-11,
                         with_jacobi=True, with_k=True)
        for f in fields(GeodesicRecord):
            assert _same_field(getattr(rec, f.name),
                               getattr(single, f.name)), (i, f.name)


@pytest.mark.parametrize("n", [1, 4, 125])
def test_stage_sums_match_loop(n):
    # every DOP853 stage sum adds c_j K_j one stage at a time, elementwise,
    # so it equals that loop bit for bit and each lane alone
    K = np.random.default_rng(n).normal(size=(16, n, 51))
    tab = _tableau()
    for coef in [tab.A[s, :s] for s in range(1, 16)] + [tab.E5, tab.E3,
                                                        *tab.D]:
        ref = 0.0
        for c, k in zip(coef, K):
            ref = ref + c * k
        got = _lincomb(coef, K)
        assert np.array_equal(got, ref)
        assert np.array_equal(got[-1:], _lincomb(coef, K[:, -1:]))


@pytest.mark.parametrize("payload, per_rhs", [(True, 3), (False, 0)],
                         ids=["payload", "bare"])
def test_einsums_per_step(monkeypatch, payload, per_rhs):
    # work budget of the integrator: the right-hand side contracts by
    # per-lane matmul and calls einsum only for the k transport (kh^2 and
    # two traces); each DOP853 stage sum is one einsum, 12 stages and two
    # error estimates per attempt, 3 dense stages and 4 dense coefficients
    # per accepted step
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(1)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    rec = exp_map(GLUED, OFFSET, Direction(1.1, (1, 0, 0)), [1.0, 18.0],
                  with_jacobi=payload, with_k=payload)
    attempts = rec.steps + rec.rejected
    assert len(calls) == (per_rhs * rec.rhs_evals + 14 * attempts
                          + 7 * rec.steps)
    y = np.zeros((4, rec._dense[1].shape[2]))
    y[:, 0:4], y[:, 4:8] = rec.x[-1], rec.b[-1]
    calls.clear()
    _make_rhs(GLUED, payload, payload)(np.full(4, 18.0), y)
    assert len(calls) == per_rhs


def _static_invariants(model, x, b):
    """Static energy E = n2 B^t and angular momentum L = x cross (g B), which
    is A x cross v for g_ij = A delta_ij + Bc x_i x_j, at states (n, 4)."""
    g = metric_at(model, x, level=0).g
    gv = np.einsum('nij,nj->ni', g[:, 1:, 1:], b[:, 1:])
    return -g[:, 0, 0] * b[:, 0], np.cross(x[:, 1:], gv), gv


def test_static_invariants_conserved(glued_record, offset_record):
    # every model is static and spherically symmetric about r = 0, so E and
    # L are exact invariants of each geodesic, offset origins included.
    # They are read from the metric alone, not from Gamma or Riemann, so a
    # wrong but self-consistent geodesic term cannot keep them.
    outward = exp_map(SCHW, np.array([0.0, 1.0, 0.0, 0.0]),
                      Direction(1.0, (0.6, 0.8, 0.0)), np.linspace(0.5, 20, 9))
    assert not outward.truncated
    # The drift is taken from the origin state (origin, v0) on, which is the
    # initial value of the geodesic, whatever the lane's seed.
    for rec in (glued_record, offset_record, outward):
        st = rec.state_at(np.linspace(0.0, rec.rho_reached, 41)[1:])
        x = np.vstack([rec.origin, st["x"]])
        b = np.vstack([rec.v0, st["b"]])
        E, L, gv = _static_invariants(rec.model, x, b)
        assert np.abs(E - E[0]).max() <= 1e-8 * abs(E[0])
        l_scale = (np.linalg.norm(x[:, 1:], axis=1)
                   * np.linalg.norm(gv, axis=1)).max()
        assert np.abs(L - L[0]).max() <= 1e-8 * l_scale


def test_lane_counts_alone_and_in_batch():
    # a lane's accepted steps, rejected steps and RHS evaluations are its
    # own: the same alone as next to a faster lane that crosses the shells
    # at other proper times
    d = Direction(0.7, (0.0, 0.6, 0.8))
    rho = np.linspace(1, 15, 3)
    batch = integrate_rays(GLUED, OFFSET, [Direction(2.5, (1, 0, 0)), d],
                           rho, ode_tol=1e-10)
    alone = exp_map(GLUED, OFFSET, d, rho, ode_tol=1e-10)
    assert alone.steps > 0 and alone.rhs_evals >= 12 * alone.steps
    for key in ("steps", "rejected", "rhs_evals"):
        assert getattr(batch[1], key) == getattr(alone, key), key
    assert batch[0].rhs_evals != alone.rhs_evals


def test_schwarzschild_horizon_guard_per_lane():
    # the inward lane stops on the horizon guard on its own; the outward
    # lane of the same batch reaches the end of the grid
    origin = np.array([0.0, 1.0, 0.0, 0.0])
    rho = np.linspace(0.5, 5.0, 10)
    inward, outward = integrate_rays(
        SCHW, origin, [Direction(1.0, (-1, 0, 0)), Direction(1.0, (1, 0, 0))],
        rho)
    guard = 2.0 * SCHW.mass * (1.0 + 2.0 * HORIZON_MARGIN)
    assert inward.truncated and inward.rho_reached < rho[-1]
    x_end = inward.state_at(inward.rho_reached)["x"]
    assert abs(np.linalg.norm(x_end[1:]) - guard) <= 1e-10 * guard
    assert np.all(inward.rho <= inward.rho_reached)
    with pytest.raises(SingularityTruncated):
        inward.state_at(0.5 * (inward.rho_reached + rho[-1]))
    assert not outward.truncated and outward.rho_reached == rho[-1]
    assert np.array_equal(outward.rho, rho)
    assert_same_lane(inward, exp_map(SCHW, origin, inward.direction, rho))
