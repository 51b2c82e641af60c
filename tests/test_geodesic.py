import numpy as np
import pytest

from hyperlab.errors import SeedRegionTooSmall
from hyperlab.foliation import second_fundamental_fd_oracle
from hyperlab.geodesic import (Direction, FanGrid, direction_from_angles,
                               exp_map, fan_build, integrate_rays,
                               jacobi_boosts, mat_to_sym6, sym6_to_mat)
from hyperlab.metric import MetricModel, metric_at

from oracles import geodesic_rhs, rk8_fixed

MINK = MetricModel.minkowski()
GLUED = MetricModel.glued(0.01)


def minkowski_norm(v):
    return -v[..., 0] ** 2 + np.sum(v[..., 1:] ** 2, axis=-1)


def test_direction_unit_hyperboloid():
    for z in (0.0, 0.5, 3.0, 6.0):
        d = Direction(z, (0.3, -1.2, 0.5))
        V = d.hyperboloid_point()
        assert abs(minkowski_norm(V) + 1.0) < 1e-14 * np.cosh(z) ** 2


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


def test_fan_reversed_axis_mirrors_records(probe_fan):
    # a descending theta grid gives the probe fan in mirrored order, and the
    # signed spacing keeps the finite-difference k unchanged
    up = probe_fan
    down = fan_build(GLUED, up.origin, up.zeta_grid, up.theta_grid[::-1],
                     up.phi_grid, up.rho_grid, ode_tol=1e-11)
    for iz in range(5):
        for it in range(5):
            for ip in range(5):
                a, b = up.record(iz, it, ip), down.record(iz, 4 - it, ip)
                assert np.abs(a.x - b.x).max() <= 1e-9 * np.abs(a.x).max()
                assert np.abs(a.b - b.b).max() <= 1e-9 * np.abs(a.b).max()
    ku = second_fundamental_fd_oracle(GLUED, up, (2, 2, 2), 25.0)
    kd = second_fundamental_fd_oracle(GLUED, down, (2, 2, 2), 25.0)
    assert np.abs(ku - kd).max() <= 1e-9 * np.abs(ku).max()


def test_fan_non_monotone_grid_rejected():
    with pytest.raises(ValueError):
        fan_build(GLUED, np.zeros(4), [1.0], [0.1, 0.3, 0.2], [0.0], [1.0])


def test_fan_offset_planarity():
    # origin offset along x, direction in the x-z plane: motion stays planar
    rec = exp_map(GLUED, np.array([0.0, 0.2, 0.0, 0.0]),
                  Direction(1.0, (0.5, 0.0, np.sqrt(0.75))),
                  np.linspace(1, 25, 5), ode_tol=1e-10)
    assert np.abs(rec.x[:, 2]).max() < 1e-8


def test_jacobi_boosts_wrapper(glued_record):
    rec2 = jacobi_boosts(GLUED, glued_record)
    assert rec2.has_jacobi
    assert np.abs(rec2.j - glued_record.j).max() < 1e-8


def test_seed_region_guard():
    with pytest.raises(SeedRegionTooSmall):
        integrate_rays(MetricModel.glued(0.4, r_in=0.9, r_out=2.0),
                       np.array([0.0, 0.895, 0.0, 0.0]),
                       [Direction(1.0, (1, 0, 0))], [5.0], with_k=True)


def test_batch_matches_single_ray():
    dirs = [Direction(z, (1, 0, 0)) for z in (0.4, 0.9, 1.5)]
    recs = integrate_rays(GLUED, np.zeros(4), dirs, np.linspace(1, 20, 4),
                          ode_tol=1e-11, with_jacobi=True, with_k=True)
    single = exp_map(GLUED, np.zeros(4), dirs[1], np.linspace(1, 20, 4),
                     ode_tol=1e-11, with_jacobi=True, with_k=True)
    assert np.abs(recs[1].x - single.x).max() < 1e-7
    assert np.abs(recs[1].q0 - single.q0).max() < 1e-7
