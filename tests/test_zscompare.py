import numpy as np
import pytest

from hyperlab import zscompare
from hyperlab.errors import Horizon, OutsideZs, SphereExitsZone
from hyperlab.foliation import (_level_gradient, _level_value, angular_grid,
                                frames_at)
from hyperlab.geodesic import Direction, exp_map
from hyperlab.metric import MetricModel, metric_at
from hyperlab.nullgeom import schwarzschild_closed_forms
from hyperlab.zscompare import (cone_sphere_geometry, radial_comparison_series,
                                schw_optical, transport_residuals_zs)

MINK = MetricModel.minkowski()
GLUED = MetricModel.glued(0.01)
GLUED5 = MetricModel.glued(0.05)
OFFSET = np.array([0.0, 0.2, 0.0, 0.0])


def test_schw_optical_values():
    out = schw_optical(0.05, 10.0, 5.0)
    assert out["uhat"] == pytest.approx(4.6821530, abs=1e-6)
    assert np.allclose(out["Lhat"], [1.0, 0.96078431, 0, 0], atol=1e-8)
    assert abs(out["eikonal"]) <= 1e-10
    flat = schw_optical(0.0, 7.0, 3.0)
    assert flat["uhat"] == pytest.approx(4.0)
    with pytest.raises(Horizon):
        schw_optical(0.05, 1.0, 0.05)
    # one uhat from schw_optical, the closed forms and the leaf solver's level
    # function, whose analytic gradient matches central differences
    h = 1e-5
    for model in (MINK, MetricModel.schwarzschild(0.05)):
        M, t = model.mass, 10.0
        for r in (0.3, 5.0, 40.0):
            x = np.array([t, 0.6 * r, 0.0, 0.8 * r])
            uh = schw_optical(M, t, r)["uhat"]
            assert uh == pytest.approx(
                t - schwarzschild_closed_forms(M, r)["gamma_r"], abs=1e-14)
            assert _level_value(model, 0.0, x, "uhat") == pytest.approx(
                uh, abs=1e-12)
            fd = [(_level_value(model, 0.0, x + h * e, "uhat")
                   - _level_value(model, 0.0, x - h * e, "uhat")) / (2 * h)
                  for e in np.eye(4)]
            assert np.abs(_level_gradient(model, x, "uhat") - fd).max() <= 1e-8


def test_eikonal_exact_many_points():
    for (t, r) in ((5.0, 3.0), (40.0, 17.0), (100.0, 95.0)):
        assert abs(schw_optical(0.05, t, r)["eikonal"]) <= 1e-10


def test_varpi_minkowski():
    rec = exp_map(MINK, np.zeros(4), Direction(1.0, (0, 1, 0)), [5.0],
                  with_k=True)
    fr = frames_at(MINK, rec, 5.0)
    assert fr.varpi == pytest.approx(1.0, abs=1e-10)
    assert np.abs(fr.snr).max() < 1e-10


def test_varpi_centered_equals_lapse(glued_record):
    fr = frames_at(GLUED, glued_record, 20.0)
    n = np.sqrt((fr.r - 0.02) / (fr.r + 0.02))
    assert abs(fr.varpi - n) < 1e-8
    assert np.abs(fr.snr).max() < 1e-8


def test_varpi_identity_offset(offset_record):
    # n^2 = varpi^2 + |snr|^2 wherever the chart is exact
    for rho in (20.0, 35.0, 50.0):
        fr = frames_at(GLUED, offset_record, rho)
        n2 = (fr.r - 0.02) / (fr.r + 0.02)
        snr2 = float(np.sum(fr.snr ** 2))
        assert abs(n2 - fr.varpi ** 2 - snr2) < 1e-8
        assert np.sqrt(n2) - fr.varpi >= -1e-8


def test_comparison_series_minkowski():
    rec = exp_map(MINK, np.zeros(4), Direction(1.0, (1, 0, 0)),
                  np.linspace(1, 20, 5), with_k=True)
    for row in radial_comparison_series(MINK, rec):
        assert abs(row.n_minus_varpi) < 1e-10
        assert abs(row.u_minus_uhat) < 1e-9
        assert abs(row.rt_over_r_minus_ninv) < 1e-10


def test_comparison_series_centered(glued_record):
    rows = radial_comparison_series(GLUED, glued_record)
    assert len(rows) >= 4
    for row in rows:
        assert row.n_minus_varpi >= -1e-8
        assert abs(row.n_minus_varpi) < 1e-8      # symmetry kills the gap
        assert row.u > 0
    # u - uhat settles along the ray
    tail = [row.u_minus_uhat for row in rows[-3:]]
    assert max(tail) - min(tail) < 1e-3


def test_comparison_series_offset_decay(offset_record):
    rows = radial_comparison_series(GLUED, offset_record)
    ts = np.array([row.t for row in rows])
    uu = np.array([row.u_minus_uhat for row in rows])
    q = np.array([row.rt_over_r_minus_ninv for row in rows])
    nv = np.array([row.n_minus_varpi for row in rows])
    assert np.all(nv >= -1e-8)
    sel = ts >= 10.0
    assert np.ptp(uu[sel]) <= 0.05
    # t |rt/r - 1/n| stays bounded by twice its value near t = 20
    tq = np.abs(ts * q)
    ref = tq[np.argmin(np.abs(ts - 20.0))]
    assert np.all(tq[ts >= 20.0] <= 2.0 * ref + 1e-12)


def test_bfield_uhat_causal_ordering(offset_record):
    # causality of the ray against the outgoing cone generator: <B, Lhat> < 0,
    # and uhat grows along each ray (the asymptote ordering; in flat space
    # B(uhat) = u/rho > 0 exactly)
    M = GLUED.mass
    for i, rho in enumerate(offset_record.rho):
        x = offset_record.x[i]
        r = np.linalg.norm(x[1:])
        if r < GLUED.r_out + 0.1:
            continue
        g = metric_at(GLUED, x, level=0).g
        n2 = -g[0, 0]
        Lhat = np.zeros(4)
        Lhat[0] = 1.0
        Lhat[1:] = n2 * x[1:] / r
        assert float(offset_record.b[i] @ g @ Lhat) < 0.0
        du = np.zeros(4)
        du[0] = 1.0
        du[1:] = -(1.0 + 4.0 * M / (r - 2.0 * M)) * x[1:] / r
        assert float(offset_record.b[i] @ du) > 0.0


def test_transport_residuals_centered(glued_record):
    out = transport_residuals_zs(GLUED, glued_record,
                                 probe_rhos=[10.0, 20.0, 25.0])
    assert out["bvarpi"] <= 1e-7
    assert out["cmr_1"] <= 1e-7 * max(out["cmr_1_scale"], 1.0) + 1e-9
    # at rho 1 and 1.5 the lane is still inside r_out + 0.1
    with pytest.raises(OutsideZs, match="no probe rhos inside the exterior"):
        transport_residuals_zs(GLUED, glued_record, probe_rhos=[1.0, 1.5])


def test_transport_residuals_offset(offset_record):
    out = transport_residuals_zs(GLUED, offset_record,
                                 probe_rhos=[20.0, 35.0, 50.0])
    assert out["bvarpi"] <= 1e-5 * out["bvarpi_scale"]
    assert out["cmr_1"] <= 1e-5 * out["cmr_1_scale"]


def test_transport_residuals_minkowski():
    rec = exp_map(MINK, np.zeros(4), Direction(1.0, (1, 0, 0)),
                  np.linspace(1, 20, 5), with_k=True)
    out = transport_residuals_zs(MINK, rec, probe_rhos=[5.0, 10.0])
    assert out["bvarpi"] <= 1e-9
    assert out["cmr_1"] <= 1e-9


@pytest.fixture(scope="module")
def cone_uhat():
    # uhat placing nodes near r = 5 on H_10 for the M = 0.05 glued model
    rec = exp_map(GLUED5, np.zeros(4), Direction(0.49, (1, 0, 0)), [10.0],
                  ode_tol=1e-11)
    st = rec.state_at(10.0)
    r = float(np.linalg.norm(st["x"][1:]))
    return st["x"][0] - (r + 0.2 * np.log(r - 0.1))


@pytest.fixture(scope="module")
def cone_report(cone_uhat):
    return cone_sphere_geometry(GLUED5, 10.0, cone_uhat, angular_grid(6, 1))


def test_cone_sphere_nodes_independent(cone_report, cone_uhat):
    # each node's values do not depend on the rest of the sphere
    shared = [1, 4]
    nodes = angular_grid(6, 1)
    sub = cone_sphere_geometry(GLUED5, 10.0, cone_uhat,
                               [nodes[i] for i in shared])
    for name in ("dag_a", "dag_a_def", "dag_nb_t", "K_sphere", "K_model",
                 "t_nodes", "r_nodes"):
        assert np.array_equal(getattr(cone_report, name)[shared],
                              getattr(sub, name)), name


def test_cone_sphere_centered_oscillation(cone_report):
    assert cone_report.osc_t <= 1e-8


def test_cone_sphere_lapse_two_ways(cone_report):
    assert np.abs(cone_report.dag_a - cone_report.dag_a_def).max() <= 1e-7
    assert np.all(cone_report.dag_a > 0)


def test_cone_sphere_gauss_curvature(cone_report):
    assert np.abs(cone_report.K_sphere / cone_report.K_model - 1).max() < 0.05


def test_cone_sphere_umbilicity(cone_report):
    assert cone_report.chi_tracefree_ratio <= 1e-6


def test_cone_sphere_radial_speed(cone_report):
    assert np.abs(cone_report.dag_nb_t - cone_report.dag_nb_t_model).max() \
        <= 1e-6 * np.abs(cone_report.dag_nb_t_model).max()


def test_cone_sphere_exits_zone(monkeypatch, cone_uhat):
    # a sphere with a node below the exterior zone's floor has no dag-tetrad
    # geometry: SphereExitsZone.  The leaf solver keeps every uhat node
    # above r_out + 0.02, so the floor is raised past the sphere here
    monkeypatch.setattr(zscompare, "_zs_floor", lambda model: 1e3)
    with pytest.raises(SphereExitsZone, match="below r_out"):
        cone_sphere_geometry(GLUED5, 10.0, cone_uhat, angular_grid(4, 1))
