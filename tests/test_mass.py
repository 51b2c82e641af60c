import numpy as np
import pytest

from hyperlab.foliation import angular_grid, leaf_slice
from hyperlab.mass import bondi_trace, hawking_mass, mass_of_leaf
from hyperlab.metric import MetricModel

MINK = MetricModel.minkowski()
GLUED = MetricModel.glued(0.01)
OFFSET = np.array([0.0, 0.2, 0.0, 0.0])


def test_minkowski_mass_zero():
    rep = mass_of_leaf(MINK, np.zeros(4), 5.0, 3.0, angular_grid(4, 1))
    assert abs(rep.mass) < 1e-10
    assert rep.area_radius == pytest.approx(4.0, rel=1e-9)


def test_schwarzschild_symmetric_sphere_closed_form():
    # with the normalized pair the static sphere carries trchi = 2n/(r+2M)
    # and the mass evaluates to exactly 2M
    M, r = 0.05, 5.0
    R = r + 2 * M
    n = np.sqrt((r - 2 * M) / R)
    trchi = 2 * n / R
    m = 0.5 * R * (1 + (4 * np.pi * R**2 * (-trchi**2)) / (16 * np.pi))
    assert m == pytest.approx(2 * M, abs=1e-15)


def test_centered_pipeline_mass(bondi_centered):
    # glued centered slice: every leaf deep in the exterior zone carries the
    # enclosed mass 2M = 0.02 (the paper's limit, achieved identically here)
    reports = bondi_centered[10.0]["reports"]
    for rep in reports:
        assert rep.mass == pytest.approx(0.02, abs=1e-3)
        assert abs(rep.mass - 0.02) <= 0.05 * 0.02
        assert rep.integrand_max < 0.0          # trchi trchib < 0 node-wise


def test_boost_invariance_of_integrand():
    # the product trchi * trchib is invariant under L -> lam L, Lb -> Lb/lam;
    # rescaling the pair leaves the mass unchanged
    sl = leaf_slice(GLUED, np.zeros(4), 50.0, 10.0, angular_grid(4, 1))
    m0 = hawking_mass(sl).mass
    lam = 1.7
    sl.trchi *= lam
    sl.trchib /= lam
    assert hawking_mass(sl).mass == pytest.approx(m0, abs=1e-14)


def test_bondi_minkowski():
    tr = bondi_trace(MINK, 5.0, [10.0, 20.0, 40.0, 80.0],
                     omega_nodes=angular_grid(4, 1))
    assert abs(tr["m_inf"]) < 1e-8
    for rep in tr["reports"]:
        assert abs(rep.mass) < 1e-8


def test_bondi_centered_limit(bondi_centered):
    for rho, tr in bondi_centered.items():
        assert abs(tr["m_inf"] - 0.02) <= 1e-3
    m_infs = [tr["m_inf"] for tr in bondi_centered.values()]
    assert max(m_infs) - min(m_infs) <= 1e-3


def test_quadrature_convergence_centered():
    a = mass_of_leaf(GLUED, np.zeros(4), 50.0, 10.0, angular_grid(4, 1))
    b = mass_of_leaf(GLUED, np.zeros(4), 50.0, 10.0, angular_grid(8, 1))
    assert abs(a.mass - b.mass) <= 1e-6 * abs(b.mass)


def test_bondi_offset_two_resolutions():
    t_grid = [20.0, 40.0, 80.0]
    tra = bondi_trace(GLUED, 10.0, t_grid, origin=OFFSET,
                      omega_nodes=angular_grid(6, 1, axis=(1, 0, 0)))
    trb = bondi_trace(GLUED, 10.0, t_grid, origin=OFFSET,
                      omega_nodes=angular_grid(10, 1, axis=(1, 0, 0)))
    assert abs(tra["m_inf"] - 0.02) <= 5e-3
    assert abs(trb["m_inf"] - 0.02) <= 5e-3
    assert abs(tra["m_inf"] - trb["m_inf"]) <= 1e-4
    # the offset deviation is genuine and decreases strictly toward the
    # limit over the whole t grid at both resolutions: 3.847e-9, 5.260e-10,
    # 1.482e-10 (6 nodes) and 3.847e-9, 5.260e-10, 1.476e-10 (10 nodes)
    for tr in (tra, trb):
        dev = [abs(r.mass - 0.02) for r in tr["reports"]]
        assert all(a > b for a, b in zip(dev, dev[1:])), dev


def test_bondi_trace_matches_single_leaves():
    # the trace solves the nodes of all its leaves in one batch; each lane is
    # integrated on its own, so every report equals the leaf solved alone
    nodes = angular_grid(3, 1, axis=(1.0, 0.0, 0.0))
    tr = bondi_trace(GLUED, 5.0, [10.0, 20.0], origin=OFFSET,
                     omega_nodes=nodes)
    for rep in tr["reports"]:
        alone = mass_of_leaf(GLUED, OFFSET, rep.t, 5.0, nodes)
        assert (rep.mass, rep.area) == (alone.mass, alone.area)
