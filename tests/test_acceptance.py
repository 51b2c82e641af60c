"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7's strict-decrease clause is asserted exactly as stated
and fails: for the centered configuration the exact Hawking mass is
identically 2M (see the hyperlab.mass module docstring), so the deviations
are integrator error, which grows with t.  CHANGES.md records the measured
sequences.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import FIXTURE_SECONDS, GLUED_M001, GLUED_M005, MINK

from hyperlab import nullgeom as ng
from hyperlab.foliation import (angular_grid, frames_at, leaf_scalars,
                                second_fundamental_at,
                                second_fundamental_fd_oracle,
                                structure_residuals)
from hyperlab.geodesic import Direction, exp_map, fan_build
from hyperlab.kgflat import commutation_residual, decay_slope, energy
from hyperlab.mass import mass_of_leaf
from hyperlab.metric import curvature_at, metric_at
from hyperlab.zscompare import (_grad_ls, cone_sphere_geometry,
                                radial_comparison_series,
                                transport_residuals_zs)


@contextmanager
def report(num, desc):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {num}] FAIL - {desc}")
        raise
    print(f"\n[ACCEPTANCE {num}] PASS - {desc}")


def test_criterion_1_minkowski_exactness():
    with report(1, "Minkowski exactness suite on a 5x8x20 fan"):
        t0 = time.perf_counter()
        zg = np.linspace(0.3, 2.0, 5)
        thetas = np.arccos(np.polynomial.legendre.leggauss(4)[0])
        phis = 2 * np.pi * np.arange(2) / 2.0
        rho_grid = np.linspace(0.5, 20.0, 20)
        fan = fan_build(MINK, np.zeros(4), zg, thetas, phis, rho_grid,
                        ode_tol=1e-11)
        eta = np.diag([-1.0, 1, 1, 1])
        for rec in fan.records:
            V = rec.v0
            assert np.abs(rec.x - rho_grid[:, None] * V).max() <= 1e-8
            assert np.abs(rec.b - V).max() <= 1e-8
            e = np.eye(4)               # the frame at a Minkowski origin
            W = V[1:, None] * e[0] + V[0] * e[1:]   # J_i = rho W_i
            assert np.abs(rec.j - rho_grid[:, None, None] * W).max() <= 1e-8
            assert np.abs(rec.q0).max() <= 1e-8
            assert np.abs(rec.khat).max() <= 1e-8
            for i, rho in enumerate(rho_grid):
                assert abs(rec.b[i] @ eta @ rec.b[i] + 1.0) <= 1e-8
            sc = leaf_scalars(MINK, rec, 10.0)
            assert abs(sc.b - 1.0) <= 1e-8
            assert abs(sc.u * sc.ubar - 100.0) <= 1e-8 * 100.0
            k = second_fundamental_at(MINK, rec, 10.0)
            assert abs(k.trk - 0.3) <= 1e-8
            assert np.abs(k.khat).max() <= 1e-8
        m = mass_of_leaf(MINK, np.zeros(4), 5.0, 3.0, angular_grid(4, 1))
        assert abs(m.mass) <= 1e-8
        elapsed = time.perf_counter() - t0
        print(f"  fan+mass runtime {elapsed:.1f}s", end=" ")
        assert elapsed <= 10.0


def test_criterion_2_schwarzschild_closed_forms():
    with report(2, "Schwarzschild closed forms from the generic pipeline"):
        M = 0.05
        model = GLUED_M005
        for r in (3.0, 5.0, 10.0):
            x = np.array([0.0, r, 0.0, 0.0])
            jet = curvature_at(model, x)
            n = float(jet.lapse)
            R = r + 2 * M
            # Christoffel (only meaningful against the chart value)
            gam = metric_at(model, x, level=1).gamma
            assert abs(gam[1, 0, 0] - n * n * 2 * M / R**2) <= 1e-7
            # hat-tetrad varrho
            dec = ng.null_decompose(jet, ng.hat_tetrad(jet))
            assert abs(dec.varrho + 4 * M / R**3) <= 1e-7
            # trchi of the cone generator field via the covariant pipeline
            covLs = _grad_ls(model, jet)
            tet = ng.hat_tetrad(jet)
            trchi_s = float(np.einsum('Am,mn,ns,As->', tet.eA, covLs,
                                      jet.g, tet.eA))
            assert abs(trchi_s - 2.0 / R) <= 1e-7
            # sphere curvature through the Gauss closure
            K = (n * trchi_s) ** 2 / 4.0 - dec.varrho
            assert abs(K - 1.0 / R**2) <= 1e-7
        cf = ng.schwarzschild_closed_forms(M, 5.0)
        assert cf["varrho_hat_n4"] == pytest.approx(-0.001507712, abs=1e-7)
        assert cf["K_sphere"] == pytest.approx(0.03844675, abs=1e-7)
        assert cf["trchi_s"] == pytest.approx(0.39215686, abs=1e-7)
        jet5 = metric_at(GLUED_M005, np.array([0.0, 5.0, 0.0, 0.0]), level=1)
        assert jet5.gamma[1, 0, 0] == pytest.approx(0.003693904, abs=1e-7)


def test_criterion_3_weyl_null_vanishing(offset_record):
    with report(3, "Weyl null-vanishing and the two varrho paths"):
        for r in (3.0, 5.0, 10.0):
            jet = curvature_at(GLUED_M005, np.array([0.0, 0.0, r, 0.0]))
            dec = ng.null_decompose(jet, ng.hat_tetrad(jet))
            vr = abs(dec.varrho)
            for comp in (dec.alpha, dec.alphab, dec.beta, dec.betab):
                assert np.abs(comp).max() <= 1e-6 * vr
            assert abs(dec.sigma) <= 1e-6 * vr
        fr = frames_at(GLUED_M001, offset_record, 50.0)
        jet = curvature_at(GLUED_M001, fr.x)
        dec = ng.null_decompose(jet, ng.intrinsic_tetrad(fr))
        vr = abs(dec.varrho)
        assert np.abs(dec.alpha - dec.alphab).max() <= 1e-6 * vr
        assert np.abs(dec.beta - dec.betab).max() <= 1e-6 * vr
        assert abs(dec.sigma) <= 1e-6 * vr
        out = ng.varrho_consistency(GLUED_M001, offset_record, 50.0)
        assert out["varrho_direct"] == pytest.approx(out["varrho_formula"],
                                                     rel=1e-6)


def test_criterion_4_gauss_closure():
    with report(4, "Gauss-equation closure at the r=5 sphere"):
        cf = ng.schwarzschild_closed_forms(0.05, 5.0)
        K, vr = cf["K_sphere"], cf["varrho_hat_n4"]
        assert K == pytest.approx(0.0384468, abs=1e-6)
        assert (5.0 - 0.1) / 5.1**3 == pytest.approx(0.0369391, abs=1e-6)
        assert -vr == pytest.approx(0.0015077, abs=1e-6)
        assert abs(K - (5.0 - 0.1) / 5.1**3 + vr) <= 1e-8
        # and through the full curvature pipeline
        jet = curvature_at(GLUED_M005, np.array([0.0, 5.0, 0.0, 0.0]))
        dec = ng.null_decompose(jet, ng.hat_tetrad(jet))
        assert abs(K - (5.0 - 0.1) / 5.1**3 + dec.varrho) <= 1e-8


def test_criterion_5_deformation_vanishing(offset_fan):
    with report(5, "boost deformation vanishing along the offset fan"):
        for rec in offset_fan.records:
            for rho in (5.0, 12.0, 19.9):
                st = rec.state_at(rho)
                g = metric_at(GLUED_M001, st["x"], level=0).g
                pibb = 2.0 * np.einsum('ca,ab,b->c', st["jp"], g, st["b"])
                assert np.abs(pibb).max() <= 1e-8
                K = np.einsum('ia,ab,jb->ij', st["jp"], g, st["j"])
                scale = np.abs(K).max()
                assert np.abs(K - K.T).max() <= 1e-7 * scale


def test_criterion_6_transport_oracle_and_residuals(probe_fan, glued_record,
                                                    offset_record):
    with report(6, "k transport vs FD oracle; structure-equation residuals"):
        for rho in (5.0, 10.0, 15.0, 20.0, 24.9):
            ko = second_fundamental_fd_oracle(GLUED_M001, probe_fan,
                                              (2, 2, 2), rho)
            st = probe_fan.record(2, 2, 2).state_at(rho)
            kt = st["khat"] + (1.0 / rho + st["q0"] / 3.0) * np.eye(3)
            assert np.abs(ko - kt).max() <= 1e-4 * np.abs(kt).max()
        for rec, probes in ((glued_record, [5.0, 15.0, 25.0]),
                            (offset_record, [10.0, 30.0, 50.0])):
            tab = structure_residuals(GLUED_M001, rec, probe_rhos=probes,
                                      transverse=False)
            for key in ("Bb1", "ctt", "s1", "eq_3_14_1", "s1_1"):
                assert tab[key] <= 1e-5 * tab[key + "_scale"], key


def test_criterion_7_hawking_bondi_limits(bondi_centered):
    with report(7, "Hawking-to-Bondi limit and rho-independence"):
        for rho, tr in bondi_centered.items():
            assert abs(tr["m_inf"] - 0.02) <= 1e-3
        m_infs = [tr["m_inf"] for tr in bondi_centered.values()]
        assert max(m_infs) - min(m_infs) <= 1e-3
        elapsed = FIXTURE_SECONDS.get("bondi_centered", 0.0)
        print(f"  bondi runtime {elapsed:.0f}s", end=" ")
        assert elapsed <= 300.0


def test_criterion_7_strict_decrease(bondi_centered):
    # Asserted exactly as stated.  For the centered static model the exact
    # Hawking mass of every exterior leaf is identically 2M (hyperlab.mass
    # docstring), so the clause asks for 0 > 0.  The measured deviations at
    # t = 20, 40, 80, 160 are 1.01e-11, 1.15e-10, 8.61e-10, 6.41e-9: integrator
    # error, rising with t over longer rays; CHANGES.md has the offset runs
    # tried.  The substance of the limit statement (deviation below any c/t
    # envelope) is asserted in the previous test.
    with report("7s", "|m(t) - 0.02| strictly decreasing (degenerate; see "
                      "CHANGES.md)"):
        devs = [abs(r.mass - 0.02) for r in bondi_centered[10.0]["reports"]]
        print(f"  |m-2M| sequence: {['%.2e' % d for d in devs]}", end=" ")
        assert all(a > b for a, b in zip(devs, devs[1:])), devs


def test_criterion_8_zs_comparison(offset_record, glued_record):
    with report(8, "exterior-zone comparison properties (offset 0.2)"):
        rows = radial_comparison_series(GLUED_M001, offset_record)
        assert all(row.n_minus_varpi >= -1e-8 for row in rows)
        ts = np.array([row.t for row in rows])
        uu = np.array([row.u_minus_uhat for row in rows])
        sel = (ts >= 10.0) & (ts <= 200.0)
        assert np.ptp(uu[sel]) <= 0.05
        out = transport_residuals_zs(GLUED_M001, offset_record,
                                     probe_rhos=[20.0, 35.0, 50.0])
        assert out["bvarpi"] <= 1e-5 * out["bvarpi_scale"]
        assert out["cmr_1"] <= 1e-5 * out["cmr_1_scale"]
        # centered configuration: varpi = n to 1e-8 on every exterior-zone
        # sample of the record, which must include one in 10 <= rho <= 20
        centred = radial_comparison_series(GLUED_M001, glued_record)
        assert centred
        assert any(10.0 <= row.rho <= 20.0 for row in centred)
        assert all(abs(row.n_minus_varpi) <= 1e-8 for row in centred)


def test_criterion_9_kg_decay(kg_standard, kg_cluster_pair):
    with report(9, "Klein-Gordon decay, energy drift, commutation convergence"):
        cfg, states = kg_standard
        s40 = next(s for s in states if abs(s.t - 40.0) < 1e-9)
        s80 = next(s for s in states if abs(s.t - 80.0) < 1e-9)
        ratio = s40.sup_phi / s80.sup_phi
        assert abs(ratio - 2 ** 1.5) <= 0.25 * 2 ** 1.5
        slope = decay_slope(states, 20.0, 80.0)
        assert -1.7 <= slope <= -1.3
        e0 = energy(states[0])
        assert max(abs(energy(s) / e0 - 1.0) for s in states[1:]) <= 1e-6
        res = {}
        for drinv, (c, clusters) in kg_cluster_pair.items():
            res[drinv] = max(commutation_residual(c, cl, "S")
                             for cl in clusters)
        factor = res[96] / res[192]
        assert 2.8 <= factor <= 5.2
        elapsed = (FIXTURE_SECONDS.get("kg_standard", 0.0)
                   + FIXTURE_SECONDS.get("kg_clusters", 0.0))
        print(f"  kg runtime {elapsed:.0f}s ratio {ratio:.3f} slope {slope:.3f}"
              f" conv {factor:.2f}", end=" ")
        assert elapsed <= 120.0


def test_criterion_10_cone_sphere():
    with report(10, "cone-sphere geometry on the uhat level set"):
        rec = exp_map(GLUED_M005, np.zeros(4), Direction(0.49, (1, 0, 0)),
                      [10.0], ode_tol=1e-11)
        st = rec.state_at(10.0)
        r = float(np.linalg.norm(st["x"][1:]))
        uh = st["x"][0] - (r + 0.2 * np.log(r - 0.1))
        rep = cone_sphere_geometry(GLUED_M005, 10.0, uh, angular_grid(6, 1))
        assert 4.0 < rep.r_nodes.min() and rep.r_nodes.max() < 6.0
        assert rep.osc_t <= 1e-8
        assert np.abs(rep.dag_a - rep.dag_a_def).max() <= 1e-7
        assert np.abs(rep.K_sphere / rep.K_model - 1.0).max() <= 0.05
