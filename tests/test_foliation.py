from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import foliation, geodesic
from hyperlab.errors import (BracketFailure, CentralLineDegenerate,
                             CoordinateSingularity, FanTooCoarse, MissingK,
                             OutOfRange, SeedRegionTooSmall, Unreachable)
from hyperlab.foliation import (angular_grid, frames_at, leaf_frames,
                                leaf_scalars, leaf_slice, second_fundamental_at,
                                second_fundamental_fd_oracle,
                                solve_level_nodes, structure_residuals)
from hyperlab.geodesic import Direction, exp_map, fan_build
from hyperlab.mass import mass_of_leaf
from hyperlab.metric import MetricModel

MINK = MetricModel.minkowski()
GLUED = MetricModel.glued(0.01)


@pytest.fixture(scope="module")
def mink_record():
    return exp_map(MINK, np.zeros(4), Direction(0.5, (1, 0, 0)),
                   [1.0, 2.0, 3.0], with_jacobi=True, with_k=True)


def test_leaf_scalars_minkowski_closed_form(mink_record):
    sc = leaf_scalars(MINK, mink_record, 3.0)
    assert sc.t == pytest.approx(3.3828780, abs=1e-6)
    assert sc.b == pytest.approx(1.0, abs=1e-10)
    assert sc.rtilde == pytest.approx(1.5632859, abs=1e-6)
    assert sc.u == pytest.approx(1.8195921, abs=1e-6)
    assert sc.ubar == pytest.approx(4.9461639, abs=1e-6)
    assert sc.u * sc.ubar == pytest.approx(9.0, abs=1e-9)
    assert sc.tau == pytest.approx(sc.t, abs=1e-9)


@settings(max_examples=12, deadline=None)
@given(z=st.floats(0.1, 2.5), rho=st.floats(0.5, 3.0))
def test_rho_squared_equals_u_ubar(z, rho):
    rec = exp_map(MINK, np.zeros(4), Direction(z, (0, 1, 0)), [3.0],
                  ode_tol=1e-11)
    sc = leaf_scalars(MINK, rec, rho)
    assert abs(sc.u * sc.ubar - rho * rho) <= 1e-10 * rho * rho


def test_rho_squared_invariant_glued(glued_record):
    for rho in (2.0, 10.0, 25.0):
        sc = leaf_scalars(GLUED, glued_record, rho)
        assert abs(sc.u * sc.ubar - rho**2) <= 1e-10 * rho**2
        assert sc.u > 0.0


def test_flat_core_origin_limits():
    # b^{-1} -> n(O) = 1 and tau/t -> 1 as rho -> 0 (exactly flat core)
    rec = exp_map(GLUED, np.zeros(4), Direction(0.8, (0, 0, 1)),
                  [0.05, 0.1, 0.2, 1.0], with_jacobi=True, with_k=True)
    for rho in (0.05, 0.1, 0.2):
        sc = leaf_scalars(GLUED, rec, rho)
        assert abs(1.0 / sc.b - 1.0) < 1e-12
        assert abs(sc.tau / sc.t - 1.0) < 1e-12


def test_frames_minkowski(mink_record):
    fr = frames_at(MINK, mink_record, 3.0)
    sc = leaf_scalars(MINK, mink_record, 3.0)
    assert np.allclose(fr.N, [0, 1, 0, 0], atol=1e-12)
    res = 2 * 3.0 * fr.B - sc.ubar * fr.L - sc.u * fr.Lb
    assert np.abs(res).max() < 1e-12


def frame_residuals(model, rec, rho):
    fr = frames_at(model, rec, rho)
    sc = leaf_scalars(model, rec, rho)
    g = fr.g
    bt = sc.t / sc.b
    checks = [
        abs(fr.T @ g @ fr.T + 1), abs(fr.B @ g @ fr.B + 1),
        abs(fr.N @ g @ fr.N - 1), abs(fr.Nbar @ g @ fr.Nbar - 1),
        abs(fr.L @ g @ fr.Lb + 2), abs(fr.L @ g @ fr.L),
        abs(fr.Lb @ g @ fr.Lb),
        np.abs(rho * fr.B - (bt * fr.T + sc.rtilde * fr.N)).max(),
        np.abs(rho * fr.Nbar - (sc.rtilde * fr.T + bt * fr.N)).max(),
        np.abs(2 * rho * fr.B - sc.ubar * fr.L - sc.u * fr.Lb).max(),
        np.abs(2 * rho * fr.Nbar - sc.ubar * fr.L + sc.u * fr.Lb).max(),
        np.abs(rho * fr.T - (bt * fr.B - sc.rtilde * fr.Nbar)).max(),
        np.abs(rho * fr.N - (bt * fr.Nbar - sc.rtilde * fr.B)).max(),
        abs(fr.eA[0] @ g @ fr.B), abs(fr.eA[0] @ g @ fr.Nbar),
        abs(fr.eA[1] @ g @ fr.eA[0]),
    ]
    return max(checks)


def test_frame_decomposition_residuals_glued(glued_record):
    for rho in (5.0, 15.0, 25.0):
        assert frame_residuals(GLUED, glued_record, rho) < 1e-8


def test_frame_decomposition_residuals_offset(offset_record):
    for rho in (10.0, 30.0, 50.0):
        assert frame_residuals(GLUED, offset_record, rho) < 1e-8


def test_leaf_normal_has_no_time_part(glued_record, offset_record):
    # N = (rho B - bt T)/rtilde with bt = rho n B^t: N^0 is exactly 0
    for rec in (glued_record, offset_record):
        assert np.all(leaf_frames(GLUED, [rec], rec.rho).frames.N[:, 0] == 0.0)


def test_central_line_degenerate(monkeypatch):
    rec = exp_map(GLUED, np.zeros(4), Direction(0.0, (1, 0, 0)), [5.0],
                  with_jacobi=True, with_k=True)
    with pytest.raises(CentralLineDegenerate):
        frames_at(GLUED, rec, 5.0)
    # closer to the central line than the transverse mini-fan's half-width
    # 2 _FAN_DELTA: raised before the mini-fan is integrated
    rec = exp_map(GLUED, np.zeros(4), Direction(0.005, (1, 0, 0)),
                  [1.0, 3.0, 5.0], with_jacobi=True, with_k=True)

    def no_integration(*args, **kwargs):
        raise AssertionError("mini-fan integrated")

    monkeypatch.setattr(foliation, "integrate_rays", no_integration)
    with pytest.raises(CentralLineDegenerate):
        structure_residuals(GLUED, rec, probe_rhos=[3.0])


def test_second_fundamental_minkowski_umbilic(mink_record):
    for rho in (1.0, 2.0, 3.0):
        k = second_fundamental_at(MINK, mink_record, rho)
        assert k.trk == pytest.approx(3.0 / rho, abs=1e-10)
        assert np.abs(k.khat).max() < 1e-10


def test_second_fundamental_regularized_small_rho():
    # trk - 3/rho -> 0 and khat -> 0 as rho -> 0 for the glued model
    rec = exp_map(GLUED, np.zeros(4), Direction(1.2, (1, 0, 0)),
                  [0.05, 0.2, 0.8], with_jacobi=True, with_k=True)
    q = np.abs(rec.q0)
    kh = np.abs(rec.khat).max(axis=(1, 2))
    assert q[0] < 1e-12 and kh[0] < 1e-12       # still inside the core
    assert q[-1] < 0.05 and kh[-1] < 0.05


def test_transport_vs_fd_oracle_centered(probe_fan):
    ko = second_fundamental_fd_oracle(GLUED, probe_fan, (2, 2, 2), 25.0)
    st = probe_fan.record(2, 2, 2).state_at(25.0)
    kt = st["khat"] + (1.0 / 25.0 + st["q0"] / 3.0) * np.eye(3)
    assert np.abs(ko - ko.T).max() < 1e-8
    assert np.abs(ko - kt).max() < 1e-4 * np.abs(kt).max()


def test_transport_vs_fd_oracle_offset(offset_fan):
    ko = second_fundamental_fd_oracle(GLUED, offset_fan, (2, 2, 2), 20.0)
    st = offset_fan.record(2, 2, 2).state_at(20.0)
    kt = st["khat"] + (1.0 / 20.0 + st["q0"] / 3.0) * np.eye(3)
    assert np.abs(ko - kt).max() < 1e-4 * np.abs(kt).max()


def _mink_fan(n_zeta, dz):
    """Minkowski fan about (zeta=1, x-axis), rho grid [5, 10]: n_zeta nodes
    on the zeta axis and 5 on the angles, all at spacing dz."""
    side = dz * np.arange(-2, 3)
    return fan_build(MINK, np.zeros(4), 1.0 + dz * np.arange(n_zeta),
                     np.pi / 2 + side, side, [5.0, 10.0], ode_tol=1e-9)


FAN_DIAGNOSTICS = {
    "oracle": lambda fan, probe: second_fundamental_fd_oracle(MINK, fan, probe,
                                                              9.0),
}
# each guard of the 5-point stencil: the fan, the probes, the message
FAN_GUARDS = {
    "4-node-axis": (lambda: _mink_fan(4, 5e-3), [(2, 2, 2)], "5 nodes"),
    "probe-near-boundary": (lambda: _mink_fan(5, 5e-3),
                            [(0, 0, 0), (1, 2, 2), (2, 2, 3), (4, 4, 4)],
                            "boundary"),
    "spacing": (lambda: _mink_fan(5, 3e-2), [(2, 2, 2)], "spacing"),
}


@pytest.mark.parametrize("diagnostic, guard", [
    (d, g) for d in FAN_DIAGNOSTICS for g in FAN_GUARDS])
def test_fd_oracle_coarse_fan_error(diagnostic, guard):
    # every fan diagnostic refuses a fan that cannot resolve its stencil,
    # rather than reading wrapped or missing neighbours
    build, probes, message = FAN_GUARDS[guard]
    fan = build()
    for probe in probes:
        with pytest.raises(FanTooCoarse, match=message):
            FAN_DIAGNOSTICS[diagnostic](fan, probe)


def test_minkowski_fd_oracle_matches_umbilic():
    dz = 4e-3
    fan = fan_build(MINK, np.zeros(4), 1.0 + dz * np.arange(-2, 3),
                    np.pi / 2 + dz * np.arange(-2, 3), dz * np.arange(-2, 3),
                    [1.0, 10.0], ode_tol=1e-11)
    ko = second_fundamental_fd_oracle(MINK, fan, (2, 2, 2), 10.0)
    assert np.abs(ko - np.eye(3) / 10.0).max() < 1e-6


def test_structure_residuals_minkowski(mink_record):
    tab = structure_residuals(MINK, mink_record, probe_rhos=[2.0, 3.0])
    for key in ("Bb1", "ctt", "s1", "eq_3_14_1", "s1_1", "Bu", "t_of_u",
                "n_of_binv"):
        assert tab[key] <= 1e-9, key
    assert tab["zbar_max"] < 1e-12


def test_structure_residuals_glued(glued_record):
    tab = structure_residuals(GLUED, glued_record,
                              probe_rhos=[5.0, 15.0, 25.0])
    assert tab["ctt"] <= 1e-7
    assert tab["s1"] <= 1e-6
    for key in ("Bb1", "ctt", "s1", "eq_3_14_1", "s1_1", "Bu"):
        assert tab[key] <= 1e-5 * tab[key + "_scale"], key
    assert tab["t_of_u"] <= 1e-5
    assert tab["n_of_binv"] <= 1e-5 * max(tab["n_of_binv_scale"], 1e-3)


def test_structure_residuals_offset(offset_record):
    tab = structure_residuals(GLUED, offset_record,
                              probe_rhos=[10.0, 30.0, 50.0])
    for key in ("Bb1", "ctt", "s1", "eq_3_14_1", "s1_1", "Bu"):
        assert tab[key] <= 1e-5 * tab[key + "_scale"], key


def test_structure_residuals_requires_k():
    rec = exp_map(GLUED, np.zeros(4), Direction(1.0, (1, 0, 0)), [1.0, 2.0],
                  with_jacobi=True)
    with pytest.raises(MissingK):
        structure_residuals(GLUED, rec)
    # k without Jacobi fields: the transverse residuals need the fields
    rec = exp_map(GLUED, np.zeros(4), Direction(1.0, (1, 0, 0)), [1.0, 2.0],
                  with_k=True)
    with pytest.raises(MissingK):
        structure_residuals(GLUED, rec)


def test_transverse_residuals_polar_axis():
    # on the polar axis of the mini-fan's (theta, phi) chart d/dphi vanishes
    # and the Gram matrix of the parameter tangents is singular; a record
    # tilted off the axis by 1e-6 keeps the identity (t_of_u 4.6e-11), and
    # so does one tilted by 1e-8 (t_of_u 4.7e-11), a tilt at which
    # arccos(omega_z) would round theta to 0
    for tilt, singular in ((0.0, True), (1e-6, False), (1e-8, False)):
        rec = exp_map(GLUED, np.zeros(4),
                      Direction(1.0, (np.sin(tilt), 0.0, np.cos(tilt))),
                      [1.0, 5.0, 10.0], ode_tol=1e-11, with_jacobi=True,
                      with_k=True)
        if singular:
            with pytest.raises(CoordinateSingularity, match="polar axis"):
                structure_residuals(GLUED, rec, probe_rhos=[5.0])
        else:
            tab = structure_residuals(GLUED, rec, probe_rhos=[5.0])
            assert tab["t_of_u"] <= 1e-9 and tab["n_of_binv"] <= 1e-9


def test_solve_level_nodes_minkowski_closed_forms():
    # on H_rho: t = rho cosh(zeta) and uhat = t - r = rho exp(-zeta)
    nodes = angular_grid(3, 2)
    zs, _ = solve_level_nodes(MINK, np.zeros(4), 10.0, 40.0, nodes)
    assert np.abs(zs - np.arccosh(4.0)).max() <= 1e-10
    zs, recs = solve_level_nodes(MINK, np.zeros(4), 10.0, 2.0, nodes,
                                 level="uhat")
    assert np.abs(zs - np.log(5.0)).max() <= 1e-10
    assert all(r.has_jacobi and r.has_k for r in recs)


def test_solve_level_nodes_batch_order():
    # every Newton solve integrates each node as its own lane, so the order
    # of the nodes leaves each root and record bit-identical
    origin = np.array([0.0, 0.2, 0.0, 0.0])
    nodes = angular_grid(4, 1, axis=(1.0, 0.0, 0.0))
    za, ra = solve_level_nodes(GLUED, origin, 10.0, 40.0, nodes)
    zb, rb = solve_level_nodes(GLUED, origin, 10.0, 40.0, nodes[::-1])
    assert np.array_equal(za, zb[::-1])
    for a, b in zip(ra, rb[::-1]):
        for key in ("x", "b", "j", "jp", "triad", "q0", "khat"):
            assert np.array_equal(getattr(a, key), getattr(b, key)), key


def test_solve_level_nodes_unreachable_above_bracket():
    # t = rho cosh(zeta) <= cosh(ZETA_MAX_DEFAULT) = 201.7 on H_1
    with pytest.raises(Unreachable):
        solve_level_nodes(MINK, np.zeros(4), 1.0, 1000.0, angular_grid(2, 1))


def test_solve_level_nodes_monotone_guard(monkeypatch):
    # df changing sign between a node's iterates means the level function
    # folds over inside the bracket
    slope = foliation._level_slope
    calls = []

    def folded(*args):
        F, df = slope(*args)
        calls.append(1)
        return F, (df if len(calls) == 1 else -df)

    monkeypatch.setattr(foliation, "_level_slope", folded)
    with pytest.raises(BracketFailure, match="not monotone"):
        solve_level_nodes(GLUED, np.zeros(4), 10.0, 40.0, angular_grid(2, 1))


def _spy_solver(monkeypatch):
    """Every integration of the leaf solver (foliation._ray_ends), as
    (records, loose) pairs: a round is loose unless its tolerance is
    TIGHT_TOL, which marks the leaf records."""
    calls = []

    def counted(*args, _run=foliation._ray_ends, **kwargs):
        recs = _run(*args, **kwargs)
        calls.append((recs, recs[0].ode_tol != foliation.TIGHT_TOL))
        return recs

    monkeypatch.setattr(foliation, "_ray_ends", counted)
    return calls


@pytest.mark.parametrize("model, origin, rho", [
    (GLUED, [0.0, 1.5, 0.0, 0.0], 10.0),       # origin in the blend annulus
    (GLUED, [0.0, 0.99, 0.0, 0.0], 10.0),      # core, beyond the seed margin
    (MINK, [0.0, 0.0, 0.0, 0.0], 2e-3),        # leaf below the seed cap
], ids=["annulus", "core-edge", "minkowski-tiny-rho"])
def test_seed_region_raised_before_integration(monkeypatch, model, origin,
                                               rho):
    # every leaf record carries k, so an origin that leaves no lane a
    # flat-core seed fails before the loose rounds integrate anything
    calls = []

    def spy(*args, _run=geodesic._dop853, **kwargs):
        calls.append(args)
        return _run(*args, **kwargs)

    monkeypatch.setattr(geodesic, "_dop853", spy)
    with pytest.raises(SeedRegionTooSmall):
        mass_of_leaf(model, np.array(origin), 2.0 * rho, rho,
                     angular_grid(4, 1))
    assert calls == []


def test_leaf_slice_integrate_rays_budget(monkeypatch):
    # the flat seed leaves a few Newton steps, each one batched solve over
    # the open nodes; no solve is wider than the node count
    calls = _spy_solver(monkeypatch)
    leaf_slice(GLUED, np.zeros(4), 40.0, 10.0, angular_grid(4, 1))
    assert len(calls) <= 4
    assert max(len(recs) for recs, _ in calls) <= 4


def test_leaf_work_budget_inexact_newton(monkeypatch):
    # the Newton iterates before the last run loose (the first at LOOSE_TOL
    # on every lane); every record returned is tight with the full payload.
    # An all-tight Newton spends 8,448 lane evaluations on this leaf.  With
    # every round at its end state only (no dense-output stages) it spends
    # 4,344, of which the tight round takes 2,264; the bound adds the +-7 %
    # that rounding-level changes of the RHS move DOP853 step counts by.
    calls = _spy_solver(monkeypatch)
    nodes = angular_grid(4, 1)
    _, recs = solve_level_nodes(GLUED, np.zeros(4), 15.79, 63.16, nodes)
    assert len(calls) <= 4
    assert max(len(c) for c, _ in calls) <= len(nodes)
    assert calls[0][1]
    assert all(r.ode_tol == foliation.LOOSE_TOL for r in calls[0][0])
    for r in recs:
        assert r.ode_tol == 1e-12 and r.has_jacobi and r.has_k
    assert sum(r.rhs_evals for c, _ in calls for r in c) <= 4650
    # an exact flat root is found by the loose solve and accepted only by a
    # tight one
    calls.clear()
    _, recs = solve_level_nodes(MINK, np.zeros(4), 10.0, 40.0, nodes)
    assert len(calls) == 2
    assert all(r.ode_tol == 1e-12 for r in recs)


@pytest.mark.parametrize("rho, target, nodes, level", [
    (10.0, 20.0, angular_grid(4, 1), "t"),
    (15.0, 3.0, angular_grid(6, 1), "uhat")], ids=["t=2rho", "uhat"])
def test_leaf_three_integrations(monkeypatch, rho, target, nodes, level):
    # two loose rounds and one tight round: the curvature-corrected step
    # lands the first tight iterate within the acceptance bound on both
    # levels.  Every iterate keeps only its end state, with no dense
    # output: loose ones carry Jacobi fields but no k, and every returned
    # record is tight with Jacobi fields and k.  A tight record takes the
    # 12 stages of each step, accepted or rejected, and the 2 evaluations
    # of the starting step, and no dense-output stage.
    calls = _spy_solver(monkeypatch)
    _, recs = solve_level_nodes(GLUED, np.zeros(4), rho, target, nodes,
                                level=level)
    assert [loose for _, loose in calls] == [True, True, False]
    for c, loose in calls:
        for r in c:
            assert r._dense is None
            assert len(r.x) == 1 and np.array_equal(r.rho, [rho])
            st = r.state_at(rho)
            for key in ("x", "b", "j", "jp", "triad", "q0", "khat"):
                val = getattr(r, key)
                assert (st[key] is None if val is None
                        else np.array_equal(st[key], val[0])), key
            with pytest.raises(OutOfRange):
                r.state_at(rho / 2)
            if loose:
                assert r.has_jacobi and not r.has_k
                assert r.ode_tol > foliation.TIGHT_TOL
    for r in recs:
        assert r.ode_tol == foliation.TIGHT_TOL
        assert r.has_jacobi and r.has_k
        assert r.rhs_evals == 2 + 12 * (r.steps + r.rejected)


def test_leaf_records_match_integrate_rays():
    # a tight leaf record takes the steps of integrate_rays on its direction
    # at TIGHT_TOL with Jacobi fields and k; only its sample at rho comes
    # from the integrator's end state instead of the dense output there
    rho = 15.79
    _, recs = solve_level_nodes(GLUED, np.zeros(4), rho, 63.16,
                                angular_grid(4, 1))
    dense = geodesic.integrate_rays(GLUED, np.zeros(4),
                                    [r.direction for r in recs], [rho],
                                    ode_tol=foliation.TIGHT_TOL,
                                    with_jacobi=True, with_k=True)
    for r, d in zip(recs, dense):
        assert (r.steps, r.rejected) == (d.steps, d.rejected)
        for key in ("x", "b", "j", "jp", "triad", "q0", "khat"):
            a, b = getattr(r, key), getattr(d, key)
            assert np.all(np.abs(a - b) <= 4 * np.spacing(np.abs(b))), key


def test_solve_level_nodes_grouping():
    # each node solved alone gives the root and record of the full solve
    nodes = angular_grid(4, 1)
    zs, recs = solve_level_nodes(GLUED, np.zeros(4), 10.0, 40.0, nodes)
    for node, z, rec in zip(nodes, zs, recs):
        (za,), (ra,) = solve_level_nodes(GLUED, np.zeros(4), 10.0, 40.0,
                                         [node])
        assert za == z
        for key in ("x", "b", "j", "jp", "triad", "q0", "khat"):
            assert np.array_equal(getattr(ra, key), getattr(rec, key)), key


def test_leaf_slice_minkowski_round_sphere():
    sl = leaf_slice(MINK, np.zeros(4), 5.0, 3.0, angular_grid(8, 1))
    assert sl.area == pytest.approx(4 * np.pi * 16.0, rel=1e-8)
    assert sl.area_radius == pytest.approx(4.0, rel=1e-8)
    for x in sl.frames.frames.x:
        assert np.linalg.norm(x[1:]) == pytest.approx(4.0, abs=1e-8)
        assert abs(x[0] - 5.0) <= 1e-9 * 5.0
    for trchi, trchib, chihat in zip(sl.trchi, sl.trchib, sl.chihat):
        assert trchi == pytest.approx(0.5, abs=1e-9)
        assert trchib == pytest.approx(-0.5, abs=1e-9)
        assert np.abs(chihat).max() < 1e-9


def test_leaf_slice_centered_symmetry():
    sl = leaf_slice(GLUED, np.zeros(4), 50.0, 10.0, angular_grid(4, 1))
    rads = [np.linalg.norm(x[1:]) for x in sl.frames.frames.x]
    assert max(rads) - min(rads) < 1e-9 * max(rads)
    for trchi, trchib in zip(sl.trchi, sl.trchib):
        assert trchi > 0 and trchib < 0


def test_leaf_slice_offset_area_vs_refined():
    nodes_a = angular_grid(8, 1, axis=(1.0, 0.0, 0.0))
    nodes_b = angular_grid(14, 1, axis=(1.0, 0.0, 0.0))
    origin = np.array([0.0, 0.2, 0.0, 0.0])
    sa = leaf_slice(GLUED, origin, 50.0, 10.0, nodes_a)
    sb = leaf_slice(GLUED, origin, 50.0, 10.0, nodes_b)
    rads = [np.linalg.norm(x[1:]) for x in sa.frames.frames.x]
    assert max(rads) - min(rads) > 1e-4        # genuinely aspherical
    assert sa.area_radius == pytest.approx(sb.area_radius, rel=1e-5)


def test_leaf_slice_unreachable():
    with pytest.raises(Unreachable):
        leaf_slice(MINK, np.zeros(4), 2.0, 3.0, angular_grid(2, 1))


def _leaf_frame_arrays(lf):
    """Every array a leaf_frames result carries, by name."""
    out = {"binv": lf.binv, "degenerate": lf.degenerate}
    out.update({"st." + key: v for key, v in lf.st.items() if v is not None})
    for part in ("scalars", "frames", "k"):
        obj = getattr(lf, part)
        out.update({f"{part}.{f.name}": getattr(obj, f.name)
                    for f in fields(obj)})
    return out


@pytest.mark.parametrize("case", ["one record, many rho",
                                  "many records, one rho"])
def test_leaf_frames_batch_independent(offset_record, probe_fan, case):
    # each point of a batch is bit-identical to the point evaluated alone
    if case == "one record, many rho":
        recs, rhos = [offset_record], offset_record.rho
    else:
        recs, rhos = probe_fan.records[::7], [25.0]
    batch = _leaf_frame_arrays(leaf_frames(GLUED, recs, rhos))
    assert not batch["degenerate"].any()
    for i, (rec, rho) in enumerate((rec, rho) for rec in recs for rho in rhos):
        alone = _leaf_frame_arrays(leaf_frames(GLUED, [rec], [rho]))
        for name, v in batch.items():
            assert np.array_equal(v[i], alone[name][0]), (name, i)


def test_slice_frames_match_frames_at(probe_fan):
    # the nodes of a slice carry the frames that frames_at gives alone
    recs = probe_fan.records[::11]
    nodes = [(*rec.direction.angles(), 1.0) for rec in recs]
    sl = foliation._slice_of_records(GLUED, 0.0, 25.0, nodes, recs, "t")
    for i, rec in enumerate(sl.records):
        alone = frames_at(GLUED, rec, 25.0)
        for f in fields(alone):
            assert np.array_equal(getattr(sl.frames.frames, f.name)[i],
                                  getattr(alone, f.name)), f.name
