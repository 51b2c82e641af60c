from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import foliation, geodesic
from hyperlab.errors import (BracketFailure, CentralLineDegenerate,
                             CoordinateSingularity, FanTooCoarse, MissingK,
                             OutOfRange, SeedRegionTooSmall, Unreachable)
from hyperlab.foliation import (angular_grid, frames_at, leaf_frames,
                                leaf_scalars, leaf_slice, mini_fan_directions,
                                second_fundamental_at,
                                second_fundamental_fd_oracle,
                                solve_level_nodes, structure_residuals)
from hyperlab.geodesic import (_FIELDS, Direction, exp_map, fan_build,
                               integrate_rays)
from hyperlab.mass import mass_of_leaf
from hyperlab.metric import HORIZON_MARGIN, MetricModel, metric_at
from conftest import spy_integrations
from oracles import sphere_pair

MINK = MetricModel.minkowski()
GLUED = MetricModel.glued(0.01)


@pytest.fixture(scope="module")
def mink_record():
    return exp_map(MINK, np.zeros(4), Direction(0.5, (1, 0, 0)),
                   [1.0, 2.0, 3.0], with_k=True)


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
                  [0.05, 0.1, 0.2, 1.0], with_k=True)
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


def test_central_line_degenerate():
    rec = exp_map(GLUED, np.zeros(4), Direction(0.0, (1, 0, 0)), [5.0],
                  with_k=True)
    with pytest.raises(CentralLineDegenerate):
        frames_at(GLUED, rec, 5.0)
    # closer to the central line than the transverse mini-fan's half-width
    # 2 _FAN_DELTA: the mini-fan's directions raise, so it is never
    # integrated
    with pytest.raises(CentralLineDegenerate):
        mini_fan_directions(Direction(0.005, (1, 0, 0)))


def test_second_fundamental_minkowski_umbilic(mink_record):
    for rho in (1.0, 2.0, 3.0):
        k = second_fundamental_at(MINK, mink_record, rho)
        assert k.trk == pytest.approx(3.0 / rho, abs=1e-10)
        assert np.abs(k.khat).max() < 1e-10


def test_second_fundamental_regularized_small_rho():
    # trk - 3/rho -> 0 and khat -> 0 as rho -> 0 for the glued model
    rec = exp_map(GLUED, np.zeros(4), Direction(1.2, (1, 0, 0)),
                  [0.05, 0.2, 0.8], with_k=True)
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
    # the oracle expresses k in the probe's triad, which a plain fan lacks
    plain = fan_build(MINK, np.zeros(4), fan.zeta_grid, fan.theta_grid,
                      fan.phi_grid, [1.0, 10.0], ode_tol=1e-11, with_k=False)
    with pytest.raises(MissingK, match="probe record lacks the parallel"):
        second_fundamental_fd_oracle(MINK, plain, (2, 2, 2), 10.0)


def _mini_fan(model, rec, rho):
    """The record's mini-fan integrated on its own to rho, as plain lanes."""
    return integrate_rays(model, rec.origin,
                          mini_fan_directions(rec.direction), [rho],
                          ode_tol=rec.ode_tol)


def test_structure_residuals_minkowski(mink_record):
    tab = structure_residuals(MINK, mink_record, probe_rhos=[2.0, 3.0],
                              neighbours=_mini_fan(MINK, mink_record, 3.0))
    for key in ("Bb1", "ctt", "s1", "eq_3_14_1", "s1_1", "Bu", "t_of_u",
                "n_of_binv"):
        assert tab[key] <= 1e-9, key
    assert tab["zbar_max"] < 1e-12


def test_structure_residuals_glued(glued_record):
    tab = structure_residuals(GLUED, glued_record,
                              probe_rhos=[5.0, 15.0, 25.0],
                              neighbours=_mini_fan(GLUED, glued_record, 25.0))
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
    rec = exp_map(GLUED, np.zeros(4), Direction(1.0, (1, 0, 0)), [1.0, 2.0])
    with pytest.raises(MissingK):
        structure_residuals(GLUED, rec)
    with pytest.raises(MissingK, match="record has no k"):
        second_fundamental_at(GLUED, rec, 2.0)
    # k implies the Jacobi fields it is read off, which the transverse
    # residuals need too
    rec = exp_map(GLUED, np.zeros(4), Direction(1.0, (1, 0, 0)), [1.0, 2.0],
                  with_k=True)
    assert rec.has_k and rec.j is not None
    # a probe rho must lie inside (2 rho_seed, 0.999 rho_reached)
    with pytest.raises(OutOfRange, match="no admissible probe rhos"):
        structure_residuals(GLUED, rec, probe_rhos=[2.0])


def test_transverse_residuals_polar_axis():
    # on the polar axis of the mini-fan's (theta, phi) chart d/dphi vanishes
    # and the Gram matrix of the parameter tangents is singular; a record
    # tilted off the axis by 1e-6 keeps the identity (t_of_u 2.5e-11), and
    # so does one tilted by 1e-8 (t_of_u 2.5e-11), a tilt at which
    # arccos(omega_z) would round theta to 0
    for tilt, singular in ((0.0, True), (1e-6, False), (1e-8, False)):
        rec = exp_map(GLUED, np.zeros(4),
                      Direction(1.0, (np.sin(tilt), 0.0, np.cos(tilt))),
                      [1.0, 5.0, 10.0], ode_tol=1e-11, with_k=True)
        nbrs = _mini_fan(GLUED, rec, 5.0)
        if singular:
            with pytest.raises(CoordinateSingularity, match="polar axis"):
                structure_residuals(GLUED, rec, probe_rhos=[5.0],
                                    neighbours=nbrs)
        else:
            tab = structure_residuals(GLUED, rec, probe_rhos=[5.0],
                                      neighbours=nbrs)
            assert tab["t_of_u"] <= 1e-9 and tab["n_of_binv"] <= 1e-9


@pytest.fixture(scope="module")
def fan_case():
    """A glued record with k (zeta 1 along x^1, rho to 10) and the 12 lanes
    of its mini-fan with k from the same batch, as hyperlab residuals
    integrates them."""
    d = Direction(1.0, (1.0, 0.0, 0.0))
    rec, *nbrs = integrate_rays(GLUED, np.zeros(4),
                                [d] + mini_fan_directions(d),
                                [1.0, 5.0, 10.0], ode_tol=1e-10, with_k=True)
    return rec, nbrs


def test_transverse_rows_from_batch_neighbours(fan_case):
    # the mini-fan integrated as plain lanes on its own, or with k in the
    # record's batch, keeps the transverse identities within 1e-9 at probe
    # rho 5 (measured: t_of_u 3.0e-10 and 8.9e-12, n_of_binv 1.7e-11 and
    # 4.1e-12); the batch leaves the record bit-identical to itself alone
    rec, batch = fan_case
    alone = exp_map(GLUED, np.zeros(4), rec.direction, rec.rho,
                    ode_tol=rec.ode_tol, with_k=True)
    for key in _FIELDS:
        assert np.array_equal(getattr(rec, key), getattr(alone, key)), key
    for nbrs, with_k in ((_mini_fan(GLUED, rec, 5.0), False), (batch, True)):
        assert all(nb.has_k == with_k for nb in nbrs)
        tab = structure_residuals(GLUED, rec, probe_rhos=[5.0],
                                  neighbours=nbrs)
        assert tab["t_of_u"] <= 1e-9 and tab["n_of_binv"] <= 1e-9
    assert "t_of_u" not in structure_residuals(GLUED, rec, probe_rhos=[5.0])


def _other_origin(rec, nbrs):
    return integrate_rays(GLUED, [0.0, 0.2, 0.0, 0.0],
                          [nb.direction for nb in nbrs], [5.0])


@pytest.mark.parametrize("neighbours, words", [
    (lambda rec, nbrs: nbrs[:11], "11 neighbour records"),
    (_other_origin, "another origin"),
    (lambda rec, nbrs: nbrs[4:8] + nbrs[:4] + nbrs[8:], "_stencil5 order"),
    (lambda rec, nbrs: _mini_fan(GLUED, rec, 4.0), "largest probe rho"),
], ids=["count", "origin", "order", "short"])
def test_structure_residuals_rejects_foreign_neighbours(fan_case, neighbours,
                                                       words):
    # anything but the record's own 12 mini-fan records, reaching the
    # largest probe rho, would difference the wrong leaf function
    rec, nbrs = fan_case
    with pytest.raises(ValueError, match=words):
        structure_residuals(GLUED, rec, probe_rhos=[2.0, 5.0],
                            neighbours=neighbours(rec, nbrs))


def test_solve_level_nodes_minkowski_closed_forms():
    # on H_rho: t = rho cosh(zeta) and uhat = t - r = rho exp(-zeta)
    nodes = angular_grid(3, 2)
    zs, _ = solve_level_nodes(MINK, np.zeros(4), 10.0, 40.0, nodes)
    assert np.abs(zs - np.arccosh(4.0)).max() <= 1e-10
    zs, recs = solve_level_nodes(MINK, np.zeros(4), 10.0, 2.0, nodes,
                                 level="uhat")
    assert np.abs(zs - np.log(5.0)).max() <= 1e-10
    assert all(r.has_k for r in recs)


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
    # the level function folding over inside the bracket: the stencil's F
    # reversed, so that its slope and the tight round's exact slope differ
    # in sign (raised in the tight round, the one integration), or folded
    # back over the stencil's upper points (raised before any integration:
    # the stencil is a quadrature)
    stencil = foliation._stencil_level
    calls = spy_integrations(monkeypatch)
    for fold, integrations in (
            (lambda F: F[:, ::-1], 1),
            (lambda F: np.concatenate([F[:, :3], 2 * F[:, 2:3] - F[:, 3:]],
                                      axis=1), 0)):
        calls.clear()
        monkeypatch.setattr(foliation, "_stencil_level",
                            lambda *args, fold=fold: fold(stencil(*args)))
        with pytest.raises(BracketFailure, match="not monotone"):
            solve_level_nodes(GLUED, np.zeros(4), 10.0, 40.0,
                              angular_grid(2, 1))
        assert len(calls) == integrations


@pytest.mark.parametrize("model, origin, rho", [
    (GLUED, [0.0, 1.5, 0.0, 0.0], 10.0),       # origin in the blend annulus
    (GLUED, [0.0, 1.0, 0.0, 0.0], 10.0),       # on the edge of the core
    (MINK, [0.0, 0.0, 0.0, 0.0], 2e-3),        # leaf below the seed cap
], ids=["annulus", "core-edge", "minkowski-tiny-rho"])
def test_seed_region_raised_before_integration(monkeypatch, model, origin,
                                               rho):
    # an origin that leaves the static line no flat-core seed fails before
    # the stencil integrates anything
    calls = spy_integrations(monkeypatch)
    with pytest.raises(SeedRegionTooSmall):
        mass_of_leaf(model, np.array(origin), 2.0 * rho, rho,
                     angular_grid(4, 1))
    assert calls == []


@pytest.mark.parametrize("origin, t", [
    ([0.0, 0.97, 0.0, 0.0], 320.0), ([0.0, 0.99, 0.0, 0.0], 160.0)],
    ids=["0.97-t320", "0.99-t160"])
def test_tight_seed_raised_before_integration(monkeypatch, origin, t):
    # a core origin whose static line has a seed, but whose tight lanes at
    # the stencil's root leave the core too soon: the tight round raises
    # while seeding, and the stencil integrates nothing, so no integration
    # runs before the raise
    calls = spy_integrations(monkeypatch)
    with pytest.raises(SeedRegionTooSmall):
        solve_level_nodes(GLUED, np.array(origin), 10.0, t,
                          angular_grid(8, 1, axis=(1.0, 0.0, 0.0)))
    assert calls == []


def test_leaf_slice_integrate_rays_budget(monkeypatch):
    # a few tight rounds at most, each one batched solve over the open
    # nodes, one lane per node (the stencil integrates nothing)
    calls = spy_integrations(monkeypatch)
    leaf_slice(GLUED, np.zeros(4), 40.0, 10.0, angular_grid(4, 1))
    assert len(calls) <= 4
    assert max(c.lanes for c in calls) <= 4


def test_leaf_work_budget_inexact_newton(monkeypatch):
    # the stencil integrates nothing (a quadrature); the one integration is
    # the tight round, and every record returned is tight with the triad,
    # the Jacobi fields and k.  On this leaf the tight round takes 410 RHS
    # calls (760 with the stencil's integration of plain lanes, 1,062 with
    # two loose rounds of plain pairs) and 1,640 lane evaluations (2,264
    # when the tight round transported k); each bound adds the +-7 % that
    # rounding-level changes of the RHS move DOP853 step counts by
    calls = spy_integrations(monkeypatch)
    nodes = angular_grid(4, 1)
    _, recs = solve_level_nodes(GLUED, np.zeros(4), 15.79, 63.16, nodes)
    assert [c.loose for c in calls] == [False]
    assert [c.lanes for c in calls] == [4]
    for r in recs:
        assert r.ode_tol == 1e-12 and r.has_k
    assert sum(c.rhs_calls for c in calls) <= 439
    assert sum(c.lane_evals for c in calls) <= 1755
    # an exact flat root is found by the stencil and accepted only by a
    # tight round
    calls.clear()
    _, recs = solve_level_nodes(MINK, np.zeros(4), 10.0, 40.0, nodes)
    assert [c.loose for c in calls] == [False]
    assert all(r.ode_tol == 1e-12 for r in recs)


@pytest.mark.parametrize("rho, target, nodes, level", [
    (10.0, 20.0, angular_grid(4, 1), "t"),
    (15.0, 3.0, angular_grid(6, 1), "uhat")], ids=["t=2rho", "uhat"])
def test_leaf_two_integrations(monkeypatch, rho, target, nodes, level):
    # the stencil (a quadrature, no integration) and one tight round, the
    # leaf's one integration: the stencil's root lands the first tight
    # iterate within the acceptance bound on both levels.  Every returned
    # record is tight with the triad, the Jacobi fields and k, keeps its
    # step log and reads at rho / 2 and at rho the bits that integrate_rays
    # reads on its direction at TIGHT_TOL with k.  A tight record takes the
    # 12 stages of each step, accepted or rejected, and the 2 evaluations
    # of the starting step, and no dense-output stage.
    calls = spy_integrations(monkeypatch)
    _, recs = solve_level_nodes(GLUED, np.zeros(4), rho, target, nodes,
                                level=level)
    assert [c.loose for c in calls] == [False]
    for c in calls:
        assert c.lanes == len(nodes) and c.width == 38
        assert np.all(c.tol == foliation.TIGHT_TOL)
    for r in recs:
        assert r.ode_tol == foliation.TIGHT_TOL
        assert r.has_k and r._log is not None
        assert len(r.x) == 1 and np.array_equal(r.rho, [rho])
        st = r.state_at(rho)
        for key in _FIELDS:
            assert np.array_equal(st[key], getattr(r, key)[0]), key
        (ref,) = integrate_rays(GLUED, np.zeros(4), [r.direction], [rho],
                                foliation.TIGHT_TOL, with_k=True)
        for q in (rho / 2, rho):
            got, want = r.state_at(q), ref.state_at(q)
            for key in _FIELDS:
                assert np.array_equal(got[key], want[key]), (q, key)
        assert r.rhs_evals == 2 + 12 * (r.steps + r.rejected)


@pytest.mark.parametrize("model, rho, target, nodes, level", [
    (GLUED, 6.0, 1.0, angular_grid(6, 1), "uhat"),
    (MetricModel.glued(0.05), 10.0, 40.0, angular_grid(4, 1), "t"),
    (MetricModel.glued(0.2), 10.0, 40.0, angular_grid(4, 1), "t"),
    (GLUED, 6.0, None, angular_grid(6, 1), "uhat"),
    (GLUED, 10.0, np.repeat([20.0, 40.0, 80.0, 160.0], 6),
     angular_grid(6, 1) * 4, "t"),
], ids=["uhat-rho6", "mass0.05", "mass0.2", "cone-sphere", "bondi-batch"])
def test_harder_leaves_one_integration(monkeypatch, model, rho, target,
                                       nodes, level):
    # leaves that took four integrations with Jacobi-field loose rounds, a
    # heavier model whose root lies 0.076 below the flat root (three
    # integrations with the stencil's span [-0.03, 0.005]), the cone-sphere
    # leaf of zs-compare on glued_small, and the batch of the mass
    # subcommand, whose nodes lie at different rapidities: each takes the
    # stencil, which integrates nothing, and one tight round.  The
    # cone-sphere target is the uhat of the ray of rapidity 1 along x^1 at
    # rho.
    if target is None:
        probe = exp_map(model, np.zeros(4), Direction(1.0, (1.0, 0.0, 0.0)),
                        [rho])
        target = foliation._level_value(model, 0.0, probe.x[-1], "uhat")
    calls = spy_integrations(monkeypatch)
    solve_level_nodes(model, np.zeros(4), rho, target, nodes, level=level)
    assert [c.loose for c in calls] == [False]


def _spy_stencil(monkeypatch):
    """The stencil of each solve (its rapidities and F, each (m, p), p the
    stencil's points per node) and
    the rapidities of each tight round."""
    seen = SimpleNamespace(stencil=[], tight=[])
    stencil, rays = foliation._stencil_level, foliation.integrate_rays

    def spy_stencil(model, origin, rho, zk, *args):
        F = stencil(model, origin, rho, zk, *args)
        seen.stencil.append((zk, F))
        return F

    def spy_rays(model, origin, dirs, *args, **kwargs):
        seen.tight.append(np.array([d.zeta for d in dirs]))
        return rays(model, origin, dirs, *args, **kwargs)

    monkeypatch.setattr(foliation, "_stencil_level", spy_stencil)
    monkeypatch.setattr(foliation, "integrate_rays", spy_rays)
    return seen


@pytest.mark.parametrize("rho, target, nodes, level", [
    (15.79, 63.16, angular_grid(4, 1), "t"),
    (15.0, 3.0, angular_grid(6, 1), "uhat")], ids=["t", "uhat"])
def test_stencil_matches_tight_records(monkeypatch, rho, target, nodes,
                                       level):
    # the stencil's F at each of its points (by quadrature) against a tight
    # record at the same rapidity, and its root, the first tight iterate,
    # against the root of tight Newton steps with the exact slope
    # p_zeta . grad F from the Jacobi fields; measured on level uhat, the
    # larger: 2.2e-12 relative in F (2.2e-11 when the stencil integrated
    # its lanes at 1e-11) and 1.9e-12 in zeta, and 5.3e-15 on Minkowski
    p = foliation._Z_POINTS
    th = np.repeat([a[0] for a in nodes], p)
    ph = np.repeat([a[1] for a in nodes], p)
    r_floor = foliation._zs_floor(GLUED, 0.02) if level == "uhat" else 1e-12
    seen = _spy_stencil(monkeypatch)
    solve_level_nodes(GLUED, np.zeros(4), rho, target, nodes, level=level)
    (zk, F), root = seen.stencil[0], seen.tight[0]
    recs = integrate_rays(
        GLUED, np.zeros(4), [geodesic.direction_from_angles(*a)
                             for a in zip(zk.ravel(), th, ph)],
        [rho], foliation.TIGHT_TOL, with_k=True)
    ref, _ = foliation._level_slope(GLUED, recs, level, r_floor)
    assert np.all(np.abs(F.ravel() - ref) <= 1e-10 * np.abs(ref))
    z = root.copy()
    for _ in range(2):
        recs = integrate_rays(
            GLUED, np.zeros(4), [geodesic.direction_from_angles(*a)
                                 for a in zip(z, th[::p], ph[::p])],
            [rho], foliation.TIGHT_TOL, with_k=True)
        Fz, df = foliation._level_slope(GLUED, recs, level, r_floor)
        z = z - (Fz - target) / df
    assert np.all(np.abs(root - z) <= 1e-10)
    # on Minkowski the level function is rho cosh(zeta) exactly
    seen.tight.clear()
    solve_level_nodes(MINK, np.zeros(4), rho, 4.0 * rho, nodes)
    assert np.abs(seen.tight[0] - np.arccosh(4.0)).max() <= 1e-12


@pytest.mark.parametrize("rho, r_flat", [
    (10.0, 2.05), (10.0, 2.2), (6.0, 2.1), (3.5, 2.1)],
    ids=["rho10-2.05", "rho10-2.2", "rho6-2.1", "rho3.5-2.1"])
def test_solve_level_nodes_uhat_near_zone_floor(monkeypatch, rho, r_flat):
    # uhat spheres within 0.3 of the exterior zone's floor (r_out + 0.02),
    # whose lower stencil points end below it, where uhat is undefined:
    # those points only bound the root from below, and every node is
    # accepted on its tight residual, at most one tight round later than a
    # leaf far from the floor
    r_floor = foliation._zs_floor(GLUED, 0.02)
    target = rho * np.exp(-np.arcsinh(r_flat / rho))
    seen = _spy_stencil(monkeypatch)
    calls = spy_integrations(monkeypatch)
    _, recs = solve_level_nodes(GLUED, np.zeros(4), rho, target,
                                angular_grid(4, 1), level="uhat")
    assert np.isnan(seen.stencil[0][1]).any()
    x = np.concatenate([rec.x for rec in recs])
    r = np.linalg.norm(x[:, 1:], axis=1)
    assert np.all((r > r_floor) & (r < r_floor + 0.3))
    f = foliation._level_value(GLUED, 0.0, x, "uhat") - target
    assert np.abs(f).max() <= 1e-10 * max(abs(target), 1.0)
    assert len(calls) <= 3


def test_leaf_records_match_integrate_rays():
    # a tight leaf record is integrate_rays on its direction at TIGHT_TOL
    # with k: the same steps, and its sample at rho, the step log's last
    # row, bit for bit
    rho = 15.79
    _, recs = solve_level_nodes(GLUED, np.zeros(4), rho, 63.16,
                                angular_grid(4, 1))
    dense = geodesic.integrate_rays(GLUED, np.zeros(4),
                                    [r.direction for r in recs], [rho],
                                    ode_tol=foliation.TIGHT_TOL, with_k=True)
    for r, d in zip(recs, dense):
        assert (r.steps, r.rejected) == (d.steps, d.rejected)
        for key in _FIELDS:
            a, b = getattr(r, key), getattr(d, key)
            assert np.array_equal(a, b), key


@pytest.mark.parametrize("rho, target, nodes, level", [
    (15.79, 63.16, angular_grid(4, 1), "t"),
    (15.0, 3.0, angular_grid(6, 1), "uhat")], ids=["t", "uhat"])
def test_leaf_k_matches_tighter_records(rho, target, nodes, level):
    # the k of the leaf records, at TIGHT_TOL (j^-1 p in the triad,
    # rotated), against that of integrate_rays with k at 1e-13 on the same
    # directions, in the same leaf basis.  Largest entry difference,
    # relative to the largest entry of k: 1.2e-14 (t) and 7.3e-15 (uhat);
    # 7.7e-12 and 1.6e-12 when the leaf records took k from Jacobi fields
    # integrated in coordinates
    _, recs = solve_level_nodes(GLUED, np.zeros(4), rho, target, nodes,
                                level=level)
    assert all(r.has_k for r in recs)
    jac = leaf_frames(GLUED, recs, rho).k
    ref = geodesic.integrate_rays(GLUED, np.zeros(4),
                                  [r.direction for r in recs], [rho],
                                  ode_tol=1e-13, with_k=True)
    tight = leaf_frames(GLUED, ref, rho).k
    assert np.abs(jac.k - tight.k).max() <= 3e-11 * np.abs(tight.k).max()


def test_triad_k_matches_leaf_k():
    # the k of leaf records (integrate_rays at TIGHT_TOL, j^-1 p in the
    # parallel triad) against the finite-difference oracle in the triad of
    # the probe of a 5x5x5 fan about the same direction, at 1e-14 and
    # spacing 2e-3.  The oracle's truncation goes as h^4: at rho = 1 on the
    # centred ray it reads 1.8e-9 of |k| at spacing 4e-3 and 1.1e-10 at
    # 2e-3; everywhere else the difference is at most 8.3e-12
    for origin, d, rho in (
            (np.zeros(4), Direction(1.0, (1, 0, 0)), np.linspace(1, 30, 4)),
            (np.array([0.0, 0.2, 0.0, 0.0]), Direction(2.0, (0.6, 0.0, 0.8)),
             np.linspace(1, 55, 4))):
        side = 2e-3 * np.arange(-2, 3)
        theta, phi = d.angles()
        fan = fan_build(GLUED, origin, d.zeta + side, theta + side,
                        phi + side, rho, ode_tol=1e-14)
        for r in rho:
            (rec,) = integrate_rays(GLUED, origin, [d], [r],
                                    foliation.TIGHT_TOL, with_k=True)
            k = rec.khat[0] + (1.0 / r + rec.q0[0] / 3.0) * np.eye(3)
            ko = second_fundamental_fd_oracle(GLUED, fan, (2, 2, 2), r)
            assert np.abs(ko - k).max() <= 3e-10 * np.abs(k).max(), r


def test_centred_leaves_work_and_mass(monkeypatch):
    # the 12 centred leaves of the benchmark's leaf workload (t/rho = 2, 4,
    # 8; rho = 5, 10, 15.79, 20; angular_grid(4, 1)): one integration each,
    # the tight round 38 wide (the triad, the Jacobi fields in it and k);
    # the stencil is a quadrature.  They take 4,632 RHS calls (8,556 when
    # the stencil integrated its lanes, 9,012 with lanes seeded to 0.98
    # r_in, 11,868 with two loose rounds of plain pairs) and 18,528 lane
    # evaluations (19,248 with the 0.98 seed, 19,680 with Jacobi fields in
    # coordinates, 26,424 when they transported k); each bound adds the
    # +-7 % that rounding-level changes of the RHS move DOP853 step counts
    # by.  The exact mass of each leaf is 2M; the largest |m - 2M| is
    # 2.5e-11 (1.8e-11 with Jacobi fields in coordinates, 2.9e-9 with the
    # transported k)
    calls = spy_integrations(monkeypatch)
    worst = 0.0
    for rho in (5.0, 10.0, 15.79, 20.0):
        for f in (2.0, 4.0, 8.0):
            n = len(calls)
            rep = mass_of_leaf(GLUED, np.zeros(4), f * rho, rho,
                               angular_grid(4, 1))
            assert [c.loose for c in calls[n:]] == [False]
            worst = max(worst, abs(rep.mass - 0.02))
    assert all(c.width == 38 for c in calls)
    assert sum(c.rhs_calls for c in calls) <= 4957
    assert sum(c.lane_evals for c in calls) <= 19825
    assert worst <= 1e-10


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
                                  "many records, one rho", "leaf records"])
def test_leaf_frames_batch_independent(offset_record, probe_fan, case):
    # each point of a batch is bit-identical to the point evaluated alone,
    # also for leaf records, whose k comes from their Jacobi fields
    if case == "one record, many rho":
        recs, rhos = [offset_record], offset_record.rho
    elif case == "many records, one rho":
        recs, rhos = probe_fan.records[::7], [25.0]
    else:
        recs = solve_level_nodes(GLUED, np.array([0.0, 0.2, 0.0, 0.0]), 10.0,
                                 40.0, angular_grid(4, 2))[1]
        rhos = [10.0]
    batch = _leaf_frame_arrays(leaf_frames(GLUED, recs, rhos))
    assert not batch["degenerate"].any()
    for i, (rec, rho) in enumerate((rec, rho) for rec in recs for rho in rhos):
        alone = _leaf_frame_arrays(leaf_frames(GLUED, [rec], [rho]))
        for name, v in batch.items():
            assert np.array_equal(v[i], alone[name][0]), (name, i)


def test_sphere_pairs_match_point_rule(offset_record, probe_fan):
    # the stacked sphere pairs equal the per-point rule bit for bit, with
    # the fixed vectors of leaf_frames ({T, N}), of the cone sphere (B and a
    # unit vector off it, here Nbar) and of the static tetrad (the radial
    # unit vector), at the points of an offset record and of a fan, and on
    # the Schwarzschild horizon guard, where the coordinate axes are most
    # nearly g-parallel to the radial direction
    lf = leaf_frames(GLUED, [offset_record] + probe_fan.records[::7],
                     np.linspace(2.0, 25.0, 4))
    fr = lf.frames
    schw = MetricModel.schwarzschild(0.4)
    xs = np.array([[0.0, *v] for v in ([1.0, 1.0, 1.0], [1.0, 0.0, 0.0],
                                       [0.3, -0.5, 0.8])])
    xs[:, 1:] *= (0.8 * (1.0 + 2.0 * HORIZON_MARGIN)
                  / np.linalg.norm(xs[:, 1:], axis=1))[:, None]
    g_s = metric_at(schw, xs, level=0).g
    rad = np.concatenate([np.zeros((3, 1)), xs[:, 1:]], axis=1)
    rad /= np.sqrt(np.einsum('na,nab,nb->n', rad, g_s, rad))[:, None]
    T_s = np.zeros((3, 4))
    T_s[:, 0] = 1.0 / np.sqrt(-g_s[:, 0, 0])
    cases = [(fr.g, np.stack([fr.T, fr.N], axis=1)),
             (fr.g, np.stack([fr.B, fr.Nbar], axis=1)),
             (fr.g, fr.N[:, None]),
             (g_s, np.stack([T_s, rad], axis=1)), (g_s, rad[:, None])]
    for g, fixed in cases:
        got = foliation._sphere_pairs(g, fixed)
        for i in range(len(g)):
            assert np.array_equal(got[i], sphere_pair(g[i], list(fixed[i])))
    assert np.array_equal(fr.eA, foliation._sphere_pairs(
        fr.g, np.stack([fr.T, fr.N], axis=1)))
    # a fixed plane holding the second least aligned axis e_z: both rules
    # skip it for the third, e_x
    flat = np.diag([-1.0, 1.0, 1.0, 1.0])
    T = np.array([np.sqrt(6.41), 2.1, 0.0, 1.0])
    fixed = np.stack([T, (np.eye(4)[3] + T) / np.sqrt(2.0)])
    got = foliation._sphere_pairs(flat[None], fixed[None])[0]
    assert np.array_equal(got, sphere_pair(flat, list(fixed)))
    assert np.array_equal(got[0], np.eye(4)[2])
    assert np.allclose(got @ flat @ np.vstack([fixed, got]).T,
                       [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
                       rtol=0, atol=1e-14)
    # a fixed plane holding the least aligned axis: both rules raise
    with pytest.raises(CentralLineDegenerate):
        foliation._sphere_pairs(flat[None], np.eye(4)[None, 1:3])
    with pytest.raises(CentralLineDegenerate):
        sphere_pair(flat, list(np.eye(4)[1:3]))


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
