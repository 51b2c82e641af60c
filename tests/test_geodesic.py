import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hyperlab import geodesic, metric
from hyperlab.errors import SeedRegionTooSmall, SingularityTruncated
from hyperlab.foliation import leaf_frames, second_fundamental_fd_oracle
from hyperlab.geodesic import (_FIELDS, RHO_SEED_MIN, ZETA_MAX_DEFAULT,
                               Direction, GeodesicRecord, _lincomb, _make_rhs,
                               _stages, _states_at, _tableau, exp_map,
                               fan_build, integrate_rays)
from hyperlab.metric import HORIZON_MARGIN, MetricModel, metric_at

from oracles import geodesic_rhs, lane_seed, rk8_fixed

MINK = MetricModel.minkowski()
GLUED = MetricModel.glued(0.01)
SCHW = MetricModel.schwarzschild(0.05)
OFFSET = np.array([0.0, 0.2, 0.0, 0.0])
SRC = Path(__file__).resolve().parent.parent / "src"


def _step_ends(rec):
    """A record's stored step ends, rho and (y, y'): its lane's rows of its
    integration's step log."""
    rows = slice(rec._at, rec._at + rec.steps + 1)
    return rec._log.ts[rows], rec._log.yf[rows]


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


def test_direction_rejects_non_3_vector_omega():
    # omega is one 3-vector: a 2-vector, a 4-vector, a nested (1, 3) array or
    # a scalar is rejected where the Direction is made, not later inside the
    # lane set-up, where stacked omegas would misread or fail in numpy
    for omega in [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0), ((1, 0, 0),), 1.0]:
        with pytest.raises(ValueError, match="nonzero 3-vector"):
            Direction(1.0, omega)


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
                  with_k=True)
    # J1 is the exact Lorentz boost x^1 d_t + t d_1 along the ray
    assert np.allclose(rec.j[-1, 0], [1.5632859, 3.3828780, 0, 0], atol=1e-6)
    assert np.allclose(rec.j[-1, 0],
                       [3 * np.sinh(0.5), 3 * np.cosh(0.5), 0, 0], atol=1e-10)


def test_minkowski_exactness_large_rho():
    rec = exp_map(MINK, np.zeros(4), Direction(1.3, (0, 0.6, 0.8)),
                  [10.0, 50.0, 100.0], with_k=True)
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
                  with_k=True)
    for i, rho in enumerate(rec.rho):
        g = metric_at(GLUED, rec.x[i], level=0).g
        assert abs(rec.b[i] @ g @ rec.b[i] + 1.0) < 1e-9
        for j in range(3):
            assert abs(rec.j[i, j] @ g @ rec.b[i]) < 1e-9 * max(
                1.0, np.abs(rec.j[i, j]).max())
            assert abs(rec.jp[i, j] @ g @ rec.b[i]) < 1e-8
        tri = np.einsum('ia,ab,jb->ij', rec.triad[i], g, rec.triad[i])
        assert np.abs(tri - np.eye(3)).max() < 1e-9


@pytest.mark.parametrize("zeta", [4.5, 6.0])
def test_k_at_high_rapidity(zeta):
    # k at the CLI's default tolerance 1e-10 against the same ray at 1e-14,
    # within 10 tol: in the triad (q0, khat) and rotated into the leaf
    # basis (leaf_frames).  The Jacobi fields are integrated as triad
    # components, whose size does not grow with the rapidity; in coordinates
    # they grow like cosh(zeta), and k was 3.4e-8 (4.5) and 8.2e-7 (6) off.
    # It reads 6.1e-12 and 1.5e-12 in the triad, 3.5e-12 and 3.0e-11 in the
    # leaf basis
    d = [Direction(zeta, (0.6, 0.0, 0.8))]
    rho = np.linspace(2.0, 20.0, 10)
    got, ref = (integrate_rays(GLUED, np.zeros(4), d, rho, ode_tol=tol,
                               with_k=True)[0] for tol in (1e-10, 1e-14))
    assert np.abs(got.q0 - ref.q0).max() <= 1e-9
    assert np.abs(got.khat - ref.khat).max() <= 1e-9
    k_got, k_ref = (leaf_frames(GLUED, [r], rho).k.k for r in (got, ref))
    assert np.abs(k_got - k_ref).max() <= 1e-9


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
                            [rho], ode_tol=1e-11, with_k=True))
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
    kw = dict(ode_tol=1e-11, with_k=payload)
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


@pytest.mark.parametrize("zeta", [np.nan, np.inf, -np.inf])
def test_direction_rejects_non_finite_rapidity(zeta):
    # a NaN or infinite rapidity made the integrator's step NaN, and its
    # step loop never ended
    with pytest.raises(ValueError, match="finite"):
        Direction(zeta)


def _run_isolated(code, timeout=30):
    """Run code in a fresh interpreter with the package on its path, so a
    hang fails the test by the timeout instead of stalling the suite."""
    try:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=timeout,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
    except subprocess.TimeoutExpired:
        pytest.fail(f"no return within {timeout} s")
    assert out.returncode == 0, out.stderr


def test_non_finite_rho_grid_rejected():
    _run_isolated(
        "import numpy as np, pytest\n"
        "from hyperlab.geodesic import Direction, integrate_rays\n"
        "from hyperlab.metric import MetricModel\n"
        "for grid in ([np.nan], [1.0, np.inf], [np.nan, 2.0]):\n"
        "    with pytest.raises(ValueError, match='finite'):\n"
        "        integrate_rays(MetricModel.glued(0.01), np.zeros(4),\n"
        "                       [Direction(1.0)], grid)\n")


@pytest.mark.parametrize("origin", [[np.nan, 0.0, 0.0, 0.0],
                                    [0.0, np.nan, 0.0, 0.0],
                                    [0.0, np.inf, 0.0, 0.0]],
                         ids=["nan-t", "nan-x", "inf-x"])
def test_non_finite_origin_rejected(origin):
    # a non-finite origin is rejected up front, like the rho grid and the
    # tolerance, before the metric, the triad or the step guard meet it
    with pytest.raises(ValueError, match="finite"):
        integrate_rays(GLUED, np.array(origin), [Direction(1.0)], [2.0])


def test_non_finite_lane_raises_step_failure():
    # a lane whose state is NaN has a NaN step; the step guard reads it as
    # a failed step, and the healthy lane beside it does not keep the loop
    # going for ever
    _run_isolated(
        "import numpy as np, pytest\n"
        "from hyperlab.errors import StepFailure\n"
        "from hyperlab.geodesic import _dop853, _make_rhs, _norm_blocks\n"
        "from hyperlab.metric import MetricModel\n"
        "y = np.zeros((2, 8))\n"
        "y[:, 0], y[:, 4], y[1, 5] = 0.5, 1.0, np.nan\n"
        "with pytest.raises(StepFailure, match='not finite'):\n"
        "    _dop853(_make_rhs(MetricModel.glued(0.01), False),\n"
        "            np.full(2, 0.5), y, np.full(2, 5.0),\n"
        "            np.full((2, 1), 1e-10), [], _norm_blocks(False))\n")


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
                       [Direction(1.0, (-1, 0, 0))], [5.0], with_k=True)


@pytest.mark.parametrize("origin", [np.zeros(4), OFFSET],
                         ids=["centred", "offset-core"])
def test_with_jacobi_is_an_alias_of_with_k(origin):
    # a record carries Jacobi fields exactly when it carries k: with_jacobi,
    # with_k and both (the sixth and seventh arguments) give the same
    # records, bit for bit in every field
    dirs = [Direction(0.4, (0.0, 0.6, 0.8)), Direction(1.6, (-0.3, 0.2, -0.9))]
    rho = [2.0, 9.0]
    ref, *alias = (integrate_rays(GLUED, origin, dirs, rho, 1e-10, *flags)
                   for flags in ((False, True), (True, False), (True, True)))
    assert all(rec.has_k for rec in ref)
    for recs in alias:
        for a, b in zip(ref, recs):
            for key in _FIELDS:
                assert np.array_equal(getattr(a, key), getattr(b, key)), key


def test_off_core_jacobi_raises():
    # Jacobi fields come with k, which needs a flat-core seed; the
    # Schwarzschild origin has none (a plain lane starts at rho = 0)
    with pytest.raises(SeedRegionTooSmall):
        integrate_rays(SCHW, np.array([0.0, 1.0, 0.0, 0.0]),
                       [Direction(1.0, (1, 0, 0))], [2.0], with_jacobi=True)


# directions of the seeding tests: the central line (zeta = 0, the
# v2 < 1e-28 branch of the seed rule) up to ZETA_MAX_DEFAULT
_SEED_DIRECTIONS = [Direction(0.0, (0, 0, 1)), Direction(0.0, (1, 0, 0)),
                    Direction(1e-9, (0, 1, 0)), Direction(0.3, (1, 2, 2)),
                    Direction(1.0, (-1, 0, 0)), Direction(1.7, (0.2, -0.9, 0.4)),
                    Direction(3.0, (0.6, 0.0, -0.8)),
                    Direction(ZETA_MAX_DEFAULT, (0.3, -0.4, 0.5))]


@pytest.mark.parametrize("model, origin, with_k", [
    (GLUED, np.zeros(4), True),
    (GLUED, np.array([0.3, 0.2, -0.1, 0.15]), True),
    (MetricModel.glued(0.05), np.zeros(4), True),
    (MINK, np.array([0.0, 3.0, 1.0, -2.0]), True),
    (SCHW, np.array([0.0, 1.0, 0.0, 0.0]), False),
    (GLUED, np.array([0.0, 1.5, 0.0, 0.0]), False)],
    ids=["centred", "offset-core", "glued-m005", "minkowski", "schwarzschild",
         "glued-off-core"])
def test_batched_seeding_matches_lane_rule(model, origin, with_k):
    # _lanes seeds all lanes at once, as arrays over lanes; each lane's v0,
    # seed, straight line (the triad in it) and boost block are those of
    # the per-lane rule bit for bit (oracles.lane_seed, with the triad from
    # metric._orthonormalize), in every layout the origin allows.  The
    # triad is g-orthonormal and g-orthogonal to v0 to 1e-14 cosh(zeta)^2,
    # the size of the terms of a product of boosted vectors, up to zeta = 3
    # (measured <= 4.4e-16 cosh^2); at ZETA_MAX_DEFAULT the classical
    # Gram-Schmidt's cancellation reads 1.65e-14 cosh^2 (6.7e-10)
    g = metric_at(model, origin, level=0).g
    for nk in [False, True][:1 + with_k]:
        recs, _ = geodesic._lanes(model, origin, _SEED_DIRECTIONS, [4.0],
                                  1e-8, nk)
        for d, rec in zip(_SEED_DIRECTIONS, recs):
            v0, seed, line, boost = lane_seed(model, origin, d, 4.0, nk)
            assert np.array_equal(rec.v0, v0) and rec.rho_seed == seed
            assert np.array_equal(rec._line, line)
            assert _same_field(rec._boost, boost)
            if nk:
                E = rec._line[0, 8:20].reshape(3, 4)
                gram = np.vstack([E, rec.v0]) @ g @ E.T - np.eye(4, 3)
                bound = 1e-14 if d.zeta <= 3.0 else 2e-14
                assert np.abs(gram).max() <= bound * np.cosh(d.zeta) ** 2
    # the lanes from the flat core start on their lines, the others at 0
    assert {rec.rho_seed > 0.0 for rec in recs} == {with_k}


def test_off_core_seed_message_names_the_first_lane():
    # a with-k batch whose lanes leave the flat core too soon raises at its
    # first such lane, with the message of the per-lane rule: the origin
    # 0.975 from the centre, where lanes along +x above zeta ~ 2.3 have too
    # short a seed, and an origin in the blend, where every seed is 0
    dirs = [Direction(1.0, (-1, 0, 0)), Direction(0.5, (1, 0, 0)),
            Direction(3.0, (1, 0, 0)), Direction(4.0, (1, 0, 0))]
    for x, seed in ((0.975, "rho=0.000499 "), (1.5, "rho=0 ")):
        origin = np.array([0.0, x, 0.0, 0.0])
        with pytest.raises(SeedRegionTooSmall) as want:
            for d in dirs:
                lane_seed(GLUED, origin, d, 5.0, True)
        with pytest.raises(SeedRegionTooSmall) as got:
            integrate_rays(GLUED, origin, dirs, [5.0], with_k=True)
        assert str(got.value) == str(want.value)
        assert seed in str(got.value)


def test_fan_seeding_makes_one_orthonormalize_call(monkeypatch):
    # the 125 triads of a 5x5x5 fan are one stacked Gram-Schmidt: the one
    # metric._orthonormalize call left is the origin frame's (126 when each
    # lane took its own)
    calls = []
    orthonormalize = metric._orthonormalize

    def spy(*args):
        calls.append(1)
        return orthonormalize(*args)

    monkeypatch.setattr(metric, "_orthonormalize", spy)
    monkeypatch.setattr(geodesic, "_orthonormalize", spy)
    steps = 4e-3 * np.arange(-2, 3)
    fan_build(GLUED, np.zeros(4), 1.0 + steps, 1.2 + steps, 0.4 + steps,
              [1.0, 5.0], ode_tol=1e-9)
    assert len(calls) == 1


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
                  [2.0, 6.0], with_k=payload)
    ts, yf = _step_ends(rec)
    assert ts[0] == rec.rho_seed
    assert np.array_equal(yf[0, 0],
                          rec._line[0] + rec.rho_seed * rec._line[1])
    if model is SCHW:
        assert rec.rho_seed == 0.0
        assert np.array_equal(yf[0, 0, :8], np.concatenate([origin, rec.v0]))
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
    assert np.array_equal(rec.state_at(rec.rho_seed)["x"], yf[0, 0, :4])


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
                          ode_tol=1e-11, with_k=True)
    for d, rec in zip(dirs, recs):
        single = exp_map(GLUED, np.zeros(4), d, np.linspace(1, 20, 4),
                         ode_tol=1e-11, with_k=True)
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
                          with_k=True)
    rq = np.linspace(0.5, 18.0, 13)
    for d, rec in zip(dirs, recs):
        single = exp_map(GLUED, OFFSET, d, rho, ode_tol=1e-11,
                         with_k=True)
        assert_same_lane(rec, single)
        sa, sb = rec.state_at(rq), single.state_at(rq)
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)


# the fields compared record to record: not the step log, which the batch's
# records share (with the cache of the steps that earlier reads have
# re-taken), and not a lane's first row in it, but the lane's step ends
_COMPARED = [f.name for f in fields(GeodesicRecord)
             if f.name not in ("_log", "_at")]


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
                          with_k=True)
    for d, tol, rec in zip(dirs, tols, recs):
        assert rec.ode_tol == tol
        single = exp_map(GLUED, origin, d, rho, ode_tol=tol,
                         with_k=True)
        for name in _COMPARED:
            assert _same_field(getattr(rec, name),
                               getattr(single, name)), name
        assert _same_field(_step_ends(rec), _step_ends(single))
    assert len({rec.rhs_evals for rec in recs}) == 3


def test_wide_batch_matches_single_ray(probe_fan):
    # a 125-lane batch: the first, middle and last lanes are each the same
    # direction integrated alone, field by field and counter by counter;
    # the per-lane matmuls of the right-hand side see the whole batch
    for i in (0, 62, 124):
        rec = probe_fan.records[i]
        single = exp_map(GLUED, probe_fan.origin, rec.direction,
                         probe_fan.rho_grid, ode_tol=1e-11,
                         with_k=True)
        for name in _COMPARED:
            assert _same_field(getattr(rec, name),
                               getattr(single, name)), (i, name)
        assert _same_field(_step_ends(rec), _step_ends(single)), i


@pytest.mark.parametrize("model, origin, with_k", [
    (GLUED, np.zeros(4), False), (GLUED, np.zeros(4), True),
    (GLUED, OFFSET, False), (GLUED, OFFSET, True),
    (SCHW, np.array([0.0, 1.0, 0.0, 0.0]), False)],
    ids=["centred-8", "centred-38", "offset-8", "offset-38",
         "schwarzschild-8"])
def test_retaken_step_is_the_step_taken(model, origin, with_k):
    # the oracle of the dense-output cache: every accepted step, re-taken by
    # _stages from its stored start (rho_k, y_k, y'_k), all steps of all
    # lanes in one batch, ends on the stored (y_k+1, y'_k+1) bit for bit;
    # the three dense stages leave the first 13 as they are.  The lanes
    # cross both shells of the glued model, or reach the horizon guard
    dirs = [Direction(0.3, (0.0, 0.6, 0.8)), Direction(1.2, (1, 0, 0)),
            Direction(2.0, (-0.6, 0.0, -0.8)), Direction(1.0, (-1, 0, 0))]
    recs = integrate_rays(model, origin, dirs, [0.5, 15.0], ode_tol=1e-10,
                          with_k=with_k)
    assert any(r.truncated for r in recs) == (model is SCHW)
    hs = [np.diff(_step_ends(r)[0]) for r in recs]  # step sizes, lane by lane
    yf = np.concatenate([_step_ends(r)[1] for r in recs])
    start = np.concatenate([np.arange(len(h)) + sum(map(len, hs[:i])) + i
                            for i, h in enumerate(hs)])
    assert len(start) == sum(r.steps for r in recs)
    assert yf.shape[2] == (38 if with_k else 8)
    rhs, hs = _make_rhs(model, with_k), np.concatenate(hs)
    K, y_new = _stages(rhs, yf[start, 0], hs, yf[start, 1])
    assert np.array_equal(y_new, yf[start + 1, 0])
    assert np.array_equal(K[12], yf[start + 1, 1])
    K16, _ = _stages(rhs, yf[start, 0], hs, yf[start, 1], 16)
    assert np.array_equal(K16[:13], K[:13])


def test_reads_independent_of_order_grouping_and_cache():
    # one record read at the proper times A and B, A then B, B then A and
    # both in one call, alone and in a batch with other records (of its own
    # integration, or each of another), from a warm and a cold coefficient
    # cache and from a fresh integration of its direction alone: every
    # field is the same bit for bit
    dirs = [Direction(0.4, (0.0, 0.6, 0.8)), Direction(1.1, (1, 0, 0)),
            Direction(1.6, (-0.3, 0.2, -0.9))]
    rho = np.linspace(1, 18, 4)

    def fresh():
        return integrate_rays(GLUED, OFFSET, dirs, rho, ode_tol=1e-11,
                              with_k=True)

    A = np.array([0.01, 2.5, 6.667, 12.0, 18.0])
    B = np.array([1.0, 2.6, 9.3, 17.9])
    AB = np.concatenate([A, B])
    rec = fresh()[1]
    a, b = rec.state_at(A), rec.state_at(B)
    reads = [{k: np.concatenate([a[k], b[k]]) for k in _FIELDS}]
    rec = fresh()[1]
    b, a = rec.state_at(B), rec.state_at(A)
    reads.append({k: np.concatenate([a[k], b[k]]) for k in _FIELDS})
    reads.append(fresh()[1].state_at(AB))
    reads.append(_states_at(fresh(), AB)[1])
    reads.append(_states_at([fresh()[i] for i in range(3)], AB)[1])
    alone = exp_map(GLUED, OFFSET, dirs[1], rho, ode_tol=1e-11, with_k=True)
    reads.append(alone.state_at(AB))
    alone._log.chunk[:] = -1                # clear the cache of re-taken steps
    reads.append(alone.state_at(AB))
    assert reads[0]["x"].shape == (len(AB), 4)
    for st in reads[1:]:
        for k in _FIELDS:
            assert np.array_equal(st[k], reads[0][k]), k


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


@pytest.mark.parametrize("with_k, width", [(False, 3), (True, 9)])
def test_norm_blocks_as_wide_as_the_longest(with_k, width):
    # the table is as wide as the layout's longest block; a 9-wide table
    # only adds +0.0 to each sum of squares, so the block norms are the
    # same bit for bit, also on zeros, signed zeros and extreme sizes
    table = geodesic._norm_blocks(with_k)
    dim = geodesic._DIM[with_k]
    assert table.shape[1] == width
    wide = np.full((len(table), 9), dim)
    wide[:, :width] = table
    v = np.random.default_rng(dim).normal(size=(64, dim))
    v *= 10.0 ** np.random.default_rng(1).integers(-150, 150, size=v.shape)
    v[:8] = 0.0
    v[8:16] = -0.0
    for rows in (v, v[:1], v[40:]):
        assert np.array_equal(geodesic._block_sq(rows, table),
                              geodesic._block_sq(rows, wide))


@pytest.mark.parametrize("payload, per_rhs", [(True, 0), (False, 0)],
                         ids=["payload", "bare"])
def test_einsums_per_step(monkeypatch, payload, per_rhs):
    # work budget of the integrator: the right-hand side contracts by
    # per-lane matmul and calls no einsum, and k is read off the Jacobi
    # fields by matmuls; each DOP853 stage sum is one einsum, 12 stages and
    # two error estimates per attempt.  The read at the grid re-takes its
    # steps in one batch: 15 stages and 4 dense coefficients, whatever the
    # number of steps
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(1)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    rec = exp_map(GLUED, OFFSET, Direction(1.1, (1, 0, 0)), [1.0, 18.0],
                  with_k=payload)
    attempts = rec.steps + rec.rejected
    assert len(calls) == per_rhs * rec.rhs_evals + 14 * attempts + 19
    y = np.zeros((4, rec._log.yf.shape[2]))
    y[:, 0:4], y[:, 4:8] = rec.x[-1], rec.b[-1]
    calls.clear()
    _make_rhs(GLUED, payload)(y)
    assert len(calls) == per_rhs


def test_fan_work_structure(monkeypatch):
    # one fixed 5x5x5 fan: each lane's integration makes 2 evaluations for
    # its starting step and 12 per attempted step, and the read at the
    # fan's rho grid re-takes every step it needs, for all 125 records, in
    # one batch of 15 right-hand-side calls (12 stages and the 3 of the
    # dense output).  So does a read of all records at new proper times
    # (leaf_frames), and a read of cached steps makes none.  Totals are not
    # pinned: rounding-level changes of the RHS move DOP853 step counts by
    # up to +-7 %
    calls = []
    make = geodesic._make_rhs

    def spy(*args):
        rhs, n = make(*args), [0]
        calls.append(n)

        def counted(y):
            n[0] += 1
            return rhs(y)
        return counted

    monkeypatch.setattr(geodesic, "_make_rhs", spy)
    steps = 4e-3 * np.arange(-2, 3)
    fan = fan_build(GLUED, np.zeros(4), 1.0 + steps, 1.2 + steps,
                    0.4 + steps, [1.0, 25.0], ode_tol=1e-11)
    assert len(calls) == 2 and calls[1] == [15]
    for rec in fan.records:
        assert rec.rhs_evals == 2 + 12 * (rec.steps + rec.rejected)
    leaf_frames(GLUED, fan.records, [5.0, 15.0])
    assert len(calls) == 3 and calls[2] == [15]
    leaf_frames(GLUED, fan.records, [1.0, 5.0, 15.0, 25.0])
    assert len(calls) == 3


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
