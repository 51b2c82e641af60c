import sys
from pathlib import Path
from types import SimpleNamespace

import time

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hyperlab import geodesic
from hyperlab.geodesic import Direction, exp_map, fan_build
from hyperlab.metric import MetricModel

GLUED_M001 = MetricModel.glued(0.01)
GLUED_M005 = MetricModel.glued(0.05)
MINK = MetricModel.minkowski()
SCHW_005 = MetricModel.schwarzschild(0.05)
OFFSET = np.array([0.0, 0.2, 0.0, 0.0])


@pytest.fixture(scope="session")
def glued_record():
    """Centered glued record with Jacobi fields and k, zeta=1, rho to 30."""
    return exp_map(GLUED_M001, np.zeros(4), Direction(1.0, (1, 0, 0)),
                   np.linspace(1.0, 30.0, 8), ode_tol=1e-11,
                   with_k=True)


@pytest.fixture(scope="session")
def offset_record():
    """Offset glued record reaching deep into the exterior zone."""
    return exp_map(GLUED_M001, OFFSET, Direction(2.0, (0.6, 0.0, 0.8)),
                   np.linspace(1.0, 55.0, 12), ode_tol=1e-11,
                   with_k=True)


@pytest.fixture(scope="session")
def probe_fan():
    """Dense 5x5x5 fan around (zeta=1, x-axis) for FD oracles, centered."""
    dz = 4e-3
    return fan_build(GLUED_M001, np.zeros(4), 1.0 + dz * np.arange(-2, 3),
                     np.pi / 2 + dz * np.arange(-2, 3),
                     dz * np.arange(-2, 3), [1.0, 25.0], ode_tol=1e-11)


@pytest.fixture(scope="session")
def offset_fan():
    """Dense 5x5x5 fan for the offset configuration."""
    dz = 4e-3
    return fan_build(GLUED_M001, OFFSET, 1.2 + dz * np.arange(-2, 3),
                     1.1 + dz * np.arange(-2, 3),
                     0.4 + dz * np.arange(-2, 3), [1.0, 20.0], ode_tol=1e-11)


def spy_integrations(monkeypatch):
    """Every integration (geodesic._dop853) from now on, in a list: its lane
    count, state width, tolerances, right-hand-side calls and lane
    evaluations.  Plain lanes carry x and B alone (width 8, `loose`, as the
    leaf solver's stencil); lanes with k the triad, the Jacobi fields and k
    (width 38, as a tight round's leaf records)."""
    calls = []

    def spy(rhs, t, y, t_end, tol, radii, blocks, _run=geodesic._dop853):
        n = [0]

        def counted(*args):
            n[0] += 1
            return rhs(*args)

        out = _run(counted, t, y, t_end, tol, radii, blocks)
        calls.append(SimpleNamespace(
            lanes=len(y), loose=y.shape[1] == 8, width=y.shape[1],
            tol=tol[:, 0].copy(), rhs_calls=n[0],
            lane_evals=int(out[4][2].sum())))
        return out

    monkeypatch.setattr(geodesic, "_dop853", spy)
    return calls


FIXTURE_SECONDS = {}


@pytest.fixture(scope="session")
def kg_standard():
    """Standard Klein-Gordon run: snapshots every 0.5 up to t = 80."""
    from hyperlab.kgflat import KGConfig, evolve_kg
    cfg = KGConfig()
    t0 = time.perf_counter()
    states = evolve_kg(cfg, np.arange(0.0, 80.01, 0.5))
    FIXTURE_SECONDS["kg_standard"] = time.perf_counter() - t0
    return cfg, states


@pytest.fixture(scope="session")
def kg_long_coarse():
    """Long coarse run used for hyperboloid-energy coverage."""
    from hyperlab.kgflat import KGConfig, evolve_kg
    cfg = KGConfig(r_max=364.0, dr=1.0 / 24.0, t_max=360.0)
    states = evolve_kg(cfg, np.arange(0.5, 360.01, 0.5), check_energy=False)
    return cfg, states


@pytest.fixture(scope="session")
def kg_cluster_pair():
    """Two-resolution cluster runs for the commutation-residual convergence."""
    from hyperlab.kgflat import KGConfig, evolve_kg
    out = {}
    t0 = time.perf_counter()
    for drinv in (96, 192):
        cfg = KGConfig(r_max=28.0, dr=1.0 / drinv, t_max=24.0)
        h = 1.0 / drinv
        times = []
        for tc in (10.0, 20.0):
            times += [tc + j * h for j in (-2, -1, 0, 1, 2)]
        states = evolve_kg(cfg, times)
        out[drinv] = (cfg, [states[:5], states[5:]])
    FIXTURE_SECONDS["kg_clusters"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def bondi_centered():
    """Centered Hawking-to-Bondi traces for rho in {5, 10, 20}."""
    from hyperlab.foliation import angular_grid
    from hyperlab.mass import bondi_trace
    out = {}
    t0 = time.perf_counter()
    for rho in (5.0, 10.0, 20.0):
        t_grid = [2 * rho, 4 * rho, 8 * rho, 16 * rho]
        out[rho] = bondi_trace(GLUED_M001, rho, t_grid,
                               omega_nodes=angular_grid(4, 1))
    FIXTURE_SECONDS["bondi_centered"] = time.perf_counter() - t0
    return out
