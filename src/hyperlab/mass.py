r"""Hawking mass on the leaves S_{t,rho} and its large-t (Bondi) limit.

m(t, rho) = (rbar/2) (1 + (1/16 pi) \oint trchi trchib dmu_gamma),
rbar = sqrt(area / 4 pi).  The null pair entering the integrand is the
normalized foliation pair L = T + N, Lb = T - N (<L, Lb> = -2); the product
trchi trchib is invariant under the residual boost L -> lam L, Lb -> Lb/lam.

For the centered glued model every leaf deep in the exterior zone is a round
coordinate sphere, where the product reduces to the static value and the mass
evaluates to 2M identically; the t-dependence only enters through numerical
error and through genuine asphericity for offset configurations.
"""

from dataclasses import dataclass

import numpy as np

from .foliation import (_slice_of_records, leaf_slice, origin_grid,
                         solve_level_nodes)
from .metric import _colsum


@dataclass
class MassReport:
    t: float
    rho: float
    area: float
    area_radius: float
    mass: float
    integrand_min: float
    integrand_max: float
    status: str = "ok"


def hawking_mass(sl):
    """Hawking mass of a slice, its integral summed in node order."""
    prod = sl.trchi * sl.trchib
    rbar = sl.area_radius
    m = 0.5 * rbar * (1.0 + _colsum(prod * sl.weight) / (16.0 * np.pi))
    return MassReport(t=sl.t, rho=sl.rho, area=sl.area, area_radius=rbar,
                      mass=float(m), integrand_min=float(np.min(prod)),
                      integrand_max=float(np.max(prod)))


def mass_of_leaf(model, origin, t, rho, omega_nodes=None):
    """Build the slice and return its mass report."""
    if omega_nodes is None:
        omega_nodes = origin_grid(origin, 8)
    return hawking_mass(leaf_slice(model, origin, t, rho, omega_nodes))


def bondi_trace(model, rho, t_grid, origin=None, omega_nodes=None):
    """Mass reports along increasing t on H_rho plus the fitted limit.

    The nodes of all the leaves are solved in one batch; each report equals
    the one mass_of_leaf gives alone.  The limit is the least-squares fit of
    m(t) = m_inf + c/t over the last half of the grid (the remainder of the
    limit statement is O(1/t)).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t grid must be strictly increasing")
    origin = np.zeros(4) if origin is None else np.asarray(origin, dtype=float)
    if omega_nodes is None:
        omega_nodes = origin_grid(origin, 8)
    k = len(omega_nodes)
    _, recs = solve_level_nodes(model, origin, rho, np.repeat(t_grid, k),
                                list(omega_nodes) * len(t_grid))
    reports = []
    for i, t in enumerate(t_grid):
        reports.append(hawking_mass(_slice_of_records(
            model, t, rho, omega_nodes, recs[i * k:(i + 1) * k], "t")))
    half = len(t_grid) // 2 if len(t_grid) > 3 else 0
    ts = t_grid[half:]
    ms = np.array([r.mass for r in reports])[half:]
    A = np.stack([np.ones_like(ts), 1.0 / ts], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ms, rcond=None)
    fit_residual = float(np.sqrt(np.mean((A @ coef - ms) ** 2)))
    return {"reports": reports, "m_inf": float(coef[0]), "c": float(coef[1]),
            "fit_residual": fit_residual}
