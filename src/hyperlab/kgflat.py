"""Flat-space spherically symmetric Klein-Gordon laboratory.

The field phi(t, r) solves box phi = phi with box = -d_t^2 + Delta (so
phi_tt = Delta phi - phi; the sign convention matters: the opposite one is
exponentially unstable).  The reduction psi = r phi obeys

    psi_tt = psi_rr - psi

on a cell-centered radial grid, with psi odd across r = 0 (phi regular and
even) and the outer boundary placed causally out of reach of the data
support through t_max.  Spatial stencils are 4th order, time stepping is
classical RK4 with dt = cfl * dr.

The flat conserved energy is E = (1/2) int (phi_t^2 + phi_r^2 + phi^2)
4 pi r^2 dr.  Hyperboloidal energies are evaluated on H_rho = {t^2 - r^2 =
rho^2} with the area element (rho/t) dmu_R3, and the pointwise integrand
admits the exact lower-bound split used as a positivity check.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (CFLViolation, InsufficientResolution, InsufficientStates,
                     UnstableDetected)

SUPPORT_EPS = 1e-16


@dataclass(frozen=True)
class KGConfig:
    r_max: float = 84.0
    dr: float = 1.0 / 160.0
    t_max: float = 80.0
    cfl: float = 0.25
    amplitude: float = 1.0
    width: float = 0.25
    center: float = 0.5
    kg_mass: float = 1.0          # set 0 for the free-wave contrast runs
    ko_sigma: float = 0.02        # 6th-order Kreiss-Oliger dissipation strength

    def __post_init__(self):
        if self.cfl > 0.5:
            raise CFLViolation(f"cfl={self.cfl} exceeds 0.5")
        if self.r_max <= self.t_max + 1.0 + self.support_radius:
            raise ValueError("outer boundary is causally reachable: "
                             "need r_max > t_max + 1 + support radius")

    @property
    def support_radius(self):
        return self.center + self.width * np.sqrt(-np.log(SUPPORT_EPS))


@dataclass
class KGState:
    t: float
    phi: np.ndarray
    phit: np.ndarray
    r: np.ndarray = field(repr=False)
    dr: float = 0.0

    @property
    def phir(self):
        return _dr4(self.phi, self.dr, parity=+1)

    @property
    def sup_phi(self):
        return float(np.max(np.abs(self.phi)))


def _pad(f, parity, width=2):
    """Ghost cells across r=0 with the given parity (cell-centered grid)."""
    return np.concatenate([parity * f[width - 1::-1], f, np.zeros(width)])


def _dr4(f, dr, parity):
    g = _pad(f, parity)
    return (-g[4:] + 8.0 * g[3:-1] - 8.0 * g[1:-3] + g[:-4]) / (12.0 * dr)


def _grid(cfg):
    n = int(round(cfg.r_max / cfg.dr))
    return (np.arange(n) + 0.5) * cfg.dr


def _make_rhs_fast(cfg):
    """Fused RHS for the (psi, pi) system with preallocated ghost buffers.

    dpsi = pi + KO(psi), dpi = psi_rr - m psi + KO(pi); both fields are odd
    across the axis and zero beyond the outer boundary."""
    n = int(round(cfg.r_max / cfg.dr))
    dr, m, sig = cfg.dr, cfg.kg_mass, cfg.ko_sigma
    c2 = 1.0 / (12.0 * dr * dr)
    cko = sig / (64.0 * dr)
    gp = np.zeros(n + 6)
    gq = np.zeros(n + 6)

    def _fill(g, f):
        g[3:n + 3] = f
        g[2] = -f[0]
        g[1] = -f[1]
        g[0] = -f[2]
        g[n + 3:] = 0.0

    def _d6(g):
        return (g[6:n + 6] - 6.0 * g[5:n + 5] + 15.0 * g[4:n + 4]
                - 20.0 * g[3:n + 3] + 15.0 * g[2:n + 2]
                - 6.0 * g[1:n + 1] + g[:n])

    def rhs(psi, pi):
        _fill(gp, psi)
        dpi = (-gp[5:n + 5] + 16.0 * gp[4:n + 4] - 30.0 * gp[3:n + 3]
               + 16.0 * gp[2:n + 2] - gp[1:n + 1]) * c2 - m * psi
        if sig != 0.0:
            _fill(gq, pi)
            dpsi = pi + cko * _d6(gp)
            dpi += cko * _d6(gq)
        else:
            dpsi = pi
        return dpsi, dpi

    return rhs, n


def initial_data(cfg):
    r = _grid(cfg)
    phi = cfg.amplitude * np.exp(-((r - cfg.center) / cfg.width) ** 2)
    phi[np.abs(phi) < SUPPORT_EPS * abs(cfg.amplitude)] = 0.0
    return r, phi


def energy(state):
    r, dr = state.r, state.dr
    phir = state.phir
    dens = state.phit ** 2 + phir ** 2 + state.phi ** 2
    return 0.5 * 4.0 * np.pi * float(np.sum(dens * r * r)) * dr


def evolve_kg(cfg, output_times, check_energy=True):
    """Method-of-lines evolution; returns KGState snapshots at output_times.

    Output times are snapped to the step grid (dt = cfl * dr), which is exact
    for binary dr and integer-multiple requests.
    """
    r, phi0 = initial_data(cfg)
    out = []
    e0 = None
    for t, psi, pi in _rk4_outputs(cfg, r * phi0, np.zeros_like(r),
                                   output_times, cfg.t_max):
        out.append(_snapshot(cfg, r, psi, pi, t))
        if check_energy and cfg.kg_mass > 0:
            e = energy(out[-1])
            if e0 is None:
                e0 = max(e, 1e-300)
            elif e > e0 * (1.0 + 1e-3):
                raise UnstableDetected(f"energy grew by {e/e0-1.0:.3e}")
    return out


def _rk4_outputs(cfg, psi, pi, output_times, t_horizon):
    """Classical RK4 steps of the (psi, pi) system with dt = cfl * dr.

    Yields (elapsed time, psi, pi) at each output time, snapped to the step
    grid and taken in increasing order.  Output times beyond t_horizon raise
    InsufficientStates before any step is taken.
    """
    dt = cfg.cfl * cfg.dr
    rhs, _ = _make_rhs_fast(cfg)
    req = sorted(set(int(round(t / dt)) for t in np.atleast_1d(output_times)))
    if req and req[-1] * dt > t_horizon + 1e-9:
        raise InsufficientStates(
            f"requested output beyond the horizon t = {t_horizon:g}")
    step = 0
    for target in req:
        while step < target:
            k1 = rhs(psi, pi)
            k2 = rhs(psi + 0.5 * dt * k1[0], pi + 0.5 * dt * k1[1])
            k3 = rhs(psi + 0.5 * dt * k2[0], pi + 0.5 * dt * k2[1])
            k4 = rhs(psi + dt * k3[0], pi + dt * k3[1])
            psi = psi + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            pi = pi + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            step += 1
        yield step * dt, psi, pi


def _snapshot(cfg, r, psi, pi, t):
    phi = psi / r
    phit = pi / r
    return KGState(t=float(t), phi=phi, phit=phit, r=r, dr=cfg.dr)


def reverse_state(state):
    """Time-reversal: flip phi_t."""
    return KGState(t=state.t, phi=state.phi.copy(), phit=-state.phit,
                   r=state.r, dr=state.dr)


def evolve_from_state(cfg, state, t_extra, output_times):
    """Continue the evolution from an arbitrary state for t_extra more time.

    output_times are elapsed times after state.t; beyond t_extra they raise
    InsufficientStates.
    """
    r = state.r
    return [_snapshot(cfg, r, psi, pi, state.t + t)
            for t, psi, pi in _rk4_outputs(cfg, r * state.phi, r * state.phit,
                                           output_times, t_extra)]


# ---------------------------------------------------------------------------
# hyperboloidal energy

class _TimeInterp:
    """Cubic interpolation of (phi, phit, phir) snapshots in t, per radius."""

    def __init__(self, states):
        if len(states) < 4:
            raise InsufficientStates("need at least 4 snapshots")
        self.ts = np.array([s.t for s in states])
        if np.any(np.diff(self.ts) <= 0):
            raise InsufficientStates("snapshots must be strictly increasing in t")
        self.states = states
        self.r = states[0].r
        self.dr = states[0].dr
        self._phir = [s.phir for s in states]

    def at(self, t_arr, idx):
        """Values (phi, phit, phir) at times t_arr[j] and radius index idx[j]."""
        t_arr = np.asarray(t_arr)
        j0 = np.clip(np.searchsorted(self.ts, t_arr) - 2, 0, len(self.ts) - 4)
        phi = np.empty(len(t_arr))
        phit = np.empty(len(t_arr))
        phir = np.empty(len(t_arr))
        for jj, (t, j, i) in enumerate(zip(t_arr, j0, idx)):
            ts = self.ts[j:j + 4]
            L = np.array([np.prod([(t - ts[m]) / (ts[k] - ts[m])
                                   for m in range(4) if m != k])
                          for k in range(4)])
            phi[jj] = L @ [self.states[j + k].phi[i] for k in range(4)]
            phit[jj] = L @ [self.states[j + k].phit[i] for k in range(4)]
            phir[jj] = L @ [self._phir[j + k][i] for k in range(4)]
        return phi, phit, phir


def hyperboloid_energy(states, rho, kg_mass=1.0):
    """E_B = int_{H_rho} Q(d_t, B) (rho/t) dmu_R3 over the covered portion.

    Q(T, B) = (1/(4 rho))(u (Lb f)^2 + ubar (L f)^2) + (t/(2 rho)) m f^2
    for spherically symmetric f (u = t - r, ubar = t + r on H_rho), and the
    lower-bound check is the exact split margin

        Q(T, B) - (rho/(2 ubar))((B f)^2 + (Nbar f)^2) - (t/(2 rho)) m f^2,

    which equals (rtilde/(2 rho))(u Lb f / rho)^2 >= 0 identically.
    """
    interp = _TimeInterp(states)
    t_max = interp.ts[-1]
    if rho >= t_max:
        raise InsufficientStates("hyperboloid entirely beyond stored times")
    r = interp.r
    mask = rho * rho + r * r <= t_max * t_max
    idx = np.where(mask)[0]
    rr = r[idx]
    tt = np.sqrt(rho * rho + rr * rr)
    if interp.ts[0] > rho:
        keep = tt >= interp.ts[0]
        idx, rr, tt = idx[keep], rr[keep], tt[keep]
    phi, phit, phir = interp.at(tt, idx)
    u = tt - rr
    ubar = tt + rr
    Lf = phit + phir
    Lbf = phit - phir
    Q = (u * Lbf**2 + ubar * Lf**2) / (4.0 * rho) \
        + (tt / (2.0 * rho)) * kg_mass * phi**2
    Bf = (tt * phit + rr * phir) / rho
    Nbf = (rr * phit + tt * phir) / rho
    margin = Q - (rho / (2.0 * ubar)) * (Bf**2 + Nbf**2) \
        - (tt / (2.0 * rho)) * kg_mass * phi**2
    w = 4.0 * np.pi * rr * rr * interp.dr * (rho / tt)
    return {"E_B": float(np.sum(Q * w)),
            "lower_bound_check": float(np.min(margin)) if len(margin) else 0.0,
            "n_nodes": int(len(idx))}


# ---------------------------------------------------------------------------
# decay and commutation reports

def decay_report(states, shell_width=2.0):
    """Table of t, sup|phi|, t^{3/2} sup|phi|, and null-derivative sups."""
    rows = []
    for s in states:
        if s.t <= 0:
            continue
        phir = s.phir
        sup = s.sup_phi
        shell = np.abs(s.r - s.t) <= shell_width
        Lphi = s.phit + phir
        Lbphi = s.phit - phir
        rows.append({
            "t": s.t,
            "sup_phi": sup,
            "t32_sup_phi": s.t ** 1.5 * sup,
            "t_sup_phi": s.t * sup,
            "sup_L_shell": float(np.max(np.abs(Lphi[shell]))) if shell.any() else 0.0,
            "sup_Lb_shell": float(np.max(np.abs(Lbphi[shell]))) if shell.any() else 0.0,
        })
    return rows


def decay_slope(states, t_lo=20.0, t_hi=80.0):
    ts = np.array([s.t for s in states])
    sups = np.array([s.sup_phi for s in states])
    sel = (ts >= t_lo) & (ts <= t_hi) & (sups > 0)
    lt, ls = np.log(ts[sel]), np.log(sups[sel])
    A = np.stack([np.ones_like(lt), lt], axis=1)
    coef, *_ = np.linalg.lstsq(A, ls, rcond=None)
    return float(coef[1])


def commutation_residual(cfg, cluster, which="S", cone_margin=6.0):
    """L2 residual of the on-shell commutation identity at the center of a
    5-snapshot cluster equally spaced by dt_fd.

    which = "S":  (box - 1)(S phi) - 2 phi with S phi = t phi_t + r phi_r
                  (ell = 0 radial operator),
    which = "R1": (box - 1) applied to the boost profile g = t phi_r + r phi_t
                  (ell = 1 radial operator), residual vs 0.

    Second-order stencils tied to the grid spacing are used throughout, so
    the residual converges at O(dr^2) when dt_fd is proportional to dr.
    """
    if len(cluster) != 5:
        raise InsufficientResolution("commutation residual needs a 5-cluster")
    hs = np.diff([s.t for s in cluster])
    if np.max(np.abs(hs - hs[0])) > 1e-12:
        raise InsufficientResolution("cluster must be equally spaced")
    h = hs[0]
    r = cluster[2].r
    dr = cluster[2].dr
    m = cfg.kg_mass

    if which == "S":
        gs = [s.t * s.phit + s.r * _dr2(s.phi, dr, +1) for s in cluster]
        parity = +1
    elif which == "R1":
        gs = [s.t * _dr2(s.phi, dr, +1) + s.r * s.phit for s in cluster]
        parity = -1
    else:
        raise ValueError(which)
    g_tt = (gs[1] - 2.0 * gs[2] + gs[3]) / (h * h)
    g = gs[2]
    g_r = _dr2(g, dr, parity)
    g_rr = _drr2(g, dr, parity)
    if which == "S":
        resid = -g_tt + g_rr + 2.0 * g_r / r - m * g - 2.0 * cluster[2].phi
    else:
        resid = -g_tt + g_rr + 2.0 * g_r / r - 2.0 * g / r**2 - m * g
    # restrict to the causal interior, uniformly away from the null cone:
    # the dispersive precursor's local frequency is unbounded at the cone,
    # so the identity is checked where the field is resolution-converged
    sel = (r > 4 * dr) & (r < cluster[2].t - cone_margin)
    norm = np.sqrt(np.sum(cluster[2].phi[sel] ** 2))
    return float(np.sqrt(np.sum(resid[sel] ** 2)) / max(norm, 1e-300))


def _dr2(f, dr, parity):
    g = np.concatenate([[parity * f[0]], f, [0.0]])
    return (g[2:] - g[:-2]) / (2.0 * dr)

def _drr2(f, dr, parity):
    g = np.concatenate([[parity * f[0]], f, [0.0]])
    return (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (dr * dr)
