"""Flat-space spherically symmetric Klein-Gordon laboratory.

The field phi(t, r) solves box phi = phi with box = -d_t^2 + Delta (so
phi_tt = Delta phi - phi; the sign convention matters: the opposite one is
exponentially unstable).  The reduction psi = r phi obeys

    psi_tt = psi_rr - psi

on a cell-centered radial grid, with psi odd across r = 0 (phi regular and
even).  The scheme is the method of lines for (psi, pi = psi_t) with the
4th-order second difference D2 and classical RK4, dt = cfl * dr.  The data
have exact compact support (SUPPORT_EPS).

Optional 6th-order Kreiss-Oliger dissipation K = sigma / (64 dr) D^6 acts on
both psi and pi as a filter once per RK4 step, y <- y + dt K y, rather than
inside the four stages (the operator split of Gustafsson, Kreiss & Oliger,
Time-Dependent Problems and Difference Methods).  K and the wave operator
are constant symmetric stencils that both keep the odd reflection at the
axis, so they commute, and the split step differs from RK4 of the summed
operator only at O((dt K)^2), with |dt K| <= cfl * sigma at the grid scale
(0.005 at the default cfl and sigma).

The scheme is linear and autonomous with constant stencils, so it is
evaluated mode by mode, not stepped (von Neumann analysis as evaluator,
ibid.).  A row f of n cells is extended to the 4n-periodic [f, f[::-1], -f,
-f[::-1]], odd about r = -dr/2 like the axis ghosts and even about r_max,
which KGConfig keeps out of causal reach.  On its modes theta = 2 pi (2j+1)
/ (4n), with s = sin(theta/2), lambda = -(4 s^2 + 4 s^4/3) / dr^2 - m (the
cos form of the symbol cancels at low theta), omega = sqrt(-lambda) and
mu = dt^2 lambda, one step multiplies a mode by

    g = (1 - cfl sigma s^6) [(1 + mu/2 + mu^2/24) + i dt omega (1 + mu/6)],

and k steps take data at rest, (psi, pi) = (psi_0, 0), to psi_k = Re(g^k)
psi_0 and pi_k = -Im(g^k) omega psi_0.  g^k is taken in polar form, whose
rounding grows as k eps arg g, not as k eps like repeated squaring: 6.9e-15
of max|psi| from a long-double RK4 (dr = 1/64, t = 22, sigma = 0), squaring
1.35e-13.

The solution does not need the damping; commutation_residual does.  Its
h = dr second differences amplify the grid-scale content that the odd
continuation of r phi0 carries wherever phi0'(0) != 0: its second
derivative jumps at the axis.  Without Kreiss-Oliger, on criterion 9's
clusters (r_max 28, t = 10 and 20, dr = 1/96 and 1/192), the "S" residual
reads 185 -> 98.6 (a factor 1.88, no convergence) for center = 0.5, but
2.53e-4 -> 6.56e-5 (a factor 3.85) for center = 0, where phi0'(0) = 0 and
the continuation is smooth.

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
    ko_sigma: float = 0.02        # 6th-order Kreiss-Oliger filter strength

    def __post_init__(self):
        if not (self.dr > 0 and self.cfl > 0 and self.width > 0):
            raise ValueError(f"need dr > 0, cfl > 0 and width > 0, got "
                             f"dr={self.dr}, cfl={self.cfl}, "
                             f"width={self.width}")
        if not (self.kg_mass >= 0 and self.ko_sigma >= 0):
            raise ValueError(f"need kg_mass >= 0 and ko_sigma >= 0, got "
                             f"kg_mass={self.kg_mass}, "
                             f"ko_sigma={self.ko_sigma}")
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


def _dr4(f, dr, parity):
    """4th-order d/dr along the last axis: ghost cells across r = 0 with the
    given parity (cell-centered grid), zeros past the grid."""
    g = np.concatenate([parity * f[..., 1::-1], f,
                        np.zeros(f.shape[:-1] + (2,))], axis=-1)
    return (-g[..., 4:] + 8.0 * g[..., 3:-1] - 8.0 * g[..., 1:-3]
            + g[..., :-4]) / (12.0 * dr)


def _grid(cfg):
    n = int(round(cfg.r_max / cfg.dr))
    return (np.arange(n) + 0.5) * cfg.dr


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
    """KGState snapshots of the initial data's evolution at output_times.

    Output times are snapped to the step grid (dt = cfl * dr), which is exact
    for binary dr and integer-multiple requests.
    """
    r, phi0 = initial_data(cfg)
    out = []
    e0 = None
    for t, psi, pi in _rk4_outputs(cfg, r * phi0, output_times):
        out.append(KGState(t=float(t), phi=psi / r, phit=pi / r, r=r,
                           dr=cfg.dr))
        if check_energy and cfg.kg_mass > 0:
            e = energy(out[-1])
            if e0 is None:
                e0 = max(e, 1e-300)
            elif e > e0 * (1.0 + 1e-3):
                raise UnstableDetected(f"energy grew by {e/e0-1.0:.3e}")
    return out


def _rk4_outputs(cfg, psi, output_times):
    """Yields (elapsed time, psi, pi) of the data (psi, 0) at rest at each
    output time, snapped to the step grid and in increasing order (module
    docstring).  g^k = sign(1 - x)^k exp(k log|g| + i k arg g), x = cfl
    sigma s^6, where log1p(mu^3/72 + mu^4/576) / 2 is the log-modulus of the
    RK4 factor.  Before any output, |g| > 1 raises UnstableDetected, and
    t > cfg.t_max InsufficientStates.
    """
    dt = cfg.cfl * cfg.dr
    req = sorted(set(int(round(t / dt)) for t in np.atleast_1d(output_times)))
    if req and req[-1] * dt > cfg.t_max + 1e-9:
        raise InsufficientStates(
            f"requested output beyond the horizon t = {cfg.t_max:g}")
    n = len(psi)
    s2 = np.sin(np.pi * (2 * np.arange(n) + 1) / (4 * n)) ** 2
    lam = -(4.0 + (4.0 / 3.0) * s2) * s2 / cfg.dr ** 2 - cfg.kg_mass
    omega = np.sqrt(-lam)
    mu = dt * dt * lam
    x = cfg.cfl * cfg.ko_sigma * s2 ** 3
    arg = np.arctan2(dt * omega * (1.0 + mu / 6.0),
                     1.0 + mu / 2.0 + mu * mu / 24.0)
    log_g = 0.5 * np.log1p(mu ** 3 / 72.0 + mu ** 4 / 576.0) + np.log1p(
        -x, out=np.log(np.abs(1.0 - x)), where=x < 1.0)
    if log_g.max() > 0.0:
        raise UnstableDetected(
            f"mode growth factor {np.exp(log_g.max()):.6g} > 1 per step")
    p = np.fft.rfft(np.concatenate([psi, psi[::-1], -psi, -psi[::-1]]))[1::2]
    full = np.zeros(2 * n + 1, complex)     # even modes stay 0

    def cells(c):
        full[1::2] = c
        return np.fft.irfft(full, 4 * n)[:n]

    for k in req:
        gk = np.sign(1.0 - x) ** k * np.exp(k * log_g + 1j * (k * arg))
        yield k * dt, cells(gk.real * p), cells(-(gk.imag * omega) * p)


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

    def at(self, t_arr, idx):
        """Values (phi, phit, phir) at times t_arr[j] and radius index idx[j]."""
        t_arr, idx = np.asarray(t_arr), np.asarray(idx)
        if not len(idx):
            return (np.empty(0),) * 3
        j0 = np.clip(np.searchsorted(self.ts, t_arr) - 2, 0, len(self.ts) - 4)
        ts = self.ts[j0[:, None] + np.arange(4)]
        lag = np.ones_like(ts)
        for k in range(4):
            for m in range(4):
                if m != k:
                    lag[:, k] *= (t_arr - ts[:, m]) / (ts[:, k] - ts[:, m])
        # stack only the snapshots and cells read; phir reads 2 cells further
        states = self.states[j0.min():j0.max() + 4]
        cols = slice(0, int(idx.max()) + 3)
        ij = j0[:, None] - j0.min() + np.arange(4), idx[:, None]
        phi = np.stack([s.phi[cols] for s in states])
        vals = (phi[ij], np.stack([s.phit[cols] for s in states])[ij],
                _dr4(phi, self.dr, +1)[ij])
        return tuple(np.sum(lag * v, axis=1) for v in vals)


def hyperboloid_energy(states, rho):
    """E_B = int_{H_rho} Q(d_t, B) (rho/t) dmu_R3 over the covered portion.

    Q(T, B) = (1/(4 rho))(u (Lb f)^2 + ubar (L f)^2) + (t/(2 rho)) m f^2
    for spherically symmetric f (u = t - r, ubar = t + r on H_rho), and the
    lower-bound check is the exact split margin

        Q(T, B) - (rho/(2 ubar))((B f)^2 + (Nbar f)^2) - (t/(2 rho)) m f^2,

    which equals (rtilde/(2 rho))(u Lb f / rho)^2 >= 0 identically.  The
    Klein-Gordon mass is m = 1, as in energy().
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
        + (tt / (2.0 * rho)) * phi**2
    Bf = (tt * phit + rr * phir) / rho
    Nbf = (rr * phit + tt * phir) / rho
    margin = Q - (rho / (2.0 * ubar)) * (Bf**2 + Nbf**2) \
        - (tt / (2.0 * rho)) * phi**2
    w = 4.0 * np.pi * rr * rr * interp.dr * (rho / tt)
    return {"E_B": float(np.sum(Q * w)),
            "lower_bound_check": float(np.min(margin)) if len(margin) else 0.0,
            "n_nodes": int(len(idx))}


# ---------------------------------------------------------------------------
# decay and commutation reports

def decay_report(states):
    """Table of t, sup|phi|, t^{3/2} sup|phi|, and the sups of L phi and
    Lb phi on the shell |r - t| <= 2 about the light cone."""
    rows = []
    for s in states:
        if s.t <= 0:
            continue
        phir = s.phir
        sup = s.sup_phi
        shell = np.abs(s.r - s.t) <= 2.0
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


def commutation_residual(cfg, cluster, which="S"):
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
    # so the identity is checked where the field is resolution-converged,
    # 6 inside the cone
    sel = (r > 4 * dr) & (r < cluster[2].t - 6.0)
    norm = np.sqrt(np.sum(cluster[2].phi[sel] ** 2))
    return float(np.sqrt(np.sum(resid[sel] ** 2)) / max(norm, 1e-300))


def _dr2(f, dr, parity):
    g = np.concatenate([[parity * f[0]], f, [0.0]])
    return (g[2:] - g[:-2]) / (2.0 * dr)

def _drr2(f, dr, parity):
    g = np.concatenate([[parity * f[0]], f, [0.0]])
    return (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (dr * dr)
