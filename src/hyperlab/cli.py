"""Batch driver: load a config, run a named experiment, emit CSV tables with
metadata sidecars, optional SVG plots, and golden-file comparisons.

Each subcommand takes the run configuration alone and returns its tables
as (file name, header, rows, sidecar extra); main writes every CSV, its
.meta.json sidecar and, under --plot, its SVG, and runs the golden check,
so a run that fails writes no table.

Subcommands: foliate, weyl-check, zs-compare, mass, kg, residuals.
  foliate     a fan of records with k (one batch): leaf scalars and the
              per-ray structure residuals
  weyl-check  closed forms and Weyl identities; integrates nothing
  zs-compare  the radial series and, on a glued model, the cone sphere's
              probe as plain lanes of one batch, then the cone sphere's leaf
  mass        Hawking masses of the leaves S_{t,rho} and their Bondi fits
  kg          flat Klein-Gordon decay
  residuals   one record with k and its transverse mini-fan in one batch:
              the structure and exterior-zone transport residuals
Exit codes: 0 success, 2 config validation error, 3 numerical failure,
4 golden mismatch.  Output is byte-identical across repeated runs (all
orchestration is single-threaded and deterministic; rows are emitted in
loop-index order and floats are written in shortest round-trip form).
"""

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, GoldenMismatch, HyperlabError
from .foliation import (TIGHT_TOL, leaf_frames, mini_fan_directions,
                        origin_grid, structure_residuals)
from .geodesic import Direction, direction_from_angles, integrate_rays
from .kgflat import KGConfig, energy, evolve_kg
from .mass import bondi_trace
from .metric import MetricModel, curvature_at
from .nullgeom import (hat_tetrad, left_dual, right_dual, null_decompose,
                       schwarzschild_closed_forms)
from .zscompare import (cone_sphere_geometry, radial_comparison_series,
                        schw_optical, transport_residuals_zs)


@dataclass
class RunConfig:
    metric_kind: str = "glued"
    mass: float = 0.01
    r_in: float = 1.0
    r_out: float = 2.0
    origin_t: float = 0.0
    offset: tuple = (0.0, 0.0, 0.0)
    rho_min: float = 2.0
    rho_max: float = 20.0
    rho_samples: int = 10
    zeta_max: float = 6.0
    zeta_samples: int = 4
    theta_nodes: int = 1
    phi_nodes: int = 1
    rel_tol: float = 1e-10
    kg: KGConfig = field(default_factory=KGConfig)
    kg_t_samples: int = 40
    out_dir: str = "out"
    plot: bool = False
    golden: str = ""
    mass_rho_list: tuple = (5.0, 10.0, 20.0)
    mass_t_factors: tuple = (2.0, 4.0, 8.0, 16.0)

    def model(self):
        if self.metric_kind == "minkowski":
            return MetricModel.minkowski()
        if self.metric_kind == "schwarzschild":
            return MetricModel.schwarzschild(self.mass)
        return MetricModel.glued(self.mass, self.r_in, self.r_out)

    def origin(self):
        return np.array([self.origin_t, *self.offset])


def _floats(s):
    return tuple(float(v) for v in s.replace(",", " ").split())


# config section -> {key: RunConfig attribute}; "kg." names a KGConfig field
_CONFIG_KEYS = {
    "metric": {"kind": "metric_kind", "mass": "mass", "r_in": "r_in",
               "r_out": "r_out"},
    "origin": {"t": "origin_t", "offset": "offset"},
    "foliation": {k: k for k in ("rho_min", "rho_max", "rho_samples",
                                 "zeta_max", "zeta_samples", "theta_nodes",
                                 "phi_nodes")},
    "integrator": {"rel_tol": "rel_tol"},
    "kg": {"t_samples": "kg_t_samples",
           **{k: "kg." + k for k in ("r_max", "dr", "t_max", "cfl",
                                     "amplitude", "width", "center",
                                     "kg_mass")}},
    "mass": {"rho_list": "mass_rho_list", "t_factors": "mass_t_factors"},
    "output": {"dir": "out_dir", "plot": "plot", "golden": "golden"},
}


def _config_value(section, key, default):
    """section[key] parsed as the type of its default value."""
    if isinstance(default, tuple):
        return _floats(section[key])
    return {bool: section.getboolean, int: section.getint,
            float: section.getfloat}.get(type(default), section.get)(key)


def load_config(path):
    """Parse and validate an INI-style run configuration; unknown sections
    and keys are errors."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    for name in cp.sections():
        if name not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        for key in cp[name]:
            if key not in _CONFIG_KEYS[name]:
                raise ConfigError(f"unknown config key {key!r} in [{name}]")
    rc, kg = RunConfig(), {}
    try:
        for name in cp.sections():
            for key in cp[name]:
                attr = _CONFIG_KEYS[name][key]
                if attr.startswith("kg."):
                    kg[attr[3:]] = _config_value(cp[name], key,
                                                 getattr(rc.kg, attr[3:]))
                else:
                    setattr(rc, attr, _config_value(cp[name], key,
                                                    getattr(rc, attr)))
        rc.kg = replace(rc.kg, **kg)
    except (ValueError, HyperlabError) as e:
        raise ConfigError(f"invalid config value: {e}") from e
    rc.metric_kind = rc.metric_kind.strip().lower()
    _validate(rc)
    return rc


def _validate(rc):
    if rc.metric_kind not in ("minkowski", "schwarzschild", "glued"):
        raise ConfigError(f"metric.kind must be minkowski|schwarzschild|glued, "
                          f"got {rc.metric_kind!r}")
    for name in ("mass", "r_in", "r_out", "origin_t", "rho_min", "rho_max",
                 "zeta_max", "rel_tol"):
        v = getattr(rc, name)
        if not np.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v}")
    if len(rc.offset) != 3 or not all(np.isfinite(v) for v in rc.offset):
        raise ConfigError("origin.offset must be a finite 3-vector")
    if rc.metric_kind == "glued":
        off = float(np.linalg.norm(rc.offset))
        if not off + 0.1 < rc.r_in:
            raise ConfigError(
                f"violated invariant: |offset| + 0.1 < r_in "
                f"(|offset|={off:.6g}, r_in={rc.r_in:.6g})")
    if not (0 < rc.rho_min < rc.rho_max):
        raise ConfigError("need 0 < rho_min < rho_max")
    if not (rc.rel_tol > 0 and rc.zeta_max > 0):
        raise ConfigError("need rel_tol > 0 and zeta_max > 0")
    if not all(np.isfinite(rho) and rho > 0 for rho in rc.mass_rho_list):
        raise ConfigError("mass.rho_list entries must be finite and > 0")
    # a leaf needs t > rho
    f = np.asarray(rc.mass_t_factors)
    if not (len(f) and np.all(np.isfinite(f)) and np.all(f > 1)
            and np.all(np.diff(f) > 0)):
        raise ConfigError("mass.t_factors must be nonempty, finite, > 1 and "
                          "strictly increasing")
    if rc.rho_samples < 2 or rc.zeta_samples < 1:
        raise ConfigError("rho_samples >= 2 and zeta_samples >= 1 required")
    if rc.theta_nodes < 1 or rc.phi_nodes < 1:
        raise ConfigError("theta_nodes >= 1 and phi_nodes >= 1 required")
    try:
        rc.model()
    except ValueError as e:
        raise ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# output helpers

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


# the leaf records of the mass and cone-sphere tables are solved at TIGHT_TOL
_LEAF_META = {"tolerances": {"rel_tol": TIGHT_TOL, "abs_tol": TIGHT_TOL}}


def write_meta(csv_path, config_path, rc, extra):
    meta = {
        "code_version": __version__,
        "config_sha256": hashlib.sha256(
            Path(config_path).read_bytes()).hexdigest() if config_path else "",
        # the integrator runs with atol = rtol = rel_tol
        "tolerances": {"rel_tol": rc.rel_tol, "abs_tol": rc.rel_tol},
        "time_convention": "raw_t",
    }
    if extra:
        meta.update(extra)
    p = Path(csv_path).with_suffix(".meta.json")
    p.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _num(v):
    """A table cell as the number its CSV text reads, else NaN."""
    try:
        return float(_fmt(v))
    except ValueError:
        return np.nan


def write_svg(csv_path, header, rows):
    """Minimal line plot of every numeric column of a table against its
    first column, beside its CSV."""
    cols = dict(zip(header, np.array(
        [[_num(v) for v in row] for row in rows]).reshape(-1, len(header)).T))
    xname = header[0]
    x = cols[xname]
    W, H, pad = 640, 420, 50
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>']
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f"]
    ci = 0
    xv = x[np.isfinite(x)]
    if len(xv) >= 2 and xv.max() > xv.min():
        for h in header[1:]:
            y = cols[h]
            ok = np.isfinite(x) & np.isfinite(y)
            if ok.sum() < 2 or h == "status":
                continue
            ymin, ymax = y[ok].min(), y[ok].max()
            span = ymax - ymin if ymax > ymin else 1.0
            pts = " ".join(
                f"{pad + (W - 2*pad) * (xi - xv.min()) / (xv.max() - xv.min()):.2f},"
                f"{H - pad - (H - 2*pad) * (yi - ymin) / span:.2f}"
                for xi, yi in zip(x[ok], y[ok]))
            color = palette[ci % len(palette)]
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{pts}"/>')
            parts.append(f'<text x="{pad}" y="{20 + 14 * ci}" fill="{color}" '
                         f'font-size="12">{h}</text>')
            ci += 1
    parts.append(f'<text x="{W//2}" y="{H-12}" font-size="12" '
                 f'text-anchor="middle">{xname}</text>')
    parts.append("</svg>")
    Path(csv_path).with_suffix(".svg").write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _fan_directions(rc):
    zg = np.linspace(rc.zeta_max / rc.zeta_samples, rc.zeta_max,
                     rc.zeta_samples)
    if rc.theta_nodes > 1:
        xs, _ = np.polynomial.legendre.leggauss(rc.theta_nodes)
        thetas = np.arccos(xs)[::-1]
    else:
        thetas = np.array([np.pi / 2.0])
    phis = 2.0 * np.pi * np.arange(rc.phi_nodes) / rc.phi_nodes
    return zg, thetas, phis


def cmd_foliate(rc):
    model = rc.model()
    rho_grid = np.linspace(rc.rho_min, rc.rho_max, rc.rho_samples)
    zg, thetas, phis = _fan_directions(rc)
    params = [(z, th, ph) for z in zg for th in thetas for ph in phis]
    recs = integrate_rays(model, rc.origin(),
                          [direction_from_angles(*p) for p in params],
                          rho_grid, ode_tol=rc.rel_tol, with_k=True)
    rows = []
    res_rows = []
    for (z, th, ph), rec in zip(params, recs):
        lf = leaf_frames(model, [rec], rec.rho)
        sc, x, q0 = lf.scalars, lf.st["x"], lf.st["q0"]
        for i, rho in enumerate(rec.rho):
            status = "central-line-degenerate"
            khat_nn = khat_na = np.nan
            if not lf.degenerate[i]:
                status = "ok"
                khat_nn = lf.k.khat[i, 0, 0]
                khat_na = float(np.max(np.abs(lf.k.khat[i, 0, 1:])))
            rows.append([rho, z, sc.t[i], float(np.linalg.norm(x[i, 1:])),
                         sc.tau[i], sc.b[i], sc.rtilde[i], sc.u[i], sc.ubar[i],
                         q0[i], khat_nn, khat_na, status])
        tab = structure_residuals(model, rec)
        for key in ("Bb1", "ctt", "s1", "eq_3_14_1", "s1_1", "Bu"):
            res_rows.append([z, th, ph, key, tab[key],
                             tab[key + "_scale"], "ok"])
    return [("foliate.csv",
             ["rho", "zeta", "t", "r", "tau", "b", "rtilde", "u", "ubar",
              "trk_minus_3_over_rho", "khat_nn", "khat_na_max", "status"],
             rows, None),
            ("structure_residuals.csv",
             ["zeta", "theta", "phi", "equation", "residual", "scale",
              "status"], res_rows, None)]


def cmd_weyl_check(rc):
    model = rc.model()
    M = model.mass
    radii = [3.0, 5.0, 10.0]
    rows = []
    id_rows = []
    for r in radii:
        cf = schwarzschild_closed_forms(M, r)
        x = np.array([0.0, r, 0.0, 0.0])
        status = "ok"
        if model.kind == "glued" and r < model.r_out:
            status = "inside-blend"
        jet = curvature_at(model, x)
        tet = hat_tetrad(jet)
        dec = null_decompose(jet, tet)
        rows.append([r, cf["varrho_hat_n4"], cf["K_sphere"], cf["trchi_s"],
                     cf["trchib_s"], cf["gamma_r"], dec.varrho, status])
        others = max(np.abs(dec.alpha).max(), np.abs(dec.alphab).max(),
                     np.abs(dec.beta).max(), np.abs(dec.betab).max(),
                     abs(dec.sigma))
        id_rows.append([r, "hat_vanishing", others,
                        abs(dec.varrho) + 1e-300, "ok"])
        Wl = left_dual(jet.weyl, jet.g_inv, jet.sqrt_det)
        Wr = right_dual(jet.weyl, jet.g_inv, jet.sqrt_det)
        id_rows.append([r, "dual_consistency",
                        float(np.abs(Wl - Wr).max()),
                        float(np.abs(Wl).max()) + 1e-300, "ok"])
        gauss = cf["K_sphere"] - (r - 2 * M) / (r + 2 * M) ** 3 \
            + cf["varrho_hat_n4"]
        id_rows.append([r, "gauss_closure", abs(gauss), cf["K_sphere"], "ok"])
    return [("closed_forms.csv",
             ["r", "varrho_hat_n4", "K", "trchi_s", "trchib_s", "gamma_r",
              "varrho_pipeline", "status"], rows, None),
            ("weyl_identities.csv",
             ["r", "identity", "residual", "scale", "status"], id_rows, None)]


def cmd_zs_compare(rc):
    model = rc.model()
    origin = rc.origin()
    rho_grid = np.linspace(rc.rho_min, rc.rho_max, rc.rho_samples)
    zg, _, _ = _fan_directions(rc)
    dirs = [Direction(z, (1.0, 0.0, 0.0)) for z in zg]
    rho, off = rc.rho_max / 2.0, origin[1:]
    if model.kind == "glued":       # the cone sphere's probe, along the axis
        dirs.append(Direction(1.0, off if off.any() else (1.0, 0.0, 0.0)))
    # one batch of plain lanes: the series read leaf scalars, r and varpi,
    # and the probe its position
    recs = integrate_rays(model, origin, dirs, rho_grid, ode_tol=rc.rel_tol)
    rows = [[row.rho, row.t, row.r, row.n, row.varpi, row.n_minus_varpi,
             row.u, row.uhat, row.u_minus_uhat, row.rt_over_r_minus_ninv,
             row.status]
            for rec in recs[:len(zg)]
            for row in radial_comparison_series(model, rec)]
    cs_rows = []
    if model.kind == "glued":
        st = recs[-1].state_at(rho)
        r = float(np.linalg.norm(st["x"][1:]))
        uh = schw_optical(model.mass, st["x"][0] - origin[0], r)["uhat"]
        rep = cone_sphere_geometry(model, rho, uh, origin_grid(origin, 6),
                                   origin=origin)
        for i in range(len(rep.t_nodes)):
            cs_rows.append([rep.rho, rep.uhat, i, rep.t_nodes[i],
                            rep.r_nodes[i], rep.dag_a[i], rep.dag_a_def[i],
                            rep.dag_nb_t[i], rep.K_sphere[i], rep.K_model[i],
                            rep.osc_t, rep.diam_bound, "ok"])
    return [("compare.csv",
             ["rho", "t", "r", "n", "varpi", "n_minus_varpi", "u", "uhat",
              "u_minus_uhat", "rt_over_r_minus_ninv", "status"], rows, None),
            ("cone_spheres.csv",
             ["rho", "uhat", "node", "t", "r", "dag_a", "dag_a_def",
              "dag_nb_t", "K_sphere", "K_model", "osc_t", "diam_bound",
              "status"], cs_rows, _LEAF_META)]


def cmd_mass(rc):
    model = rc.model()
    origin = rc.origin()
    rows = []
    fits = []
    for rho in rc.mass_rho_list:
        t_grid = [f * rho for f in rc.mass_t_factors]
        tr = bondi_trace(model, rho, t_grid, origin=origin,
                         omega_nodes=origin_grid(origin, 6))
        for rep in tr["reports"]:
            rows.append([rep.t, rep.rho, rep.area_radius, rep.mass,
                         rep.status])
        fits.append([rho, tr["m_inf"], tr["c"], tr["fit_residual"], "ok"])
    return [("masses.csv", ["t", "rho", "area_radius", "mass", "status"],
             rows, _LEAF_META),
            ("mass_fits.csv",
             ["rho", "m_inf", "c_over_t", "fit_residual", "status"], fits,
             _LEAF_META)]


def cmd_kg(rc):
    cfg = rc.kg
    times = np.linspace(0.0, cfg.t_max, rc.kg_t_samples + 1)
    states = evolve_kg(cfg, times)
    rows = []
    for s in states:
        if s.t <= 0:
            continue
        rows.append([s.t, s.sup_phi, s.t ** 1.5 * s.sup_phi, energy(s), "ok"])
    return [("kg_decay.csv",
             ["t", "sup_phi", "t32_sup_phi", "energy", "status"], rows,
             {"kg": {"dr": cfg.dr, "cfl": cfg.cfl, "t_max": cfg.t_max,
                     "width": cfg.width, "center": cfg.center}})]


def cmd_residuals(rc):
    model = rc.model()
    origin = rc.origin()
    rho_grid = np.linspace(rc.rho_min, rc.rho_max, rc.rho_samples)
    rows = []
    d = Direction(1.0, (1.0, 0.0, 0.0))
    # the record and its transverse mini-fan in one batch
    rec, *nbrs = integrate_rays(model, origin, [d] + mini_fan_directions(d),
                                rho_grid, ode_tol=rc.rel_tol, with_k=True)
    tab = structure_residuals(model, rec, neighbours=nbrs)
    for key in ("Bb1", "ctt", "s1", "eq_3_14_1", "s1_1", "Bu", "t_of_u",
                "n_of_binv"):
        rows.append(["structure", key, tab[key], tab[key + "_scale"], "ok"])
    rows.append(["structure", "zbar_max", tab["zbar_max"], 1.0, "ok"])
    if model.kind != "minkowski":
        try:
            zs = transport_residuals_zs(model, rec)
            rows.append(["zs_transport", "bvarpi", zs["bvarpi"],
                         zs["bvarpi_scale"], "ok"])
            rows.append(["zs_transport", "cmr_1", zs["cmr_1"],
                         zs["cmr_1_scale"], "ok"])
        except HyperlabError as e:
            rows.append(["zs_transport", "bvarpi", np.nan, np.nan,
                         type(e).__name__])
    return [("residuals.csv",
             ["family", "equation", "residual", "scale", "status"], rows,
             None)]


COMMANDS = {
    "foliate": cmd_foliate,
    "weyl-check": cmd_weyl_check,
    "zs-compare": cmd_zs_compare,
    "mass": cmd_mass,
    "kg": cmd_kg,
    "residuals": cmd_residuals,
}


def _compare_golden(out, golden_dir, produced):
    golden_dir = Path(golden_dir)
    for name in produced:
        ref = golden_dir / name
        got = Path(out) / name
        if not ref.exists():
            raise GoldenMismatch(f"golden file {ref} missing")
        if ref.read_bytes() != got.read_bytes():
            raise GoldenMismatch(f"{name} differs from golden copy")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hyperlab",
        description="hyperboloidal-foliation laboratory batch driver")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--plot", action="store_true")
    parser.add_argument("--golden", default=None)
    args = parser.parse_args(argv)

    try:
        rc = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out if args.out is not None else rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.plot:
        rc.plot = True
    golden = args.golden if args.golden is not None else (rc.golden or None)

    try:
        tables = COMMANDS[args.subcommand](rc)
    except HyperlabError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

    for name, header, rows, extra in tables:
        write_csv(out / name, header, rows)
        write_meta(out / name, args.config, rc, extra)
        if rc.plot:
            write_svg(out / name, header, rows)
    if golden:
        try:
            _compare_golden(out, golden, [name for name, *_ in tables])
        except GoldenMismatch as e:
            print(f"golden mismatch: {e}", file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
