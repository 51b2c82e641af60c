import json
from pathlib import Path

import numpy as np
import pytest

from conftest import spy_integrations
from hyperlab.cli import load_config, main, write_csv
from hyperlab.errors import ConfigError
from hyperlab.foliation import TIGHT_TOL
from hyperlab.geodesic import Direction, exp_map
from hyperlab.zscompare import schw_optical

CONFIGS = Path(__file__).parent.parent / "configs"


def run_cli(args):
    return main(args)


def test_load_and_validate(tmp_path):
    rc = load_config(str(CONFIGS / "glued_small.ini"))
    assert rc.metric_kind == "glued"
    assert rc.model().mass == 0.01
    bad = tmp_path / "bad.ini"
    bad.write_text("[metric]\nkind = glued\nmass = 0.01\n"
                   "[origin]\noffset = 0.95 0.0 0.0\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    ugly = tmp_path / "ugly.ini"
    ugly.write_text("[metric]\nkind = wormhole\n")
    with pytest.raises(ConfigError):
        load_config(str(ugly))


# (subcommand, config text, words of the message): each is rejected with
# exit 2 before the subcommand runs
_BAD_VALUES = [
    ("foliate", "[origin]\noffset = 0.95 0.0 0.0\n", ("offset", "r_in")),
    ("foliate", "[integrator]\nrel_tol = 0\n", ("rel_tol",)),
    ("foliate", "[integrator]\nrel_tol = -1e-10\n", ("rel_tol",)),
    ("foliate", "[foliation]\nzeta_max = -1\n", ("zeta_max",)),
    ("zs-compare", "[foliation]\nzeta_max = 0\n", ("zeta_max",)),
    ("mass", "[mass]\nrho_list = 0\n", ("rho_list",)),
    ("mass", "[mass]\nrho_list = -5\n", ("rho_list",)),
    ("mass", "[mass]\nt_factors = 4 2\n", ("t_factors",)),
    ("mass", "[mass]\nt_factors = 0.5\n", ("t_factors",)),
    ("mass", "[mass]\nt_factors =\n", ("t_factors",)),
    ("kg", "[kg]\ndr = 0\n", ("dr",)),
    ("kg", "[kg]\ncfl = 0\n", ("cfl",)),
    ("kg", "[kg]\nwidth = 0\n", ("width",)),
    ("kg", "[kg]\nkg_mass = -1\n", ("kg_mass",)),
]


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    out = tmp_path / "out"
    for sub, text, words in _BAD_VALUES:
        bad.write_text("[metric]\nkind = glued\nmass = 0.01\n" + text)
        code = run_cli([sub, "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, text
        assert all(w in err for w in words), (text, err)
        assert not out.exists(), text


@pytest.mark.parametrize("text, key", [
    ("rho_list = inf\n", "rho_list"),
    ("t_factors = 2.0 inf\n", "t_factors")])
def test_mass_grid_rejects_non_finite(tmp_path, capsys, text, key):
    # rho_list = inf passed the > 0 check and the mass run never returned;
    # t_factors = 2.0 inf passed the > 1 check and wrote an inf row
    bad = tmp_path / "bad.ini"
    bad.write_text("[metric]\nkind = minkowski\n[mass]\n" + text)
    with pytest.raises(ConfigError, match=key):
        load_config(str(bad))
    out = tmp_path / "out"
    assert run_cli(["mass", "--config", str(bad), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_weyl_check_outputs(tmp_path):
    code = run_cli(["weyl-check", "--config", str(CONFIGS / "schwarzschild.ini"),
                    "--out", str(tmp_path), "--plot"])
    assert code == 0
    text = (tmp_path / "closed_forms.csv").read_text().splitlines()
    header = text[0].split(",")
    assert header[0] == "r" and header[-1] == "status"
    row5 = dict(zip(header, text[2].split(",")))
    assert float(row5["r"]) == 5.0
    assert float(row5["varrho_hat_n4"]) == pytest.approx(-0.001507712, abs=1e-7)
    assert float(row5["K"]) == pytest.approx(0.03844675, abs=1e-7)
    assert float(row5["trchi_s"]) == pytest.approx(0.39215686, abs=1e-7)
    meta = json.loads((tmp_path / "closed_forms.meta.json").read_text())
    assert "config_sha256" in meta and "tolerances" in meta
    assert (tmp_path / "closed_forms.svg").exists()


def test_kg_and_mass_subcommands(tmp_path):
    code = run_cli(["kg", "--config", str(CONFIGS / "kg_small.ini"),
                    "--out", str(tmp_path / "kg")])
    assert code == 0
    lines = (tmp_path / "kg" / "kg_decay.csv").read_text().splitlines()
    assert lines[0] == "t,sup_phi,t32_sup_phi,energy,status"
    assert len(lines) > 5
    code = run_cli(["mass", "--config", str(CONFIGS / "minkowski_small.ini"),
                    "--out", str(tmp_path / "mass")])
    assert code == 0
    rows = (tmp_path / "mass" / "masses.csv").read_text().splitlines()[1:]
    for row in rows:
        vals = row.split(",")
        assert abs(float(vals[3])) <= 1e-10
    # the sidecar names the tolerance the leaf records were solved at
    meta = json.loads((tmp_path / "mass" / "masses.meta.json").read_text())
    assert meta["tolerances"] == {"rel_tol": TIGHT_TOL, "abs_tol": TIGHT_TOL}
    fits = (tmp_path / "mass" / "mass_fits.csv").read_text().splitlines()[1:]
    assert abs(float(fits[0].split(",")[1])) < 1e-8


def _csv_column(path, name):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(name)
    return [row.split(",")[col] for row in lines[1:]]


def test_offset_origin_grids_follow_its_axis(tmp_path):
    # mass and zs-compare from an origin offset along x are the same
    # problem as along z, rotated, so their axisymmetric sphere grids (and
    # the cone sphere's probe) follow the offset.  glued_small with only the
    # offset changed: the 12 masses agree to 1e-10 (measured 8.5e-12), osc_t
    # and diam_bound of the cone sphere to 1e-10 (measured 8.4e-13 and
    # 5.2e-12).  With the z-axis grid, (0.2, 0, 0) read m = 0.0343 at rho 5,
    # t 10, where 2M = 0.02, every row with status ok
    text = (CONFIGS / "glued_small.ini").read_text()
    got = []
    for off in ("0.2 0.0 0.0", "0.0 0.0 0.2"):
        cfg, out = tmp_path / "offset.ini", tmp_path / off.replace(" ", "_")
        cfg.write_text(text.replace("offset = 0.0 0.0 0.0", f"offset = {off}"))
        for sub in ("mass", "zs-compare"):
            assert run_cli([sub, "--config", str(cfg), "--out", str(out)]) == 0
        assert set(_csv_column(out / "masses.csv", "status")) == {"ok"}
        got.append([float(v) for v in _csv_column(out / "masses.csv", "mass")]
                   + [float(_csv_column(out / "cone_spheres.csv", key)[0])
                      for key in ("osc_t", "diam_bound")])
    assert len(got[0]) == 14
    assert max(abs(a - b) for a, b in zip(*got)) <= 1e-10
    assert max(abs(m - 0.02) for m in got[0][:12]) <= 1e-6


def test_integrations_per_subcommand(tmp_path, monkeypatch):
    # geodesic._dop853 runs of each subcommand on glued_small: foliate its
    # fan; weyl-check none; zs-compare one batch of the radial series and
    # the cone sphere's probe, then the cone sphere's leaf (its tight round;
    # the stencil is a quadrature); residuals one batch of the record and
    # its mini-fan; mass one leaf solve per rho, three.  Before they were
    # batched: 1, 0, 4, 2; with a stencil integration per leaf, zs-compare
    # 3 and mass 6
    calls = spy_integrations(monkeypatch)
    for sub, n in (("foliate", 1), ("weyl-check", 0), ("zs-compare", 2),
                   ("residuals", 1), ("mass", 3)):
        calls.clear()
        assert run_cli([sub, "--config", str(CONFIGS / "glued_small.ini"),
                        "--out", str(tmp_path)]) == 0
        assert len(calls) == n, sub


def test_cone_sphere_uhat_matches_standalone_probe(tmp_path):
    # zs-compare reads the cone sphere's probe at rho_max / 2 off a plain
    # lane of its radial-series batch, integrated to rho_max; the probe
    # integrated alone to rho_max / 2 gives the same uhat to 1e-9 (measured
    # 6.8e-11)
    rc = load_config(str(CONFIGS / "glued_small.ini"))
    assert run_cli(["zs-compare", "--config", str(CONFIGS / "glued_small.ini"),
                    "--out", str(tmp_path)]) == 0
    rho, origin = rc.rho_max / 2.0, rc.origin()
    x = exp_map(rc.model(), origin, Direction(1.0, (1.0, 0.0, 0.0)), [rho],
                ode_tol=rc.rel_tol).state_at(rho)["x"]
    uhat = schw_optical(rc.mass, x[0] - origin[0],
                        float(np.linalg.norm(x[1:])))["uhat"]
    got = [float(v) for v in _csv_column(tmp_path / "cone_spheres.csv", "uhat")]
    assert len(got) == 6
    assert max(abs(v - uhat) for v in got) <= 1e-9


def test_determinism_and_golden(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run_cli(["weyl-check", "--config",
                        str(CONFIGS / "schwarzschild.ini"), "--out", str(out)])
        assert code == 0
    for name in ("closed_forms.csv", "weyl_identities.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # the subcommands that read geodesic records, each run twice in one
    # process: their CSVs do not depend on what the process ran before
    for sub in ("foliate", "zs-compare", "residuals"):
        outs = [tmp_path / sub / str(i) for i in (1, 2)]
        for out in outs:
            assert run_cli([sub, "--config", str(CONFIGS / "glued_small.ini"),
                            "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        assert names and names == sorted(p.name for p in outs[1].glob("*.csv"))
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), (sub, name)
    # golden comparison: pass against itself, fail against a corrupted copy
    code = run_cli(["weyl-check", "--config",
                    str(CONFIGS / "schwarzschild.ini"), "--out", str(b),
                    "--golden", str(a)])
    assert code == 0
    (a / "closed_forms.csv").write_text("tampered\n")
    code = run_cli(["weyl-check", "--config",
                    str(CONFIGS / "schwarzschild.ini"), "--out", str(b),
                    "--golden", str(a)])
    assert code == 4


def test_csv_float_roundtrip(tmp_path):
    path = tmp_path / "x.csv"
    vals = [0.1, 1.0 / 3.0, 1e-17, -2.5e8]
    write_csv(path, ["a"], [[v] for v in vals])
    back = [float(line) for line in path.read_text().splitlines()[1:]]
    assert back == vals


def test_foliate_small(tmp_path):
    code = run_cli(["foliate", "--config", str(CONFIGS / "minkowski_small.ini"),
                    "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "foliate.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "rho", "zeta", "t", "r", "tau", "b", "rtilde", "u", "ubar",
        "trk_minus_3_over_rho", "khat_nn", "khat_na_max", "status"]
    hdr = lines[0].split(",")
    for row in lines[1:]:
        vals = dict(zip(hdr, row.split(",")))
        if vals["status"] != "ok":
            continue
        assert abs(float(vals["b"]) - 1.0) < 1e-9
        u, ub, rho = (float(vals[k]) for k in ("u", "ubar", "rho"))
        assert abs(u * ub - rho * rho) < 1e-8 * rho * rho
    res = (tmp_path / "structure_residuals.csv").read_text().splitlines()[1:]
    for row in res:
        fam = row.split(",")
        assert float(fam[4]) < 1e-8


@pytest.mark.parametrize("text, word", [
    ("[integrator]\nrel_tol = 1e-10\nabs_tol = 1e-10\n", "abs_tol"),
    ("[foliaton]\nrho_min = 1.0\n", "foliaton"),
    ("[foliation]\nphi_nodes = 0\n", "phi_nodes"),
    ("[foliation]\ntheta_nodes = 0\n", "theta_nodes"),
])
def test_config_rejects_unknown_keys_and_empty_grids(tmp_path, capsys, text,
                                                     word):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[metric]\nkind = minkowski\n" + text)
    code = run_cli(["foliate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert word in capsys.readouterr().err
    assert not (tmp_path / "foliate.csv").exists()
