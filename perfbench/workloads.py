"""The four workloads: seeded inputs, one op each, and the op's checks.

A workload's ops run in rounds of ROUND ops; a run measures whole rounds.
The inputs of op k depend only on (workload, seed, k), and hyperlab sees only
those inputs.  A round fixes the properties that set an op's cost (the t / rho
ratio of a leaf, the rapidity band of a fan) and the seed draws the rest, so
the median op of a run is comparable from seed to seed.

check() runs after the op's timed region and returns the list of problems
(empty when the output is correct) and the checked quantities, which go into
the op's record.  digest() condenses an output so that
two ops on the same input can be compared for identical results.
"""

import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np

GLUED_MASS = 0.01
# A centred leaf's mass is 2M exactly.  At the first benchmarked commit the
# computed error is usually ~1e-10 but jumps erratically with rho: 7.3e-8 at
# t = 64.036, rho = 16.009, with every node on the level set to 5e-10.  The
# bound sits well above that noise and far below any real error.
LEAF_MASS_TOL = 1e-6
FAN_SPACING = 4e-3
FAN_RHO = (1.0, 25.0)
KG_T_MAX = 12.0
KG_R_PAD = 10.0
CLI_CONFIG = Path("configs") / "glued_small.ini"
CLI_SUBCOMMANDS = ("foliate", "weyl-check", "zs-compare", "residuals")


def _rng(name, seed, k):
    salt = int.from_bytes(name.encode(), "little")
    return np.random.default_rng([salt, abs(int(seed)), int(k)])


class Workload:
    ROUND = 1

    def __init__(self, hl, root, scratch):
        self.hl = hl                # namespace of hyperlab modules
        self.root = root            # checkout root
        self.scratch = scratch      # writable directory inside the checkout
        self.model = hl.metric.MetricModel.glued(GLUED_MASS)

    def describe(self, inp):
        return {k: (round(float(v), 6) if isinstance(v, float) else v)
                for k, v in inp.items() if k != "key"}


class Leaf(Workload):
    """One op: mass_of_leaf on glued M = 0.01 with angular_grid(4, 1), from
    the centred origin.  A round is three leaves, t = f rho with f = 4, 2
    and 8, each with rho drawn in [5, 20].

    The leaf solver's cost is erratic: now and then a leaf costs twice its
    neighbours, so a round of three lets the median op pass over one such
    leaf.  Leaves from an offset origin cost 1.5-2x a centred one; holding
    one in the round would make it the median whenever a centred leaf is
    slow, so offset leaves are left out.
    """

    name = "leaf"
    ROUND = 3
    FACTORS = (4.0, 2.0, 8.0)

    def draw(self, seed, k):
        rng = _rng(self.name, seed, k)
        rho = float(rng.uniform(5.0, 20.0))
        f = self.FACTORS[k % self.ROUND]
        return {"key": (rho, f), "rho": rho, "t": f * rho, "f": f}

    def op(self, inp):
        hl = self.hl
        return hl.mass.mass_of_leaf(self.model, np.zeros(4), inp["t"],
                                    inp["rho"],
                                    hl.foliation.angular_grid(4, 1))

    def check(self, inp, rep):
        problems = []
        if rep.status != "ok":
            problems.append(f"status {rep.status}")
        if not all(np.isfinite([rep.mass, rep.area, rep.area_radius])):
            problems.append("non-finite mass report")
        else:
            err = abs(rep.mass - 2.0 * GLUED_MASS)
            if not err <= LEAF_MASS_TOL:
                problems.append(f"|m - 2M| = {err:.3e} > {LEAF_MASS_TOL:g}")
        return problems, {"mass": rep.mass,
                          "m_minus_2M": rep.mass - 2.0 * GLUED_MASS}

    def digest(self, rep):
        return repr((rep.mass, rep.area, rep.integrand_min,
                     rep.integrand_max))

    def warmup(self):
        _warm_rays(self.hl, self.model)


class Fan(Workload):
    """One op: a 5x5x5 fan_build with Jacobi fields and k, spacing 4e-3,
    rho grid [1, 25], ode_tol 1e-11, from the centred origin.  The seed
    draws the centre direction (zeta, theta, phi).  A round is two fans,
    one with zeta in [0.5, 1.25] and one in [1.25, 2]."""

    name = "fan"
    ROUND = 2

    def draw(self, seed, k):
        rng = _rng(self.name, seed, k)
        lo = 0.5 + 0.75 * (k % self.ROUND)
        zeta = float(rng.uniform(lo, lo + 0.75))
        theta = float(rng.uniform(0.5, np.pi - 0.5))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        return {"key": (zeta, theta, phi), "zeta": zeta, "theta": theta,
                "phi": phi}

    def op(self, inp):
        steps = FAN_SPACING * np.arange(-2, 3)
        return self.hl.geodesic.fan_build(
            self.model, np.zeros(4), inp["zeta"] + steps, inp["theta"] + steps,
            inp["phi"] + steps, list(FAN_RHO), ode_tol=1e-11)

    def check(self, inp, fan):
        hl = self.hl
        problems = []
        oracle = 0.0
        for rho in (5.0, 15.0, 24.9):
            ko = hl.foliation.second_fundamental_fd_oracle(
                fan.model, fan, (2, 2, 2), rho)
            st = fan.record(2, 2, 2).state_at(rho)
            kt = st["khat"] + (1.0 / rho + st["q0"] / 3.0) * np.eye(3)
            err = np.abs(ko - kt).max() / np.abs(kt).max()
            oracle = max(oracle, float(err))
            if not err <= 1e-4:
                problems.append(f"k vs FD oracle at rho={rho}: {err:.3e}")
        worst = 0.0
        for rec in fan.records:
            st = rec.state_at(np.array([2.0, 10.0, 24.9]))
            g = hl.metric.metric_at(fan.model, st["x"], level=0).g
            bb = np.einsum('na,nab,nb->n', st["b"], g, st["b"])
            worst = max(worst, float(np.abs(bb + 1.0).max()))
        if not worst <= 1e-8:
            problems.append(f"|<B,B> + 1| = {worst:.3e} > 1e-8")
        return problems, {"k_oracle_rel": oracle, "bb_plus_1": worst}

    def digest(self, fan):
        h = hashlib.sha256()
        for rec in fan.records:
            st = rec.state_at(np.array([10.0, 25.0]))
            for key in ("x", "b", "j", "khat"):
                h.update(np.ascontiguousarray(st[key]).tobytes())
        return h.hexdigest()

    def warmup(self):
        _warm_rays(self.hl, self.model)


class KG(Workload):
    """One op: evolve_kg at the default dr and cfl to t = 12 with snapshots
    every 0.5, then hyperboloid_energy at a seeded rho and decay_report.
    The seed draws the pulse centre and width, inside KGConfig's causal
    limit, and rho in [2, 8]."""

    name = "kg"

    def config(self, inp):
        return self.hl.kgflat.KGConfig(r_max=KG_T_MAX + KG_R_PAD,
                                       t_max=KG_T_MAX, center=inp["center"],
                                       width=inp["width"])

    def draw(self, seed, k):
        rng = _rng(self.name, seed, k)
        center = float(rng.uniform(0.5, 2.5))
        width = float(rng.uniform(0.25, 0.5))
        rho = float(rng.uniform(2.0, 8.0))
        return {"key": (center, width, rho), "center": center,
                "width": width, "rho": rho}

    def op(self, inp):
        kg = self.hl.kgflat
        states = kg.evolve_kg(self.config(inp),
                              np.arange(0.0, KG_T_MAX + 1e-9, 0.5))
        return (states, kg.hyperboloid_energy(states, inp["rho"]),
                kg.decay_report(states))

    def check(self, inp, out):
        states, hyp, rows = out
        problems = []
        e = np.array([self.hl.kgflat.energy(s) for s in states])
        drift = float(np.max(np.abs(e / e[0] - 1.0)))
        if not drift <= 1e-6:
            problems.append(f"energy drift {drift:.3e} > 1e-6")
        if not hyp["lower_bound_check"] >= -1e-12:
            problems.append(
                f"lower_bound_check {hyp['lower_bound_check']:.3e} < -1e-12")
        vals = [hyp["E_B"]] + [v for r in rows for v in r.values()]
        if not np.all(np.isfinite(vals)):
            problems.append("non-finite energy or decay value")
        return problems, {"energy_drift": drift,
                          "lower_bound_check": hyp["lower_bound_check"]}

    def digest(self, out):
        states, hyp, rows = out
        h = hashlib.sha256(repr((hyp, rows)).encode())
        h.update(states[-1].phi.tobytes())
        return h.hexdigest()

    def warmup(self):
        kg = self.hl.kgflat
        states = kg.evolve_kg(kg.KGConfig(r_max=12.0, t_max=1.0),
                              np.arange(0.0, 1.01, 0.25))
        kg.hyperboloid_energy(states, 0.5)
        kg.decay_report(states)


class CLI(Workload):
    """One op: one in-process pass of hyperlab.cli.main over foliate,
    weyl-check, zs-compare and residuals on configs/glued_small.ini, into
    a fresh directory.  The inputs are committed, so the seed is unused."""

    name = "cli"

    def __init__(self, hl, root, scratch):
        super().__init__(hl, root, scratch)
        hl.cli.load_config(root / CLI_CONFIG)     # the config build of set-up

    def draw(self, seed, k):
        return {"key": "glued_small", "config": str(CLI_CONFIG)}

    def op(self, inp):
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        try:
            codes = {sub: self.hl.cli.main(
                [sub, "--config", str(self.root / inp["config"]),
                 "--out", str(out)]) for sub in CLI_SUBCOMMANDS}
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.suffix == ".csv"}
        finally:
            shutil.rmtree(out)
        return codes, files

    def check(self, inp, out):
        codes, files = out
        problems = [f"{sub} exited {c}" for sub, c in codes.items() if c != 0]
        tables = {}
        for name, data in files.items():
            lines = data.decode().strip().splitlines()
            header = lines[0].split(",")
            tables[name] = [dict(zip(header, ln.split(",")))
                            for ln in lines[1:]]
            bad = [r["status"] for r in tables[name] if r["status"] != "ok"]
            if bad:
                problems.append(f"{name}: {len(bad)} rows not ok ({bad[0]})")
        if set(tables) != {"foliate.csv", "structure_residuals.csv",
                           "closed_forms.csv", "weyl_identities.csv",
                           "compare.csv", "cone_spheres.csv",
                           "residuals.csv"}:
            problems.append(f"unexpected CSV set {sorted(tables)}")
            return problems, {}
        for r in tables["compare.csv"]:
            if not abs(float(r["n_minus_varpi"])) <= 1e-8:
                problems.append(f"|n - varpi| = {r['n_minus_varpi']}")
        structure = tables["structure_residuals.csv"] + [
            r for r in tables["residuals.csv"] if r["family"] == "structure"]
        for r in structure:
            if not float(r["residual"]) <= 1e-5 * float(r["scale"]):
                problems.append(f"structure {r['equation']}: {r['residual']}"
                                f" > 1e-5 x {r['scale']}")
        for r in tables["residuals.csv"]:
            if r["family"] != "zs_transport":
                continue
            res, scale = float(r["residual"]), float(r["scale"])
            bound = (1e-7 if r["equation"] == "bvarpi"
                     else 1e-7 * max(scale, 1.0) + 1e-9)
            if not res <= bound:
                problems.append(f"zs_transport {r['equation']}: {res:.3e}")
        worst = max(abs(float(r["n_minus_varpi"]))
                    for r in tables["compare.csv"])
        return problems, {"n_minus_varpi": worst,
                          "bytes": sum(len(d) for d in files.values())}

    def digest(self, out):
        codes, files = out
        h = hashlib.sha256(repr(sorted(codes.items())).encode())
        for name, data in files.items():
            h.update(name.encode() + data)
        return h.hexdigest()

    def warmup(self):
        out = Path(tempfile.mkdtemp(prefix="warm-", dir=self.scratch))
        try:
            self.hl.cli.main(["weyl-check", "--config",
                              str(self.root / CLI_CONFIG), "--out", str(out)])
        finally:
            shutil.rmtree(out)


def _warm_rays(hl, model):
    """Reduced op for the geodesic workloads: one ray with Jacobi fields and
    k, and two plain rays, from the flat core across the glued shell."""
    dirs = [hl.geodesic.direction_from_angles(z, 1.0, 0.5)
            for z in (0.5, 1.5)]
    hl.geodesic.integrate_rays(model, np.zeros(4), dirs[:1], [2.0],
                               ode_tol=1e-9, with_jacobi=True, with_k=True)
    hl.geodesic.integrate_rays(model, np.zeros(4), dirs, [2.0], ode_tol=1e-9)


WORKLOADS = {w.name: w for w in (Leaf, Fan, KG, CLI)}
