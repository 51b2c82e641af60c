"""Self-check of the benchmark itself.

For each workload:
- two traced ops on one seed give identical counters and identical outputs;
- another seed gives other inputs (cli's inputs are committed, so there the
  seed must change nothing);
- an op whose output is deliberately perturbed is counted as failed.
Then the traced counters are compared with the figures measured at the
first benchmarked commit, on fixed inputs:
- a centred mass_of_leaf at t = 40, rho = 10 with angular_grid(4, 1) makes
  20 integrate_rays calls and 17,404 metric_at calls inside them;
- a 5x5x5 fan centred on (zeta, theta, phi) = (1, pi/2, 0) with rho grid
  [1, 25] makes 2,570 metric_at calls.
"""

import dataclasses
import time

import numpy as np

from bench import Bench
from tracer import Tracer
from workloads import FAN_RHO, FAN_SPACING


def _perturb_leaf(rep):
    return dataclasses.replace(rep, mass=rep.mass + 1e-5)


def _perturb_fan(fan):
    # the corner ray takes the centre's place: its k is not the one the
    # finite differences around the centre give
    recs = list(fan.records)
    recs[fan.index(2, 2, 2)], recs[0] = recs[0], recs[fan.index(2, 2, 2)]
    return dataclasses.replace(fan, records=recs)


def _perturb_kg(out):
    states, hyp, rows = out
    last = dataclasses.replace(states[-1], phit=1.01 * states[-1].phit)
    return states[:-1] + [last], hyp, rows


def _perturb_cli(out):
    codes, files = out
    files = dict(files)
    files["residuals.csv"] = files["residuals.csv"].replace(b",ok\n",
                                                            b",bad\n", 1)
    return codes, files


PERTURB = {"leaf": _perturb_leaf, "fan": _perturb_fan, "kg": _perturb_kg,
           "cli": _perturb_cli}


def _traced_op(wl_cls, seed, root, scratch):
    b = Bench(wl_cls, seed, root, scratch)
    b.setup()
    tracer = Tracer(b.sampler.clock)
    tracer.install()
    try:
        record, _ = b.run_op(0, tracer)
    finally:
        tracer.uninstall()
    return record, dict(tracer.count), dict(tracer.calls), b.digests


def _count(fn):
    tracer = Tracer(time.perf_counter)
    tracer.install()
    tracer.on = True
    try:
        fn()
    finally:
        tracer.on = False
        tracer.uninstall()
    return {k: v for k, (v, _) in tracer.layer_metrics().items()}


def main(names, root, scratch):
    from workloads import WORKLOADS
    results = []

    def report(name, ok, detail):
        results.append(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)

    for name in names:
        cls = WORKLOADS[name]
        a = _traced_op(cls, 7, root, scratch)
        b = _traced_op(cls, 7, root, scratch)
        report(f"{name} traced op ok", a[0]["ok"] and b[0]["ok"],
               f"{a[0]['problems']} {b[0]['problems']}")
        report(f"{name} counters repeat", a[1:3] == b[1:3],
               f"{sum(a[2].values())} spans, {len(a[1])} counters")
        report(f"{name} outputs repeat", a[3] == b[3],
               f"{len(a[3])} digest(s)")

        bench = Bench(cls, 7, root, scratch)
        bench.setup()
        wl = bench.wl
        keys = [wl.draw(seed, k)["key"] for seed in (7, 8)
                for k in range(wl.ROUND)]
        mine, other = keys[:wl.ROUND], keys[wl.ROUND:]
        if name == "cli":
            report("cli seed unused", mine == other, str(mine[0]))
        else:
            report(f"{name} seed changes inputs",
                   all(x != y for x, y in zip(mine, other)),
                   f"{mine[0]} vs {other[0]}")

        bench.perturb = PERTURB[name]
        bench.measure(0.0, max_ops=1)
        s = bench.summary()
        report(f"{name} perturbed op counted", s["fail_frac"] == 1.0,
               f"fail_frac {s['fail_frac']}: {bench.ops[0]['problems']}")

        hl = wl.hl
        if name == "leaf":
            m = _count(lambda: hl.mass.mass_of_leaf(
                wl.model, np.zeros(4), 40.0, 10.0,
                hl.foliation.angular_grid(4, 1)))
            got = (m["geodesic.integrate_rays.calls"],
                   m["geodesic.metric_calls"])
            report("leaf seed-commit counters", got == (20, 17404),
                   f"integrate_rays {got[0]}, metric_at inside {got[1]}")
        if name == "fan":
            steps = FAN_SPACING * np.arange(-2, 3)
            m = _count(lambda: hl.geodesic.fan_build(
                wl.model, np.zeros(4), 1.0 + steps, np.pi / 2 + steps, steps,
                list(FAN_RHO), ode_tol=1e-11))
            report("fan seed-commit counters", m["metric.calls"] == 2570,
                   f"metric_at {m['metric.calls']}")
    print(f"self-check: {sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1
