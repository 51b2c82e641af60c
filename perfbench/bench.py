"""Set-up, timed ops, the traced run and the metric_at micro table."""

import importlib
import os
import platform
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

from refclock import RefKernel, Sampler
from tracer import LAYERS, Tracer
from workloads import GLUED_MASS

SETUP_REPS = 3
MICRO_LEVELS = (0, 1, 2)
MICRO_SIZES = (1, 125, 1000)
MICRO_REPS = 15


def import_hyperlab():
    """A fresh import of every hyperlab module (earlier copies dropped)."""
    for name in [m for m in sys.modules
                 if m == "hyperlab" or m.startswith("hyperlab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"hyperlab.{m}")
                              for m in LAYERS})


def machine_info(thread_vars):
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in thread_vars}}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One workload in one process: set-up, then timed ops."""

    def __init__(self, wl_cls, seed, root, scratch):
        self.wl_cls = wl_cls
        self.seed = seed
        self.root = root
        self.scratch = scratch
        self.sampler = Sampler(RefKernel())
        self.ops = []
        self.digests = {}
        self.perturb = None        # self-check hook: alters an op's output
        self.wl = None

    def setup(self):
        """SETUP_REPS times: import hyperlab, build the workload (model,
        config), draw a round of inputs and run the warm-up op.  Returns the
        median seconds; the last set-up is the one used."""
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            hl = import_hyperlab()
            self.wl = self.wl_cls(hl, self.root, self.scratch)
            for k in range(self.wl.ROUND):
                self.wl.draw(self.seed, k)
            self.wl.warmup()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def run_op(self, k, tracer=None):
        """Time op k, then check its output outside the timed region."""
        wl = self.wl
        inp = wl.draw(self.seed, k)

        def guarded():
            if tracer:
                tracer.on = True
            try:
                return wl.op(inp), None
            except Exception as e:     # a failing op is counted, not fatal
                return None, f"{type(e).__name__}: {e}"
            finally:
                if tracer:
                    tracer.on = False

        (out, error), net, ref, n_ref = self.sampler.timed(guarded)
        problems = [error] if error else []
        measured = {}
        if out is not None and self.perturb:
            out = self.perturb(out)
        if out is not None:
            try:
                found, measured = wl.check(inp, out)
                problems += found
                digest = wl.digest(out)
                first = self.digests.setdefault(inp["key"], digest)
                if digest != first:
                    problems.append("output differs from an earlier op on "
                                    "the same input")
            except Exception as e:     # a check that cannot run is a failure
                problems.append(f"check raised {type(e).__name__}: {e}")
        record = {"k": k, "input": wl.describe(inp), "net_s": net,
                  "ref_s": ref, "ref_samples": n_ref, "rel": net / ref,
                  "ok": not problems, "problems": problems,
                  "checked": measured,
                  "traced": tracer is not None}
        self.ops.append(record)
        return record, out

    def measure(self, seconds, max_ops=None):
        """Whole rounds of ops until `seconds` have passed."""
        t0 = time.perf_counter()
        k = 0
        while True:
            for _ in range(self.wl.ROUND):
                self.run_op(k)
                k += 1
                if max_ops is not None and k >= max_ops:
                    return
            if time.perf_counter() - t0 >= seconds:
                return

    def traced(self):
        """Op 0 untraced, then op 0 traced; returns (tracer, overhead)."""
        plain, _ = self.run_op(0)
        tracer = Tracer(self.sampler.clock)
        tracer.install()
        try:
            traced, _ = self.run_op(0, tracer)
        finally:
            tracer.uninstall()
        return tracer, traced["rel"] / plain["rel"] - 1.0

    def micro_table(self):
        """metric_at at each level and batch size, in blocks of about 10 ms
        interleaved with the reference kernel: median us per call and median
        ratio to the kernel."""
        hl = self.wl.hl
        model = hl.metric.MetricModel.glued(GLUED_MASS)
        rng = np.random.default_rng(2016)
        out = {}
        for n in MICRO_SIZES:
            u = rng.standard_normal((n, 3))
            x = np.zeros((n, 4))
            x[:, 1:] = (rng.uniform(0.5, 20.0, n)[:, None] * u
                        / np.linalg.norm(u, axis=1)[:, None])
            for level in MICRO_LEVELS:
                def call():
                    hl.metric.metric_at(model, x, level)
                t0 = time.perf_counter()
                call()
                inner = max(1, int(0.01 / (time.perf_counter() - t0)))
                sec, rel = self.sampler.interleaved(call, MICRO_REPS, inner)
                name = f"metric.micro.l{level}.n{n}"
                out[name + ".us"] = (sec * 1e6, "us")
                out[name + ".us_rel"] = (rel, "ratio")
        return out

    def summary(self):
        ops = self.ops
        rel = [o["rel"] for o in ops]
        failed = sum(not o["ok"] for o in ops)
        out = {"ops": len(ops), "failed": failed,
               "fail_frac": failed / len(ops),
               "op_p50_rel": statistics.median(rel),
               "op_p50_s": statistics.median(o["net_s"] for o in ops),
               "peak_rss_mb": peak_rss_mb()}
        if len(ops) >= 20:
            # highest percentile with at least 10 samples beyond it
            out["op_tail_rel"] = {"value": sorted(rel)[len(rel) - 11],
                                  "percentile": 100.0 * (len(rel) - 10)
                                  / len(rel), "samples": len(rel)}
        return out
