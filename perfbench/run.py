"""specedge benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload density --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The workload's operations (see workloads.py) run
in-process and warm: a small warm-up pass first, then full passes until
`--seconds` have elapsed. Every output is checked. `--trace 0` prints the
end-to-end metrics, speed-scaled by a calibration kernel (`calibrate`),
`--trace 1` the per-layer metrics of a traced run (layertrace.py). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--workload all` runs the four workloads in turn and prints a table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD_STARTS = 3
# End-to-end times are scaled to a machine on which each `calibrate` kernel
# takes this long, and the kernel in coldstart.py COLDSTART_KERNEL_S.
CALIBRATION_S = 0.006
COLDSTART_KERNEL_S = 0.0045

# Per-layer metrics of the traced run. Self time is reported in seconds for
# functions that every workload calls, and as a share of the traced wall
# time (`self_frac`) for functions that only some workloads call, so that no
# metric is a time that reads zero.
CALLS = (
    "cli.main", "manifest.atomic_write", "edges.find_edges", "edges.check_regularity",
    "spectral.stieltjes_boundary", "spectral.solve_m0", "spectral.density_f0",
    "tw.f1_cdf", "tw.f1_quantile", "manova.manova_estimate", "simulate.sample_spectrum",
    "swaps.build_swap_sequence", "swaps.verify_swappable", "swaps.sum_rule_residuals",
)
SELF_S = ("cli.main", "manifest.atomic_write", "manifest.file_digest", "edges.find_edges")
SELF_FRAC = (
    "spectral.stieltjes_boundary", "spectral.density_grid", "spectral.integrate_density",
    "spectral.solve_m0", "tw.f1_cdf", "tw.f1_quantile", "twtest.edge_test",
    "twtest.plugin_edge_test", "manova.oneway_population", "manova.manova_estimate",
    "simulate.sample_spectrum", "simulate.support_adherence", "simulate.edge_concentration",
    "simulate.table1_experiment", "simulate.local_law_probe", "swaps.build_swap_sequence",
    "swaps.verify_swappable", "swaps.sum_rule_residuals", "swaps.export_sequence",
)
COUNTS = (
    ("edges.pole_intervals", "count"), ("simulate.replicates", "count"),
    ("simulate.gflop_computed", "GFLOP"), ("swaps.states", "count"),
    ("swaps.export_bytes", "bytes"), ("manifest.bytes_written", "bytes"),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "specedge" / "__init__.py").is_file():
        fail(f"no specedge package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import specedge

    if Path(specedge.__file__).resolve().parent != SRC / "specedge":
        fail(f"imported specedge from {specedge.__file__}, not from {SRC}")
    return specedge


# ---------------------------------------------------------------------------
# machine speed, set-up time and machine facts

# Calibration kernels, by the work that dominates a workload: counts of
# (companion-matrix eigensolves, vector rational sums, 300x300 symmetric
# eigensolves).
KERNELS = {"eig": (50, 0, 0), "vector": (0, 500, 0), "dense": (0, 0, 1)}


def calibrate(kind):
    """Seconds taken by a fixed kernel of the kind of numeric work that
    dominates a workload: small companion-matrix eigensolves (LAPACK, as
    in the boundary solver), elementwise rational sums over a 1600-vector
    (as in the edge search and the swap steps), or a 300x300 symmetric
    eigensolve (threaded LAPACK and BLAS, as in the Monte Carlo spectra).

    The speed of a shared 2-vCPU host drifts by 2x or more over tens of
    seconds, and not by the same factor for every kind of work. Each timed
    operation is bracketed by its workload's kernel, and the times of a
    pass are scaled by CALIBRATION_S over the median kernel time of that
    pass, which cancels most of that drift; the raw times are printed
    beside."""
    import numpy as np

    n_eig, n_vec, n_dense = KERNELS[kind]
    coef = np.cos(np.arange(21.0)) + 1.5
    v = np.linspace(0.5, 2.0, 1600)
    w = np.cos(v)
    a = None
    if n_dense:
        a = np.sin(np.arange(90000.0)).reshape(300, 300)
        a = a @ a.T
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(n_eig):
        acc += float(np.abs(np.roots(coef)).sum())
    for q in np.linspace(-1.0, 1.0, n_vec):
        acc += float(np.sum(w * v ** 2 / (q + v + 3.0) ** 2))
    for _ in range(n_dense):
        acc += float(np.linalg.eigvalsh(a).sum())
    return time.perf_counter() - t0


def cold_starts(n):
    """Time `import specedge.cli` plus the first TW table load, each in a
    fresh interpreter, n times after one unmeasured start (which may
    compile bytecode). The child's own kernel runs are subtracted from the
    wall time, which is then scaled by their mean. Returns lists of raw
    wall, scaled wall, import and table times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    walls, scaled, imports, tables = [], [], [], []
    for i in range(n + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "coldstart.py")], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line:
                fail("cold start failed")
        if i:
            rec = json.loads(line)
            k0, k1 = rec["kernel_s"]
            walls.append(wall - k0 - k1)
            scaled.append(walls[-1] * COLDSTART_KERNEL_S / (0.5 * (k0 + k1)))
            imports.append(rec["import_s"])
            tables.append(rec["tw_table_s"])
    return walls, scaled, imports, tables


def blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# running and checking operations

def digest(obj) -> str:
    """Order-stable digest of an operation's output."""
    import numpy as np

    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, dict):
            h.update(b"{")
            for k in sorted(o):
                feed(k)
                feed(o[k])
            h.update(b"}")
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for x in o:
                feed(x)
            h.update(b"]")
        elif isinstance(o, np.ndarray):
            h.update(str(o.dtype).encode() + str(o.shape).encode() + o.tobytes())
        elif isinstance(o, bytes):
            h.update(o)
        else:
            h.update(repr(o).encode())
        h.update(b";")

    feed(obj)
    return h.hexdigest()


def same_values(ref, got, path="") -> str | None:
    """None when `got` matches `ref`: counts and strings exactly, other
    numbers within 1e-9 relative (1e-12 absolute near zero)."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return f"{path}: keys {sorted(got)} != {sorted(ref)}"
        for k in ref:
            msg = same_values(ref[k], got[k], f"{path}.{k}")
            if msg:
                return msg
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(got)} != {len(ref)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            msg = same_values(a, b, f"{path}[{i}]")
            if msg:
                return msg
        return None
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)) \
                and abs(ref - got) <= 1e-9 * max(abs(ref), abs(got)) + 1e-12:
            return None
    elif ref == got and type(ref) is type(got):
        return None
    return f"{path}: {got!r} != recorded {ref!r}"


@dataclass
class Pass:
    """One pass over a workload: raw and speed-scaled op times, outputs."""

    times: list
    scaled: list
    outputs: list


class Runner:
    """Runs one workload's passes and keeps the verdicts."""

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.reference = reference        # op name -> summary, at the default seed
        self.verdicts = {}                # (op name, digest) -> error message or None
        self.first_digest = {}
        self.summaries = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_pass(self) -> Pass:
        """Run every op `op.repeat` times, each call bracketed by the
        calibration kernel and checked. An op's raw time in the pass is the
        median over its calls, and its output the last call's; the scaled
        time divides by the median kernel time of the pass."""
        calls, kernel = [], []
        for op in self.workload.ops:
            for _ in range(op.repeat):
                kernel.append(calibrate(self.workload.kernel))
                t0 = time.perf_counter()
                try:
                    raw, err = op.run(), None
                except Exception as exc:   # a failed op is counted, never fatal
                    raw, err = None, f"{type(exc).__name__}: {exc}"
                calls.append((raw, err, time.perf_counter() - t0))
        kernel.append(calibrate(self.workload.kernel))
        times, outputs = [], []
        i = 0
        for op in self.workload.ops:
            group = calls[i:i + op.repeat]
            times.append(median([t for _, _, t in group]))
            outputs.append([self._judge(op, raw, err) for raw, err, _ in group][-1])
            i += op.repeat
        speed = CALIBRATION_S / median(kernel)
        return Pass(times, [t * speed for t in times], outputs)

    def _judge(self, op, raw, err):
        self.attempted += 1
        out = None
        if err is None:
            out = op.output(raw)
            key = digest(out)
            first = self.first_digest.setdefault(op.name, key)
            if key not in self.verdicts.setdefault(op.name, {}):
                self.verdicts[op.name][key] = self._check(op, out)
            err = self.verdicts[op.name][key]
            if err is None and key != first:
                err = "output differs from the first repetition"
        if err is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.name}: {err}")
        return out

    def _check(self, op, out):
        from workloads import CheckFailed

        try:
            summary = json.loads(json.dumps(op.check(out)))
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:           # a malformed output is a failed check
            return f"check raised {type(exc).__name__}: {exc}"
        self.summaries[op.name] = summary
        if self.reference is not None:
            if op.name not in self.reference:
                return "no recorded reference value"
            return same_values(self.reference[op.name], summary, op.name)
        return None


def run_for(runner, seconds, on_pass):
    """Passes until `seconds` have elapsed (at least one)."""
    start = time.perf_counter()
    while True:
        on_pass(runner.run_pass())
        if time.perf_counter() - start >= seconds:
            break


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# traced run

def layer_metrics(tracer, wall, scaled_wall):
    """Per-layer metrics of one traced pass; `wall` is its raw time, which
    the shares divide, and `scaled_wall` its speed-scaled time."""
    from layertrace import LAYERS, FunctionStats

    def st(name):
        return tracer.stats.get(name) or FunctionStats()

    out = {"trace.wall_s": (scaled_wall, "s")}
    for name in CALLS:
        out[f"{name}.calls"] = (st(name).calls, "count")
    for name in SELF_S:
        out[f"{name}.self_s"] = (st(name).self_ns / 1e9, "s")
    for name in SELF_FRAC:
        out[f"{name}.self_frac"] = (st(name).self_ns / 1e9 / wall, "frac")
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = (tracer.layer_self_ns(layer) / 1e9 / wall, "frac")
    for key, unit in COUNTS:
        out[key] = (tracer.counts.get(key, 0), unit)

    def rate(count, ns):
        return count / (ns / 1e9) if ns else 0.0

    fe = st("edges.find_edges")
    intervals = tracer.counts.get("edges.pole_intervals", 0)
    out["edges.us_per_pole_interval"] = (fe.total_ns / 1e3 / intervals if intervals else 0.0, "us")
    sb = st("spectral.stieltjes_boundary")
    out["spectral.boundary_points_per_s"] = (rate(sb.calls, sb.total_ns), "1/s")
    ss = st("simulate.sample_spectrum")
    out["simulate.gflop_per_s"] = (rate(tracer.counts.get("simulate.gflop_computed", 0),
                                        ss.total_ns), "GFLOP/s")
    return out


def trace_assertions(tracer, workload, outputs):
    """Counts the tracer must agree with, known from the benchmark's side:
    one `cli.main` per CLI op, each library op's own API calls, and one
    swap state per JSONL line built or verified."""
    problems = []
    expected = {"cli.main": sum(op.repeat for op in workload.ops if op.metric != "library_s")}
    for op in workload.ops:
        for name, n in op.direct_calls.items():
            expected[name] = expected.get(name, 0) + n * op.repeat
    for name, n in expected.items():
        got = tracer.stats[name].direct_calls if name in tracer.stats else 0
        if got != n:
            problems.append(f"{name}: traced {got} direct calls, expected {n}")
    states = sum(op.states(out) * op.repeat for op, out in zip(workload.ops, outputs)
                 if op.states is not None and out is not None)
    if tracer.counts.get("swaps.states", 0) != states:
        problems.append(f"swaps.states: traced {tracer.counts.get('swaps.states', 0)}, "
                        f"expected {states} JSONL lines")
    return problems


# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, workroot):
    import workloads

    reference = None
    if seed == workloads.DEFAULT_SEED:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)[name]

    raw_setup, setup, imports, tables = cold_starts(COLD_STARTS)

    warm = workloads.build(name, seed, os.path.join(workroot, "warm"), small=True)
    Runner(warm).run_pass()
    workload = workloads.build(name, seed, os.path.join(workroot, "full"))
    runner = Runner(workload, reference)

    samples = {}

    def record(p):
        for label, times in (("", p.scaled), ("raw_", p.times)):
            sums = {}
            for op, t in zip(workload.ops, times):
                sums[op.metric] = sums.get(op.metric, 0.0) + t
            sums["wall_s"] = sum(times)
            sums["cli_s"] = sum(t for op, t in zip(workload.ops, times) if op.metric != "library_s")
            for key, value in sums.items():
                samples.setdefault(label + key, []).append(value)

    def summary(key, unit="s"):
        return median(samples.get(key, [])), unit, len(samples.get(key, []))

    problems = []
    if not trace:
        run_for(runner, seconds, record)
        metrics = {
            "setup_s": (median(setup), "s", len(setup)),
            "wall_s": summary("wall_s"),
            "cli_s": summary("cli_s"),
            "library_s": summary("library_s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
        extra = {k: summary(k) for k in sorted(samples) if k not in metrics}
        extra["raw_setup_s"] = (median(raw_setup), "s", len(raw_setup))
    else:
        from layertrace import LayerTrace

        run_for(runner, seconds / 2, record)
        tracer = LayerTrace()
        traced = []

        def record_traced(p):
            traced.append(layer_metrics(tracer, sum(p.times), sum(p.scaled)))
            problems.extend(trace_assertions(tracer, workload, p.outputs))
            tracer.reset()

        tracer.install()
        try:
            run_for(runner, seconds / 2, record_traced)
        finally:
            tracer.uninstall()
        metrics = {k: (median([t[k][0] for t in traced]), traced[0][k][1], len(traced))
                   for k in traced[0]}
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"][0] / summary("wall_s")[0] - 1.0,
                                          "frac", len(traced))
        metrics["setup.import_s"] = (median(imports), "s", len(imports))
        metrics["setup.tw_table_s"] = (median(tables), "s", len(tables))
        extra = {}

    defects = []
    for probe in workload.probes:
        try:
            shown = probe.run()
        except Exception as exc:
            shown = f"{type(exc).__name__}: {exc}"
        if shown:
            defects.append(f"{probe.name}: {shown}")
    if trace:
        metrics["probe.known_defects"] = (len(defects), "count", 1)
    return {
        "name": name, "runner": runner, "metrics": metrics, "extra": extra,
        "defects": defects, "problems": problems,
    }


def report(res, seed, trace):
    runner = res["runner"]
    print(f"workload {res['name']}  seed {seed}  trace {trace}  "
          f"ops {len(runner.workload.ops)}  attempted {runner.attempted}  failed {runner.failed}  "
          f"failed_frac {runner.failed / max(runner.attempted, 1):.4g}")
    for key, (value, unit, n) in list(res["metrics"].items()) + list(res["extra"].items()):
        print(f"  {key:<40} {value:>14.6g} {unit:<8} n={n}")
    for line in res["defects"]:
        print(f"  known defect still shows: {line}")
    for line in runner.errors + res["problems"]:
        print(f"  FAILED {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("density", "edges", "montecarlo", "swapseq", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    workroot_parent = ROOT / ".perfbench_work"
    workroot_parent.mkdir(exist_ok=True)
    workroot = tempfile.mkdtemp(dir=workroot_parent)
    try:
        print("machine " + json.dumps(machine_facts()))
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace,
                               os.path.join(workroot, name))
            report(res, args.seed, args.trace)
            results.append(res)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot_parent.rmdir()
        except OSError:
            pass

    attempted = sum(r["runner"].attempted for r in results)
    failed = sum(r["runner"].failed for r in results)
    problems = sum(len(r["problems"]) for r in results)
    prefix = len(results) > 1
    metrics = {
        (f"{r['name']}.{k}" if prefix else k): {"value": v, "unit": u}
        for r in results for k, (v, u, _) in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0 and problems == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
