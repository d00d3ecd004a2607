"""Benchmark of the circledyn CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the directory that holds
``src/circledyn``.  Inputs are generated from the seed into a scratch
directory under ``.perfbench/`` (see ``workloads.py``); each CLI call is a
fresh ``python3 -m circledyn.cli`` process with ``src`` on its path.

``--trace 0`` times CLI calls back to back for S seconds and reports the
end-to-end metrics: median wall and CPU time of a call (CPU includes reaped
pool workers), median peak resident set, median set-up time of fresh
interpreters (``setup_probe.py``), and the share of the run's decisions its
outputs leave unresolved.  The three times are given at reference speed:
each sample is divided by a run of ``reference.py`` made next to it (see
``REFERENCE_S``).  ``--trace 1`` alternates untraced calls with calls
through ``tracer.py`` and reports the per-layer metrics of the traced ones,
their coverage and the tracing overhead.

Outputs are checked after every call, outside the timed region: the first
successful call against the workload's independent references, every later
call by the sha256 of its CSVs, which must repeat.  ``theoremA-par`` is also
compared with a serial run of the same inputs, whose CSVs must be identical.
A call that exits non-zero, writes no CSV or fails a check counts as failed;
its timing is still reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run (environment, load average around each call, input and CSV digests,
every call's timings, quantiles) is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"
SETUP_SAMPLES = 9
# Median wall time of reference.py on the machine the benchmark was written
# on (2-core Xeon VM, Python 3.11.7, numpy 2.4.6, one BLAS thread).  That machine's speed
# drifts by up to 2x over minutes, and CPU time drifts with it, so timed
# runs report wall, CPU and set-up time divided by a reference run made next
# to each sample and multiplied by this constant: seconds at the machine
# speed at which the reference takes REFERENCE_S.  Raw medians are kept in
# the run record.
REFERENCE_S = 0.25
MIN_CALLS = 3
MIN_TRACE_PAIRS = 2
CALL_TIMEOUT_S = 60.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "unresolved_frac": "share"}


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def quantile_summary(values) -> dict:
    """Median, and the highest percentile with at least ten samples above it
    (None below eleven samples), with the sample count."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals) if vals else None,
           "p": None, "p_value": None}
    k = n - 10
    if k >= 1:
        out["p"] = round(100.0 * k / n, 1)
        out["p_value"] = vals[k - 1]
    return out


class Runner:
    """Starts CLI, tracer and set-up processes in a scratch directory and
    records each one's wall time, rusage and CSV digests."""

    def __init__(self, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        env = {k: v for k, v in os.environ.items() if not k.startswith("CIRCLEDYN_")}
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = scratch
        # The CLI uses no BLAS; an idle BLAS thread pool only adds start-up
        # work whose cost depends on whether the second core is free.
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env = env
        self.seq = 0

    def _spawn(self, cmd, stderr_path):
        load0 = loadavg()
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall_s": wall,
                "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0,
                "loadavg_before": load0, "loadavg_after": loadavg()}

    def cli(self, argv, traced: bool = False) -> tuple:
        """One CLI call; returns (record, output directory)."""
        self.seq += 1
        outdir = os.path.join(self.scratch, f"out-{self.seq}")
        spans = os.path.join(self.scratch, f"spans-{self.seq}.json")
        head = [os.path.join(HERE, "tracer.py"), spans] if traced else ["-m", "circledyn.cli"]
        rec = self._spawn([sys.executable] + head + list(argv) + ["--out", outdir],
                          os.path.join(self.scratch, f"stderr-{self.seq}.txt"))
        rec["traced"] = traced
        rec["digests"] = workloads.csv_digests(outdir) if os.path.isdir(outdir) else {}
        if rec["rc"] != 0:
            with open(os.path.join(self.scratch, f"stderr-{self.seq}.txt"), "rb") as fh:
                rec["stderr_tail"] = fh.read()[-400:].decode(errors="replace")
        if traced and rec["rc"] == 0:
            with open(spans) as fh:
                rec["spans"] = json.load(fh)
        return rec, outdir

    def probe(self, script: str, args=()) -> dict:
        """Time one run of a helper script (set-up probe or reference)."""
        self.seq += 1
        rec = self._spawn([sys.executable, os.path.join(HERE, script)] + list(args),
                          os.path.join(self.scratch, f"stderr-{self.seq}.txt"))
        if rec["rc"] != 0:
            raise RuntimeError(f"{script} exited {rec['rc']}")
        return rec


class Judge:
    """Output checks: the first good call against the references, later
    calls by CSV digest."""

    def __init__(self, wl, runner):
        self.wl = wl
        self.runner = runner
        self.ref = None
        self.unresolved = None
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, rec, outdir) -> bool:
        self.attempted += 1
        errs = []
        if rec["rc"] != 0:
            errs.append(f"exit code {rec['rc']}: {rec.get('stderr_tail', '').strip()}")
        elif not rec["digests"]:
            errs.append("no CSV written")
        elif self.ref is None:
            errs = workloads.check(self.wl, outdir)
            if self.unresolved is None:
                self.unresolved = workloads.unresolved_frac(self.wl, outdir)
            if self.wl.name == "theoremA-par":
                errs += self._serial_matches(rec["digests"])
            if not errs:
                self.ref = rec["digests"]
        elif rec["digests"] != self.ref:
            errs.append("CSV digests differ from the first call of this run")
        shutil.rmtree(outdir, ignore_errors=True)
        rec["problems"] = errs
        if errs:
            self.failed += 1
            self.problems.extend(errs)
        return not errs

    def _serial_matches(self, digests) -> list:
        rec, outdir = self.runner.cli(self.wl.serial_argv())
        self.attempted += 1
        shutil.rmtree(outdir, ignore_errors=True)
        if rec["rc"] == 0 and rec["digests"] == digests:
            return []
        self.failed += 1
        return ["CSV digests differ from the serial (--workers 1) run of the same inputs"]


def timed_run(wl, runner, judge, seconds, calls) -> dict:
    """Runs the reference before the first call and after every call, and a
    set-up probe right after a reference; each CLI call is scaled by the mean
    of the two references around it, each probe by the one before it."""
    start = time.perf_counter()
    refs = [runner.probe("reference.py")]
    setup, setup_ref = [], []
    while True:
        if len(setup) < SETUP_SAMPLES:
            setup_ref.append(refs[-1])
            setup.append(runner.probe("setup_probe.py", wl.setup))
        rec, outdir = runner.cli(wl.argv)
        judge(rec, outdir)
        calls.append(rec)
        refs.append(runner.probe("reference.py"))
        elapsed = time.perf_counter() - start
        if len(calls) >= MIN_CALLS and elapsed + statistics.median(
                c["wall_s"] for c in calls) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup_ref.append(runner.probe("reference.py"))
        setup.append(runner.probe("setup_probe.py", wl.setup))

    def scaled(samples, key, around):
        return [REFERENCE_S * s[key] / statistics.fmean(r[key] for r in rs)
                for s, rs in zip(samples, around)]

    brackets = list(zip(refs, refs[1:]))
    series = {
        "wall_s": [c["wall_s"] for c in calls], "cpu_s": [c["cpu_s"] for c in calls],
        "setup_s": [p["wall_s"] for p in setup], "peak_rss_mb": [c["peak_rss_mb"] for c in calls],
        "reference_wall_s": [r["wall_s"] for r in refs],
        "setup_reference_wall_s": [r["wall_s"] for r in setup_ref],
        "scaled_wall_s": scaled(calls, "wall_s", brackets),
        "scaled_cpu_s": scaled(calls, "cpu_s", brackets),
        "scaled_setup_s": scaled(setup, "wall_s", [(r,) for r in setup_ref]),
    }
    metrics = {k: statistics.median(series[f"scaled_{k}"]) for k in ("wall_s", "cpu_s", "setup_s")}
    metrics["peak_rss_mb"] = statistics.median(series["peak_rss_mb"])
    metrics["unresolved_frac"] = judge.unresolved if judge.unresolved is not None else 1.0
    return {"metrics": metrics, "series": series}


def traced_run(wl, runner, judge, seconds, calls) -> dict:
    start = time.perf_counter()
    plain, traced, per_call = [], [], []
    while True:
        rec, outdir = runner.cli(wl.argv)
        judge(rec, outdir)
        calls.append(rec)
        plain.append(rec["wall_s"])
        rec, outdir = runner.cli(wl.argv, traced=True)
        if judge(rec, outdir) and "spans" in rec:
            per_call.append(tracer.layer_metrics(rec.pop("spans"), rec["wall_s"], wl.n_t))
        calls.append(rec)
        traced.append(rec["wall_s"])
        elapsed = time.perf_counter() - start
        pair = statistics.median(plain) + statistics.median(traced)
        if len(traced) >= MIN_TRACE_PAIRS and elapsed + pair > seconds:
            break
    metrics, problems = {}, []
    for name, unit in tracer.PER_LAYER.items():
        vals = [m[name] for m in per_call if name in m]
        if not vals:
            continue
        if unit == tracer.COUNT and len(set(vals)) > 1:
            problems.append(f"{name} differs between traced calls: {sorted(set(vals))}")
        metrics[name] = vals[0] if unit == tracer.COUNT else statistics.median(vals)
    # paired ratios: each traced call against the untraced call just before it
    metrics["trace_overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced, plain)) - 1.0
    pool_eff = 1.0
    workers = wl.params.get("workers", 1)
    if workers > 1 and per_call:
        rec, outdir = runner.cli(wl.serial_argv(), traced=True)
        if judge(rec, outdir) and "spans" in rec:
            serial = tracer.layer_metrics(rec.pop("spans"), rec["wall_s"], wl.n_t)["_pooled_s"]
            parallel = statistics.median(m["_pooled_s"] for m in per_call)
            pool_eff = serial / (workers * parallel)
        calls.append(rec)
    metrics["cli.pool_eff"] = pool_eff
    judge.problems.extend(problems)
    return {"metrics": metrics, "series": {"wall_s": plain, "traced_wall_s": traced}}


def environment(root: str) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "circledyn")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "source_sha256": h.hexdigest(), "nproc": workloads.nproc(),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "circledyn", "cli.py")):
        print("error: run from the root of a circledyn checkout (no src/circledyn/cli.py here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # the skew-search check calls the library
    base = os.path.join(root, WORK_DIR)
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=base, prefix="run-")
    try:
        wl = workloads.generate(args.workload, args.seed, scratch)
        runner = Runner(root, scratch)
        judge = Judge(wl, runner)
        calls = []
        started = time.time()
        run = (traced_run if args.trace else timed_run)(wl, runner, judge, args.seconds, calls)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stats = {k: quantile_summary(v) for k, v in run["series"].items()}
    units = tracer.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": run["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in run["metrics"]}
    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "started_unix": started, "environment": environment(root),
        "argv": wl.argv, "params": wl.params, "input_sha256": wl.input_sha256,
        "csv_sha256": judge.ref, "attempted": judge.attempted, "failed": judge.failed,
        "failed_frac": judge.failed / max(1, judge.attempted), "problems": judge.problems,
        "stats": stats, "series": run["series"], "metrics": metrics, "calls": calls,
    }
    path = os.path.join(base, "results",
                        f"{wl.name}-seed{wl.seed}-trace{args.trace}-{time.time_ns()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, st in stats.items():
        p = f", p{st['p']:g} {st['p_value']:.4g}" if st["p"] is not None else ""
        print(f"series {name}: median {st['median']:.4g}{p} (n={st['n']})")
    for problem in judge.problems:
        print(f"FAILED CHECK: {problem}")
    print(f"record: {os.path.relpath(path, root)}")
    print(json.dumps({"correct": judge.failed == 0 and not judge.problems,
                      "attempted": judge.attempted, "failed": judge.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
