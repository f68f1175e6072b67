#!/usr/bin/env python3
"""gcgeo benchmark: one closed-loop caller, four workloads, checked verdicts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --smoke

One caller submits an operation, waits for its verdict, then submits the
next.  Inputs are drawn from --seed outside the timed region, and every
verdict is checked against a known answer outside it too.  Operations run in
whole cycles of a fixed mix until their summed latency reaches --seconds and
enough samples lie beyond the tail percentile.

--trace 0 prints the end-to-end metrics; --trace 1 runs one cycle untraced
and then traced, and prints the per-layer metrics (see perfbench/README.md).
The last stdout line is the result object; the line before it holds the
details: environment, sample counts, the tail percentile and, from the
earlier runs recorded under .bench_out/, each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NO_PYCACHE = os.path.join(OUT, "no-pycache")
BYTECODE_POLICY = ("no cache: PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX="
                   ".bench_out/no-pycache (never written), so every import compiles from source")
WORKLOADS = ("pointwise", "polynomial", "systems", "jobs")
# percentile reported as verdict_tail_ms, fixed per workload near the
# highest with ten samples beyond it and inside a cluster of one operation
# kind; whole cycles continue until at least ten samples lie beyond it
TAIL_PCT = {"pointwise": 95, "polynomial": 95, "systems": 85, "jobs": 75}
SETUP_SPAWNS = 3
CHILD_TIMEOUT_S = 120
E2E_UNITS = {"verdicts_per_s": "1/s", "verdict_p50_ms": "ms", "verdict_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=NO_PYCACHE)
    return env


SETUP_CHILD = """
import statistics, sys, time
t0 = time.perf_counter()
import gcgeo, gcgeo.cli
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
from speed import probe_work
probes = []
for _ in range(5):
    t0 = time.perf_counter()
    probe_work()
    probes.append(time.perf_counter() - t0)
print(took, statistics.median(probes))
"""


def measure_setup(spawns: int):
    """Import of gcgeo and gcgeo.cli in fresh interpreters: median normalised time.

    Each child times its own import, then runs the speed probe right after
    it (once gcgeo has loaded what the probe needs), and the import time is
    scaled by that probe like every other time.
    """
    from speed import REF_PROBE_S

    times = []
    for _ in range(spawns):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, BENCH_DIR], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT_S)
        took, probe = map(float, out.stdout.split())
        times.append(took * REF_PROBE_S / probe)
    return statistics.median(times)


def percentile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics: it
    has far less run-to-run spread than a single order statistic when the
    latencies form clusters, as a fixed operation mix does.  The weights use
    the midpoint rule on each 1/n interval, renormalised.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    p = pct / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return sum(x * wi for x, wi in zip(xs, w)) / sum(w)


def tail(values, pct):
    """(percentile used, latency): pct if >= 10 samples lie beyond it, else lower."""
    n = len(values)
    while pct > 50 and n - 1 - math.floor(pct / 100 * (n - 1)) < 10:
        pct -= 1
    return pct, percentile(values, pct)


def strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timing_ms":' not in line)


class Tally:
    """Latencies and known-answer outcomes of every operation attempted.

    `busy` and `latencies` are speed-normalised (see speed.py); `raw_busy`
    is the plain wall time the operations took.
    """

    def __init__(self):
        self.latencies = []
        self.kinds = {}
        self.failures = []
        self.attempted = 0
        self.busy = 0.0
        self.raw_busy = 0.0

    def add(self, kind, raw, norm, ok, why=""):
        self.attempted += 1
        self.busy += norm
        self.raw_busy += raw
        self.latencies.append(norm)
        k = self.kinds.setdefault(kind, [0, 0.0])
        k[0] += 1
        k[1] += norm
        if not ok:
            self.failures.append({"kind": kind, "why": why})

    @property
    def failed(self):
        return len(self.failures)


def judged(result, error, check):
    """(ok, why) for one verdict; a crash is a wrong verdict, not a stop."""
    if error is not None:
        return False, f"raised {error!r}"
    try:
        if check(result):
            return True, ""
        return False, "verdict differs from the known answer"
    except Exception as e:
        return False, f"check raised {e!r}"


def run_op(op, tally, speed):
    result, error, raw, norm = speed.time(op.run)
    tally.add(op.kind, raw, norm, *judged(result, error, op.check))


# ---------------------------------------------------------------------------
# jobs: fresh `python -m gcgeo.cli` children, cross-checked in process
# ---------------------------------------------------------------------------

def in_process(job):
    import gcgeo.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gcgeo.cli.main(list(job.argv))
    return code, buf.getvalue()


def spawn(job):
    """Run one job as a child; returns (exit code, stdout, max RSS KB)."""
    proc = subprocess.Popen([sys.executable, "-m", "gcgeo.cli", *job.argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than Popen.wait, to read the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    return proc.returncode, out.decode(), usage.ru_maxrss


def check_job(job, reference):
    """Check for one job's (exit code, report): known answer and in-process twin."""

    def check(ran):
        code, out = ran[0], ran[1]
        if code != job.exit_code:
            raise ValueError(f"exit {code}, expected {job.exit_code}")
        verdict = json.loads(out)["verdict"]
        if verdict != job.verdict:
            raise ValueError(f"verdict {verdict}, expected {job.verdict}")
        if reference is not None and (
                reference[0] != code or strip_timing(reference[1]) != strip_timing(out)):
            raise ValueError("subprocess and in-process reports differ")
        return True

    return check


def need_samples(pct, size):
    """Samples needed so that ten lie beyond the tail percentile."""
    return math.ceil(10 / (1 - pct / 100)) if size == "full" else 1


def jobs_e2e(g, seconds, size, tally, speed, pct):
    import workloads

    jobs = workloads.job_list(ROOT, g, size)
    reference = {j.case: in_process(j) for j in jobs}
    peak_kb = 0
    while tally.raw_busy < seconds or tally.attempted < need_samples(pct, size):
        for job in jobs:
            ran, error, raw, norm = speed.time(lambda: spawn(job), probe_during=False)
            if error is None:
                peak_kb = max(peak_kb, ran[2])
            tally.add(job.case, raw, norm,
                      *judged(ran, error, check_job(job, reference[job.case])))
    return peak_kb / 1024


def jobs_traced(g, size, tally, tracer, speed, import_s):
    """In-process passes untraced then traced; one spawned pass for cli.spawn_s."""
    import workloads

    jobs = workloads.job_list(ROOT, g, size)
    reference, plain = {}, Tally()
    for job in jobs:
        ran, error, raw, norm = speed.time(lambda: in_process(job))
        reference[job.case] = ran
        plain.add(job.case, raw, norm, *judged(ran, error, check_job(job, None)))
    traced = Tally()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            tracer.op_id = i
            ran, error, raw, norm = speed.time(lambda: in_process(job))
            traced.add(job.case, raw, norm,
                       *judged(ran, error, check_job(job, reference[job.case])))
    finally:
        tracer.uninstall()
    spawn_s = 0.0
    for job in jobs:
        ran, error, raw, norm = speed.time(lambda: spawn(job), probe_during=False)
        ok, why = judged(ran, error, check_job(job, reference[job.case]))
        tally.add(job.case, raw, norm, ok, why)
        if ok:
            child_ms = json.loads(ran[1])["timing_ms"]
            spawn_s += norm - import_s - child_ms / 1000 * norm / raw
    merge(tally, plain, traced)
    return traced, plain, spawn_s


def merge(tally, *others):
    for t in others:
        tally.attempted += t.attempted
        tally.failures += t.failures


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def ops_e2e(workload, g, seconds, size, tally, speed, pct):
    import workloads

    cycle = workloads.CYCLES[workload]
    while tally.raw_busy < seconds or tally.attempted < need_samples(pct, size):
        for op in cycle(g, size):
            run_op(op, tally, speed)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ops_traced(workload, g, size, tally, tracer, speed):
    import workloads

    ops = workloads.CYCLES[workload](g, size)
    plain, traced = Tally(), Tally()
    for op in ops:
        run_op(op, plain, speed)
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            run_op(op, traced, speed)
    finally:
        tracer.uninstall()
    merge(tally, plain, traced)
    return traced, plain


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def history(workload, trace, metrics):
    """Append this run under .bench_out/ and summarise every run recorded there."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "history.jsonl")
    with open(path, "a") as fh:
        fh.write(json.dumps({"workload": workload, "trace": trace,
                             "metrics": {k: v["value"] for k, v in metrics.items()}}) + "\n")
    runs = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["workload"] == workload and rec["trace"] == trace:
                runs.append(rec["metrics"])
    out = {}
    for name in metrics:
        vals = [r[name] for r in runs if name in r]
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        out[name] = {"runs": len(vals), "median": statistics.median(vals),
                     "q1": q[0], "q3": q[2]}
    return out


def run(workload, seed, seconds, trace, size="full", setup_spawns=SETUP_SPAWNS):
    import oracle
    import tracer as tracing
    from gen import Gen
    from speed import REF_PROBE_S, Speed

    speed = Speed()
    setup_s = import_s = measure_setup(setup_spawns)
    g = Gen(seed)
    tally = Tally()
    pct = TAIL_PCT[workload]
    detail = {"workload": workload, "seed": seed, "trace": trace, "size": size,
              "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                      "bytecode_policy": BYTECODE_POLICY, "setup_spawns": setup_spawns,
                      "oracle": oracle.STATUS, "ref_probe_s": REF_PROBE_S}}
    if trace:
        tr = tracing.Tracer()
        spawn_s = 0.0
        if workload == "jobs":
            traced, plain, spawn_s = jobs_traced(g, size, tally, tr, speed, import_s)
        else:
            traced, plain = ops_traced(workload, g, size, tally, tr, speed)
        # layer times are scaled like the latencies of the pass they came from
        scale = traced.busy / traced.raw_busy
        values = {k: v * scale if unit_of(k) == "s" else v for k, v in tr.metrics().items()}
        values.update({"cli.import_s": import_s, "cli.spawn_s": spawn_s,
                       "trace.overhead_ratio": traced.busy / plain.busy})
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.json")
        tr.write(spans_path)
        detail["spans"] = {"file": os.path.relpath(spans_path, ROOT), "kept": len(tr.spans),
                           "dropped": tr.dropped}
        tally.kinds = traced.kinds
    else:
        if workload == "jobs":
            rss = jobs_e2e(g, seconds, size, tally, speed, pct)
        else:
            rss = ops_e2e(workload, g, seconds, size, tally, speed, pct)
        used, tail_ms = tail(tally.latencies, pct)
        values = {
            "verdicts_per_s": (tally.attempted - tally.failed) / tally.busy,
            "verdict_p50_ms": percentile(tally.latencies, 50) * 1000,
            "verdict_tail_ms": tail_ms * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        detail["tail"] = {"percentile": used, "n": len(tally.latencies)}
        detail["samples"] = {"operations": tally.attempted, "busy_s": tally.busy,
                             "raw_busy_s": tally.raw_busy}
    detail["per_kind_ms"] = {k: {"n": n, "mean": s / n * 1000}
                             for k, (n, s) in sorted(tally.kinds.items())}
    detail["probes"] = {"n": len(speed.probes), "median_s": statistics.median(speed.probes)}
    detail["error_ratio"] = tally.failed / tally.attempted
    detail["failures"] = tally.failures[:10]
    detail["oracle_checks"] = oracle.checks_run[0]
    detail["across_runs"] = history(workload, trace, metrics) if size == "full" else {}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return detail, result


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_fill"):
        return "ratio"
    return "count"


def smoke():
    """Every workload at toy size, both modes: every declared metric, with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            detail, result = run(workload, 1, 0, trace, size="toy", setup_spawns=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            good = got == want and result["correct"]
            ok &= good
            print(json.dumps({"workload": workload, "trace": trace, "ok": good,
                              "missing": sorted(set(want) - set(got)),
                              "unexpected": sorted(set(got) - set(want)),
                              "wrong_unit": sorted(k for k in want
                                                   if k in got and got[k] != want[k]),
                              "failures": detail["failures"]}))
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=8)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes; check metric names and units")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcgeo", "__init__.py")):
        print(f"no gcgeo sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.pycache_prefix = NO_PYCACHE
    sys.path.insert(0, SRC)
    import gcgeo

    if os.path.dirname(os.path.abspath(gcgeo.__file__)) != os.path.join(SRC, "gcgeo"):
        print(f"imported gcgeo from {gcgeo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    detail, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
