"""End-to-end benchmark for nclfun.

    python3 perfbench/run.py --workload lfun-ncl --seed 1 --seconds 30 --trace 0

One process, one client, checks back to back (a closed loop).  The run
sets up several times and reports the median set-up time, then runs
shuffled passes over the workload's checks until --seconds have gone
by, gates every verdict, and prints the metrics as the last line
of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every timing is reported at a nominal machine speed.  On a shared host
the speed of one process can swing by a factor of two within seconds,
far more than the bounds in BENCHMARK.json.  So after each check (and
each set-up) the run times a fixed pure-Python reference loop for a
tenth of the check's time.  The mean reference time within
REFERENCE_WINDOW_S of a check, over REFERENCE_NOMINAL_S, is the
slow-down the check ran at, and its time is divided by it.  A change to
nclfun still moves the metrics in full, since the reference never calls
it.  Latencies are taken over the pool with each check counted once, at
its mean over the passes, so that where the last pass stops does not
change the mix.

The line before the result is a run record: seed, machine, interpreter,
git revision, the digest of the generated inputs, the slow-down, the
sample count behind each timing and the same metrics in raw wall-clock
time.  With --trace 0 the metrics are the end-to-end ones and the tracer
is never imported.  With --trace 1 the run measures half of --seconds
untraced, then the same checks traced, and reports the per-layer
metrics of perfbench/tracer.py.

Exit status: 0 when every check passed, 1 when a check failed, raised
or ran past its budget (each is named on stderr), 2 when the package
or its fixtures cannot be loaded.
"""

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("lfun-ncl", "imc-growing", "kconnect-battery")

# check_ms_tail is this percentile of the pool's per-check times.  Each
# leaves at least ten timed runs of checks beyond it in a run and falls
# among like checks, so that it does not jump between clusters from run
# to run: on lfun-ncl between lfun.check[ec_f5@7] and ncl.compute[ec_f5],
# on imc-growing among the size 4 and 5 cases, on kconnect-battery among
# the quadratic-ring checks.
TAIL_PERCENTILE = {"lfun-ncl": 97, "imc-growing": 90, "kconnect-battery": 80}

SETUP_REPEATS = 7
CHECK_BUDGET_S = 30.0

# After a check of t seconds the reference loop runs for REFERENCE_SHARE * t
# (at least once).  A check's slow-down is taken from the reference
# samples that end within REFERENCE_WINDOW_S of it: the speed of a
# shared host holds for a second or two.  REFERENCE_NOMINAL_S is one
# reference loop on an idle 2-vCPU x86-64 VM under CPython 3.11;
# timings are reported as they would be on a machine where the loop
# takes exactly that long.
REFERENCE_SHARE = 0.1
REFERENCE_WINDOW_S = 0.5
REFERENCE_NOMINAL_S = 2.5e-4

# `ncl evaluate --rep triv` on ec_f5 at precision 7 does not finish at
# the seed commit.  It runs once per lfun-ncl run in a child process and
# counts against pass_share until it ends within this budget.
PROBE_BUDGET_S = 6.0
PROBE_ARGS = ("ncl", "evaluate", "--fixture", "fixtures/ec_f5.inst",
              "--rep", "triv", "--precision", "7", "--format", "json-lines")


def _note(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# the reference loop
# ---------------------------------------------------------------------------

_REF_TABLE = {i: (37 * i + 11) % 251 for i in range(251)}


def _ref_mix(a, b):
    return (a * b + 7) % 251


def reference_loop(buf):
    """Fixed interpreter work of the kind nclfun does (calls, small-int
    arithmetic mod a prime, list indexing, dict lookups) that creates no
    object the garbage collector tracks, so no collection of nclfun's
    heap lands in it."""
    acc = 0
    n = len(buf)
    for r in range(20):
        for i in range(n):
            x = _ref_mix(buf[i], buf[i - 1] + r)
            buf[i] = x
            acc = (acc + _REF_TABLE[x]) % 251
    return acc


class Reference:
    """Reference-loop samples in time order; `slowdown` is the mean loop
    time over REFERENCE_NOMINAL_S, for the whole run or near an
    interval."""

    def __init__(self):
        self._ends = []
        self._seconds = [0.0]  # running totals, one entry per sample
        self._loops = [0]
        self._buf = list(range(1, 65))

    @property
    def seconds(self):
        return self._seconds[-1]

    @property
    def loops(self):
        return self._loops[-1]

    def sample(self, budget):
        spent = 0.0
        loops = 0
        while True:
            t0 = time.perf_counter()
            reference_loop(self._buf)
            spent += time.perf_counter() - t0
            loops += 1
            if spent >= budget:
                break
        self._ends.append(time.perf_counter())
        self._seconds.append(self.seconds + spent)
        self._loops.append(self.loops + loops)

    def slowdown(self, start=None, end=None):
        lo, hi = 0, len(self._ends)
        if start is not None:
            lo = bisect.bisect_left(self._ends, start - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(self._ends, end + REFERENCE_WINDOW_S)
        seconds = self._seconds[hi] - self._seconds[lo]
        loops = self._loops[hi] - self._loops[lo]
        return seconds / loops / REFERENCE_NOMINAL_S


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _purge_modules():
    for name in list(sys.modules):
        if name.split(".")[0] in ("nclfun", "workloads"):
            del sys.modules[name]


def timed_setups(workload, seed, repeats, ref):
    """Set up `repeats` times: import the package afresh, parse the
    fixtures and draw the inputs, sampling `ref` after each.  Returns the
    (start, seconds) of each and the last pool, whose modules stay
    loaded for the timed part."""
    times = []
    for _ in range(repeats):
        _purge_modules()
        gc.collect()
        t0 = time.perf_counter()
        workloads = importlib.import_module("workloads")
        pool = workloads.build_pool(workload, seed, workloads.load_fixtures())
        times.append((t0, time.perf_counter() - t0))
        ref.sample(REFERENCE_SHARE * times[-1][1])
    nclfun_file = Path(sys.modules["nclfun"].__file__).resolve()
    if SRC not in nclfun_file.parents:
        raise ImportError(f"nclfun was imported from {nclfun_file}, "
                          f"not from {SRC}")
    return times, workloads, pool


# ---------------------------------------------------------------------------
# the timed loop and the output gate
# ---------------------------------------------------------------------------

def _golden():
    return json.loads((HERE / "golden.json").read_text())


def run_checks(checks, seconds, seed, golden):
    """Run passes over the checks, each in a seeded order, until
    `seconds` have gone by; the first pass always completes.  Returns
    (results, reference): one (name, seconds, verdict, detail,
    nominal_seconds) per check attempted, and the Reference sampled
    between them."""
    order_rng = random.Random(seed)
    runs = []
    ref = Reference()
    deadline = time.perf_counter() + seconds
    first_pass = True
    while True:
        order = list(range(len(checks)))
        order_rng.shuffle(order)
        for k in order:
            name, fn = checks[k]
            t0 = time.perf_counter()
            try:
                verdict, output = fn()
            except Exception as exc:  # a raising check is a failed check
                verdict, output = "raised", f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            runs.append((t0, name, dt, *gate(name, verdict, output, dt,
                                              golden)))
            ref.sample(REFERENCE_SHARE * dt)
            if not first_pass and time.perf_counter() >= deadline:
                break
        first_pass = False
        if time.perf_counter() >= deadline:
            break
    results = [(name, dt, verdict, detail, dt / ref.slowdown(t0, t0 + dt))
               for t0, name, dt, verdict, detail in runs]
    return results, ref


def gate(name, verdict, output, dt, golden):
    """Final verdict of one check: pass only on "pass", or on "ok" with
    an output whose digest matches the golden one."""
    if verdict == "ok":
        want = golden.get(name)
        got = hashlib.sha256(output.encode()).hexdigest()
        if got != want:
            return "fail", f"digest {got[:16]} != golden {str(want)[:16]}"
        verdict, output = "pass", ""
    if verdict == "pass" and dt > CHECK_BUDGET_S:
        return "fail", f"took {dt:.1f} s, budget {CHECK_BUDGET_S} s"
    return verdict, output


def run_probe():
    """The declared ec_f5 probe, once, in a child process under a wall
    budget.  Returns (verdict, detail)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nclfun.cli", *PROBE_ARGS], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=PROBE_BUDGET_S)
    except subprocess.TimeoutExpired:
        return "timeout", f"killed after {PROBE_BUDGET_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) != 1:
        return "fail", f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return ("pass" if json.loads(lines[0])["verdict"] == "ok" else "fail"), ""


# ---------------------------------------------------------------------------
# metrics and the run record
# ---------------------------------------------------------------------------

def percentile(values, p):
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def per_check_seconds(results, nominal=True):
    """Each check's mean time over the passes that ran it, at nominal
    speed or in wall-clock time.  A mean, like the reference's, so that
    a host that stalls the process now and then weighs on both in
    proportion to their time."""
    runs = {}
    for name, dt, _, _, nominal_dt in results:
        runs.setdefault(name, []).append(nominal_dt if nominal else dt)
    return {name: statistics.fmean(v) for name, v in runs.items()}


def check_rate(results, nominal=True):
    """Passing checks per second of checks run, with each check of the
    pool counted once at its mean time."""
    typical = per_check_seconds(results, nominal)
    passed = sum(1 for r in results if r[2] == "pass") / len(results)
    return passed * len(typical) / sum(typical.values())


def end_to_end_metrics(workload, results, ref, probe, setups, setup_ref):
    def latencies(nominal):
        typical = sorted(per_check_seconds(results, nominal).values())
        return (statistics.median(typical),
                percentile(typical, TAIL_PERCENTILE[workload]))

    p50, tail = latencies(nominal=True)
    wall_p50, wall_tail = latencies(nominal=False)
    setup = statistics.median(dt / setup_ref.slowdown(t0, t0 + dt)
                              for t0, dt in setups)
    passed = sum(1 for r in results if r[2] == "pass")
    attempted = len(results) + (probe is not None)
    metrics = {
        "checks_per_s": (check_rate(results), "1/s"),
        "check_ms_p50": (p50 * 1e3, "ms"),
        "check_ms_tail": (tail * 1e3, "ms"),
        "pass_share": ((passed + (probe == "pass")) / attempted, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    wall = {
        "checks_per_s": check_rate(results, nominal=False),
        "check_ms_p50": wall_p50 * 1e3,
        "check_ms_tail": wall_tail * 1e3,
        "setup_s": statistics.median(dt for _, dt in setups),
    }
    samples = {
        "checks_run": len(results),
        "check_ms_tail_percentile": TAIL_PERCENTILE[workload],
        "check_ms_tail_beyond": sum(1 for r in results if r[4] > tail),
        "pass_share": attempted,
        "setup_s": len(setups),
        "setup_s_each": [dt for _, dt in setups],
        "reference_loops": ref.loops,
        "reference_s": ref.seconds,
        "slowdown": ref.slowdown(),
        "setup_slowdown": setup_ref.slowdown(),
        "wall_clock": wall,
    }
    return metrics, samples


def git_revision():
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, pool, samples):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": git_revision(),
        "inputs_sha256": pool.input_digest,
        "pool_checks": len(pool.checks),
        "samples": samples,
    }


def _failures(results):
    return [(name, verdict, detail) for name, _, verdict, detail, _ in results
            if verdict != "pass"]


def _emit(record, correct, attempted, failed, metrics):
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        setup_ref = Reference()
        setups, workloads, pool = timed_setups(
            args.workload, args.seed, SETUP_REPEATS, setup_ref)
        golden = _golden()
    except (ImportError, OSError) as exc:
        _note(f"cannot load the package or its fixtures: {exc}")
        return 2
    if args.trace:
        return traced_main(args, workloads, pool, golden)

    results, ref = run_checks(pool.checks, args.seconds, args.seed, golden)
    probe = None
    if args.workload == "lfun-ncl":
        probe, detail = run_probe()
        _note(f"probe ncl evaluate --rep triv on ec_f5 at precision 7: "
              f"{probe} {detail}".rstrip())
    metrics, samples = end_to_end_metrics(args.workload, results, ref, probe,
                                          setups, setup_ref)
    samples["probe"] = probe
    failures = _failures(results)
    for name, verdict, detail in failures:
        _note(f"FAILED {name}: {verdict} {detail}".rstrip())
    _emit(run_record(args, pool, samples), not failures, len(results),
          len(failures), metrics)
    return 1 if failures else 0


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def traced_main(args, workloads, pool, golden):
    """Half of --seconds untraced, then the same checks on fresh copies of
    the same inputs, traced; reports the per-layer metrics named in
    BENCHMARK.json.  The untraced half is the base of the overhead
    ratio."""
    half = args.seconds / 2
    traced_pool = workloads.build_pool(args.workload, args.seed,
                                       workloads.load_fixtures())
    plain, _ = run_checks(pool.checks, half, args.seed, golden)
    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        # parse the fixtures again so parsing shows in the layers
        workloads.load_fixtures()
        checks = [(c.name, spans.check(c.run)) for c in traced_pool.checks]
        traced, _ = run_checks(checks, half, args.seed, golden)
    finally:
        spans.uninstall()
    layers = spans.metrics()
    untraced_rate = check_rate(plain)
    traced_rate = check_rate(traced)
    layers["trace.checks_per_s_untraced"] = (untraced_rate, "1/s")
    layers["trace.checks_per_s_traced"] = (traced_rate, "1/s")
    layers["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}"
    spans.write(out_dir / f"spans-{stem}.tsv")
    (out_dir / f"layers-{stem}.json").write_text(json.dumps(
        {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        indent=1, sort_keys=True))
    for prefix in spans.absent:
        _note(f"trace: {prefix} is not in the package; its metrics are "
              "absent")
    metrics = {k: layers[k] for k in per_layer_names() if k in layers}

    results = plain + traced
    failures = _failures(results)
    for name, verdict, detail in failures:
        _note(f"FAILED {name}: {verdict} {detail}".rstrip())
    samples = {"untraced_checks": len(plain), "traced_checks": len(traced),
               "overhead_ratio_base": "trace.checks_per_s_untraced",
               "computed_counts": sorted(
                   key for keys, _ in tracer.COUNTERS.values()
                   for key in keys)}
    _emit(run_record(args, pool, samples), not failures, len(results),
          len(failures), metrics)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
