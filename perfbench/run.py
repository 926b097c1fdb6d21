"""Benchmark for plethys: four workloads, each timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the root of a source checkout; the program is imported from
``src/`` there, and scratch files go to ``.bench_build/perfbench/``.

Each timed run is its own interpreter (``child.py``), because the census
caches and ``partitions_of``'s cache make in-process timings depend on
what ran before.  One child runs at a time, with no threads and
``PLETHYS_THREADS=1``.  A run first starts a few set-up-only children, then
starts workload children one after another until the next one would end
after ``--seconds``; every run has at least one.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's children: the workload's wall and CPU time, peak resident memory,
and the set-up time of ten set-up-only children.  The host's speed drifts,
so every time is scaled to a fixed reference speed (see ``calibrate.py``):
a sampler in each workload child times a fixed reference unit throughout
the workload, and reference units timed around each set-up child do the
same for set-up.  The times as measured are printed too.  ``--trace 1`` runs two
untraced and two traced children in turn, reports the per-layer metrics of
the first traced child and the tracing overhead, and checks that every
count repeats exactly in the second.

Every child's output is checked (see ``workloads.check_output``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when an
output is wrong and 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import time

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 10
# reference units timed before, between and after the set-up probes
PROBE_UNITS = 10
# a sampled child must have timed at least this many reference units
MIN_SAMPLES = 10
RUN_LIMIT_S = 170.0

# metrics named *_s are seconds and the rest are counts, except these
UNITS = {
    "peak_rss_mb": "MiB",
    "graphoracle.classes_per_canonical_call": "ratio",
    "cli.output_bytes": "bytes",
}


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


class Child:
    """One finished child process and what it reported."""

    def __init__(self, name, wall, cpu, rss_mb, code, stdout, report):
        self.name = name
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.report = report

    @property
    def setup(self):
        return self.report["ready"] - self.report["spawned"]


def spawn(tag, args, timeout):
    """Start ``child.py`` with ``args``, wait for it, and collect its wall
    time, CPU time and peak memory from the kernel's accounting."""
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    report_path = os.path.join(WORK, f"{tag}.report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        PLETHYS_THREADS="1",
    )
    argv = [sys.executable, CHILD, *args, "--report", report_path]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
    try:
        _, status, usage = os.wait4(pid, 0)
    except Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        status = None
    except BaseException:
        # interrupted or terminated: leave no child behind
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    ended = time.monotonic()
    code = "timeout" if status is None else os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    report = {}
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    report["spawned"] = spawned
    if code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"[{tag}] exit {code}\n{tail}", file=sys.stderr)
    return Child(
        tag,
        ended - spawned,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        code,
        stdout,
        report,
    )


class Run:
    """One benchmark invocation: a workload, its seeded input and a clock."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.label, spec = workloads.make_spec(workload, seed)
        os.makedirs(WORK, exist_ok=True)
        self.spec_path = os.path.join(WORK, f"spec-{workload}-{seed}.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, sort_keys=True)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.digests: set[str] = set()
        self.count = 0
        self.raw: dict[str, float] = {}

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def child(self, *extra):
        self.count += 1
        tag = f"{self.workload}-{self.seed}-{self.count}"
        args = ["--workload", self.workload, "--spec", self.spec_path, *extra]
        return spawn(tag, args, self.remaining())

    def workload_child(self, *extra):
        """Run one workload child and check what it printed."""
        c = self.child(*extra)
        self.attempted += 1
        ok, note = workloads.check_output(self.workload, self.label, c.code, c.stdout)
        if ok and not _imports_checkout(c):
            ok, note = False, "imported plethys from outside the checkout"
        if ok and not c.report.get("import_untouched"):
            ok, note = False, "importing the tracer changed a plethys binding"
        if ok and "--sample" in extra:
            if c.report.get("sampler_wrong"):
                ok, note = False, "the reference unit computed a wrong result"
            elif len(c.report.get("samples", ())) < MIN_SAMPLES:
                ok, note = False, f"fewer than {MIN_SAMPLES} reference samples in a child"
        if ok:
            self.digests.add(hashlib.sha256(c.stdout).hexdigest())
            if len(self.digests) > 1:
                ok, note = False, "output differs between children of one run"
        if not ok:
            self.failed += 1
        if note not in self.notes:
            self.notes.append(note)
        return c

    def setup_probes(self):
        """Set-up-only children, each between two stretches of reference
        units; each set-up time is scaled by the mean unit around it."""
        calibrate.timed_unit()  # warm-up, not counted
        units = [calibrate.sample(PROBE_UNITS)]
        setups = []
        for _ in range(SETUP_PROBES):
            p = self.child("--setup-only")
            if p.code != 0 or not _imports_checkout(p):
                raise SystemExit(f"set-up failed: {p.name} exited {p.code}")
            units.append(calibrate.sample(PROBE_UNITS))
            setups.append((p.setup, statistics.fmean(units[-2] + units[-1])))
        return setups

    def measure(self):
        """Untraced children, each with the reference sampler, until the
        next one would overrun --seconds.  Every time is scaled to the
        reference's nominal speed, and the medians are reported."""
        setups = self.setup_probes()
        children = []
        while True:
            c = self.workload_child("--sample")
            children.append(c)
            elapsed = time.monotonic() - self.started
            if elapsed + c.wall > self.seconds or elapsed + 2 * c.wall > RUN_LIMIT_S:
                break
        timed = [c for c in children if c.report.get("samples")]
        if not timed:
            return {}
        norm = calibrate.UNIT_NOMINAL_S
        self.raw = {
            "wall_s": statistics.median(c.wall for c in children),
            "cpu_s": statistics.median(c.cpu for c in children),
            "setup_raw_s": statistics.median(s for s, _ in setups),
            "unit_s": statistics.median(statistics.fmean(c.report["samples"]) for c in timed),
        }
        return {
            "wall_norm_s": statistics.median(_normalised(c, "work_wall") for c in timed),
            "cpu_norm_s": statistics.median(_normalised(c, "work_cpu") for c in timed),
            "peak_rss_mb": statistics.median(c.rss_mb for c in children),
            "setup_s": statistics.median(s * norm / unit for s, unit in setups),
        }

    def trace(self):
        """Untraced and traced children in turn, two of each; the counts of
        the two traced ones must agree."""
        import tracer

        plain = []
        layers = []
        walls = []
        for i in range(2):
            plain.append(self.workload_child().wall)
            path = os.path.join(WORK, f"trace-{self.workload}-{self.seed}-{i}.bin")
            c = self.workload_child("--trace", path)
            if c.code != 0:
                return {}
            m = tracer.layer_metrics(path)
            m["cli.output_bytes"] = len(c.stdout)
            layers.append(m)
            walls.append(c.wall)
        # every metric that is not a time is a count of deterministic work
        drift = [k for k in layers[0] if _unit(k) != "s" and layers[0][k] != layers[1][k]]
        if drift:
            self.failed += 1
            self.notes.append(f"counts differ between two traced runs: {drift}")
        m = layers[0]
        m["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
        return m


def _normalised(child, key):
    """A workload child's time, less the sampler's own time, at the
    reference unit's nominal speed."""
    spent = child.report[key] - child.report["sampler_spent"]
    return spent * calibrate.UNIT_NOMINAL_S / statistics.fmean(child.report["samples"])


def _imports_checkout(child):
    src = os.path.join(ROOT, "src") + os.sep
    return child.report.get("plethys", "").startswith(src)


def _unit(name):
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def run_one(workload, seed, seconds, traced):
    run = Run(workload, seed, seconds)
    metrics = run.trace() if traced else run.measure()
    attempted = max(run.attempted, 1)
    print(f"workload {workload}  seed {seed}  input {run.label}")
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:42s} {shown} {_unit(name)}")
    for name, value in run.raw.items():
        print(f"  {name + ' (as measured)':42s} {value:>16.6f} s")
    print(f"  {'fail_ratio':42s} {run.failed / attempted:>16.6f} ratio"
          f"  ({run.failed} of {run.attempted} runs failed)")
    for note in run.notes:
        print(f"  check: {note}")
    correct = run.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    return correct, result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "plethys", "__init__.py")):
        print(f"error: no plethys sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    all_correct = True
    for name in names:
        correct, results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
        all_correct = all_correct and correct
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
