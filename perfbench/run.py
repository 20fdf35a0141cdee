#!/usr/bin/env python3
"""Wall-clock benchmark for CharmX: one command, four workloads.

    python3 perfbench/run.py --workload halo3d --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from the repository root. On first use it builds the runtime and
the `cxbench` program from source into .bench_build/ (CMake, RelWithDebInfo).

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload twice
(untraced, then with cx::trace on, half the time each) and prints the
per-layer metrics plus trace.overhead_frac. Each workload's result is one
JSON line on stdout, {correct, attempted, failed, metrics}; with `all` each
line also names its workload. A wrong output, a failed job or a run the
watchdog had to kill makes the command print no timing for that workload,
report correct=false and exit 1. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CXBENCH = os.path.join(BUILD, "cxbench")
CXRUN = os.path.join(BUILD, "cxrun")

WORKLOADS = ("halo3d", "md-dyn", "rtt-xrank", "pmap")

# Watchdog deadlines (seconds).
PASS_SLACK = 60.0       # beyond a threaded pass's own time budget
LAUNCH_TIMEOUT = 20.0   # one rtt-xrank cxrun job
BUILD_TIMEOUT = 840.0
MIN_LAUNCHES = 5


def metric_units():
    """Name -> unit of the end-to-end and the per-layer metrics, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build cxbench and cxrun; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("runtime sources not found next to perfbench/ (expected src/)")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "cxbench", "cxrun"])
    deadline = time.monotonic() + BUILD_TIMEOUT
    for cmd in steps:
        left = deadline - time.monotonic()
        rc, _ = run_child(cmd, max(left, 1.0), capture=False)
        if rc != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def run_child(cmd, timeout, capture=True):
    """Run cmd in its own process group; kill the group at the deadline.

    Returns (exit code or None when killed, stdout text).
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out or ""
    except subprocess.TimeoutExpired:
        log("watchdog: killing %s after %.0f s" % (cmd[0], timeout))
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        # Grandchildren (cxrun's ranks) are reaped by init; wait until the
        # whole group is gone.
        gone_by = time.monotonic() + 10.0
        while time.monotonic() < gone_by:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        return None, ""


class Ledger:
    """Attempted/failed operations over every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, report):
        self.attempted += int(report["attempted"])
        self.failed += int(report["failed"])

    def fail(self, why):
        log("FAILED: " + why)
        self.attempted += 1
        self.failed += 1


def parse_report(rc, out, what, ledger):
    """The pass's JSON line, or None (counted as a failure)."""
    if rc is None:
        ledger.fail(what + " killed by the watchdog")
        return None
    if rc != 0:
        ledger.fail("%s exited with status %d" % (what, rc))
        return None
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        ledger.fail(what + " printed no result")
        return None
    try:
        report = json.loads(lines[-1])
    except ValueError:
        ledger.fail(what + " printed a malformed result")
        return None
    ledger.add(report)
    return report


def spans_path(workload, seed, tag):
    os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
    return os.path.join(BUILD, "spans",
                        "%s-%d-%s.jsonl" % (workload, seed, tag))


def threaded_pass(workload, seed, seconds, trace, ledger):
    cmd = [CXBENCH, workload, "--seed", str(seed), "--seconds",
           repr(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans-out", spans_path(workload, seed, "threaded")]
    rc, out = run_child(cmd, seconds * 2 + PASS_SLACK)
    report = parse_report(rc, out, workload, ledger)
    return [report] if report else []


def rtt_pass(seed, seconds, trace, ledger):
    """cxrun jobs until `seconds` pass (at least MIN_LAUNCHES); stops at
    the first failed job."""
    reports = []
    end = time.monotonic() + seconds
    launch = 0
    while launch < MIN_LAUNCHES or time.monotonic() < end:
        launch_seed = seed * 1000 + launch
        cmd = [CXRUN, "-np", "2", "-ppn", "1", CXBENCH, "rtt-xrank",
               "--seed", str(launch_seed), "--seconds", repr(seconds),
               "--trace", "1" if trace else "0"]
        if trace:
            cmd += ["--spans-out", spans_path("rtt-xrank", launch_seed, "r0")]
        cmd += ["--launch-t", repr(time.monotonic())]
        rc, out = run_child(cmd, LAUNCH_TIMEOUT)
        report = parse_report(rc, out, "rtt-xrank launch %d" % launch, ledger)
        if report:
            reports.append(report)
        launch += 1
        if ledger.failed > 0:
            break
    return reports


def run_pass(workload, seed, seconds, trace, ledger):
    if workload == "rtt-xrank":
        return rtt_pass(seed, seconds, trace, ledger)
    return threaded_pass(workload, seed, seconds, trace, ledger)


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(reports):
    series = {}
    for rep in reports:
        for name, values in rep.get("series", {}).items():
            series.setdefault(name, []).extend(values)
    op = series.get("op_s", [])
    log("samples: setup %d, op %d, work %d; op p90 %.1f us"
        % (len(series.get("setup_s", [])), len(op),
           len(series.get("work_per_s", [])), quantile(op, 0.9) * 1e6))
    return {
        "setup_s": median(series.get("setup_s", [])),
        "op_us_p50": median(op) * 1e6,
        "op_us_p90": quantile(op, 0.9) * 1e6,
        "work_per_s": median(series.get("work_per_s", [])),
        "peak_rss_MB": max(r["metrics"]["peak_rss_MB"] for r in reports),
    }


def per_layer(reports, names):
    """Median over launches (one report for threaded workloads)."""
    out = {}
    for name in names:
        vals = [r["metrics"][name] for r in reports if name in r["metrics"]]
        if vals:
            out[name] = median(vals)
    return out


def overhead(workload, plain, traced):
    """Cost of tracing on the workload's headline figure."""
    if workload == "pmap":
        base, with_trace = plain["work_per_s"], traced["work_per_s"]
        return base / with_trace - 1.0 if with_trace > 0 else 0.0
    base, with_trace = plain["op_us_p50"], traced["op_us_p50"]
    return with_trace / base - 1.0 if base > 0 else 0.0


def measure(workload, seed, seconds, trace, units):
    """One workload: (exit code, result object)."""
    end_units, layer_units = units
    ledger = Ledger()
    share = seconds / 2 if trace else seconds
    plain_reports = run_pass(workload, seed, share, False, ledger)
    traced_reports = []
    if trace and ledger.failed == 0:
        traced_reports = run_pass(workload, seed, share, True, ledger)

    if ledger.failed > 0 or not plain_reports or (
            trace and not traced_reports):
        frac = ledger.failed / max(ledger.attempted, 1)
        return 1, {"correct": False, "attempted": max(ledger.attempted, 1),
                   "failed": max(ledger.failed, 1),
                   "metrics": {"fail_frac": {"value": frac, "unit": "1"}}}

    plain = end_to_end(plain_reports)
    if trace:
        values = per_layer(traced_reports, layer_units)
        values["e2e.op_us_p90"] = plain["op_us_p90"]
        values["trace.overhead_frac"] = overhead(
            workload, plain, end_to_end(traced_reports))
        names = layer_units
    else:
        values, names = plain, end_units
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError("metrics not measured: " + ", ".join(missing))
    return 0, {"correct": True, "attempted": ledger.attempted, "failed": 0,
               "metrics": {n: {"value": values[n], "unit": u}
                           for n, u in names.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    units = metric_units()
    # "all" prints one result line per workload, each tagged with its name.
    everything = args.workload == "all"
    rc = 0
    for workload in WORKLOADS if everything else (args.workload,):
        code, result = measure(workload, args.seed, args.seconds,
                               args.trace, units)
        if everything:
            result = dict(workload=workload, **result)
        print(json.dumps(result), flush=True)
        rc = max(rc, code)
    return rc


if __name__ == "__main__":
    sys.exit(main())
