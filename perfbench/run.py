#!/usr/bin/env python3
"""The repository benchmark: regenerates the paper report and runs the VM
matrix, timed from the outside.

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout. It builds the library, the 15 paper
report binaries and perfbench_driver (driver.cpp) into $CARGO_TARGET_DIR
(default .bench_build), runs the workload, checks every output against
the golden files under perfbench/golden/, prints a metric table and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (see perfbench/README.md).
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")

# The paper report: every table, figure and ablation binary, in order.
REPORT_BINARIES = [
    "table1_dead_code", "fig1_no_prediction", "fig2_predicted",
    "table3_fortran", "fig3_cross_dataset", "misc_observations",
    "heuristics", "combine_ablation", "dynamic_baselines",
    "runlength_distribution", "coverage_analysis", "trace_selection",
    "layout_optimization", "inlining", "select_ablation",
]
WORKLOADS = ["report-cold", "report-warm", "vm-matrix"]

# Per-layer counts that must repeat exactly across passes and runs.
EXACT_COUNTS = (
    "vm.instructions", "vm.runs", "trace.events", "trace.bytes",
    "compiler.static_insns", "harness.hits", "harness.misses",
    "harness.trace_hits", "harness.trace_misses", "harness.read_failures",
    "harness.bytes_read", "harness.bytes_written",
)


class BenchError(Exception):
    """A benchmark that cannot run (missing sources, failed build)."""


class Ledger:
    """Operations attempted and failed; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def merge(self, result):
        self.attempted += int(result["attempted"])
        for err in result["errors"]:
            self.errors.append(err)
        self.failed += int(result["failed"])


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build the driver and the report binaries."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no ifprob sources next to perfbench/; run from "
                         "the root of a full checkout")
    cmake_dir = os.path.join(build_dir(), "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    with open(log_path, "ab") as log:
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", str(jobs()),
                      "--target", "perfbench_driver"] + REPORT_BINARIES)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                with open(log_path, "rb") as f:
                    tail = f.read()[-4000:].decode(errors="replace")
                raise BenchError("build failed:\n" + tail)
    return {
        "driver": os.path.join(cmake_dir, "perfbench_driver"),
        "bench": os.path.join(cmake_dir, "ifprob", "bench"),
    }


def build_id(paths):
    """Digest of the built executables: exact counts are compared only
    between runs of the same build."""
    h = hashlib.sha256()
    for p in [paths["driver"]] + [os.path.join(paths["bench"], b)
                                  for b in REPORT_BINARIES]:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def clean_env(cache):
    """The measured program sees no IFPROB_* setting of the caller's shell:
    every mode switch is at its default, JIT plans are never reused, run
    reports are off and the cache is private to this run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IFPROB_")}
    env["IFPROB_REPORT_DIR"] = "off"
    env["IFPROB_CACHE"] = cache
    return env


def run_child(cmd, env, cwd, out_path):
    """Run one child to completion; returns (exit code, stdout, peak RSS
    MiB, CPU seconds)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        text = f.read().decode(errors="replace")
    if proc.returncode != 0:
        with open(out_path + ".err", "rb") as f:
            sys.stderr.write(f.read().decode(errors="replace")[-2000:])
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, text, usage.ru_maxrss / 1024.0, cpu


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


def strip_footer(text):
    return "".join(l for l in text.splitlines(keepends=True)
                   if not l.startswith("[jobs="))


def cache_snapshot(cache):
    snap = {}
    for dirpath, _, files in os.walk(cache):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            snap[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return snap


def report_pass(paths, cache, work, ledger, mode):
    """One pass of the 15 report binaries, one at a time."""
    env = clean_env(cache)
    os.makedirs(cache, exist_ok=True)
    before = cache_snapshot(cache)
    if mode == "cold" and before:
        ledger.fail("report-cold: the cache was not empty at the start")
    per_bin, rss, cpu = {}, 0.0, 0.0
    os.sync()  # earlier runs' cache writeback must not land in this pass
    t0 = time.perf_counter()
    for b in REPORT_BINARIES:
        ledger.attempted += 1
        t = time.perf_counter()
        code, out, peak, used = run_child(
            [os.path.join(paths["bench"], b), "--jobs", str(jobs())],
            env, work, os.path.join(work, b + ".out"))
        per_bin[b] = time.perf_counter() - t
        rss, cpu = max(rss, peak), cpu + used
        with open(os.path.join(GOLDEN, "report", b + ".txt")) as f:
            want = f.read()
        if code != 0:
            ledger.fail("%s exited %d" % (b, code))
        elif strip_footer(out) != want:
            ledger.fail("%s: stdout differs from golden/report/%s.txt"
                        % (b, b))
    wall = time.perf_counter() - t0
    after = cache_snapshot(cache)
    if mode == "warm":
        written = [p for p in after if before.get(p) != after[p]]
        if written:
            ledger.fail("report-warm: %d cache entries written (stats or "
                        "trace misses)" % len(written))
    elif not after:
        ledger.fail("report-cold: the pass wrote no cache entries")
    return {"wall_s": wall, "per_bin": per_bin, "rss": rss, "cpu": cpu}


def driver(paths, args, ledger, work, cmd, *extra):
    env = clean_env(os.path.join(work, "cache"))
    os.sync()
    code, out, _, _ = run_child(
        [paths["driver"], cmd, "--seed", str(args.seed), "--jobs",
         str(jobs())] + list(extra), env, work,
        os.path.join(work, cmd + ".out"))
    if code != 0:
        raise BenchError("perfbench_driver %s exited %d" % (cmd, code))
    result = last_json(out)
    ledger.merge(result)
    return result


def setup_probe(paths, work):
    """Registry build + compile of every workload in a fresh process; the
    start-up floor every report binary pays. Median of five."""
    times = []
    os.sync()
    for _ in range(5):
        t = time.perf_counter()
        code, _, _, _ = run_child([paths["driver"], "setup"],
                                  clean_env("off"), work,
                                  os.path.join(work, "setup.out"))
        if code != 0:
            raise BenchError("perfbench_driver setup exited %d" % code)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_report(paths, args, ledger, work, mode):
    metrics, extra = {}, {}
    if mode == "cold":
        setup_s = setup_probe(paths, work)
    else:
        fill = report_pass(paths, os.path.join(work, "cache"), work, ledger,
                           "cold")
        setup_s = fill["wall_s"]
    passes = []
    start = time.perf_counter()
    while True:
        n = len(passes)
        cache = os.path.join(work, "cache" if mode == "warm"
                             else "cache-pass%d" % n)
        passes.append(report_pass(paths, cache, work, ledger, mode))
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics["wall_s"] = wall
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mib"] = statistics.median(p["rss"] for p in passes)
    extra["passes"] = len(passes)
    extra["per_bin"] = passes[-1]["per_bin"]
    if args.trace:
        layer = {}
        p = passes[-1]
        for b, s in p["per_bin"].items():
            layer["bin.%s_s" % b] = s
        cache = os.path.join(work, "cache" if mode == "warm"
                             else "mirror")
        res = driver(paths, args, ledger, work, "mirror", "--mode", mode,
                     "--cache", cache,
                     "--spans", os.path.join(build_dir(),
                                             "spans-report-%s.json" % mode))
        layer.update(res["layer"])
        layer["trace_overhead_s"] = \
            res["traced_wall_s"] - res["untraced_wall_s"]
        layer["unattributed_s"] = sum(p["per_bin"].values()) - \
            layer_sum(res["layer"])
        layer["exec.busy_frac"] = p["cpu"] / (p["wall_s"] * jobs())
        extra["mirror_binary_s"] = res["binary_s"]
        return metrics, layer, extra
    return metrics, None, extra


def self_times(layer):
    """The layer self-times of one traced pass: every *_s attribution
    except the per-workload breakdown of vm.execute_s, the child-process
    walls, the derived overheads and the registry build, which each
    process pays once before its pass."""
    return {k: v for k, v in layer.items()
            if "." in k and k.endswith("_s")
            and not k.startswith("vm.execute_s.")
            and not k.startswith("bin.") and k != "workloads.registry_s"}


def layer_sum(layer):
    return sum(self_times(layer).values())


def run_matrix(paths, args, ledger, work):
    seconds = 0 if args.trace else args.seconds
    res = driver(paths, args, ledger, work, "matrix",
                 "--seconds", str(seconds), "--trace", str(args.trace),
                 "--golden", os.path.join(GOLDEN, "vm_matrix.txt"),
                 "--cache", os.path.join(work, "cache"),
                 "--spans", os.path.join(build_dir(), "spans-matrix.json"))
    metrics = {
        "wall_s": statistics.median(res["wall_s"]),
        "setup_s": res["setup_s"],
        "peak_rss_mib": res["peak_rss_mib"],
    }
    extra = {"passes": len(res["wall_s"]),
             "sim_mips.fast": statistics.median(res["sim_mips_fast"]),
             "sim_mips.trace": statistics.median(res["sim_mips_trace"])}
    layer = None
    if args.trace:
        layer = dict(res["layer"])
        traced = res["traced_wall_s"]
        layer["trace_overhead_s"] = traced - metrics["wall_s"]
        layer["unattributed_s"] = traced - layer_sum(res["layer"])
    return metrics, layer, extra


def check_counts(layer, workload, ledger, ident):
    """Exact counts repeat across runs of one build; a difference is a
    benchmark failure, not noise."""
    exact = {k: v for k, v in layer.items()
             if any(k == c or (c.endswith(".") and k.startswith(c))
                    for c in EXACT_COUNTS)}
    path = os.path.join(build_dir(), "counts", "%s-%s.json"
                        % (workload, ident))
    ledger.attempted += 1
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
        differ = ["%s is %r, an earlier run had %r" % (k, v, seen[k])
                  for k, v in sorted(exact.items())
                  if k in seen and seen[k] != v]
        if differ:
            ledger.fail("%s: exact counts differ across runs: %s"
                        % (workload, "; ".join(differ)))
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(exact, f, sort_keys=True)


def self_time_table(layer, workload):
    by_layer = {}
    for k, v in self_times(layer).items():
        name = k.split(".")[0]
        by_layer[name] = by_layer.get(name, 0.0) + v
    total = sum(by_layer.values()) or 1.0
    print("\nlayer self time, %s (traced run):" % workload)
    print("  %-12s %10s %7s" % ("layer", "seconds", "share"))
    for name, v in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("  %-12s %10.3f %6.1f%%" % (name, v, 100.0 * v / total))
    print("  %-12s %10.3f" % ("sum", sum(by_layer.values())))
    print("  workloads registry build (once per process, before the "
          "pass): %.3f s" % layer.get("workloads.registry_s", 0.0))
    print("  tracing overhead (traced - untraced pass): %.3f s"
          % layer.get("trace_overhead_s", 0.0))
    print("  unattributed (process time no layer span covers): %.3f s"
          % layer.get("unattributed_s", 0.0))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    paths = build()
    ident = build_id(paths)
    ledger = Ledger()
    work = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload.startswith("report-"):
            metrics, layer, extra = run_report(
                paths, args, ledger, work, args.workload.split("-")[1])
        else:
            metrics, layer, extra = run_matrix(paths, args, ledger, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        check_counts(layer, args.workload, ledger, ident)
    fail_frac = ledger.failed / max(1, ledger.attempted)
    print("workload %s  seed %d  passes %d  jobs %d"
          % (args.workload, args.seed, extra["passes"], jobs()))
    shown = {
        "wall_s": (metrics["wall_s"], "s"),
        "sim_mips.fast": (extra.get("sim_mips.fast"), "MIPS"),
        "sim_mips.trace": (extra.get("sim_mips.trace"), "MIPS"),
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mib": (metrics["peak_rss_mib"], "MiB"),
        "fail_frac": (fail_frac, "ratio"),
    }
    for name, (value, unit) in shown.items():
        print("  %-20s %14s %s" % (
            name, "n/a" if value is None else "%.4f" % value, unit))
    for err in ledger.errors:
        print("  FAILED: " + err)
    if "per_bin" in extra:
        print("\nwall time per binary, last pass (s); traced runs add the "
              "in-process mirror's phases:")
        for b in REPORT_BINARIES:
            mirror = extra.get("mirror_binary_s")
            print("  %-24s %8.3f%s" % (
                b, extra["per_bin"][b],
                "" if mirror is None else " %8.3f" % mirror.get(b, 0.0)))

    if args.trace:
        self_time_table(layer, args.workload)
        names = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0.0) for m in names}
        print("\nper-layer metrics:")
        for m in names:
            print("  %-36s %16.6g %s" % (m["name"], values[m["name"]],
                                         m["unit"]))
        out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    else:
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": max(1, ledger.attempted),
                      "failed": ledger.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
