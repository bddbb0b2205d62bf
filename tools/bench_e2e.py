#!/usr/bin/env python3
"""Record end-to-end cost of the headline benches in BENCH_e2e.json.

    python3 tools/bench_e2e.py <build-dir> --label parent|change \\
        [--benches fig6_page_load,...] [--append] [--out BENCH_e2e.json]

Runs each bench binary under <build-dir>/bench once at its defaults (stdout
discarded) and records its exit status, the wall time and the user CPU,
system CPU and peak RSS of that one bench. os.wait4 hands back the child's
resource usage when it reaps it; these are the figures
resource.getrusage(RUSAGE_CHILDREN) reports in a parent that ran only that
bench. A bench whose self-gate fails (obs_overhead's timing gate can, on a
busy host) is recorded with its non-zero exit status. The section named by
--label also records the host's processor count, the compiler and the
build type. Other sections of the output file are kept, so two builds
measured on one host land side by side: alternate the invocations and pass
--append to add each run to those already recorded.

The file is a record, not a gate: the numbers depend on the machine.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCHES = [
    "fig6_page_load",
    "fig1_queries_per_page",
    "obs_overhead",
    "overload_matrix",
    "mobility_matrix",
    "availability_matrix",
    "chaos_matrix",
]


def measure(binary):
    """Run one bench; return its exit status, wall time and rusage."""
    start = time.monotonic()
    child = subprocess.Popen([binary], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": child.returncode,
        "wall_s": round(wall, 3),
        "user_s": round(usage.ru_utime, 3),
        "sys_s": round(usage.ru_stime, 3),
        "max_rss_mib": round(usage.ru_maxrss / 1024.0, 1),  # Linux: KiB
    }


def cache_value(build, key):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def compiler_version(build):
    compiler = cache_value(build, "CMAKE_CXX_COMPILER")
    if not compiler:
        return "unknown"
    done = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                          text=True)
    return done.stdout.splitlines()[0] if done.stdout else compiler


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build")
    parser.add_argument("--label", required=True)
    parser.add_argument("--benches", default=",".join(BENCHES))
    parser.add_argument("--append", action="store_true",
                        help="add runs to those already recorded")
    parser.add_argument("--out", default="BENCH_e2e.json")
    args = parser.parse_args()

    record = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    section = record.setdefault(args.label, {})
    section["host"] = {
        "nproc": os.cpu_count(),
        "compiler": compiler_version(args.build),
        "build_type": cache_value(args.build, "CMAKE_BUILD_TYPE"),
    }
    benches = section.setdefault("benches", {})
    for name in args.benches.split(","):
        binary = os.path.join(args.build, "bench", name)
        if not os.path.exists(binary):
            sys.exit(f"bench_e2e: no such bench: {binary}")
        runs = benches.get(name, {}).get("runs", []) if args.append else []
        run = measure(binary)
        runs.append(run)
        print(f"{args.label} {name}: {run}", file=sys.stderr)
        benches[name] = {
            "runs": runs,
            "median": {key: round(statistics.median(r[key] for r in runs), 3)
                       for key in runs[0] if key != "exit"},
        }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
