#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

    python3 simbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Builds simbench/ (which compiles the simulator's libraries from src/ with
the repository's default build settings) into .bench_build/simbench, then
runs lktm_e2e once per workload. Build output goes to stderr; the report goes
to stdout. Its second-to-last line is a JSON object of host facts, and its
last line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is non-zero when the build
fails, when any simulation is not ok, or when a correctness check fails.
See simbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["fig07-grid", "dbtraffic-artifacts", "scale-c64"]


def git_commit():
    """The checkout's git commit, or "unknown" outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Configure once, then (re)build lktm_e2e; returns the binary's path."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit("simbench: %s is missing; the benchmark builds the simulator "
                     "from the repository's sources" % need)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + gen,
                             stdout=sys.stderr, stderr=sys.stderr, env=env)
        if cfg.returncode != 0:
            sys.exit("simbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    b = subprocess.run(["cmake", "--build", BUILD, "--target", "lktm_e2e", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if b.returncode != 0:
        sys.exit("simbench: build failed")
    return os.path.join(BUILD, "lktm_e2e")


def run_workload(binary, workload, args, commit, echo_json):
    """Run one workload, echoing its report; returns (exit code, host, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK, "--commit", commit]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    host = result = None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        try:
            for line in p.stdout:
                if line.startswith("{"):
                    obj = json.loads(line)
                    if "host" in obj:
                        host = obj["host"]
                    else:
                        result = obj
                    if not echo_json:
                        continue
                sys.stdout.write(line)
                sys.stdout.flush()
        finally:
            if p.poll() is None:
                p.kill()
            p.wait()
    return p.returncode, host, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=11, help="base workload seed")
    ap.add_argument("--seconds", type=float, default=30, help="measuring time per workload")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1],
                    help="1: traced run reporting the per-layer metrics")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    commit = git_commit()
    os.makedirs(WORK, exist_ok=True)
    if args.workload != "all":
        code, _, result = run_workload(binary, args.workload, args, commit, True)
        if result is None:
            sys.exit("simbench: %s printed no result" % args.workload)
        return code

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    hosts = {}
    worst = 0
    for w in WORKLOADS:
        code, host, result = run_workload(binary, w, args, commit, False)
        worst = worst or code
        if result is None or host is None:
            sys.exit("simbench: %s printed no result" % w)
        hosts[w] = host
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"]["%s.%s" % (w, name)] = m
    # One host line for all workloads; only host_threads differs between them.
    host = dict(hosts[WORKLOADS[0]])
    host["host_threads"] = {w: h["host_threads"] for w, h in hosts.items()}
    print(json.dumps({"host": host}))
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
