#!/usr/bin/env python3
"""bdio-bench: the repository's benchmark (see README.md in this directory).

Run from the repository root:

    python3 bdio_bench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

It builds bdio and the benchmark driver from source into .bench_build/,
runs one workload in fresh driver processes, checks every simulation's
output digest against reference_digests.json, and prints the run manifest,
a readable metric table and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
and reports the per-layer metrics. Exit code 0 means the outputs were
correct; 1 means a digest mismatch, a failed simulation or an unsteady
exact count (the JSON line is still printed); 2 means the benchmark could
not build or run at all (no JSON line).

Maintenance: --update-refs re-records the reference digests of one
workload. Only do that for a change that is meant to alter simulated
behaviour, and say so in that change.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "bdio_bench_driver")
REFS = os.path.join(HERE, "reference_digests.json")
WORKLOADS = ("paper_grid", "pagerank_w40", "sssp_dag_faults")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# setup_s is the median of SETUP_REPS set-ups in each of SETUP_PROCESSES
# fresh processes. The set-up time of a process depends on where its memory
# landed, so one process alone reads up to 1.7x apart from the next.
SETUP_PROCESSES = 7
SETUP_REPS = 17


class BenchError(Exception):
    """The benchmark itself could not run; no result line is printed."""


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout


def build():
    """Configures (once) and builds the driver; output goes to stderr only
    when something fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("bdio sources (src/) not found next to bdio_bench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    make = ["cmake", "--build", BUILD, "--target", "bdio_bench_driver",
            "-j", jobs]
    for attempt in range(2):
        log = ""
        code = 0
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            code, log = run_checked(configure, BUILD_TIMEOUT_S)
        if code == 0:
            code, log = run_checked(make, BUILD_TIMEOUT_S)
        if code == 0:
            return
        if attempt == 0:
            # A stale cache from another source path; start clean once.
            shutil.rmtree(BUILD, ignore_errors=True)
    sys.stderr.write(log[-6000:])
    raise BenchError("build failed")


def run_driver(args):
    cmd = [DRIVER] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("driver failed (exit %d): %s"
                         % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def metric_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(SPEC) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def load_refs():
    with open(REFS) as f:
        return json.load(f)


def check_sims(workload, outputs, refs):
    """Counts attempted and failed simulations over every batch of every
    driver output. A simulation fails on a non-OK status or a digest that
    differs from the reference."""
    expected = refs["workloads"].get(workload, {})
    attempted = failed = 0
    for out in outputs:
        for batch in out["batches"]:
            for sim in batch["sims"]:
                attempted += 1
                if not sim["ok"]:
                    failed += 1
                    print("FAILED %s: %s" % (sim["label"], sim["status"]))
                elif sim["digest"] != expected.get(sim["label"]):
                    failed += 1
                    print("FAILED %s: digest %s, reference %s"
                          % (sim["label"], sim["digest"],
                             expected.get(sim["label"])))
    return attempted, failed


def exact_is_steady(outputs):
    """Every batch of the run must report bit-identical simulated counts."""
    exacts = [b["exact"] for out in outputs for b in out["batches"]
              if all(s["ok"] for s in b["sims"])]
    return all(e == exacts[0] for e in exacts)


def update_refs(workload, out):
    refs = load_refs() if os.path.exists(REFS) else {
        "model_seed": out["manifest"]["model_seed"], "workloads": {}}
    refs["workloads"][workload] = {
        sim["label"]: sim["digest"] for sim in out["batches"][0]["sims"]
        if sim["ok"]}
    with open(REFS, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    print("recorded %d digests for %s in %s"
          % (len(refs["workloads"][workload]), workload, REFS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the component probes of the traced pass")
    parser.add_argument("--seconds", type=float, default=30,
                        help="budget of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--model-seed", type=int, default=42,
                        help="simulation seed; the references are for 42")
    parser.add_argument("--update-refs", action="store_true")
    args = parser.parse_args()

    build()
    common = ["--workload=" + args.workload, "--seed=%d" % args.seed,
              "--model-seed=%d" % args.model_seed]
    if args.update_refs:
        update_refs(args.workload, run_driver(common + ["--max-batches=1"]))
        return 0

    if args.trace == 0:
        out = run_driver(common + ["--seconds=%g" % args.seconds])
        outputs = [out]
        setup_s = []
        for _ in range(SETUP_PROCESSES):
            setup_s += run_driver(common + [
                "--max-batches=0", "--setup-reps=%d" % SETUP_REPS])["setup_s"]
    else:
        # The untraced batch first, in its own process, gives the baseline
        # the tracing overhead is measured against.
        base = run_driver(common + ["--max-batches=1"])
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, args.workload + ".json")
        out = run_driver(common + ["--traced", "--spans-out=" + spans_path])
        outputs = [base, out]

    attempted, failed = check_sims(args.workload, outputs, load_refs())
    steady = exact_is_steady(outputs)
    if not steady:
        print("FAILED: exact simulated counts differ between batches")
    manifest = dict(out["manifest"])
    manifest.update({"workload": args.workload, "seed": args.seed,
                     "run_seconds": args.seconds, "trace": args.trace,
                     "batches": sum(len(o["batches"]) for o in outputs),
                     "git_describe": git_describe()})
    print("manifest " + json.dumps(manifest, sort_keys=True))

    metrics = {}
    if args.trace == 0:
        batches = out["batches"]
        values = {
            "wall_s": statistics.median(b["wall_s"] for b in batches),
            "setup_s": statistics.median(setup_s),
            "cpu_s": statistics.median(b["cpu_s"] for b in batches),
            "peak_rss_mib": out["peak_rss_mib"],
            "ok_frac": (attempted - failed) / attempted,
        }
        for name, unit in metric_units("end_to_end").items():
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        traced = out["batches"][0]
        layer = dict(traced["exact"])
        layer.update(out["layer"])
        layer["trace.overhead_s"] = (traced["wall_s"]
                                     - base["batches"][0]["wall_s"])
        for name, unit in metric_units("per_layer").items():
            metrics[name] = {"value": layer[name], "unit": unit}

    print("failed_frac %.6f (%d of %d simulations)"
          % (failed / attempted, failed, attempted))
    for name, m in metrics.items():
        print("%-28s %18.6f %s" % (name, m["value"], m["unit"]))
    correct = failed == 0 and steady
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write("bdio-bench: %s\n" % e)
        sys.exit(2)
