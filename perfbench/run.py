#!/usr/bin/env python3
"""End-to-end benchmark of mpidetect.

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 20 --trace 0

Builds the library, the mpiguardd daemon and the benchmark program from
source into .bench_build (or $CARGO_TARGET_DIR), runs the statistics
self-tests, then runs one workload in a child process and prints every
metric by name with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
they are the per-layer metrics of a separate traced run.

The default and held-out seeds, the serving rates and latency limit, and
the golden confusions live in perfbench/config.json; workload sizes are
constants in the workload sources. See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170
TRACE_BASELINE_PASSES = 3  # the whole run, build check included, ends before 180 s
BUILD_LIMIT_S = 840
TARGETS = ["mpbench", "mpbench_selftest", "mpiguardd"]
# Runs on request but is not in BENCHMARK.json: on a shared host its
# spread exceeds the bound, because the simulator's heap-layout cost
# makes it bound by page faults (see README.md).
UNGATED = ["fuzz_corpus"]
# Workloads that run one pass per process, and how many distinct
# corpora a run covers: pass i uses corpus i mod N, and every run makes
# at least N passes. fuzz_corpus needs many: its cost per draw depends on
# the heap layout each pass happens to reach (see README.md).
CORPORA = {"paper_eval": 4, "fuzz_corpus": 64}
# Per-layer metrics a workload's traced run does not measure, by name
# prefix. They read 0 there and are listed as "info not_measured"; any
# other missing metric makes the run incorrect.
UNMEASURED = {
    # No simulator, tools, corpus or serving; a cold in-memory cache with
    # no spill directory, and no bundle.
    "paper_eval": ("mpisim.", "verify.", "core.fuzz.", "corpus.", "serve.",
                   "io.", "core.cache_disk_hits"),
    # The fuzzer draws its own programs and runs only the expert tools.
    "fuzz_corpus": ("datasets.", "ir2vec.", "programl.", "core.extract_",
                    "core.kfold_ms.", "core.cross_ms", "ml.", "io.",
                    "core.cache_disk_hits", "serve."),
    # No graphs and no k-fold. Feature extraction, the GA and the tree
    # run only inside set-up's training, and are measured on paper_eval.
    "serve_ir2vec": ("mpisim.", "verify.", "core.fuzz.", "corpus.",
                     "programl.", "core.extract_", "core.kfold_ms.",
                     "core.cross_ms", "ml.ga_", "ml.dt_fit_ms", "ml.gnn_"),
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build(build_dir):
    """Configures once, then builds incrementally; dies on failure."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "a", encoding="utf-8") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log, cwd=ROOT,
                              timeout=BUILD_LIMIT_S).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                die("cmake configure failed (see %s)" % log_path)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS
        if subprocess.run(cmd, stdout=log, stderr=log, cwd=ROOT,
                          timeout=BUILD_LIMIT_S).returncode != 0:
            die("build failed (see %s)" % log_path)


def binary(build_dir, *parts):
    path = os.path.join(build_dir, *parts)
    if not os.path.exists(path):
        die("missing build product " + path)
    return path


def source_digest():
    """sha256 over the sources the build reads (a checkout has no git)."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "tools", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            if not os.path.isfile(p):
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def reap_all():
    """Waits for every child and orphan this process inherited."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return
        except InterruptedError:
            continue


def workload_args(config, workload):
    """The serving rates and latency limit frozen in config.json."""
    if workload != "serve_ir2vec":
        return []
    serve = config[workload]
    rates = serve["rates"]
    return ["--rates", "%s,%s,%s" % (rates["low"], rates["mid"], rates["high"]),
            "--slo-p99-ms", str(serve["slo_p99_ms"])]


def golden_args(config, workload, seed, k):
    """The golden confusions of corpus k of `seed`, if config.json has them."""
    golden = config.get(workload, {}).get("golden", {}).get(str(seed), {}).get(str(k))
    if not golden:
        return []
    return ["--golden", ",".join("%s=%s" % kv for kv in sorted(golden.items()))]


def parse_child(stdout):
    """Splits a child's stdout into its planned/progress counts, info
    lines and the result record (None when it printed none)."""
    planned, progress, info, record = 0, (0, 0), [], None
    for line in stdout.splitlines():
        if line.startswith("planned "):
            planned = int(line.split("=")[1])
        elif line.startswith("progress "):
            fields = dict(kv.split("=") for kv in line.split()[1:])
            progress = (int(fields["attempted"]), int(fields["failed"]))
        elif line.startswith("info "):
            info.append(line[5:])
        elif line.startswith("{"):
            try:
                record = json.loads(line)
            except ValueError:
                record = None
    return planned, progress, info, record


def stop_children(signum, _frame):
    """SIGTERM/SIGINT: take the running child's session down with us."""
    for pid in list(RUNNING):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    reap_all()
    sys.exit(128 + signum)


RUNNING = set()  # session ids (= pids) of the children still running


def run_child(cmd, deadline):
    """Runs one mpbench process in its own session; returns its parsed
    output. A signal, a non-zero exit or a timeout becomes a failed
    record that counts every operation the child took on and did not
    answer."""
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    RUNNING.add(child.pid)
    timed_out = False
    try:
        stdout, _ = child.communicate(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(child.pid, signal.SIGKILL)
        stdout, _ = child.communicate()
    try:
        os.killpg(child.pid, signal.SIGKILL)  # anything the child left behind
    except ProcessLookupError:
        pass
    reap_all()
    RUNNING.discard(child.pid)
    planned, (answered, answered_failed), info, record = parse_child(stdout)
    if child.returncode == 0 and record is not None and not timed_out:
        return record, info
    if timed_out:
        why = "timeout"
    elif child.returncode < 0:
        why = "signal %d (%s)" % (-child.returncode,
                                  signal.Signals(-child.returncode).name)
    else:
        why = "exit status %d" % child.returncode
    attempted = max(planned, answered, 1)
    failed = attempted - (answered - answered_failed)
    info.append("child_failed %s; %d of %d operations unanswered or failed"
                % (why, failed, attempted))
    return {"correct": False, "attempted": attempted, "failed": failed,
            "metrics": {}}, info


def info_value(info, key):
    for line in info:
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    return None


def combine_passes(passes, distinct):
    """One result from several one-pass processes. Pass i runs corpus
    i mod `distinct`. Each metric is the median over a corpus's passes,
    then the mean over the corpora (harmonic for rates), so every corpus weighs the same
    whatever the pass count; peak RSS is the largest of any pass.
    Operation counts add up. A pass that repeats a corpus must repeat
    its confusions too."""
    records = [r for r, _ in passes]
    out = {"correct": all(r["correct"] for r in records),
           "attempted": sum(r["attempted"] for r in records),
           "failed": sum(r["failed"] for r in records), "metrics": {}}
    notes = ["passes %d over %d corpora" % (len(passes), min(distinct, len(passes)))]
    seen = {}
    for i, (r, info) in enumerate(passes):
        if not r["metrics"]:
            continue
        confusions = sorted(l for l in info if l.startswith("confusion."))
        first = seen.setdefault(i % distinct, (i, confusions))
        if first[1] != confusions:
            out["correct"] = False
            out["failed"] += r["attempted"] - r["failed"]
            notes.append("check_failed pass %d gave other confusions than pass %d "
                         "on the same corpus" % (i, first[0]))
    complete = [(i, r) for i, r in enumerate(records) if r["metrics"]]
    if not complete:
        return out, notes
    for name, m in complete[0][1]["metrics"].items():
        if name == "peak_rss_mb":
            value = max(r["metrics"][name]["value"] for _, r in complete)
        else:
            per_corpus = {}
            for i, r in complete:
                per_corpus.setdefault(i % distinct, []).append(r["metrics"][name]["value"])
            medians = [statistics.median(v) for v in per_corpus.values()]
            # A rate averages over equal work, so its mean is harmonic.
            value = (statistics.harmonic_mean(medians) if m["unit"] == "1/s"
                     else statistics.fmean(medians))
        out["metrics"][name] = {"value": value, "unit": m["unit"]}
    for key in ("pass_wall_s", "phase_s.fuzz", "phase_s.sweep", "pass_minor_faults"):
        notes.append("%s.each %s" % (key, " ".join(
            info_value(i, key) or "?" for _, i in passes)))
    for key in sorted({l.split()[0] for _, i in passes for l in i
                       if l.startswith("acc_") or l.startswith("confusion.")}):
        notes.append("%s.each %s" % (key, " | ".join(
            info_value(i, key) or "?" for _, i in passes)))
    return out, notes


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "config.json"))
    names = [w["name"] for w in bench["workloads"]] + UNGATED

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=config["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the mpidetect sources are not next to perfbench/; nothing to build")

    t_start = time.monotonic()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    # Orphans (a daemon whose parent died) are re-parented here, so every
    # process the run starts can be waited for.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass

    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    notes = []
    correct = True
    selftest = subprocess.run([binary(build_dir, "mpbench_selftest")],
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        correct = False
        notes.append("selftest_failed " + selftest.stderr.strip().replace("\n", "; "))

    # A fixed-length scratch path: the process's allocation history, and
    # with it the heap layout, must not vary with names from run to run.
    workdir = os.path.relpath(os.path.join(build_dir, "run", args.workload), ROOT)
    trace_out = os.path.join(build_dir, "trace", "%s-%d.json" % (args.workload, args.seed))
    base = [binary(build_dir, "mpbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--workdir", workdir,
            "--daemon", os.path.relpath(binary(build_dir, "mpidetect", "mpiguardd"), ROOT)]
    base += workload_args(config, args.workload)
    traced = base + ["--trace", "1"] + golden_args(config, args.workload, args.seed, 0)
    if args.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        traced += ["--trace-out", os.path.relpath(trace_out, ROOT)]
    untraced = base + ["--trace", "0"]
    distinct = CORPORA.get(args.workload)

    def untraced_pass(i):
        k = i % distinct
        return untraced + ["--pass", str(k)] + golden_args(
            config, args.workload, args.seed, k)

    deadline = t_start + RUN_LIMIT_S
    if distinct is None:
        # The workload repeats itself inside one process (serving keeps
        # one daemon up across rounds).
        record, info = run_child(traced if args.trace else untraced, deadline)
    elif args.trace:
        # Untraced passes of corpus 0, then the traced pass of it; the
        # traced wall time minus the untraced median is the overhead.
        plain = [run_child(untraced_pass(0), deadline) for _ in range(TRACE_BASELINE_PASSES)]
        record, info = run_child(traced, deadline)
        walls = [info_value(i, "pass_wall_s") for _, i in plain]
        for r, i in plain:
            record["correct"] = record["correct"] and r["correct"]
            record["attempted"] += r["attempted"]
            record["failed"] += r["failed"]
            info += [l for l in i if l.startswith("child_failed")]
        traced_wall = info_value(info, "pass_wall_s")
        if record["metrics"] and traced_wall and all(walls):
            record["metrics"]["trace.overhead_s"] = {
                "value": float(traced_wall) - statistics.median(map(float, walls)),
                "unit": "s"}
        info.append("untraced_pass_wall_s.each " + " ".join(w or "?" for w in walls))
    else:
        # One pass per process: each campaign starts from a fresh
        # process, as `mpiguard` runs it. Passes cycle over `distinct`
        # corpora drawn from the seed, so the median averages over inputs.
        passes = []
        t_loop = time.monotonic()
        while True:
            passes.append(run_child(untraced_pass(len(passes)), deadline))
            elapsed = time.monotonic() - t_loop
            per_pass = elapsed / len(passes)
            if not passes[-1][0]["metrics"]:
                break  # a failed pass ends the run
            if len(passes) >= distinct and (
                    elapsed + per_pass > args.seconds
                    or time.monotonic() + per_pass > deadline):
                break
        record, notes_ = combine_passes(passes, distinct)
        info = passes[0][1] + notes_
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)

    expected = bench["per_layer"] if args.trace else bench["end_to_end"]
    if not record["metrics"]:
        correct = False
    else:
        known = {m["name"]: m["unit"] for m in expected}
        unmeasured = UNMEASURED[args.workload] if args.trace else ()
        for name in list(record["metrics"]):
            if name not in known or name.startswith(unmeasured):
                notes.append("unexpected_metric " + name)
                correct = False
        for name, unit in known.items():
            if name in record["metrics"]:
                continue
            if name.startswith(unmeasured):
                notes.append("not_measured " + name)
                record["metrics"][name] = {"value": 0.0, "unit": unit}
            else:
                notes.append("missing_metric " + name)
                correct = False
    record["correct"] = bool(record["correct"]) and correct

    for line in info:
        print("info " + line)
    print("info fingerprint.run_py_affinity_cpus %d" % len(os.sched_getaffinity(0)))
    print("info fingerprint.source_sha256 " + source_digest())
    for line in notes:
        print("info " + line)
    for name, m in record["metrics"].items():
        print("metric %-40s %.6g %s" % (name, m["value"], m["unit"]))
    print("summary workload=%s seed=%d trace=%d attempted=%d failed=%d correct=%s"
          % (args.workload, args.seed, args.trace, record["attempted"],
             record["failed"], str(record["correct"]).lower()))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
