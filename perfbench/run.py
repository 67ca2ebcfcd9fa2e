#!/usr/bin/env python3
"""End-to-end benchmark of `powder optimize` (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. It builds the
`powder` CLI and the perfbench_layers harness from source (in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), generates the
workload's BLIF inputs from the seed, and measures:

  --trace 0  repeated untraced passes over the inputs for at least S
             seconds; prints the end-to-end metrics.
  --trace 1  two pairs of untraced and traced passes plus the harness's
             per-layer timings; prints the per-layer metrics.

Every output BLIF is checked against its input with `powder check` (BDD
engine) and against the other passes' outputs byte for byte. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

QUICK_SUITE = ("comp", "Z5xp1", "rd84", "misex3", "duke2", "t481")
GLITCH_PAIRS = 64


class Workload:
    def __init__(self, circuits, threads, extra_flags=(), timed=False):
        self.circuits = circuits
        self.threads = threads
        self.timed = timed
        self.flags = ["--threads", str(threads)] + list(extra_flags)
        if timed:
            self.flags += ["--power-model", "timed",
                           "--glitch-pairs", str(GLITCH_PAIRS)]


# Why each workload exists is in README.md; each loads a different layer.
WORKLOADS = {
    "scale500_zd": Workload(("scale500",), threads=1),
    "quick_timed": Workload(QUICK_SUITE, threads=1, timed=True),
    "scale4k_delay_t2": Workload(("scale4000",), threads=2,
                                 extra_flags=("--delay-limit", "1.0")),
}

MIN_PASSES = 2          # the determinism gate needs a second pass
SETUP_REPS = 7          # set-up repetitions before each pass; setup_s is
                        # the median of all of them
LAYER_REPS = 5          # repetitions of each cheap per-layer call
TRACE_PAIRS = 2         # untraced + traced pass pairs in a traced run
CHILD_TIMEOUT_S = 150   # one `powder` process; the whole run stays < 180 s

# Report fields that must repeat exactly across passes of one input.
QUALITY_KEYS = ("initial_power", "final_power", "initial_area", "final_area",
                "initial_delay", "final_delay")
# The speculative ProofPipeline's work counts. With --threads > 1 how many
# jobs the workers finish before a commit makes them stale, and so which
# candidates are still in flight when the next shortlist is speculated, is up
# to the scheduler (seen at 2 threads: 3,642-3,671 jobs, 3,671-3,735 PODEM
# checks, 1-39 stale proofs on byte-identical output). All other counts repeat
# exactly.
SCHEDULING_DEPENDENT = ("podem_checks", "sat_checks", "proof_jobs",
                       "spec_hits", "stale_proofs")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


# ---- build ----------------------------------------------------------------

def build():
    """Builds powder and perfbench_layers; returns (powder, harness, cache)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (%s)" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", "4", "--target",
                      "powder", "perfbench_layers"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return (os.path.join(bdir, "tools", "powder"),
            os.path.join(bdir, "perfbench_layers"),
            os.path.join(bdir, "CMakeCache.txt"))


def build_context(cache_path):
    """Build type, flags and compiler of the measured binaries."""
    keys = ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER", "CMAKE_CXX_FLAGS",
            "CMAKE_CXX_FLAGS_RELWITHDEBINFO")
    ctx = {}
    with open(cache_path) as f:
        for line in f:
            name, _, value = line.strip().partition("=")
            name = name.split(":")[0]
            if name in keys:
                ctx[name] = value
    return ctx


# ---- inputs ---------------------------------------------------------------

def shuffle_gates(text, rng):
    """Permutes the order of the `.gate` statements of a BLIF file.

    The reader instantiates gates in dependency order from the outputs, so
    the netlist the optimizer sees is the same for every permutation: the
    seed varies the file, not the circuit (README.md explains why).
    """
    stmts = []
    for line in text.splitlines():
        if line.startswith(".") or not stmts:
            stmts.append([line])
        else:
            stmts[-1].append(line)
    slots = [i for i, s in enumerate(stmts) if s[0].startswith(".gate ")]
    gates = [stmts[i] for i in slots]
    rng.shuffle(gates)
    for i, g in zip(slots, gates):
        stmts[i] = g
    return "\n".join(line for s in stmts for line in s) + "\n"


def make_inputs(powder, workload, seed, workdir):
    paths = []
    for circuit in workload.circuits:
        generated = os.path.join(workdir, circuit + ".gen.blif")
        subprocess.run([powder, "gen", circuit, "-o", generated, "--quiet"],
                       check=True, timeout=CHILD_TIMEOUT_S)
        with open(generated) as f:
            rng = random.Random("%d/%s" % (seed, circuit))
            text = shuffle_gates(f.read(), rng)
        path = os.path.join(workdir, circuit + ".blif")
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    return paths


# ---- running the program ----------------------------------------------------

def run_child(cmd, stderr_path):
    """Runs one process; returns (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def report_counts(rep):
    """Per-layer counts of one run's --report-json; all must repeat."""
    d, m = rep["diagnostics"], rep["metrics"]
    return {
        "harvested": rep["candidates_harvested"],
        "truncated": d["resub"]["harvest_truncated"],
        "iterations": rep["outer_iterations"],
        "applied": rep["substitutions_applied"],
        "stale": rep["rejected_stale"],
        "delay_rejects": rep["rejected_by_delay"],
        "commits": m["powder_journal_commits_total"],
        "podem_checks": m["powder_proof_podem_checks_total"],
        "sat_checks": m["powder_proof_sat_checks_total"],
        "proof_jobs": d["proof_jobs_enqueued"],
        "spec_hits": d["speculative_proof_hits"],
        "stale_proofs": d["stale_proofs_dropped"],
        "resims": m["powder_sim_resims_total"],
        "resim_gates": m["powder_sim_resim_gates_total"],
        "timed_resims": d["power_model"]["timed_resims"],
        "sta_visits": d["sta_incremental_visits"],
    }


def optimize(powder, workload, inp, tag, trace_path=None):
    """One `powder optimize` run; returns a dict describing it."""
    base = inp[:-len(".blif")] + "." + tag
    out, rep_path = base + ".out.blif", base + ".report.json"
    cmd = [powder, "optimize", inp, "-o", out, "--report-json", rep_path]
    cmd += workload.flags
    # The traced run keeps stderr, which carries the trace's drop count.
    cmd += ["--trace-out", trace_path] if trace_path else ["--quiet"]
    code, wall, cpu, rss = run_child(cmd, base + ".stderr")
    run = {"input": inp, "out": out, "exit": code, "wall": wall, "cpu": cpu,
           "rss": rss, "stderr": base + ".stderr", "trace": trace_path}
    if code == 0:
        with open(rep_path) as f:
            rep = json.load(f)
        with open(out, "rb") as f:
            run["digest"] = hashlib.sha256(f.read()).hexdigest()
        run["quality"] = {k: rep[k] for k in QUALITY_KEYS}
        run["counts"] = report_counts(rep)
    return run


def run_pass(powder, workload, inputs, tag, trace_dir=None):
    runs = []
    for inp in inputs:
        trace = None
        if trace_dir:
            name = os.path.basename(inp)[:-len(".blif")]
            trace = os.path.join(trace_dir, name + ".trace.json")
        runs.append(optimize(powder, workload, inp, tag, trace))
    return runs


def gate(powder, workload, passes):
    """Correctness and determinism gates; returns (attempted, failed).

    A run fails if `powder optimize` exits nonzero, if `powder check` does
    not find its output equivalent to its input, or if its output bytes,
    quality figures or per-layer counts differ from the first run of the
    same input.
    """
    runs = [r for p in passes for r in p]
    loose = SCHEDULING_DEPENDENT if workload.threads > 1 else ()
    bad = set()
    checked = {}
    first = {}
    for i, r in enumerate(runs):
        if r["exit"] != 0:
            print("perfbench: FAILED optimize %s (exit %d): %s" % (
                r["input"], r["exit"], tail(r["stderr"])), file=sys.stderr)
            bad.add(i)
            continue
        key = (r["input"], r["digest"])
        if key not in checked:
            code, _, _, _ = run_child([powder, "check", r["input"], r["out"]],
                                      r["out"] + ".check")
            checked[key] = code == 0
            if code != 0:
                print("perfbench: NOT EQUIVALENT %s -> %s" % (
                    r["input"], r["out"]), file=sys.stderr)
        if not checked[key]:
            bad.add(i)
        ref = first.setdefault(r["input"], r)
        for field in ("digest", "quality", "counts"):
            a, b = r[field], ref[field]
            if field == "counts":
                a = {k: v for k, v in a.items() if k not in loose}
                b = {k: v for k, v in b.items() if k not in loose}
            if a != b:
                print("perfbench: NONDETERMINISTIC %s on %s: %s vs %s" % (
                    field, r["input"], a, b), file=sys.stderr)
                bad.add(i)
    return len(runs), len(bad)


def tail(path, n=400):
    with open(path) as f:
        return f.read()[-n:].strip()


# ---- statistics -------------------------------------------------------------

def spread(values):
    """Inter-quartile range over median (range over median below 4 values)."""
    med = statistics.median(values)
    if med == 0 or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / med
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / med


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def metric(value, unit):
    return {"value": value, "unit": unit}


def quality_metrics(runs):
    """Final-over-initial ratios, geometric mean over inputs, and bases."""
    out, bases = {}, {}
    for name in ("power", "area", "delay"):
        ratios = []
        for r in runs:
            q = r["quality"]
            ratios.append(q["final_" + name] / q["initial_" + name])
            bases.setdefault(os.path.basename(r["input"]), {}).update(
                {"initial_" + name: q["initial_" + name],
                 "final_" + name: q["final_" + name]})
        out[name + "_ratio"] = metric(geomean(ratios), "ratio")
    return out, bases


def setup_times(harness, workload, inputs):
    cmd = [harness, "setup", "--reps", str(SETUP_REPS),
           "--threads", str(workload.threads),
           "--glitch-pairs", str(GLITCH_PAIRS)]
    if workload.timed:
        cmd.append("--timed")
    res = subprocess.run(cmd + inputs, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        fail("setup harness failed: " + res.stderr.strip())
    return json.loads(res.stdout)


# ---- end-to-end run (--trace 0) ---------------------------------------------

def end_to_end(powder, harness, workload, inputs, seconds):
    setup_s, steps, passes = [], [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        # Set-up is sampled before every pass, so that it sees the same host
        # conditions as the passes: load on this shared host drifts over
        # tens of seconds.
        setup = setup_times(harness, workload, inputs)
        setup_s += setup["setup_s"]
        steps.append(setup["steps_ms"])
        passes.append(run_pass(powder, workload, inputs, "p%d" % len(passes)))
    attempted, failed = gate(powder, workload, passes)
    ok = [p for p in passes if all(r["exit"] == 0 for r in p)]
    if not ok:
        fail("no pass completed")
    walls = [sum(r["wall"] for r in p) for p in ok]
    cpus = [sum(r["cpu"] for r in p) for p in ok]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(max(r["rss"] for p in ok for r in p), "MB"),
    }
    quality, bases = quality_metrics(ok[0])
    metrics.update(quality)
    context = {
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "spread": {"wall_s": spread(walls), "cpu_s": spread(cpus),
                   "setup_s": spread(setup_s)},
        "setup_steps_ms": {k: statistics.median(x[k] for x in steps)
                           for k in steps[0]},
        "quality_bases": bases,
        "scheduling_dependent_counts": {
            k: [sum(r["counts"][k] for r in p) for p in ok]
            for k in SCHEDULING_DEPENDENT},
    }
    return attempted, failed, metrics, context


# ---- traced run (--trace 1) -------------------------------------------------

DROP_RE = re.compile(r"\((\d+) events, (\d+) dropped\)")


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_stats(trace_path):
    """Per-name span totals (s) and counts, loop self time, unaccounted."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    totals, counts = {}, {}
    for e in events:
        totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] * 1e-6
        counts[e["name"]] = counts.get(e["name"], 0) + 1
    run = next(e for e in events if e["name"] == "optimize")
    # Phase spans on the optimizer's own thread; `optimize` and `iteration`
    # are containers, not phases.
    phases = [(e["ts"], e["ts"] + e["dur"]) for e in events
              if e["tid"] == run["tid"]
              and e["name"] not in ("optimize", "iteration")]
    loop_self = 0.0
    for it in (e for e in events
               if e["name"] == "iteration" and e["tid"] == run["tid"]):
        lo, hi = it["ts"], it["ts"] + it["dur"]
        loop_self += (it["dur"] - union_length(phases, lo, hi)) * 1e-6
    lo, hi = run["ts"], run["ts"] + run["dur"]
    unaccounted = (run["dur"] - union_length(phases, lo, hi)) * 1e-6
    return totals, counts, loop_self, unaccounted, run["dur"] * 1e-6


def layer_times(harness, workload, runs):
    cmd = [harness, "layers", "--reps", str(LAYER_REPS),
           "--threads", str(workload.threads),
           "--glitch-pairs", str(GLITCH_PAIRS)]
    for r in runs:
        cmd += [r["input"], r["out"]]
    res = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        fail("layers harness failed: " + res.stderr.strip())
    return json.loads(res.stdout)


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(powder, harness, workload, inputs, workdir):
    setup = setup_times(harness, workload, inputs)
    # Untraced and traced passes alternate so that both sides of
    # trace.overhead_ratio see the same host conditions; the spans come
    # from the last traced pass.
    plain, traced = [], []
    for i in range(TRACE_PAIRS):
        plain.append(run_pass(powder, workload, inputs, "plain%d" % i))
        traced.append(run_pass(powder, workload, inputs, "traced%d" % i,
                               trace_dir=workdir))
    attempted, failed = gate(powder, workload, plain + traced)
    if any(r["exit"] != 0 for p in plain + traced for r in p):
        fail("an optimize run failed; no per-layer breakdown")
    overhead = ratio(sum(r["wall"] for p in traced for r in p),
                     sum(r["wall"] for p in plain for r in p))
    traced = traced[-1]
    layers = layer_times(harness, workload, traced)

    span_s, span_n = {}, {}
    loop_self = unaccounted = optimize_s = 0.0
    dropped = 0
    for r in traced:
        totals, counts, own, unacc, total = span_stats(r["trace"])
        for k, v in totals.items():
            span_s[k] = span_s.get(k, 0.0) + v
        for k, v in counts.items():
            span_n[k] = span_n.get(k, 0) + v
        loop_self += own
        unaccounted += unacc
        optimize_s += total
        with open(r["stderr"]) as f:
            m = DROP_RE.search(f.read())
        if m is None:
            fail("traced run printed no drop count: " + tail(r["stderr"]))
        dropped += int(m.group(2))
    # The breakdown is one more operation; it fails when the trace dropped
    # events, because the span sums then undercount.
    attempted += 1
    failed += int(dropped > 0)

    c = {k: sum(r["counts"][k] for r in traced) for k in traced[0]["counts"]}
    s = lambda name: span_s.get(name, 0.0)
    n = lambda name: span_n.get(name, 0)
    m = {
        "opt.harvest_s": metric(s("harvest"), "s"),
        "opt.harvest_calls": metric(n("harvest"), "count"),
        "opt.candidates_harvested": metric(c["harvested"], "count"),
        "opt.harvest_truncated": metric(c["truncated"], "count"),
        "opt.harvest_kept_ratio": metric(
            ratio(c["harvested"], c["harvested"] + c["truncated"]), "ratio"),
        "opt.find_ms": metric(layers["find_ms"], "ms"),
        "opt.loop_self_s": metric(loop_self, "s"),
        "opt.unaccounted_ratio": metric(ratio(unaccounted, optimize_s),
                                        "ratio"),
        "opt.stale_ratio": metric(ratio(c["stale"], c["harvested"]), "ratio"),
        "opt.applied": metric(c["applied"], "count"),
        "power.pgc_timed_us": metric(layers["pgc_timed_us"], "us"),
        "power.pgc_zd_us": metric(layers["pgc_zd_us"], "us"),
        "power.timed_resims": metric(c["timed_resims"], "count"),
        "power.estimate_all_ms": metric(setup["steps_ms"]["estimate_all"],
                                        "ms"),
        "power.timed_init_ms": metric(layers["timed_init_ms"], "ms"),
        "timing.delay_check_s": metric(s("delay_check"), "s"),
        "timing.delay_checks": metric(n("delay_check"), "count"),
        "timing.delay_reject_ratio": metric(
            ratio(c["delay_rejects"], n("delay_check")), "ratio"),
        "netlist.copy_us": metric(layers["copy_us"], "us"),
        "timing.trial_sta_us": metric(layers["trial_sta_us"], "us"),
        "timing.sta_visits": metric(c["sta_visits"], "count"),
        "atpg.podem_s": metric(s("podem_check"), "s"),
        "atpg.podem_checks": metric(c["podem_checks"], "count"),
        "atpg.sat_s": metric(s("sat_check"), "s"),
        "atpg.sat_checks": metric(c["sat_checks"], "count"),
        "opt.proof_jobs": metric(c["proof_jobs"], "count"),
        "opt.spec_hit_ratio": metric(ratio(c["spec_hits"], c["proof_jobs"]),
                                     "ratio"),
        "opt.stale_proofs_dropped": metric(c["stale_proofs"], "count"),
        "sim.resim_s": metric(s("sim_resim_incremental") + s("sim_resim_full"),
                              "s"),
        "sim.resims": metric(c["resims"], "count"),
        "sim.resim_gates": metric(c["resim_gates"], "count"),
        "opt.journal_commit_s": metric(s("journal_commit"), "s"),
        "opt.commits": metric(c["commits"], "count"),
        "io.read_blif_ms": metric(setup["steps_ms"]["read_blif"], "ms"),
        "io.write_blif_ms": metric(layers["write_blif_ms"], "ms"),
        "bdd.equiv_check_s": metric(s("final_equivalence_check"), "s"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
        "trace.dropped": metric(dropped, "count"),
    }
    print_breakdown(m, dropped, optimize_s)
    context = {"optimize_span_s": optimize_s,
               "setup_steps_ms": setup["steps_ms"],
               "harness_candidates": layers["candidates"]}
    return attempted, failed, m, context


def print_breakdown(m, dropped, optimize_s):
    """Human-readable wall-time breakdown of the traced pass."""
    if dropped:
        print("per-layer breakdown INCOMPLETE: the trace dropped %d events, "
              "so span totals undercount" % dropped)
        return
    print("per-layer breakdown of the traced pass (optimize span %.3f s):"
          % optimize_s)
    for name in ("opt.harvest_s", "opt.loop_self_s", "timing.delay_check_s",
                 "atpg.podem_s", "atpg.sat_s", "sim.resim_s",
                 "opt.journal_commit_s"):
        v = m[name]["value"]
        print("  %-22s %9.3f s  %5.1f%%"
              % (name, v, 100.0 * ratio(v, optimize_s)))


# ---- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    powder, harness, cache = build()
    workdir = os.path.join(os.path.dirname(harness), "runs",
                           "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    os.makedirs(workdir)
    try:
        inputs = make_inputs(powder, workload, args.seed, workdir)
        if args.trace:
            attempted, failed, metrics, context = per_layer(
                powder, harness, workload, inputs, workdir)
        else:
            attempted, failed, metrics, context = end_to_end(
                powder, harness, workload, inputs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context.update({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "nproc": len(os.sched_getaffinity(0)),
                    "build": build_context(cache)})
    print("context: " + json.dumps(context))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
