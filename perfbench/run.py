#!/usr/bin/env python3
"""Benchmark of the EMERALDS tooling; see perfbench/NOTES.md.

    python3 perfbench/run.py --workload campaign-full --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
into .bench_build/, runs it once for the workload, checks its outputs
against perfbench/reference.json and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it holds details (failed_frac,
mc_truncated_frac, the chunks run).  Exits 2 without a result when the
checkout cannot be built or the run cannot complete.

    python3 perfbench/run.py --record-reference

re-measures perfbench/reference.json (about ten minutes on two cores);
needed after a change that alters MC work, kernel events or the
trace-long digest.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

WORKLOADS = ("campaign-full", "campaign-nomc", "trace-long")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
DEADLINE_S = 170  # every run must end within 180 s

# Scenarios per chunk, and chunks per run (see choose_chunks).
CHUNK_SCENARIOS = 25
CHUNKS = {"campaign-full": 12, "campaign-nomc": 40, "trace-long": 12}

# Layers timed once per call, reported as median, 95th percentile and
# sample count.
SPAN_LAYERS = (
    "campaign.scenario_us", "workload.gen_us", "workload.realize_us",
    "lint.report_us", "lint.blocking_us", "absint.analyze_us",
    "analysis.rta_us", "fault.inject_run_us", "obs.blame_us",
    "fabric.run_us", "mc.build_us", "mc.check_us",
)
MICRO_ROWS = (
    "sim.engine_schedule_step", "core.readyq_rm_block_unblock",
    "core.readyq_edf_select", "obs.probe_emit_sub0", "obs.probe_emit_sub1",
    "obs.probe_emit_sub3", "sim.trace_emit", "mc.state_key",
)

START = time.monotonic()


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a checkout: no dune-project or lib/ here")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


def bench(*args, timeout=None):
    if timeout is None:
        timeout = DEADLINE_S - (time.monotonic() - START)
    try:
        r = subprocess.run([EXE] + [str(a) for a in args],
                           stdout=subprocess.PIPE, text=True,
                           timeout=max(1, timeout))
    except (OSError, subprocess.TimeoutExpired) as e:
        die("bench.exe %s: %s" % (args[0], e))
    if r.returncode != 0:
        die("bench.exe %s exited %d" % (args[0], r.returncode))
    return r.stdout


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (REFERENCE, e))


def choose_chunks(workload, seed, ref):
    """The chunks a run evaluates: one from each cost stratum of the
    pool, drawn with the seed, and redrawn until their summed time hint
    and kernel events and their median heap hint sit within a few percent
    of the pool's, so that seeds differ in their inputs but not in how
    much work those are."""
    kind = "nomc" if workload == "campaign-nomc" else "full"
    t_key, h_key = kind + "_s", kind + "_heap"
    pool = sorted(ref["chunks"], key=lambda c: (c[t_key], c["seed"]))
    k = CHUNKS[workload]
    strata = [pool[i * len(pool) // k:(i + 1) * len(pool) // k]
              for i in range(k)]
    t_want = sum(statistics.mean(c[t_key] for c in s) for s in strata)
    e_want = sum(statistics.mean(c["events"] for c in s) for s in strata)
    h_want = statistics.median(c[h_key] for c in pool)
    rng = random.Random("%s/%d" % (kind, seed))
    best = None
    for _ in range(20000):
        pick = [rng.choice(s) for s in strata]
        miss = max(
            abs(sum(c[t_key] for c in pick) / t_want - 1) / 0.01,
            abs(sum(c["events"] for c in pick) / e_want - 1) / 0.02,
            abs(statistics.median(c[h_key] for c in pick) / h_want - 1) / 0.02)
        if best is None or miss < best[0]:
            best = (miss, pick)
        if miss <= 1:
            break
    return best[1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def long_digest_ok(d):
    g = d["digest"]
    return (g["events"] == g["subscriber_events"] == g["recorded"]
            and g["switches"] == g["switch_counter"]
            and g["misses"] == 0 and g["overruns"] == 0)


def long_reference(ref, seed):
    return ref["trace_long"]["seeds"].get(str(seed))


# -- end-to-end run ------------------------------------------------------

# Timings are reported in seconds of a reference host: one on which the
# host loop of bench.ml takes CAL_REF_S (this repository's 2-core
# development host does, when nothing else runs on it).
CAL_REF_S = 0.020


def host_scale(host, at, dur):
    """CAL_REF_S over the host loop's time in the samples around the
    item that started at `at` and ran `dur` seconds."""
    before = [d for t, d in host if t <= at]
    after = [d for t, d in host if t >= at + dur]
    return CAL_REF_S / ((before[-1] + after[0]) / 2)


def peak_heap_mb(workload, seed, chunks):
    """Peak major heap of one round in a fresh process; for a campaign,
    the median over its chunks, each in its own process."""
    if workload == "trace-long":
        runs = [""]
    else:
        runs = [str(c["seed"]) for c in chunks]
    peaks = [json.loads(bench("heap", workload, seed, CHUNK_SCENARIOS, r))
             ["top_heap_bytes"] for r in runs]
    return statistics.median(peaks) / 2 ** 20


def run_e2e(workload, seed, seconds, ref):
    chunks = choose_chunks(workload, seed, ref)
    seeds = ",".join(str(c["seed"]) for c in chunks)
    if workload == "trace-long":
        seeds = ""
    out = json.loads(bench("e2e", workload, seconds, seed, CHUNK_SCENARIOS,
                           seeds))
    host = out["host"]
    detail = {"workload": workload, "seed": seed}
    if workload == "trace-long":
        runs = len(out["runs"])
        want = long_reference(ref, seed)
        first = out["digests"][0]
        failed = sum(1 for d in out["digests"]
                     if d != first or not long_digest_ok(d)
                     or (want is not None and d != want))
        attempted, scenarios = runs, 1
        secs = statistics.median(d * host_scale(host, at, d)
                                 for at, d in out["runs"])
        events = first["digest"]["events"]
        detail["reference_checked"] = want is not None
    else:
        mc = workload == "campaign-full"
        failed = 0
        rounds = len(out["chunks"][0]["runs"])
        for c, got in zip(chunks, out["chunks"]):
            for i in range(rounds):
                exp = (c["mc_expansions"], c["mc_truncated"]) if mc else (0, 0)
                if (got["mc_expansions"][i], got["mc_truncated"][i]) != exp:
                    failed += CHUNK_SCENARIOS
                else:
                    failed += min(CHUNK_SCENARIOS, got["findings"][i])
        scenarios = CHUNK_SCENARIOS * len(chunks)
        attempted = scenarios * rounds
        events = out["events"]
        if events != sum(c["events"] for c in chunks):
            failed = attempted
        # each chunk's median over the rounds, summed: a round slowed by
        # a neighbour on the host moves no chunk's median
        secs = sum(statistics.median(d * host_scale(host, at, d)
                                     for at, d in got["runs"])
                   for got in out["chunks"])
        detail["chunks"] = [c["seed"] for c in chunks]
        detail["rounds"] = rounds
        if mc:
            detail["mc_truncated_frac"] = sum(
                got["mc_truncated"][0] for got in out["chunks"]) / scenarios
    detail["failed_frac"] = failed / attempted
    detail["host_loop_s"] = statistics.median(d for _, d in host)
    setup = statistics.median(d * host_scale(host, at, d)
                              for at, d in out["setup"])
    metrics = {
        "scenarios_per_s": metric(scenarios / secs, "1/s"),
        "events_per_s": metric(events / secs, "1/s"),
        "setup_s": metric(setup, "s"),
        "peak_heap_mb": metric(peak_heap_mb(workload, seed, chunks), "MiB"),
    }
    return failed, attempted, metrics, detail


# -- traced run ----------------------------------------------------------

def check_campaign(part, chunks, mc):
    """Mismatches of a traced campaign replay against its untraced round
    and the reference."""
    bad = part["untraced_findings"] + part["replay_disagreements"]
    replay = part["replay_mc"]
    bad += replay["violations"]
    if (replay["expansions"], replay["truncated"]) != (
            part["untraced_mc_expansions"], part["untraced_mc_truncated"]):
        bad += 1
    if mc:
        want = (sum(c["mc_expansions"] for c in chunks),
                sum(c["mc_truncated"] for c in chunks))
    else:
        want = (0, 0)
    if (part["untraced_mc_expansions"], part["untraced_mc_truncated"]) != want:
        bad += 1
    if part["events"] != sum(c["events"] for c in chunks):
        bad += 1
    return bad


def check_long(part, want):
    bad = 0 if part["untraced"] == part["traced"] else 1
    bad += sum(1 for d in (part["untraced"], part["traced"])
               if not long_digest_ok(d) or (want is not None and d != want))
    return bad


def run_traced(workload, seed, ref):
    chunks = choose_chunks(workload, seed, ref)
    os.makedirs(os.path.join(BUILD_DIR, "perfbench"), exist_ok=True)
    spans = os.path.join(BUILD_DIR, "perfbench",
                         "spans-%s-%d.tsv" % (workload, seed))
    out = json.loads(bench("traced", workload, spans, seed, CHUNK_SCENARIOS,
                           ",".join(str(c["seed"]) for c in chunks)))
    campaign, long = out["campaign"], out["long"]
    scenarios = CHUNK_SCENARIOS * len(chunks)
    failed = check_campaign(campaign, chunks, workload != "campaign-nomc")
    failed += check_long(
        long, long_reference(ref, seed) if workload == "trace-long" else None)
    attempted = scenarios + 2
    if workload == "campaign-nomc":
        mc = out["mc"]
        k = mc["scenarios"] // CHUNK_SCENARIOS
        want = (sum(c["mc_expansions"] for c in chunks[:k]),
                sum(c["mc_truncated"] for c in chunks[:k]))
        if (mc["expansions"], mc["truncated"]) != want or mc["violations"]:
            failed += 1
        attempted += mc["scenarios"]
    else:
        mc = campaign["replay_mc"]

    layers = out["layers"]
    m = {}
    for name in SPAN_LAYERS:
        s = layers[name]
        m[name + ".p50"] = metric(s["p50"], "us")
        m[name + ".p95"] = metric(s["p95"], "us")
        m[name + ".count"] = metric(s["count"], "count")
    m["campaign.report_us"] = metric(layers["campaign.report_us"]["p50"], "us")
    m["campaign.unattributed_frac"] = metric(out["unattributed_frac"], "ratio")
    primary = long if workload == "trace-long" else campaign
    m["bench.traced_over_untraced"] = metric(
        primary["traced_s"] / primary["untraced_s"], "ratio")
    for k in ("expansions", "distinct", "revisits", "por_skipped",
              "truncated"):
        m["mc." + k] = metric(mc[k], "count")
    m["mc.distinct_ratio"] = metric(mc["distinct"] / mc["expansions"], "ratio")
    m["mc.truncated_frac"] = metric(mc["truncated"] / mc["scenarios"], "ratio")
    m["mc.expansions_per_s"] = metric(
        mc["expansions"] / (layers["mc.check_us"]["sum"] * 1e-6), "1/s")
    sim = long if workload == "trace-long" else campaign
    m["sim.events"] = metric(sim["events"], "count")
    m["sim.events_per_s"] = metric(sim["events"] / sim["sim_s"], "1/s")
    m["obs.attach_ratio"] = metric(long["attach_ratio"], "ratio")
    m["obs.export_us"] = metric(layers["obs.export_us"]["p50"], "us")
    for name in MICRO_ROWS:
        m[name + ".ns_op"] = metric(out["micro"][name]["ns_op"], "ns/op")
        m[name + ".words_op"] = metric(out["micro"][name]["words_op"],
                                       "words/op")
    detail = {"workload": workload, "seed": seed, "spans": spans,
              "chunks": [c["seed"] for c in chunks],
              "failed_frac": failed / attempted}
    return failed, attempted, m, detail


# -- reference -----------------------------------------------------------

POOL_SEEDS = 240
TRACE_LONG_SEEDS = 100


def parallel(argvs):
    """Run bench.exe on each argument list, two at a time; their stdout
    lines, parsed, in order."""
    out = []
    for i in range(0, len(argvs), 2):
        procs = [subprocess.Popen([EXE] + [str(a) for a in argv],
                                  stdout=subprocess.PIPE, text=True)
                 for argv in argvs[i:i + 2]]
        for p in procs:
            stdout, _ = p.communicate()
            if p.returncode != 0:
                die("bench.exe %s exited %d" % (p.args[1], p.returncode))
            out.append([json.loads(line) for line in stdout.splitlines()])
    return out


def record_reference():
    """Re-measure the chunk pool and the trace-long digests."""
    build()
    half = POOL_SEEDS // 2
    rows = sum(parallel([["pool", CHUNK_SCENARIOS, 0, half],
                         ["pool", CHUNK_SCENARIOS, half, POOL_SEEDS]]), [])
    clean = [r for r in rows if not r["findings"]]
    heaps = parallel([["heap", w, 0, CHUNK_SCENARIOS, r["seed"]]
                      for r in clean
                      for w in ("campaign-full", "campaign-nomc")])
    chunks = []
    for i, r in enumerate(clean):
        hint = {"seed": r["seed"], "mc_expansions": r["mc_expansions"],
                "mc_truncated": r["mc_truncated"], "events": r["events"]}
        for w in ("full", "nomc"):
            hint[w + "_s"] = statistics.median(
                d * host_scale(r["host"], at, d) for at, d in r[w])
        hint["full_heap"] = heaps[2 * i][0]["top_heap_bytes"]
        hint["nomc_heap"] = heaps[2 * i + 1][0]["top_heap_bytes"]
        chunks.append(hint)
    half = TRACE_LONG_SEEDS // 2
    digests = sum(parallel([["trace-ref", 0, half],
                            ["trace-ref", half, TRACE_LONG_SEEDS]]), [])
    ref = {
        "chunk_scenarios": CHUNK_SCENARIOS,
        # a chunk with a campaign finding is a bug report, not an input
        "excluded": [{"seed": r["seed"], "findings": r["findings"]}
                     for r in rows if r["findings"]],
        "chunks": chunks,
        "trace_long": {"seeds": {str(d["seed"]): d["run"] for d in digests}},
    }
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if args.record_reference:
        record_reference()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    ref = load_reference()
    build()
    if args.trace:
        failed, attempted, metrics, detail = run_traced(
            args.workload, args.seed, ref)
    else:
        failed, attempted, metrics, detail = run_e2e(
            args.workload, args.seed, args.seconds, ref)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
