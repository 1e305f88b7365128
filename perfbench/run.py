#!/usr/bin/env python3
"""End-to-end benchmark of the overlay load balancer on its four execution paths.

    python3 perfbench/run.py --workload sharded_uts_100k --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and with it the repository's src/ libraries) into
.bench_build/perfbench on first use, runs one workload for --seconds of
back-to-back solves, verifies every solve, prints a report and, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they are
the per-layer ledger, measured by a run that alternates untraced and traced
solves. See perfbench/README.md for the workloads, metrics and host notes.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")

WORKLOADS = ("sim_bb_1k", "sharded_uts_100k", "threads_uts_4", "sockets_bb_4")
SOCKET_RANKS = 4
# One run must end within 180 s; leave room for process start and reporting.
RUN_DEADLINE_S = 170.0

# Message types of the overlay protocols (lb/messages.hpp names).
MSG_TYPES = ("size_up", "size_down", "req_down", "req_up", "req_bridge", "no_work",
             "work", "terminate", "probe", "probe_ack", "bound")

# Every end-to-end metric the run computes: (name, unit). BENCHMARK.json
# decides which of them, and of the per-layer ledger below, the final JSON
# line carries; the report prints them all.
END_TO_END = (
    ("solve_s", "s"),
    ("solve_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_exec_s", "sim_s"),
)

def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build ---

def build():
    """Configures (once) and builds the benchmark binary. False on failure."""
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        log("perfbench: CMakeLists.txt missing")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


# ---------------------------------------------------------------- launch ---

def free_ports(n):
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.bind(("127.0.0.1", 0))
        ports.append(s.getsockname()[1])
        socks.append(s)
    for s in socks:
        s.close()
    return ports


def launch(args, extra):
    """Runs the workload; returns the list of per-process records (one per
    rank on sockets_bb_4) or raises RuntimeError."""
    os.makedirs(RUN_DIR, exist_ok=True)
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--run-dir", RUN_DIR] + extra
    if args.workload == "sockets_bb_4":
        table = ",".join("127.0.0.1:%d" % p for p in free_ports(SOCKET_RANKS))
        cmds = [base + ["--rank", str(r), "--peer-addrs", table]
                for r in range(SOCKET_RANKS)]
    else:
        cmds = [base]
    outs = [open(os.path.join(RUN_DIR, "rank%d.json" % i), "w+") for i in range(len(cmds))]
    procs = [subprocess.Popen(c, stdout=o, stderr=sys.stderr) for c, o in zip(cmds, outs)]
    deadline = time.monotonic() + RUN_DEADLINE_S
    failed = None
    try:
        while any(p.poll() is None for p in procs):
            bad = [p for p in procs if p.poll() not in (None, 0)]
            if bad:
                failed = "a benchmark process exited with status %d" % bad[0].returncode
                break
            if time.monotonic() > deadline:
                failed = "the run exceeded %.0f s" % RUN_DEADLINE_S
                break
            time.sleep(0.01)
        if failed is None and any(p.returncode != 0 for p in procs):
            failed = "a benchmark process exited with status %d" % max(
                p.returncode for p in procs)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
        for p in procs:
            p.wait()
    if failed:
        raise RuntimeError(failed)
    records = []
    for o in outs:
        o.seek(0)
        lines = o.read().strip().splitlines()
        o.close()
        records.append(json.loads(lines[-1]))
    return records


# ---------------------------------------------------------------- metrics ---

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples). Below eleven samples it is the slowest solve."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def check_consistency(rec):
    """On the deterministic simulator a traced solve must repeat its untraced
    twin exactly: the decorator must not change the program."""
    solves = rec["solves"]
    if rec["backend"] == "sim":
        plain = [s for s in solves if not s["traced"]]
        for s in solves:
            if s["traced"] and plain and not s["failure"]:
                ref = plain[0]
                for key in ("units", "events", "shards", "exec_s", "messages"):
                    if s[key] != ref[key]:
                        s["failure"] = "traced solve changed %s: %s vs %s untraced" % (
                            key, s[key], ref[key])
                        break


def merge_ranks(records):
    """One record for a sockets run: rank 0's timings, memory summed over
    ranks, and a failure wherever a rank disagrees with rank 0."""
    head = dict(records[0])
    head["peak_rss_bytes"] = sum(r["peak_rss_bytes"] for r in records)
    head["rank_peak_rss_bytes"] = [r["peak_rss_bytes"] for r in records]
    for r in records[1:]:
        if len(r["solves"]) != len(head["solves"]):
            raise RuntimeError("ranks disagree on the number of solves")
        for mine, theirs in zip(head["solves"], r["solves"]):
            for key in ("units", "bound", "messages", "done_s"):
                if mine[key] != theirs[key] and not mine["failure"]:
                    mine["failure"] = "rank %d reports %s=%s, rank 0 %s" % (
                        r["rank"], key, theirs[key], mine[key])
            if theirs["failure"] and not mine["failure"]:
                mine["failure"] = "rank %d: %s" % (r["rank"], theirs["failure"])
    return head


def timed(rec, traced):
    """The solves whose timings count: a traced run's warm-up solve does not."""
    return [s for s in rec["solves"] if s["traced"] == traced and not s["warmup"]]


def end_to_end(rec):
    """Every end-to-end metric, from the untraced solves: {name: (value, note)}."""
    sim = rec["backend"] == "sim"
    plain = timed(rec, False)
    ok = [s for s in plain if not s["failure"]] or plain
    walls = [s["wall_s"] for s in ok]
    tail_s, tail_pct, tail_n = tail(walls)
    if rec["backend"] == "sockets":
        # Sockets solves cannot be decorated: bring-up is the call-to-return
        # wall minus the backend's own wall, an upper bound on the time to
        # the first step.
        setup = [s["instance_s"] + s["wall_s"] - s["backend_wall_s"] for s in ok]
    else:
        setup = [s["instance_s"] + max(s["first_step_s"], 0.0) for s in ok]
    # A traced run's high-water mark would include its span buffers; its first
    # solve is untraced.
    traced_run = any(s["traced"] for s in rec["solves"])
    rss = rec["solves"][0]["peak_rss_bytes"] if traced_run else rec["peak_rss_bytes"]
    return {
        "solve_s": (median(walls), "median of %d solves" % len(walls)),
        "solve_tail_s": (tail_s, "p%.1f of %d solves" % (tail_pct, tail_n)),
        "setup_s": (median(setup), "instance build + backend call to first step"),
        "peak_rss_mb": (rss / 2**20,
                        "summed over %d ranks" % len(rec["rank_peak_rss_bytes"])
                        if "rank_peak_rss_bytes" in rec else "process high-water mark"),
        "sim_exec_s": (median([s["exec_s"] for s in ok]) if sim else 0.0,
                       "simulated seconds to detected termination" if sim
                       else "simulator only"),
    }


# (name, unit, end-to-end metric it should move, where that shows)
PER_LAYER = [
    ("simnet.events", "count", "solve_s", "sim_bb_1k, sharded_uts_100k"),
    ("simnet.ns_per_event", "ns", "solve_s", "sharded_uts_100k; ~1/3 of sim_bb_1k"),
    ("simnet.windows", "count", "solve_s", "sharded_uts_100k"),
    ("simnet.events_per_window", "count", "solve_s", "sharded_uts_100k"),
    ("simnet.bytes_per_peer", "B", "peak_rss_mb", "sharded_uts_100k"),
    ("sim_exec_s", "sim_s", "-", "simulated completion (paper Fig. 5 y-axis)"),
    ("solve_tail_s", "s", "-", "slow-solve tail; between-run spread too wide to gate"),
    ("lb.messages", "count", "sim_exec_s, solve_s", "sim workloads"),
] + [("lb.msgs." + t, "count", "sim_exec_s, solve_s", "sim workloads") for t in MSG_TYPES] + [
    ("lb.request_yield", "ratio", "sim_exec_s", "sim_bb_1k"),
    ("lb.queue_delay_us", "us", "sim_exec_s", "sim workloads"),
    ("lb.to_first_step_s", "s", "setup_s", "sharded_uts_100k"),
    ("lb.after_last_step_s", "s", "solve_s", "sharded_uts_100k"),
    ("work.step_s", "s", "solve_s", "sim_bb_1k (bb), threads_uts_4 (uts)"),
    ("work.steps", "count", "solve_s", "sim_bb_1k, threads_uts_4"),
    ("work.ns_per_unit", "ns", "solve_s", "sim_bb_1k, threads_uts_4"),
    ("work.split_s", "s", "solve_s", "sim_bb_1k"),
    ("work.splits", "count", "solve_s", "sim_bb_1k"),
    ("work.merge_s", "s", "solve_s", "sim_bb_1k"),
    ("work.merges", "count", "solve_s", "sim_bb_1k"),
    ("work.seq_ns_per_unit", "ns", "solve_s", "single-thread baseline of work.ns_per_unit"),
    ("bb.useful_node_frac", "ratio", "sim_exec_s, solve_s", "sim_bb_1k"),
    ("overlay.build_s", "s", "setup_s", "sharded_uts_100k"),
    ("runtime.busy_frac", "ratio", "solve_s", "threads_uts_4"),
    ("runtime.sends", "count", "solve_s, solve_tail_s", "threads_uts_4"),
    ("runtime.wakes", "count", "solve_s, solve_tail_s", "threads_uts_4"),
    ("runtime.wakes_skipped", "count", "solve_s, solve_tail_s", "threads_uts_4"),
    ("runtime.drain_batch_mean", "msgs", "solve_s, solve_tail_s", "threads_uts_4"),
    ("runtime.pool_heap_nodes", "count", "solve_s, solve_tail_s", "threads_uts_4"),
    ("runtime.terminate_s", "s", "solve_s", "threads_uts_4"),
    ("sockets.bringup_s", "s", "setup_s, solve_tail_s", "sockets_bb_4"),
    ("sockets.terminate_s", "s", "solve_s", "sockets_bb_4"),
    ("sockets.messages", "count", "solve_s", "sockets_bb_4"),
    ("trace.overhead_frac", "ratio", "-", "traced solve_s / untraced solve_s - 1"),
    ("host.ref_s", "s", "-", "host speed; never used to rescale"),
]


def per_layer(rec, e2e):
    """The ledger. A layer that does not run on a workload reads 0."""
    backend = rec["backend"]
    sim, threads, sockets = backend == "sim", backend == "threads", backend == "sockets"
    plain = timed(rec, False)
    traced = timed(rec, True)

    def med(key, solves=plain):
        return median([s[key] for s in solves])

    v = {name: 0.0 for name, _, _, _ in PER_LAYER}
    v["sim_exec_s"] = e2e["sim_exec_s"][0]
    v["solve_tail_s"] = e2e["solve_tail_s"][0]
    v["lb.messages"] = med("messages")
    v["lb.request_yield"] = median([s["transfers"] / s["requests"]
                                    for s in plain if s["requests"]])
    v["host.ref_s"] = median(rec["host_ref_s"])
    if sim:
        v["simnet.events"] = med("events")
        v["simnet.windows"] = med("windows")
        if v["simnet.windows"]:
            v["simnet.events_per_window"] = v["simnet.events"] / v["simnet.windows"]
        v["simnet.bytes_per_peer"] = e2e["peak_rss_mb"][0] * 2**20 / rec["peers"]
        v["lb.queue_delay_us"] = med("queue_delay_s") * 1e6
        for t in MSG_TYPES:
            v["lb.msgs." + t] = median([s["sent_by_type"].get(t, 0) for s in plain])
        # The backend call's self time (thread-seconds outside Work calls)
        # per event: engine dispatch and protocol handlers together (and,
        # sharded, barrier wait).
        v["simnet.ns_per_event"] = median([s["call_self_s"] / s["events"] * 1e9
                                           for s in traced if s["events"]])
    else:
        v["lb.msgs.work"] = med("transfers")
    if traced:
        v["lb.to_first_step_s"] = med("first_step_s", traced)
        v["lb.after_last_step_s"] = median([s["wall_s"] - s["last_step_end_s"] for s in traced])
        for key in ("step_s", "steps", "split_s", "splits", "merge_s", "merges"):
            v["work." + key] = med(key, traced)
        v["work.ns_per_unit"] = median([s["step_s"] / s["step_units"] * 1e9
                                        for s in traced if s["step_units"]])
        v["overlay.build_s"] = med("overlay_s", traced)
        v["trace.overhead_frac"] = med("wall_s", traced) / med("wall_s") - 1.0
    seq = rec.get("sequential")
    if seq and seq["units"]:
        v["work.seq_ns_per_unit"] = seq["wall_s"] / seq["units"] * 1e9
        if rec["workload"] in ("sim_bb_1k", "sockets_bb_4"):
            v["bb.useful_node_frac"] = seq["units"] / med("units")
    if threads:
        v["runtime.terminate_s"] = median([s["backend_wall_s"] - s["done_s"] for s in plain])
        if traced:
            v["runtime.busy_frac"] = median([s["step_s"] / (rec["peers"] * s["wall_s"])
                                             for s in traced])
            nets = [s["net"] for s in traced if "net" in s]
            for key in ("sends", "wakes", "wakes_skipped", "drain_batch_mean",
                        "pool_heap_nodes"):
                v["runtime." + key] = median([n[key] for n in nets])
    if sockets:
        v["sockets.bringup_s"] = median([s["wall_s"] - s["backend_wall_s"] for s in plain])
        v["sockets.terminate_s"] = median([s["backend_wall_s"] - s["done_s"] for s in plain])
        v["sockets.messages"] = med("messages")
    return v


# ----------------------------------------------------------------- report ---

def tree_digest():
    """Content digest of the code under test, for checkouts without git."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:12]


def fingerprint(rec):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            governor = f.read().strip()
    except OSError:
        governor = "none"
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() or "none"
    return ("nproc=%d cpu=%r governor=%s compiler=%r build=%s git=%s tree=%s "
            "host.ref_s=%s" % (os.cpu_count() or 0, cpu, governor, rec["compiler"],
                               rec["build_type"], sha, tree_digest(),
                               ",".join("%.4f" % x for x in rec["host_ref_s"])))


def report(rec, e2e, layers, gated):
    print("# perfbench %s  seed=%d  protocol_seed=%d  scale=%s  backend=%s  peers=%d" % (
        rec["workload"], rec["seed"], rec["protocol_seed"], rec["scale"], rec["backend"],
        rec["peers"]))
    print("# host: " + fingerprint(rec))
    exp = rec["expect"]
    print("# expect (%s): %s" % (exp["source"], ", ".join(
        "%s=%s" % (k, exp[k]) for k in ("units", "min_units", "optimum", "events",
                                        "exec_s", "shards") if exp[k])))
    for i, s in enumerate(rec["solves"]):
        if s["failure"]:
            print("# FAILED solve %d%s: %s" % (i, " (traced)" if s["traced"] else "",
                                               s["failure"]))
    print("# end to end (* = in the result line)")
    for name, unit in END_TO_END:
        value, note = e2e[name]
        print("%s %-22s %14.6g %-6s %s" % ("*" if name in gated else " ", name, value,
                                          unit, note))
    if layers is None:
        return
    print("# ledger: per-layer metric -> end-to-end metric it should move [where]; "
          "0 = the layer does not run, or cannot be seen from outside, here")
    for name, unit, moves, where in PER_LAYER:
        print("  %-26s %14.6g %-6s -> %-20s [%s]" % (name, layers[name], unit, moves, where))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = dict(END_TO_END)
    units.update((n, u) for n, u, _, _ in PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if units.get(m["name"]) != m["unit"]:
            raise ValueError("BENCHMARK.json metric %s (%s) is not computed here"
                             % (m["name"], m["unit"]))
    return spec


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="protocol seed of the real-time workloads; the simulator "
                         "workloads always replay protocol seed 1")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--uts-root-seed", type=int, default=1,
                    help="UTS instance; other values are checked against the "
                         "sequential reference")
    ap.add_argument("--bb-instance", type=int, default=0,
                    help="flowshop instance Ta(21+I), scaled; other values are "
                         "checked against the sequential reference")
    ap.add_argument("--warmup-s", type=float, default=1.5)
    ap.add_argument("--plant", choices=("wrong_expectation",),
                    help="self-test: expect a wrong result, so every solve must fail")
    args = ap.parse_args()
    # A terminated run still stops the processes it started (launch's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as err:
        log("perfbench: %s" % err)
        return 1
    if not build():
        log("perfbench: build failed")
        return 1
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    extra = ["--scale", args.scale, "--uts-root-seed", str(args.uts_root_seed),
             "--bb-instance", str(args.bb_instance), "--warmup-s", str(args.warmup_s)]
    if args.plant:
        extra += ["--plant", args.plant]
    try:
        records = launch(args, extra)
        rec = merge_ranks(records) if len(records) > 1 else records[0]
    except (RuntimeError, ValueError, OSError) as err:
        # A crashed or hung process is a failed solve, not a missing result.
        log("perfbench: %s" % err)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {
            m["name"]: {"value": 0.0, "unit": m["unit"]} for m in listed}}))
        return 0
    check_consistency(rec)
    e2e = end_to_end(rec)
    layers = per_layer(rec, e2e) if args.trace else None
    report(rec, e2e, layers, {m["name"] for m in spec["end_to_end"]})

    attempted = len(rec["solves"])
    failed = sum(1 for s in rec["solves"] if s["failure"])
    values = layers if args.trace else {k: v for k, (v, _) in e2e.items()}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
