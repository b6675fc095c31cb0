#!/usr/bin/env python3
"""The repository benchmark: the simulator, the experiment suite and the
serving daemon, end to end and layer by layer (see README.md here).

    python3 perfbench/run.py --workload sim-cold|suite-fast|serve-skew \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the repository
(Release) and the measurement driver under .bench_build/. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1). The line before it is the digest of every simulated
statistic of the workload.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
GOLDEN_SEED = 2009
SUITE_TRACE_LEN = 40000
WARM_RERUNS = 5
SETUP_LAUNCHES = 25
# The suite summary line's simulation counts.
SUMMARY_SIMS = re.compile(
    r"\| (\d+) single-core simulation\(s\) \+ (\d+) contested run\(s\)")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


# ------------------------------------------------------------------ build

def build():
    """Build the repository's binaries and the driver; return their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no repository sources under {ROOT}")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    repo = BUILD / "repo"
    driver = BUILD / "driver"
    steps = []
    if not (repo / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(repo),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(repo), "-j", jobs, "--target",
                  "contest_bench", "contest_serve", "artifact_diff"])
    if not (driver / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench" / "driver"),
                      "-B", str(driver), f"-DREPO_ROOT={ROOT}",
                      f"-DREPO_BUILD={repo}", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(driver), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)

    def binary(name, where):
        found = [p for p in sorted(where.rglob(name))
                 if p.is_file() and os.access(p, os.X_OK)]
        if not found:
            log(f"perfbench: {name} not built")
            sys.exit(2)
        return str(found[0])

    return {name: binary(name, repo)
            for name in ("contest_bench", "contest_serve", "artifact_diff")} | {
        "perfdriver": binary("perfdriver", driver)}


# ---------------------------------------------------------------- spans

class Spans:
    """Spans (name, start, end, parent) kept in memory; the driver's spans
    are appended as a subtree."""

    def __init__(self):
        self.spans = []
        self.epoch = time.perf_counter()

    def add(self, name, start, end, parent=-1):
        self.spans.append([name, start - self.epoch, end - self.epoch, parent])
        return len(self.spans) - 1

    def graft(self, spans, parent, offset=0.0):
        """Append @spans (their parents index into @spans) under @parent."""
        base = len(self.spans)
        for name, start, end, par in spans:
            self.spans.append([name, start + offset, end + offset,
                               base + par if par >= 0 else parent])

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for s, e in sorted((spans[c][1], spans[c][2])
                           for c in children.get(i, [])):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


def by_parent(spans, name, parent_name):
    """Summed self time of spans called @name, per span called
    @parent_name, in order."""
    selfs = self_times(spans)
    totals = {}
    for i, (n, _, _, parent) in enumerate(spans):
        if n == name and parent >= 0 and spans[parent][0] == parent_name:
            totals[parent] = totals.get(parent, 0.0) + selfs[i]
    return [totals.get(i, 0.0) for i, s in enumerate(spans)
            if s[0] == parent_name]


# --------------------------------------------------------------- helpers

def timed_child(cmd, stdout_path=None):
    """Run @cmd; return (wall seconds, exit code, peak RSS in MiB, start)."""
    out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, start


def driver_json(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_layers(sims, singles, contests, walls):
    """The per-layer metrics every workload reports. @singles and
    @contests hold, per round, the host milliseconds of each single-core
    simulation and contested run; @walls the wall seconds of each
    round's simulating part."""
    return {
        "sim.count": sims,
        "core.single_s": median(sum(r) for r in singles) / 1e3,
        "contest.run_s": median(sum(r) for r in contests) / 1e3,
        "core.single_ms_p50": median(v for r in singles for v in r),
        "contest.run_ms_p50": median(v for r in contests for v in r),
        "sim.concurrency": median((sum(s) + sum(c)) / 1e3 / w
                                  for s, c, w in zip(singles, contests, walls)),
    }


def whole_rounds(seconds, round_fn):
    """Call @round_fn(i) for whole rounds while the next one is expected
    to end within @seconds; at least one round."""
    start = time.perf_counter()
    n = 0
    while True:
        round_fn(n)
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return n


# -------------------------------------------------------------- sim-cold

def sim_cold(args, bins, rundir, spans):
    cmd = [bins["perfdriver"], "sim-cold", "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if spans:
        cmd += ["--spans", str(rundir / "driver-spans.json")]
    start = time.perf_counter()
    d = driver_json(cmd)
    # Each simulation's host time is its median over rounds, so a burst
    # of host noise in one round moves no figure.
    op_s = [median(ops) for ops in zip(*d["op_s"])]

    def rate(kind):
        ops = [i for i, k in enumerate(d["op_kind"]) if k == kind]
        return (sum(d["op_insts"][i] for i in ops)
                / sum(op_s[i] for i in ops) / 1e6)

    e2e = {
        "setup_s": median(d["setup_s"]),
        "peak_rss_mb": d["peak_rss_mb"],
        "cold_s": sum(op_s),
        "op_p50_ms": median(op_s) * 1e3,
    }
    layers, detail = {}, {
        "single_minst_per_s": rate(0),
        "contest2_minst_per_s": rate(1),
        "contest_nway_minst_per_s": rate(2),
    }
    if spans:
        root = spans.add("sim-cold", start, time.perf_counter())
        sub = json.loads((rundir / "driver-spans.json").read_text())["spans"]
        spans.graft(sub, root, start - spans.epoch)
        c = d["counters"]
        core_cycles = c.pop("contest.core_cycles")
        gen = median(by_parent(sub, "trace.gen", "setup"))
        single = median(by_parent(sub, "core.single", "round"))
        run2 = median(by_parent(sub, "contest.run2", "round"))
        nway = median(by_parent(sub, "contest.nway", "round"))
        rounds = [i for i, s in enumerate(sub) if s[0] == "round"]

        def per_round(names):
            return [[(e - s) * 1e3 for n, s, e, p in sub
                     if n in names and p == r] for r in rounds]

        layers = sim_layers(len(d["op_kind"]), per_round({"core.single"}),
                            per_round({"contest.run2", "contest.nway"}),
                            [sub[r][2] - sub[r][1] for r in rounds])
        detail |= {
            "trace.gen_s": gen,
            "trace.gen_minst_per_s": d["trace_insts"] / gen / 1e6,
            "core.single_s": single,
            "core.ns_per_cycle": single * 1e9 / c["core.cycles"],
            "contest.run2_s": run2,
            "contest.run_nway_s": nway,
            "contest.ns_per_core_cycle":
                (run2 + nway) * 1e9 / core_cycles,
        } | c
    return (e2e, layers, detail, d["digest"], d["attempted"], d["failed"],
            d["errors"])


# ------------------------------------------------------------ suite-fast

def suite_fast(args, bins, rundir, spans):
    bench = bins["contest_bench"]
    jobs = str(min(2, os.cpu_count() or 1))
    errors = []
    failed_ops = set()
    ops = 0
    t0 = time.perf_counter()
    root = spans.add("suite-fast", t0, t0) if spans else -1

    def fail(op, msg):
        failed_ops.add(op)
        errors.append(msg)

    def child(name, cmd, stdout_path=None):
        """Run one child process, an operation; return (wall, rss, span, op)."""
        nonlocal ops
        wall, code, rss, start = timed_child(cmd, stdout_path)
        op = ops
        ops += 1
        if code != 0:
            fail(op, f"{' '.join(cmd)} exited {code}")
        span = spans.add(name, start, start + wall, root) if spans else -1
        return wall, rss, span, op

    setup = []
    rounds = []

    def one_round(i):
        # Set-up: binary start-up, as --list runs spread over the rounds so
        # their median sees the same host as the suite runs.
        setup.extend(child("suite.setup", [bench, "--list"])[0]
                     for _ in range(SETUP_LAUNCHES))
        cache, cold, warm = (rundir / f"{k}{i}" for k in ("cache", "cold", "warm"))
        flags = ["--all", "--fast", "--trace-len", str(SUITE_TRACE_LEN),
                 "--jobs", jobs, "--seed", str(args.seed),
                 "--cache-dir", str(cache)]
        cold_s, cold_rss, cold_span, cold_op = child(
            "suite.cold", [bench] + flags + ["--out-dir", str(cold)])
        warms = [child("suite.warm",
                       [bench] + flags + ["--out-dir", f"{warm}.{w}"],
                       rundir / f"warm{i}.{w}.txt")
                 for w in range(WARM_RERUNS)]
        rounds.append({"cold_s": cold_s, "warm_s": [w[0] for w in warms],
                       "warm_ops": [w[3] for w in warms], "rss": cold_rss,
                       "cold_span": cold_span, "cold_op": cold_op})

    n = whole_rounds(args.seconds, one_round)

    # Checks, outside the measured rounds. A failed check fails the child
    # run whose output it checked.
    def timeline(path, op):
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            fail(op, f"{path}: no SimTimeline.json")
            return {"sims": 0, "busy_sec": 0, "concurrency": 0,
                    "queue_sec": 0, "cache_hits": 0, "spans": []}

    def same_artifacts(a, b):
        proc = subprocess.run([bins["artifact_diff"], "--rtol", "0",
                               "--atol", "0", str(a), str(b)],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        return proc.returncode == 0, proc.stdout.strip()[-300:]

    def simulations(summary):
        m = SUMMARY_SIMS.search(summary)
        return (int(m[1]), int(m[2])) if m else None

    cold_ops = [r["cold_op"] for r in rounds]
    for i in range(n):
        rounds[i]["cold_tl"] = timeline(rundir / f"cold{i}" / "SimTimeline.json",
                                        rounds[i]["cold_op"])
        for w, op in enumerate(rounds[i]["warm_ops"]):
            warm_tl = timeline(rundir / f"warm{i}.{w}" / "SimTimeline.json", op)
            sims = simulations((rundir / f"warm{i}.{w}.txt").read_text())
            if warm_tl["sims"] != 0 or sims != (0, 0):
                fail(op, f"warm rerun {i}.{w} simulated ({sims})")
            same, diff = same_artifacts(rundir / f"cold{i}",
                                        rundir / f"warm{i}.{w}")
            if not same:
                fail(op, f"warm rerun {i}.{w} differs from its cold run: {diff}")
        rounds[i]["warm_tl"] = warm_tl
        if i > 0:
            same, diff = same_artifacts(rundir / "cold0", rundir / f"cold{i}")
            if not same:
                fail(rounds[i]["cold_op"],
                     f"cold run {i} differs from cold run 0: {diff}")
    # Checked on cold run 0; every other cold run was found equal to it
    # or has failed already, so a failure here fails every cold run.
    fig06 = driver_json([bins["perfdriver"], "fig06-check", "--artifact",
                         str(rundir / "cold0" / "fig06.json"),
                         "--seed", str(args.seed),
                         "--trace-len", str(SUITE_TRACE_LEN)])
    if fig06["rows"] == 0:
        fig06["errors"].append("fig06 has no rows")
    for e in fig06["errors"]:
        for op in cold_ops:
            fail(op, e)
    if args.seed == GOLDEN_SEED:
        same, diff = same_artifacts(ROOT / "goldens" / "fast", rundir / "cold0")
        if not same:
            for op in cold_ops:
                fail(op, f"goldens/fast: {diff}")

    e2e = {
        "setup_s": median(setup),
        "peak_rss_mb": median(r["rss"] for r in rounds),
        "cold_s": median(r["cold_s"] for r in rounds),
        "op_p50_ms": median(w for r in rounds for w in r["warm_s"]) * 1e3,
    }
    layers, detail = {}, {}
    if spans:
        spans.spans[root][2] = time.perf_counter() - spans.epoch
        # The suite's own per-simulation spans, under its process span.
        for r in rounds:
            cold_start = spans.spans[r["cold_span"]][1]
            spans.graft([[f"suite.sim.{s['kind']}", s["start_sec"],
                          s["end_sec"], -1] for s in r["cold_tl"]["spans"]],
                        r["cold_span"], cold_start)
        selfs = self_times(spans.spans)
        cold_self = [selfs[r["cold_span"]] for r in rounds]

        def tl(key, which="cold_tl"):
            return median(r[which][key] for r in rounds)

        def sim_ms(timeline, kind):
            return [(s["end_sec"] - s["start_sec"]) * 1e3
                    for s in timeline["spans"]
                    if s["kind"] == kind and not s["cached"]]

        cold_tls = [r["cold_tl"] for r in rounds]
        layers = sim_layers(tl("sims"),
                            [sim_ms(t, "single") for t in cold_tls],
                            [sim_ms(t, "contest") for t in cold_tls],
                            [t["wall_sec"] for t in cold_tls])
        detail = {
            "harness.sims": tl("sims"),
            "harness.sim_busy_s": tl("busy_sec"),
            "harness.concurrency": tl("concurrency"),
            "harness.queue_s": tl("queue_sec"),
            "harness.disk_hits": tl("cache_hits", "warm_tl"),
            "harness.self_s": median(cold_self),
        }
    return (e2e, layers, detail, artifact_digest(rundir / "cold0"), ops,
            len(failed_ops), errors)


def artifact_digest(out_dir):
    """SHA-256 over every artifact's tables and scalars, in file-name order.
    meta (machine, revision) and notes (host wall-clock prose) are left
    out."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.json")):
        if path.name == "SimTimeline.json":
            continue
        doc = json.loads(path.read_text())
        doc.pop("meta", None)
        doc.pop("notes", None)
        h.update(path.name.encode() + json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()[:16]


# ------------------------------------------------------------ serve-skew

def serve_skew(args, bins, rundir, spans):
    # A relative socket path keeps it under the sun_path limit.
    sock = os.path.relpath(rundir / "s.sock", Path.cwd())
    cmd = [bins["perfdriver"], "serve-skew", "--serve-bin",
           bins["contest_serve"], "--socket", sock, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if spans:
        cmd += ["--spans", str(rundir / "driver-spans.json")]
    start = time.perf_counter()
    d = driver_json(cmd)
    cycles = d["cycles"]
    if not cycles:
        # The first daemon never answered: no figure, only the failure.
        return ({}, {}, {}, d["digest"], d["attempted"], d["failed"],
                d["errors"])

    def med(key):
        return median(c[key] for c in cycles)

    def blocks(key):
        return median(v for c in cycles for v in c[key])

    e2e = {
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "cold_s": med("cold_s"),
        "op_p50_ms": blocks("warm_block_p50_ms"),
    }
    layers, detail = {}, {
        "serve_cold_rps": median(c["cold_requests"] / c["cold_s"]
                                 for c in cycles),
        "serve_warm_rps": blocks("warm_block_rps"),
    }
    if spans:
        root = spans.add("serve-skew", start, time.perf_counter())
        sub = json.loads((rundir / "driver-spans.json").read_text())["spans"]
        spans.graft(sub, root, start - spans.epoch)
        selfs = self_times(sub)

        def phase_of(i):
            while i >= 0 and not sub[i][0].startswith(("serve.cold", "serve.warm")):
                i = sub[i][3]
            return sub[i][0] if i >= 0 else ""

        def durations(name, phase):
            return [(e - s) * 1e3 for n, s, e, p in sub
                    if n == name and phase_of(p) == phase]

        wire = [selfs[i] * 1e3 for i, (n, _, _, p) in enumerate(sub)
                if n == "serve.request" and phase_of(p) == "serve.warm"]
        items = d["codec_items"]

        def codec_us(name):
            return median((e - s) * 1e6 / items for n, s, e, _ in sub if n == name)

        layers = sim_layers(med("cold_sims"),
                            [c["cold_single_run_ms"] for c in cycles],
                            [c["cold_contest_run_ms"] for c in cycles],
                            [c["cold_s"] for c in cycles])
        detail |= {
            "serve.queue_ms_p50": median(durations("serve.queue", "serve.warm")),
            "serve.run_ms_p50": median(durations("serve.run", "serve.warm")),
            "serve.wire_ms_p50": median(wire),
            "serve.cold_run_ms_p50": median(durations("serve.run", "serve.cold")),
            "serve.connect_ms_p50": median(durations("serve.connect", "serve.warm")),
            "serve.decode_us": codec_us("serve.decode"),
            "serve.parse_us": codec_us("serve.parse"),
            "serve.serialize_us": codec_us("serve.serialize"),
            "serve.admission_batches": med("admission_batches"),
            "serve.max_batch": med("max_batch"),
            "serve.warm_hits": med("warm_hits"),
            "serve.warm_phase_sims": med("warm_phase_sims"),
            "serve.open_fds_end": med("open_fds_end"),
            "serve.threads_end": med("threads_end"),
            "serve.rss_mb_end": med("rss_mb_end"),
            "serve.warm_p99_ms": blocks("warm_block_p99_ms"),
        }
    return (e2e, layers, detail, d["digest"], d["attempted"], d["failed"],
            d["errors"])


WORKLOADS = {"sim-cold": sim_cold, "suite-fast": suite_fast,
             "serve-skew": serve_skew}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bins = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # Settings travel as flags only: an inherited CONTEST_CACHE_DIR would
    # turn the cold suite warm, CONTEST_JOBS would change what is measured.
    for key in [k for k in os.environ if k.startswith("CONTEST_")]:
        del os.environ[key]

    BUILD.mkdir(exist_ok=True)
    rundir = BUILD / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    spans = Spans() if args.trace else None
    try:
        e2e, layers, detail, digest, attempted, failed, errors = WORKLOADS[
            args.workload](args, bins, rundir, spans)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for e in errors[:20]:
        log(f"perfbench: check failed: {e}")
    if spans:
        path = BUILD / "spans" / f"{args.workload}.json"
        spans.write(path)
        log(f"perfbench: {len(spans.spans)} spans in {path}")
        log("perfbench: traced end-to-end " + json.dumps(e2e))
    # Figures of this workload's own layers that not every workload has,
    # so they stay out of the result line.
    log("perfbench: layer detail " + json.dumps(detail))
    metrics = layers if args.trace else e2e
    # Every workload reports every metric of its kind in BENCHMARK.json;
    # only a run that measured nothing (its first daemon never came up)
    # reports none.
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics and set(metrics) != wanted:
        log(f"perfbench: {args.workload} measured {sorted(metrics)}, "
            f"BENCHMARK.json lists {sorted(wanted)}")
        sys.exit(3)
    print(f"digest {args.workload} seed={args.seed}: {digest}")
    print(json.dumps({
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
