#!/usr/bin/env python3
"""Repository benchmark runner (Python standard library only).

Builds nowbench/now_bench from the checkout's sources and runs it, one
workload per process.  Run from the root of a checkout:

  python3 nowbench/run_benchmark.py measure --workload W --seed N --seconds S --trace 0|1
      One run of one workload.  The last line of stdout is one JSON object:
      {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
      with every end-to-end metric of BENCHMARK.json (--trace 0) or every
      per-layer metric (--trace 1).
  python3 nowbench/run_benchmark.py run [--label L] [--seed N] [--seconds S]
      Every workload, each in its own process; writes nowbench/out/results.L.json.
  python3 nowbench/run_benchmark.py compare A.json B.json
      One row per workload and metric: medians, quartiles, change against the
      BENCHMARK.json bound, verdict ok / worse / unresolved.  A file may be a
      baseline file with the set's index appended: baselines/benchmark.json#0.
  python3 nowbench/run_benchmark.py aa [--seed N]
      Two runs of the same commit plus compare; exits 1 on any "worse".
  python3 nowbench/run_benchmark.py trace [--seed N]
      The traced run of every workload: nowbench/out/trace.W.json (Chrome
      trace events) and nowbench/out/summary.W.json.
  python3 nowbench/run_benchmark.py selfcheck
      Runs bulk-pages under hostile TMK_* settings and under a clean
      environment and checks that the measured traffic is identical.
  python3 nowbench/run_benchmark.py baseline OUT.json RESULTS.json...
      Merges result files into one baseline file with their A/A spreads.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD_DIR / "now_bench"
SPEC_FILE = ROOT / "BENCHMARK.json"

# Which end-to-end metric, on which workload, each per-layer metric should
# move (matched by longest name prefix).  An empty "moves" marks a reference
# number with no end-to-end metric attached.
LAYER_MAP = [
    ("apps.seq_s", "apps", "wall_s", "all"),
    ("apps.tmk_s", "apps", "wall_s", "all"),
    ("apps.omp_s", "apps", "wall_s", "all"),
    ("apps.mpi_s", "apps", "wall_s", "bulk-pages, migratory-locks, task-queue"),
    ("apps.speedup_", "apps", "", "Figure 5 at cpu_scale 150, reported, not gated"),
    ("apps.omp_over_tmk", "apps", "", "Figure 5 at cpu_scale 150, reported, not gated"),
    ("omp.fork_join", "omp", "wall_s, proto_ms_omp", "bulk-pages (little on migratory-locks)"),
    ("tmk.fault.remote_read", "tmk.fault", "wall_s", "migratory-locks, bulk-pages"),
    ("tmk.fault.prefetched_read", "tmk.fault", "wall_s", "bulk-pages"),
    ("tmk.fault.twin_write", "tmk.fault", "wall_s", "task-queue"),
    ("tmk.fault.", "tmk.fault", "msgs", "bulk-pages"),
    ("tmk.diff.", "tmk.diff", "wall_s", "task-queue, bulk-pages"),
    ("tmk.intervals.merge_delta", "tmk.intervals", "wall_s", "migratory-locks"),
    ("tmk.sync.barrier8", "tmk.sync", "", "Section 6 reference (8 nodes)"),
    ("tmk.sync.barrier_", "tmk.sync", "proto_ms_tmk, proto_ms_omp", "bulk-pages"),
    ("tmk.sync.lock_remote", "tmk.sync", "wall_s, proto_ms_tmk",
     "migratory-locks (predicted zero change on bulk-pages: FFT takes no locks)"),
    ("tmk.sync.sema_pair", "tmk.sync", "wall_s, proto_ms_tmk", "bulk-pages (Sweep3D pipeline)"),
    ("tmk.sync.cond_pair", "tmk.sync", "wall_s", "task-queue"),
    ("tmk.sync.", "tmk.sync", "msgs", "migratory-locks, task-queue"),
    ("tmk.gc.", "tmk.gc", "peak_rss_mb", "bulk-pages"),
    ("tmk.runtime.setup_ms", "tmk.runtime", "setup_s", "all"),
    ("simnet.mailbox.hop", "simnet", "wall_s", "migratory-locks"),
    ("simnet.network.send", "simnet", "wall_s", "all"),
    ("simnet.channel.send", "simnet", "wall_s", "lossy-wire"),
    ("simnet.channel.", "simnet", "wall_s, msgs", "lossy-wire (zero elsewhere)"),
    ("simnet.msgs.", "simnet", "msgs", "all"),
    ("mpi.", "mpi", "", "the paper's reference point"),
    ("trace_overhead_frac", "trace", "", "cost of the spans themselves"),
]


def die(msg, code=2):
    print(f"run_benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    if not SPEC_FILE.is_file():
        die(f"{SPEC_FILE.name} not found at the checkout root")
    return json.loads(SPEC_FILE.read_text())


def build():
    if not (ROOT / "src" / "tmk" / "runtime.h").is_file():
        die("no simulator sources (src/) in this checkout; nothing to benchmark")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, timeout=300).returncode:
            die("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr, timeout=850).returncode:
        die("build failed", 1)


def run_now_bench(workload, seed, seconds, trace_dir=None, env=None):
    """One now_bench process; returns its JSON report."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        die(f"{workload}: now_bench timed out", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        die(f"{workload}: now_bench exited with {proc.returncode}", 1)
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def end_to_end(report, spec):
    """Per metric: value (median of the run's samples), n and quartiles."""
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = [report["peak_rss_mb"]] if name == "peak_rss_mb" else report["samples"][name]
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "unit": m["unit"], "n": len(values), "q1": q1, "q3": q3}
    return out


def per_layer(report, spec):
    values = report["per_layer"]
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
    if missing:
        die(f"now_bench did not report per-layer metrics {missing}", 1)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def layer_entry(name):
    best = max((row for row in LAYER_MAP if name.startswith(row[0])),
               key=lambda row: len(row[0]))
    return {"layer": best[1], "moves": best[2], "workloads": best[3]}


def estimated_split(pl, nodes):
    """Host seconds of the traced pass's DSM runs, split by layer as the
    pass's counts times the probes' median costs.  An estimate: spans stop at
    the benchmark's calls into src/, so nothing inside a run is timed."""
    def us(name):
        return pl[name] / 1e6
    split = {
        "fault round trips (diff_fetches x remote_read_us)":
            pl["tmk.fault.diff_fetches"] * us("tmk.fault.remote_read_us.p50"),
        "twin writes (write_faults x twin_write_us)":
            pl["tmk.fault.write_faults"] * us("tmk.fault.twin_write_us.p50"),
        "diff creation (created x create_ns.dense)":
            pl["tmk.diff.created"] * pl["tmk.diff.create_ns.dense.p50"] / 1e9,
        "barriers (barriers x barrier_us)":
            pl["tmk.sync.barriers"] * us("tmk.sync.barrier_us.p50"),
        "remote lock acquires (uncached acquires x lock_remote_us)":
            pl["tmk.sync.lock_acquires"] * (1 - pl["tmk.sync.lock_cached_frac"])
            * us("tmk.sync.lock_remote_us.p50"),
        "semaphore handoffs (sema_ops / 2 x sema_pair_us)":
            pl["tmk.sync.sema_ops"] / 2 * us("tmk.sync.sema_pair_us.p50"),
        "condvar handoffs (cond_ops x cond_pair_us)":
            pl["tmk.sync.cond_ops"] * us("tmk.sync.cond_pair_us.p50"),
        "fork/join (joins / slaves x fork_join_us)":
            pl["simnet.msgs.join"] / (nodes - 1) * us("omp.fork_join_us.p50"),
    }
    split["sum of the above"] = sum(split.values())
    split["measured (apps.tmk_s + apps.omp_s)"] = pl["apps.tmk_s"] + pl["apps.omp_s"]
    return split


def write_summary(report, spec):
    summary = {
        "workload": report["workload"],
        "seed": report["seed"],
        "trace_file": report["trace_file"],
        "spans": report["spans"],
        "metrics": {m["name"]: dict(value=report["per_layer"][m["name"]], unit=m["unit"],
                                    **layer_entry(m["name"]))
                    for m in spec["per_layer"]},
        "probes": report["probes"],
        "section6": report["section6"],
        "speedups": report["speedups"],
        "estimated_split_s": estimated_split(report["per_layer"], report["nodes"]),
    }
    path = OUT_DIR / f"summary.{report['workload']}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    return path


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def cmd_measure(args):
    spec = load_spec()
    if args.workload not in workload_names(spec):
        die(f"unknown workload {args.workload!r}")
    build()
    traced = args.trace == 1
    report = run_now_bench(args.workload, args.seed, args.seconds or spec["run_seconds"],
                           OUT_DIR if traced else None)
    if traced:
        metrics = per_layer(report, spec)
        print(f"summary: {write_summary(report, spec)}")
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in end_to_end(report, spec).items()}
        print(f"{args.workload}: {report['passes']} passes in {report['timed_s']:.1f} s")
    attempted, failed = int(report["attempted"]), int(report["failed"])
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def git_sha():
    """HEAD of the checkout, with "+dirty" when files differ from it."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    if head.returncode:
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def compiler():
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            exe = line.split("=", 1)[1]
            r = subprocess.run([exe, "--version"], capture_output=True, text=True)
            return r.stdout.splitlines()[0] if r.stdout else exe
    return "unknown"


def run_set(spec, label, seed, seconds):
    build()
    result = {"label": label, "seed": seed, "run_seconds": seconds, "git_sha": git_sha(),
              "nproc": os.cpu_count(), "compiler": compiler(), "workloads": {}}
    for name in workload_names(spec):
        report = run_now_bench(name, seed, seconds)
        metrics = end_to_end(report, spec)
        metrics["failed_frac"] = {"value": report["failed"] / report["attempted"],
                                  "unit": "ratio", "n": 1}
        result["workloads"][name] = {
            "attempted": report["attempted"], "failed": report["failed"],
            "passes": report["passes"], "config": report["config"], "metrics": metrics,
            "raw_samples": report["samples"],
        }
        print(f"{label} {name}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in metrics.items()), file=sys.stderr)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"results.{label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return result


def cmd_run(args):
    spec = load_spec()
    run_set(spec, args.label, args.seed, args.seconds or spec["run_seconds"])


def rel_iqr(m):
    return (m["q3"] - m["q1"]) / m["value"] if m.get("n", 1) >= 2 and m["value"] else 0.0


def compare(spec, a, b):
    """Prints the comparison table; returns the number of "worse" verdicts."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bounds["failed_frac"] = (0.0, "lower")
    worse = 0
    print(f"{'workload':16} {'metric':13} {'A median':>11} {'A q1..q3':>23} "
          f"{'B median':>11} {'B q1..q3':>23} {'change':>8} {'bound':>6}  verdict")
    for w in workload_names(spec):
        ma, mb = a["workloads"][w]["metrics"], b["workloads"][w]["metrics"]
        for name, (bound, better) in bounds.items():
            x, y = ma[name], mb[name]
            if x["value"]:
                change = (y["value"] - x["value"]) / x["value"]
            else:
                change = 0.0 if y["value"] == x["value"] else float("inf")
            if better == "higher":
                change = -change
            if change > bound:
                verdict = "worse"
            elif max(rel_iqr(x), rel_iqr(y)) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            if name == "failed_frac" and y["value"] > x["value"]:
                verdict = "worse"
            worse += verdict == "worse"

            def span(m):
                return f"{m.get('q1', m['value']):.4g}..{m.get('q3', m['value']):.4g}"
            print(f"{w:16} {name:13} {x['value']:11.5g} {span(x):>23} {y['value']:11.5g} "
                  f"{span(y):>23} {change:+8.2%} {bound:6.0%}  {verdict}")
    return worse


def load_results(arg):
    """A results file, or one set of a baseline file written as FILE#INDEX."""
    path, _, index = arg.partition("#")
    data = json.loads(Path(path).read_text())
    return data["sets"][int(index or 0)] if "sets" in data else data


def cmd_compare(args):
    spec = load_spec()
    sys.exit(1 if compare(spec, load_results(args.a), load_results(args.b)) else 0)


def cmd_aa(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    a = run_set(spec, "aa1", args.seed, seconds)
    b = run_set(spec, "aa2", args.seed, seconds)
    sys.exit(1 if compare(spec, a, b) else 0)


def cmd_trace(args):
    spec = load_spec()
    build()
    for name in workload_names(spec):
        report = run_now_bench(name, args.seed, spec["run_seconds"], OUT_DIR)
        per_layer(report, spec)
        path = write_summary(report, spec)
        print(f"{name}: {report['trace_file']}, {path}, "
              f"trace_overhead_frac={report['per_layer']['trace_overhead_frac']:+.3f}")


def cmd_selfcheck(args):
    spec = load_spec()
    build()
    hostile = dict(os.environ, TMK_PREFETCH_PAGES="16", TMK_UPDATE_MODE="1",
                   TMK_BARRIER_ARITY="2", TMK_NET_DROP_PPM="10000")
    clean = {k: v for k, v in os.environ.items() if not k.startswith("TMK_")}
    runs = {label: run_now_bench("bulk-pages", 1, args.seconds, env=env)
            for label, env in (("hostile", hostile), ("clean", clean))}
    h, c = runs["hostile"], runs["clean"]
    ok = h["config"] == c["config"]
    print(f"resolved config identical: {ok}")
    for name in ("msgs", "wire_mb"):
        same = set(h["samples"][name]) == set(c["samples"][name]) and len(set(c["samples"][name])) == 1
        print(f"{name}: hostile {sorted(set(h['samples'][name]))} clean "
              f"{sorted(set(c['samples'][name]))} identical: {same}")
        ok &= same
    # Virtual completion time is not bit-repeatable (the compute and service
    # threads race on one clock), so it is compared to within 2%.
    th, tc = (statistics.median(r["samples"]["proto_ms_tmk"]) for r in (h, c))
    close = abs(th - tc) <= 0.02 * tc
    print(f"proto_ms_tmk median: hostile {th:.3f} clean {tc:.3f} within 2%: {close}")
    ok &= close
    print("selfcheck " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def cmd_baseline(args):
    spec = load_spec()
    sets = [json.loads(Path(p).read_text()) for p in args.results]
    for s in sets:
        for w in s["workloads"].values():
            w.pop("raw_samples", None)
    spread = {}
    same_seed = [s for s in sets if s["seed"] == sets[0]["seed"]]
    if len(same_seed) >= 2:
        a, b = same_seed[0], same_seed[1]
        for w in workload_names(spec):
            spread[w] = {}
            for m in spec["end_to_end"]:
                x = a["workloads"][w]["metrics"][m["name"]]["value"]
                y = b["workloads"][w]["metrics"][m["name"]]["value"]
                spread[w][m["name"]] = abs(y - x) / x if x else 0.0
    out = {"bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
           "aa_spread": spread, "sets": sets}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")


def main():
    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # now_bench or build child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("measure", help="one run of one workload (BENCHMARK.json's command)")
    m.add_argument("--workload", required=True)
    m.add_argument("--seed", type=int, default=1)
    m.add_argument("--seconds", type=int, default=None)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.set_defaults(fn=cmd_measure)

    r = sub.add_parser("run", help="every workload, one process each")
    r.add_argument("--label", default="run")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=None)
    r.set_defaults(fn=cmd_run)

    c = sub.add_parser("compare", help="compare two results files")
    c.add_argument("a", help="results file, or baseline file#set-index")
    c.add_argument("b", help="results file, or baseline file#set-index")
    c.set_defaults(fn=cmd_compare)

    a = sub.add_parser("aa", help="two runs of this commit, then compare")
    a.add_argument("--seed", type=int, default=1)
    a.add_argument("--seconds", type=int, default=None)
    a.set_defaults(fn=cmd_aa)

    t = sub.add_parser("trace", help="traced run of every workload")
    t.add_argument("--seed", type=int, default=1)
    t.set_defaults(fn=cmd_trace)

    s = sub.add_parser("selfcheck", help="prove TMK_* env cannot change the measurement")
    s.add_argument("--seconds", type=int, default=3)
    s.set_defaults(fn=cmd_selfcheck)

    b = sub.add_parser("baseline", help="merge results files into a baseline")
    b.add_argument("out")
    b.add_argument("results", nargs="+")
    b.set_defaults(fn=cmd_baseline)

    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
