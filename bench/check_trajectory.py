#!/usr/bin/env python3
"""Perf-trajectory gate for the diff engine.

Compares `bench_micro --json` output against the checked-in baseline
(bench/baselines/diff_micro.json) and fails loudly when the fast/scalar
speedup ratio of any case regresses past its tolerance.  The ratio — not the
absolute MB/s — is gated: the scalar reference oracle is built from the same
tree with the same flags, so it normalizes the CI runner's CPU out of the
measurement, and a slowdown in diff_create drops the ratio on every machine.

Usage:
    ./build/bench_micro --json | python3 bench/check_trajectory.py
    python3 bench/check_trajectory.py --measured out.json
    ./build/bench_micro --json | python3 bench/check_trajectory.py --update

Exit status: 0 when every case is within tolerance, 1 on regression (or,
with --strict, on a suspicious improvement that suggests the scalar oracle
regressed or the baseline is stale).
"""
import argparse
import json
import math
import os
import sys

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "baselines", "diff_micro.json")


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="baseline JSON (default: bench/baselines/diff_micro.json)")
    ap.add_argument("--measured", default="-",
                    help="bench_micro --json output (default: stdin)")
    ap.add_argument("--strict", action="store_true",
                    help="also fail when a case improves past its tolerance "
                         "(stale baseline, or the scalar oracle regressed)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline's speedups from the measurement "
                         "(tolerances and comments preserved)")
    args = ap.parse_args()

    baseline = load(args.baseline)
    measured = json.load(sys.stdin) if args.measured == "-" else load(args.measured)

    failures, warnings = [], []

    if measured.get("page_size") != baseline.get("page_size"):
        failures.append("page_size mismatch: measured %s, baseline %s — "
                        "the per-iteration work changed; refresh the baseline "
                        "deliberately" % (measured.get("page_size"),
                                          baseline.get("page_size")))

    cases = measured.get("diff_create_mbps", {})
    default_tol = float(baseline.get("default_tolerance", 0.25))
    for name, base_case in baseline.get("cases", {}).items():
        if name not in cases:
            failures.append("case %r missing from bench_micro output" % name)
            continue
        got = float(cases[name]["speedup"])
        want = float(base_case["speedup"])
        tol = float(base_case.get("tolerance", default_tol))
        lo, hi = want * (1.0 - tol), want * (1.0 + tol)
        line = "%-14s speedup %6.2fx  (baseline %.2fx, allowed [%.2f, %.2f])" % (
            name, got, want, lo, hi)
        if got < lo:
            failures.append("REGRESSION: " + line)
        elif got > hi:
            warnings.append("improved past tolerance: " + line +
                            " — refresh the baseline (--update)")
            print("  WARN " + line)
        else:
            print("  ok   " + line)

    for name in cases:
        if name not in baseline.get("cases", {}):
            warnings.append("case %r measured but not in the baseline; add it" % name)

    # Protocol push-vs-pull ratios, gated the same way (separate sections
    # because the metrics are flat numbers, not scalar/fast pairs):
    #  - update_push: the adaptive update protocol's producer-consumer win,
    #    virtual-time counts that are deterministic by construction;
    #  - lock_push: the migratory lock-grant chain's round-robin bound
    #    update, normalized per lock handoff (handoff counts vary a little
    #    with host scheduling, the per-handoff costs do not).
    for section in ("update_push", "lock_push"):
        sec_measured = measured.get(section, {})
        for name, base_case in baseline.get(section, {}).items():
            if name not in sec_measured:
                failures.append("%s metric %r missing from bench_micro output"
                                % (section, name))
                continue
            got = float(sec_measured[name])
            want = float(base_case["value"])
            tol = float(base_case.get("tolerance", default_tol))
            lo, hi = want * (1.0 - tol), want * (1.0 + tol)
            line = "%s %-18s %6.2fx  (baseline %.2fx, allowed [%.2f, %.2f])" % (
                section.split("_")[0], name, got, want, lo, hi)
            if got < lo:
                failures.append("REGRESSION: " + line)
            elif got > hi:
                warnings.append("improved past tolerance: " + line +
                                " — refresh the baseline (--update)")
                print("  WARN " + line)
            else:
                print("  ok   " + line)

    # Sync-fabric scaling: per-node per-barrier fabric message load by node
    # count, from `bench_scaling --json` against baselines/sync_scaling.json.
    # These are deterministic virtual-network counts, so two gates apply:
    #  - absolute: per_node_max at every node count within tolerance
    #    (exceeding it is a regression — message load only gets gated up);
    #  - growth: a fabric marked log_growth must not grow faster than
    #    O(log N) between consecutive points, i.e. the measured ratio
    #    m(N2)/m(N1) must stay within (1+tol) of log(N2)/log(N1).  The
    #    centralized fabric (2N+2 at the root) fails this by an order of
    #    magnitude, which is exactly the check's calibration.
    sync_base = (baseline.get("sync_scaling") or {}).get("fabrics", {})
    sync_meas = (measured.get("sync_scaling") or {}).get("fabrics", {})
    for fname, fbase in sync_base.items():
        if fname not in sync_meas:
            failures.append("sync fabric %r missing from bench_scaling output"
                            % fname)
            continue
        meas_pts = {int(p["nodes"]): p for p in sync_meas[fname].get("points", [])}
        tol = float(fbase.get("tolerance", baseline.get("default_tolerance", 0.25)))
        prev = None  # (nodes, measured per_node_max)
        for bp in fbase.get("points", []):
            n = int(bp["nodes"])
            if n not in meas_pts:
                failures.append("sync fabric %r: node count %d missing from "
                                "bench_scaling output" % (fname, n))
                continue
            got = float(meas_pts[n]["per_node_max"])
            want = float(bp["per_node_max"])
            lo, hi = want * (1.0 - tol), want * (1.0 + tol)
            line = "%-12s n=%-4d per-node msgs/barrier %7.1f  (baseline %.1f, " \
                   "allowed [%.1f, %.1f])" % (fname, n, got, want, lo, hi)
            if got > hi:
                failures.append("REGRESSION: " + line)
            elif got < lo:
                warnings.append("improved past tolerance: " + line +
                                " — refresh the baseline (--update)")
                print("  WARN " + line)
            else:
                print("  ok   " + line)
            if fbase.get("log_growth") and prev is not None:
                pn, pgot = prev
                allowed = (math.log(n) / math.log(pn)) * (1.0 + tol)
                ratio = got / pgot if pgot > 0 else float("inf")
                gline = "%-12s n=%d->%d growth %5.2fx  (O(log N) allows %.2fx)" % (
                    fname, pn, n, ratio, allowed)
                if ratio > allowed:
                    failures.append("SUPER-LOGARITHMIC GROWTH: " + gline)
                else:
                    print("  ok   " + gline)
            prev = (n, got)

    # Run-forever soak: per-node meta-footprint samples from `bench_soak
    # --json` against baselines/soak_footprint.json.  Two gates:
    #  - plateau (the regression gate): with the ceiling on, every sample's
    #    max-over-nodes footprint stays under plateau_max_bytes, absolutely —
    #    an on-demand GC that stops firing turns the plateau back into the
    #    ceiling_off line and fails here;
    #  - calibration: the ceiling_off curve must still grow by at least
    #    min_off_growth over the run, or the workload no longer leaks
    #    without the ceiling and the plateau gate proves nothing.
    soak_base = baseline.get("soak_footprint") or {}
    soak_meas = measured.get("soak_footprint") or {}
    if soak_base:
        if not soak_meas:
            failures.append("soak_footprint section missing from bench_soak output")
        elif int(soak_meas.get("ceiling_bytes", -1)) != int(soak_base["ceiling_bytes"]):
            failures.append("soak ceiling mismatch: measured %s, baseline %s — "
                            "the bounded quantity changed; refresh the baseline "
                            "deliberately" % (soak_meas.get("ceiling_bytes"),
                                              soak_base["ceiling_bytes"]))
        else:
            cap = float(soak_base["plateau_max_bytes"])
            modes = soak_meas.get("modes", {})
            on_pts = (modes.get("ceiling_on") or {}).get("points", [])
            off_pts = (modes.get("ceiling_off") or {}).get("points", [])
            if not on_pts:
                failures.append("soak ceiling_on curve empty")
            for p in on_pts:
                got = float(p["max_node_bytes"])
                line = "soak epoch %-5d max node bytes %8.0f  (plateau cap %.0f)" % (
                    int(p["epoch"]), got, cap)
                if got > cap:
                    failures.append("PLATEAU REGRESSION: " + line)
                else:
                    print("  ok   " + line)
            if not (modes.get("ceiling_on") or {}).get("gc_exchanges", 0):
                failures.append("soak ceiling_on run performed no GC exchanges "
                                "— the ceiling is inert")
            min_growth = float(soak_base.get("min_off_growth", 2.0))
            if len(off_pts) >= 2:
                first = float(off_pts[0]["max_node_bytes"])
                last = float(off_pts[-1]["max_node_bytes"])
                ratio = last / first if first > 0 else float("inf")
                gline = "soak ceiling_off growth %5.2fx over the run " \
                        "(calibration floor %.2fx)" % (ratio, min_growth)
                if ratio < min_growth:
                    failures.append("VACUOUS PLATEAU GATE: " + gline)
                else:
                    print("  ok   " + gline)
            elif soak_meas:
                failures.append("soak ceiling_off curve missing or too short "
                                "to calibrate the gate")

    # Lossy-wire overhead: `bench_chaos --json` against
    # baselines/chaos_overhead.json.  Three gates:
    #  - identity: the off leg (channel disabled) must match the baseline
    #    *exactly* — message count, payload bytes, wire bytes, checksum.
    #    With every knob off the wire must be the pre-chaos wire, bit for
    #    bit, and any drift is an accidental default flip somewhere;
    #  - byte equality: every leg's checksum must equal the off leg's —
    #    exactly-once delivery may cost bytes, never change them;
    #  - overhead caps: reliable (clean wire) and drop1 (1% loss) wire
    #    bytes stay under their configured multiples of the off leg.
    chaos_base = baseline.get("chaos_overhead") or {}
    chaos_meas = (measured.get("chaos_overhead") or {}).get("legs", {})
    if chaos_base:
        if not chaos_meas:
            failures.append("chaos_overhead section missing from bench_chaos output")
        else:
            off_base = chaos_base.get("off", {})
            off_meas = chaos_meas.get("off", {})
            for field in ("messages", "payload_bytes", "wire_bytes", "checksum"):
                got, want = off_meas.get(field), off_base.get(field)
                line = "chaos off %-13s %20s  (baseline %s, exact)" % (
                    field, got, want)
                if got != want:
                    failures.append("KNOBS-OFF WIRE DRIFT: " + line)
                else:
                    print("  ok   " + line)
            for field in ("retransmits", "acks_sent", "ack_requests"):
                if int(off_meas.get(field, 0)) != 0:
                    failures.append("chaos off leg has nonzero %s — the channel "
                                    "ran with every knob off" % field)
            off_sum = off_meas.get("checksum")
            off_wire = float(off_meas.get("wire_bytes", 0) or 1)
            for leg, r in chaos_meas.items():
                if leg == "off":
                    continue
                if r.get("checksum") != off_sum:
                    failures.append("BYTE DIVERGENCE: chaos leg %r checksum %s "
                                    "!= off leg %s" % (leg, r.get("checksum"),
                                                       off_sum))
                else:
                    print("  ok   chaos %-9s checksum matches the perfect wire"
                          % leg)
            for leg, cap_key in (("reliable", "max_reliable_wire_ratio"),
                                 ("drop1", "max_drop_wire_ratio")):
                if leg not in chaos_meas:
                    failures.append("chaos leg %r missing from bench_chaos output"
                                    % leg)
                    continue
                cap = float(chaos_base.get(cap_key, 1.5))
                ratio = float(chaos_meas[leg]["wire_bytes"]) / off_wire
                line = "chaos %-9s wire overhead %5.3fx  (cap %.2fx)" % (
                    leg, ratio, cap)
                if ratio > cap:
                    failures.append("RETRANSMIT OVERHEAD REGRESSION: " + line)
                else:
                    print("  ok   " + line)
            if "drop1" in chaos_meas and \
                    int(chaos_meas["drop1"].get("retransmits", 0)) == 0:
                failures.append("chaos drop1 leg recovered nothing — the fault "
                                "injector is inert and the overhead gate vacuous")

    # Checkpoint/rollback overhead: `bench_crash_recovery --json` against
    # baselines/crash_recovery.json.  Three gates:
    #  - identity: the off leg (ckpt + crash knobs at rest) must match the
    #    baseline exactly — the recovery machinery must cost zero bytes when
    #    disarmed;
    #  - checkpoint overhead: the ckpt leg must reproduce the off leg's
    #    checksum, bank durable epochs, and keep its wire bytes under the
    #    configured multiple of the off leg's (the staging/commit rounds are
    #    the only addition, and they are cheap);
    #  - recovery: the crash leg must report completed with >= 1 rollback and
    #    the same checksum — a crash mid-run costs epochs, never bytes.
    crash_base = baseline.get("crash_recovery") or {}
    crash_meas = (measured.get("crash_recovery") or {}).get("legs", {})
    if crash_base:
        if not crash_meas:
            failures.append("crash_recovery section missing from "
                            "bench_crash_recovery output")
        else:
            off_base = crash_base.get("off", {})
            off_meas = crash_meas.get("off", {})
            for field in ("messages", "payload_bytes", "wire_bytes", "checksum"):
                got, want = off_meas.get(field), off_base.get(field)
                line = "ckpt off %-13s %20s  (baseline %s, exact)" % (
                    field, got, want)
                if got != want:
                    failures.append("KNOBS-OFF WIRE DRIFT: " + line)
                else:
                    print("  ok   " + line)
            for field in ("ckpt_epochs", "recoveries"):
                if int(off_meas.get(field, 0)) != 0:
                    failures.append("ckpt off leg has nonzero %s — the recovery "
                                    "machinery ran with every knob off" % field)
            off_sum = off_meas.get("checksum")
            off_wire = float(off_meas.get("wire_bytes", 0) or 1)
            for leg in ("ckpt", "crash"):
                r = crash_meas.get(leg)
                if r is None:
                    failures.append("crash_recovery leg %r missing from "
                                    "bench_crash_recovery output" % leg)
                    continue
                if not int(r.get("completed", 0)):
                    failures.append("crash_recovery leg %r did not complete" % leg)
                if r.get("checksum") != off_sum:
                    failures.append("BYTE DIVERGENCE: crash_recovery leg %r "
                                    "checksum %s != off leg %s"
                                    % (leg, r.get("checksum"), off_sum))
                else:
                    print("  ok   ckpt %-6s checksum matches the knobs-off run"
                          % leg)
            if "ckpt" in crash_meas:
                if int(crash_meas["ckpt"].get("ckpt_epochs", 0)) == 0:
                    failures.append("ckpt leg banked no durable epochs — the "
                                    "checkpoint pass is inert and the overhead "
                                    "gate vacuous")
                cap = float(crash_base.get("max_ckpt_wire_ratio", 1.25))
                ratio = float(crash_meas["ckpt"]["wire_bytes"]) / off_wire
                line = "ckpt overhead %5.3fx wire  (cap %.2fx)" % (ratio, cap)
                if ratio > cap:
                    failures.append("CHECKPOINT OVERHEAD REGRESSION: " + line)
                else:
                    print("  ok   " + line)
            if "crash" in crash_meas and \
                    int(crash_meas["crash"].get("recoveries", 0)) == 0:
                failures.append("crash leg performed no recovery — the scripted "
                                "crash is inert and the rollback gate vacuous")

    if args.update:
        if crash_base and crash_meas and "off" in crash_meas:
            for field in ("messages", "payload_bytes", "wire_bytes", "checksum"):
                crash_base.setdefault("off", {})[field] = \
                    crash_meas["off"].get(field)
        if chaos_base and chaos_meas and "off" in chaos_meas:
            for field in ("messages", "payload_bytes", "wire_bytes", "checksum"):
                chaos_base.setdefault("off", {})[field] = \
                    chaos_meas["off"].get(field)
        if soak_base and soak_meas:
            on_pts = (soak_meas.get("modes", {}).get("ceiling_on") or {}).get(
                "points", [])
            if on_pts:
                peak = max(float(p["max_node_bytes"]) for p in on_pts)
                soak_base["plateau_max_bytes"] = int(peak * 2)
            soak_base["ceiling_bytes"] = soak_meas.get(
                "ceiling_bytes", soak_base.get("ceiling_bytes"))
        for name, base_case in baseline.get("cases", {}).items():
            if name in cases:
                base_case["speedup"] = round(float(cases[name]["speedup"]), 2)
        for section in ("update_push", "lock_push"):
            sec_measured = measured.get(section, {})
            for name, base_case in baseline.get(section, {}).items():
                if name in sec_measured:
                    base_case["value"] = round(float(sec_measured[name]), 2)
        for fname, fbase in sync_base.items():
            meas_pts = {int(p["nodes"]): p
                        for p in sync_meas.get(fname, {}).get("points", [])}
            for bp in fbase.get("points", []):
                if int(bp["nodes"]) in meas_pts:
                    bp["per_node_max"] = meas_pts[int(bp["nodes"])]["per_node_max"]
        if "page_size" in measured or "page_size" in baseline:
            baseline["page_size"] = measured.get("page_size",
                                                 baseline.get("page_size"))
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print("baseline updated: %s" % args.baseline)
        return 0

    # Name the gate after its baseline (diff_micro, chaos_overhead, ...):
    # one script checks every trajectory, so the banner must say which.
    gate = os.path.splitext(os.path.basename(args.baseline))[0]
    for w in warnings:
        print("WARNING: %s" % w, file=sys.stderr)
    if failures or (args.strict and warnings):
        print("\n%s trajectory check FAILED:" % gate, file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        if args.strict:
            for w in warnings:
                print("  " + w, file=sys.stderr)
        print("(baseline: %s; refresh deliberately with --update)" % args.baseline,
              file=sys.stderr)
        return 1
    print("%s trajectory within tolerance of %s" % (gate, args.baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
