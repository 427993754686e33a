#!/usr/bin/env python3
"""Trajectory gate: checks a bench's --json output against a baseline.

Every baseline in bench/baselines/ declares its gates as a list of rows,

    {"metric": "<dotted JSON path; * matches every key or index>",
     "kind": "<kind>", "value": ..., "tol": ..., "ref": "<dotted path>"}

and this script evaluates the rows against the measurement without knowing
which bench produced it.  Kinds:

  exact       every match equals value
  band        every match lies within value * (1 -/+ tol); a move past the
              side named by "better" ("higher" or "lower") only warns (it
              fails under --strict: the baseline is stale), the other fails
  max, min    every match is <= value, >= value
  equal       every match equals the ref metric
  ratio_max   every match divided by the ref metric is <= value
  log_growth  the matches grow no faster than O(log x), x being the ref
              matches: m[i] / m[i-1] <= (1 + tol) * log x[i] / log x[i-1]
  growth_min  last match / first match >= value
  nonzero     every match is nonzero
  zero        every match is zero

A list `value` pairs with the matches in order.  A metric (or ref) that
matches nothing fails: a missing section is a regression, not a pass.

Usage:
    ./build/bench_micro --json | python3 bench/check_trajectory.py
    ./build/bench_chaos --json | python3 bench/check_trajectory.py \\
        --baseline bench/baselines/chaos_overhead.json
    python3 bench/check_trajectory.py --measured out.json
    ./build/bench_micro --json | python3 bench/check_trajectory.py --update

--update re-centres the `value` of every exact and band row on the
measurement.  Caps and floors (max, min, ratio_max, growth_min) are policy,
not measurements, and stay; so do every other field and every comment.

Exit status: 0 when every row holds, 1 on a failure (or, with --strict, on
a band row that moved past its tolerance on the good side).
"""
import argparse
import json
import math
import os
import sys

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "baselines", "diff_micro.json")
KINDS = ("exact", "band", "max", "min", "equal", "ratio_max", "log_growth",
         "growth_min", "nonzero", "zero")
RECENTRED = ("exact", "band")


def resolve(doc, path):
    """[(concrete path, value)] for every match of a dotted path."""
    found = [("", doc)]
    for part in path.split("."):
        step = []
        for where, node in found:
            if isinstance(node, dict):
                keys = list(node) if part == "*" else [part] * (part in node)
            elif isinstance(node, list):
                keys = [i for i in range(len(node)) if part in ("*", str(i))]
            else:
                keys = []
            step += [("%s.%s" % (where, k) if where else str(k), node[k])
                     for k in keys]
        found = step
    return found


def evaluate(row, measured):
    """Yields (status, line) pairs, status being "ok", "warn" or "fail"."""
    kind, metric = row["kind"], row["metric"]
    if kind not in KINDS:
        yield "fail", "%s: unknown gate kind %r" % (metric, kind)
        return
    tol = float(row.get("tol", 0))
    matches = resolve(measured, metric)
    refs = resolve(measured, row["ref"]) if "ref" in row else []
    if not matches:
        yield "fail", "%s: missing from the measurement" % metric
        return
    if "ref" in row and not refs:
        yield "fail", "%s: ref %s missing from the measurement" % (metric,
                                                                  row["ref"])
        return
    got = [v for _, v in matches]

    if kind == "log_growth":
        xs = [v for _, v in refs]
        if len(xs) != len(got):
            yield "fail", "%s: %d values but %d ref points" % (metric, len(got),
                                                               len(xs))
            return
        for i in range(1, len(got)):
            allowed = (1.0 + tol) * math.log(xs[i]) / math.log(xs[i - 1])
            ratio = got[i] / got[i - 1] if got[i - 1] > 0 else float("inf")
            yield ("ok" if ratio <= allowed else "fail",
                   "%s growth %s->%s %.2fx  (O(log N) allows %.2fx)"
                   % (metric, xs[i - 1], xs[i], ratio, allowed))
        return
    if kind == "growth_min":
        if len(got) < 2:
            yield "fail", "%s: %d point(s), too few to measure growth" % (
                metric, len(got))
            return
        ratio = got[-1] / got[0] if got[0] > 0 else float("inf")
        yield ("ok" if ratio >= row["value"] else "fail",
               "%s growth %.2fx over the run  (floor %.2fx)"
               % (metric, ratio, row["value"]))
        return

    want = row.get("value")
    wants = want if isinstance(want, list) else [want] * len(got)
    if len(wants) != len(got):
        yield "fail", "%s: %d values measured, baseline lists %d" % (
            metric, len(got), len(wants))
        return
    ref = refs[0][1] if refs else None
    for (where, g), w in zip(matches, wants):
        if kind == "exact":
            yield "ok" if g == w else "fail", "%s = %s  (baseline %s, exact)" % (
                where, g, w)
        elif kind == "band":
            lo, hi = w * (1.0 - tol), w * (1.0 + tol)
            line = "%s = %s  (baseline %s, allowed [%.4g, %.4g])" % (
                where, g, w, lo, hi)
            if lo <= g <= hi:
                yield "ok", line
            elif (g > hi) == (row["better"] == "higher"):
                yield "warn", line + " - refresh the baseline (--update)"
            else:
                yield "fail", line
        elif kind in ("max", "min"):
            held = g <= w if kind == "max" else g >= w
            yield "ok" if held else "fail", "%s = %s  (%s %s)" % (
                where, g, kind, w)
        elif kind == "equal":
            yield "ok" if g == ref else "fail", "%s = %s  (%s = %s)" % (
                where, g, row["ref"], ref)
        elif kind == "ratio_max":
            ratio = g / ref if ref else float("inf")
            yield ("ok" if ratio <= w else "fail",
                   "%s / %s = %.3fx  (cap %.2fx)" % (where, row["ref"], ratio, w))
        else:  # nonzero, zero
            held = (g != 0) == (kind == "nonzero")
            yield "ok" if held else "fail", "%s = %s  (%s)" % (where, g, kind)


def recentre(row, measured):
    """--update: the row's `value` re-measured (exact and band rows only)."""
    if row["kind"] not in RECENTRED:
        return
    got = [v for _, v in resolve(measured, row["metric"])]
    got = [round(v, 2) if isinstance(v, float) else v for v in got]
    if got and isinstance(row.get("value"), list):
        row["value"] = got
    elif len(got) == 1:
        row["value"] = got[0]


def dumps(baseline):
    """indent=2 JSON, but one line per gate row: the table reads as a table."""
    body = dict(baseline, gates="@gates@")
    rows = ",\n".join("    " + json.dumps(r, ensure_ascii=False)
                       for r in baseline["gates"])
    return json.dumps(body, indent=2, ensure_ascii=False).replace(
        '"@gates@"', "[\n%s\n  ]" % rows) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="baseline JSON (default: bench/baselines/diff_micro.json)")
    ap.add_argument("--measured", default="-",
                    help="the bench's --json output (default: stdin)")
    ap.add_argument("--strict", action="store_true",
                    help="also fail when a band row moves past its tolerance "
                         "on the good side (stale baseline)")
    ap.add_argument("--update", action="store_true",
                    help="re-centre the baseline's exact and band values on "
                         "the measurement (everything else preserved)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    if args.measured == "-":
        measured = json.load(sys.stdin)
    else:
        with open(args.measured) as f:
            measured = json.load(f)

    if args.update:
        for row in baseline["gates"]:
            recentre(row, measured)
        with open(args.baseline, "w") as f:
            f.write(dumps(baseline))
        print("baseline updated: %s" % args.baseline)
        return 0

    failures, warnings = [], []
    for row in baseline["gates"]:
        for status, line in evaluate(row, measured):
            if status == "fail":
                failures.append(line)
            else:
                print("  %-4s %s" % ("ok" if status == "ok" else "WARN", line))
                if status == "warn":
                    warnings.append(line)

    # Name the gate after its baseline (diff_micro, chaos_overhead, ...):
    # one script checks every trajectory, so the banner must say which.
    gate = os.path.splitext(os.path.basename(args.baseline))[0]
    for w in warnings:
        print("WARNING: %s" % w, file=sys.stderr)
    if failures or (args.strict and warnings):
        print("\n%s trajectory check FAILED:" % gate, file=sys.stderr)
        for line in failures + (warnings if args.strict else []):
            print("  " + line, file=sys.stderr)
        print("(baseline: %s; refresh deliberately with --update)" % args.baseline,
              file=sys.stderr)
        return 1
    print("%s trajectory within tolerance of %s" % (gate, args.baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
