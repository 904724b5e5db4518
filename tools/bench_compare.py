#!/usr/bin/env python3
"""Validate and compare BENCH_*.json documents emitted by the bench harness.

Two modes:

  bench_compare.py --validate DIR
      Schema-check every BENCH_*.json under DIR.  Exits 1 on the first
      malformed document (bad JSON, missing/mistyped fields, empty rows),
      0 when all pass.  run_all_benches.sh uses this to fail loudly
      instead of archiving garbage.

  bench_compare.py BASE CAND [--tol-time F] [--advisory]
      Compare two runs.  BASE and CAND are each a BENCH_*.json file or a
      directory of them.  Rows are matched by (bench, platform, size,
      nprocs, backend); the simulator's virtual clock is deterministic,
      so by default every metric must match exactly.  --tol-time F
      allows candidate times up to F fractional slack above base (e.g.
      0.05 = 5%); byte/count metrics are always exact.  A base row with
      no candidate row fails when the candidate has other rows of that
      bench (a lost or renamed point).  Faster times, candidate-only rows
      and benches the candidate lacks altogether are reported but never
      fail (a new bench point is not a regression, and a directory run
      may cover fewer benches than the baselines).

Exit codes: 0 clean, 1 regressions (or invalid schema), 2 usage/IO error.
"""

import argparse
import json
import os
import sys

# Every row the harness's JsonReporter emits carries exactly these metrics.
TIME_METRICS = ("write_time", "read_time")
EXACT_METRICS = ("fs_bytes_written", "fs_bytes_read", "payload_bytes", "grids")
ROW_KEY = ("platform", "size", "nprocs", "backend")


def fail_usage(msg):
    print("bench_compare: error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def collect_files(path):
    """A BENCH_*.json file, or every one inside a directory (sorted)."""
    if os.path.isfile(path):
        return [path]
    if os.path.isdir(path):
        names = sorted(
            n for n in os.listdir(path)
            if n.startswith("BENCH_") and n.endswith(".json"))
        return [os.path.join(path, n) for n in names]
    fail_usage("no such file or directory: %s" % path)


def validate_doc(path, doc):
    """Return a list of schema problems (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append('missing or empty "bench" name')
    rows = doc.get("rows")
    if not isinstance(rows, list):
        return problems + ['"rows" is not an array']
    if not rows:
        problems.append('"rows" is empty')
    for i, row in enumerate(rows):
        where = "rows[%d]" % i
        if not isinstance(row, dict):
            problems.append("%s is not an object" % where)
            continue
        for k in ("platform", "size", "backend"):
            if not isinstance(row.get(k), str):
                problems.append('%s: "%s" is not a string' % (where, k))
        for k in ("nprocs",) + EXACT_METRICS:
            v = row.get(k)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                problems.append(
                    '%s: "%s" is not a non-negative integer' % (where, k))
        for k in TIME_METRICS:
            v = row.get(k)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                problems.append(
                    '%s: "%s" is not a non-negative number' % (where, k))
        if "metrics" in row and not isinstance(row["metrics"], dict):
            problems.append('%s: "metrics" is not an object' % where)
    return problems


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print("bench_compare: %s: %s" % (path, e), file=sys.stderr)
        return None


def mode_validate(directory):
    files = collect_files(directory)
    if not files:
        fail_usage("no BENCH_*.json files under %s" % directory)
    bad = 0
    for path in files:
        doc = load(path)
        problems = ["unreadable or malformed JSON"] if doc is None \
            else validate_doc(path, doc)
        if problems:
            bad += 1
            for p in problems:
                print("INVALID %s: %s" % (path, p), file=sys.stderr)
        else:
            print("ok %s (%d rows)" % (path, len(doc["rows"])))
    if bad:
        print("bench_compare: %d of %d documents invalid" % (bad, len(files)),
              file=sys.stderr)
        return 1
    return 0


def index_rows(files):
    """(bench, platform, size, nprocs, backend) -> row, across documents."""
    rows = {}
    for path in files:
        doc = load(path)
        if doc is None:
            sys.exit(2)
        problems = validate_doc(path, doc)
        if problems:
            for p in problems:
                print("INVALID %s: %s" % (path, p), file=sys.stderr)
            sys.exit(2)
        for row in doc["rows"]:
            key = (doc["bench"],) + tuple(row[k] for k in ROW_KEY)
            if key in rows:
                print("bench_compare: %s: duplicate row %s" % (path, key),
                      file=sys.stderr)
                sys.exit(2)
            rows[key] = row
    return rows


def describe(key):
    return "%s [%s %s nprocs=%s %s]" % key


def mode_compare(base_path, cand_path, tol_time, advisory):
    base = index_rows(collect_files(base_path))
    cand = index_rows(collect_files(cand_path))
    if not base or not cand:
        fail_usage("nothing to compare")

    regressions = []
    notes = []
    cand_benches = {key[0] for key in cand}
    for key in sorted(base):
        if key not in cand:
            if key[0] in cand_benches:
                regressions.append("%s: no candidate row" % describe(key))
            else:
                notes.append("only in base: %s" % describe(key))
            continue
        b, c = base[key], cand[key]
        for m in TIME_METRICS:
            bv, cv = b[m], c[m]
            if cv > bv * (1.0 + tol_time) + 1e-12:
                regressions.append(
                    "%s %s: %.6g -> %.6g (+%.2f%%, tol %.2f%%)"
                    % (describe(key), m, bv, cv,
                       100.0 * (cv - bv) / bv if bv else float("inf"),
                       100.0 * tol_time))
            elif cv < bv:
                notes.append("%s %s improved: %.6g -> %.6g"
                             % (describe(key), m, bv, cv))
        for m in EXACT_METRICS:
            if b[m] != c[m]:
                regressions.append("%s %s: %d != %d (exact metric)"
                                   % (describe(key), m, b[m], c[m]))
    for key in sorted(cand):
        if key not in base:
            notes.append("only in candidate: %s" % describe(key))

    for n in notes:
        print("note: %s" % n)
    for r in regressions:
        print("REGRESSION: %s" % r)
    matched = len(set(base) & set(cand))
    print("compared %d matching rows (%d base, %d candidate): %d regressions"
          % (matched, len(base), len(cand), len(regressions)))
    if regressions and advisory:
        print("advisory mode: regressions reported but not fatal")
        return 0
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--validate", metavar="DIR",
                    help="schema-check every BENCH_*.json under DIR")
    ap.add_argument("paths", nargs="*", metavar="BASE CAND",
                    help="two files or directories to compare")
    ap.add_argument("--tol-time", type=float, default=0.0,
                    help="fractional slack on time metrics (default 0: exact)")
    ap.add_argument("--advisory", action="store_true",
                    help="report regressions but exit 0")
    args = ap.parse_args()

    if args.validate is not None:
        if args.paths:
            fail_usage("--validate takes no positional arguments")
        sys.exit(mode_validate(args.validate))
    if len(args.paths) != 2:
        fail_usage("expected BASE and CAND (or --validate DIR)")
    if args.tol_time < 0.0:
        fail_usage("--tol-time must be >= 0")
    sys.exit(mode_compare(args.paths[0], args.paths[1],
                          args.tol_time, args.advisory))


if __name__ == "__main__":
    main()
