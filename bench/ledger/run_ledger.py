#!/usr/bin/env python3
"""Perf ledger driver: builds bench_ledger, runs its workloads, prints metrics.

One benchmark run (the contract BENCHMARK.json names):
    run_ledger.py --workload W --seed S --seconds T --trace 0|1
  builds the ledger if needed, runs workload W for about T seconds, prints one
  `workload metric value unit` row per metric and, as the last line, the JSON
  result {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
  end-to-end metrics, --trace 1 the per-layer ones.

The ledger (every workload, both clocks, every layer):
    run_ledger.py --seed S --runs R [--build DIR] [--json OUT]
  runs each workload R times untraced, alternating the workload order, then
  once traced.  Host metrics print as median [q1, q3] over the R runs; virtual
  metrics must be identical in every run and in the traced run.

    run_ledger.py --compare A.json B.json
  exits nonzero unless two ledgers agree: host metrics within BENCHMARK.json's
  bound per (workload, metric), virtual metrics identical.

    run_ledger.py --smoke --binary PATH
  all four workloads at smoke scale, traced, oracle checks on, output
  validated (the ledger_smoke test).

The build goes to DIR/ledger, where DIR is --build, else $CARGO_TARGET_DIR,
else .bench_build.  PARAMRIO_SCHED_SEED and PARAMRIO_SIM_ENGINE are removed
from the child environment.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}
# Exact for a fixed seed; everything else is measured on the host.
VIRTUAL = {"dump_s", "restart_s", "query_p99_ms", "query_MBps"}
# The timed phases' host time: printed by the ledger beside the end-to-end
# metrics, but per-layer in BENCHMARK.json (no bound) because host-speed
# swings of this size between runs would break any bound it could have.
LEDGER_ROWS = ([(n, m["unit"]) for n, m in END_TO_END.items()] +
               [("host_s", "s")])
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env.pop("PARAMRIO_SCHED_SEED", None)
    env.pop("PARAMRIO_SIM_ENGINE", None)
    return env


def build(build_root):
    build_dir = Path(build_root).resolve() / "ledger"
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return build_dir


def build_info(build_dir):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {"nproc": os.cpu_count(),
            "compiler": version[0] if version else compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         env=child_env(), timeout=RUN_TIMEOUT_S)
    return json.loads(out.stdout)


def correct(res):
    return res["failed"] == 0 and not res["errors"]


def fmt(v):
    return f"{v:.6g}"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def check_values(res, wanted, source):
    """Names of `wanted` metrics missing from res[source] or not finite."""
    got = res.get(source, {})
    return [n for n in wanted
            if n not in got or not math.isfinite(got[n])]


# ---- one benchmark run ------------------------------------------------------

def single_run(args):
    binary = build(args.build) / "bench_ledger"
    trace = args.trace == 1
    res = run_binary(binary, args.workload, args.seed, args.seconds, trace)
    wanted, source = (PER_LAYER, "layers") if trace else (END_TO_END, "metrics")
    missing = check_values(res, wanted, source)
    if missing:
        log("bench_ledger did not report:", ", ".join(missing))
        return 1
    for err in res["errors"]:
        log("error:", err)
    metrics = {}
    for name, spec in wanted.items():
        value = res[source][name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload} {name} {fmt(value)} {spec['unit']}")
    ok = correct(res)
    print(json.dumps({"correct": ok, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if ok else 1


# ---- the ledger ----------------------------------------------------------

def ledger(args):
    build_dir = build(args.build)
    binary = build_dir / "bench_ledger"
    seconds = BENCH["run_seconds"]
    runs = {w: [] for w in WORKLOADS}
    for r in range(args.runs):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            log(f"run {r + 1}/{args.runs}: {w}")
            runs[w].append(run_binary(binary, w, args.seed, seconds, False))
    traced = {}
    for w in WORKLOADS:
        log(f"traced: {w}")
        traced[w] = run_binary(binary, w, args.seed, seconds, True)

    doc = {"meta": {**build_info(build_dir), "seed": args.seed,
                    "runs": args.runs, "run_seconds": seconds},
           "workloads": {}}
    problems = []
    for w in WORKLOADS:
        rs = runs[w]
        attempted = sum(r["attempted"] for r in rs) + traced[w]["attempted"]
        failed = sum(r["failed"] for r in rs) + traced[w]["failed"]
        for r in rs + [traced[w]]:
            problems += [f"{w}: {e}" for e in r["errors"]]
            problems += [f"{w}: no {n}" for n in
                         check_values(r, END_TO_END, "metrics")]
        problems += [f"{w}: no {n}" for n in
                     check_values(traced[w], PER_LAYER, "layers")]
        for name in sorted(VIRTUAL & END_TO_END.keys()):
            seen = {r["metrics"].get(name) for r in rs + [traced[w]]}
            if len(seen) != 1:
                problems.append(f"{w}: virtual {name} differs between runs "
                                f"(traced run included): {sorted(seen)}")
        doc["workloads"][w] = {
            "attempted": attempted, "failed": failed,
            "query_samples": rs[0]["query_samples"],
            "runs": [r["metrics"] for r in rs],
            "layers": traced[w]["layers"]}

        print(f"# {w}: {attempted} ops attempted, {failed} failed "
              f"(ops_failed_frac {failed / attempted:.6g})")
        for name, unit in LEDGER_ROWS:
            values = [r["metrics"][name] for r in rs if name in r["metrics"]]
            if not values:
                continue
            if name in VIRTUAL:
                note = f"(virtual, identical in {len(values)} runs"
                if name == "query_p99_ms":
                    note += f"; {rs[0]['query_samples']} requests"
                note += ")"
                print(f"{w} {name} {fmt(values[0])} {unit} {note}")
            else:
                q1, q3 = quartiles(values)
                print(f"{w} {name} {fmt(statistics.median(values))} "
                      f"{unit} [q1 {fmt(q1)}, q3 {fmt(q3)}; "
                      f"n={len(values)}]")
        for name, spec in PER_LAYER.items():
            value = traced[w]["layers"].get(name, float("nan"))
            print(f"{w} {name} {fmt(value)} {spec['unit']} (trace run)")

    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                   + "\n")
    for p in problems:
        log("problem:", p)
    bad = problems or any(doc["workloads"][w]["failed"] for w in WORKLOADS)
    return 1 if bad else 0


# ---- agreement check ------------------------------------------------------

def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    disagreements = 0
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            print(f"{w}: missing from one ledger")
            disagreements += 1
            continue
        ra, rb = a["workloads"][w]["runs"], b["workloads"][w]["runs"]
        for name, spec in END_TO_END.items():
            va = [r[name] for r in ra]
            vb = [r[name] for r in rb]
            if name in VIRTUAL:
                seen = sorted(set(va + vb))
                ok = len(seen) == 1
                detail = "identical" if ok else f"differ: {seen}"
            else:
                ma, mb = statistics.median(va), statistics.median(vb)
                change = (mb - ma) / ma
                ok = abs(change) <= spec["bound"]
                detail = (f"{fmt(ma)} -> {fmt(mb)} ({change:+.2%}, "
                          f"bound {spec['bound']:.0%})")
            disagreements += not ok
            print(f"{w} {name} {'ok' if ok else 'DISAGREE'} {detail}")
    return 1 if disagreements else 0


# ---- smoke test -------------------------------------------------------------

def smoke(binary):
    bad = 0
    for w in WORKLOADS:
        res = run_binary(binary, w, 1, 0, True, smoke=True)
        missing = (check_values(res, END_TO_END, "metrics") +
                   check_values(res, PER_LAYER, "layers"))
        nonpositive = [n for n in END_TO_END
                       if n not in missing and res["metrics"][n] <= 0]
        ok = correct(res) and not missing and not nonpositive
        bad += not ok
        print(f"{w}: {'ok' if ok else 'FAIL'} ({res['episodes']} episodes, "
              f"{res['attempted']} ops, {res['failed']} failed)")
        for problem in res["errors"] + [f"missing {n}" for n in missing] + \
                [f"{n} <= 0" for n in nonpositive]:
            print(f"  {problem}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--build", default=os.environ.get("CARGO_TARGET_DIR",
                                                      ".bench_build"))
    ap.add_argument("--json")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke(args.binary or build(args.build) / "bench_ledger")
    if args.workload:
        return single_run(args)
    return ledger(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"run_ledger: {e}")
        sys.exit(1)
