#!/usr/bin/env python3
"""Project idiom lint: cheap, dependency-free static checks for the I/O
layer's house rules (run by CI next to clang-tidy; see docs/VERIFY.md).

Rules
-----
missing-wait
    A scope that issues a nonblocking `.iwrite_at(...)` must lexically
    contain a `wait(`/`wait_all(` before the scope closes.
    The runtime verifier (src/verify/) catches the dynamic leak; this pass
    catches it at review time.  Suppress an intentional plant with
    `lint:allow(missing-wait)` on or directly above the call line.

deferred-raii
    `Proc::begin_deferred()`/`end_deferred()` are engine internals: outside
    src/sim/engine.*, in-flight work goes through `sim::DeferredScope` RAII,
    which lives beside them in engine.hpp.  Heap-allocating a DeferredScope
    defeats the RAII contract.  Suppress with `lint:allow(deferred-raii)`.

obs-span
    Every public I/O entry point of mpi::io::File carries an OBS_SPAN in its
    own body so the cross-layer profiler sees it; a call to the in-flight
    helper File::in_flight counts, since it always opens the op's span (and
    the helper's own body is checked for it).  Extend ENTRY_POINTS when
    adding one.

single-thread
    The simulator runs on one OS thread: every rank is a fiber and the
    engine serialises them, which is why the engine and the layers above it
    take no locks.  Under src/, flag what would start or synchronise a
    second thread (std::thread/jthread, std::mutex/shared_mutex,
    std::condition_variable, std::atomic, pthread_create).  Suppress with
    `lint:allow(single-thread)`.

retry-loop
    Surviving a short or transient transfer is one loop,
    fault::transfer in src/fault/retry.hpp: it resumes behind the landed
    bytes, backs off on the virtual clock and gives up when the budget is
    spent.  Under src/, a `catch (const TransientIoError&` outside
    src/fault/retry.* is a hand-written second loop unless it says why it
    is not one: suppress with `lint:allow(retry-loop)` and a reason.

shared-wait
    Waiting for work another proc has in flight is one loop per kind of
    wait: a message in `Comm::recv`, and shared query work in
    `query::Service::single_flight`, which blocks, records the wait and
    wakes the waiters whether the work returned or threw.  Under src/, a
    `block()` call outside src/sim/ and those two bodies is a hand-written
    second loop: suppress with `lint:allow(shared-wait)` and a reason.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCAN_DIRS = ["src", "tests", "examples", "bench"]

NONBLOCKING_CALL = re.compile(r"\.iwrite_at\s*\(")
WAIT_CALL = re.compile(r"\bwait(?:_all)?\s*\(")
DEFERRED_CALL = re.compile(r"\b(?:begin|end)_deferred\s*\(")
DEFERRED_HEAP = re.compile(r"new\s+DeferredScope|make_unique\s*<\s*DeferredScope")
TRANSIENT_CATCH = re.compile(
    r"catch\s*\(\s*(?:const\s+)?(?:\w+::)*TransientIoError\b")
RETRY_LOOP_HOME = {Path("src/fault/retry.hpp"), Path("src/fault/retry.cpp")}
BLOCK_CALL = re.compile(r"(?:\.|->)\s*block\s*\(\s*\)")
# The function bodies that may block a proc, by file.
SHARED_WAIT_HOMES = {
    Path("src/mpi/comm.cpp"): "Comm::recv",
    Path("src/query/service.cpp"): "Service::single_flight",
}
THREADING = re.compile(
    r"\bstd::(?:thread|jthread|mutex|shared_mutex|condition_variable|atomic)\b"
    r"|\bpthread_create\b")

# Files that legitimately touch the raw deferred-clock API: the engine and
# sim::DeferredScope beside it.
DEFERRED_ALLOWED = {
    Path("src/sim/engine.hpp"),
    Path("src/sim/engine.cpp"),
}

# Public I/O entry points of mpi::io::File that must open an OBS_SPAN, and
# the in-flight helper that opens one for its callers.
OBS_SPAN_FILE = Path("src/mpi/io/file.cpp")
ENTRY_POINTS = [
    "close", "flush", "read_at", "write_at", "read_at_all", "write_at_all",
    "iwrite_at", "read_at_all_begin", "read_at_all_end",
    "write_at_all_begin", "write_at_all_end", "prefetch",
]
IN_FLIGHT_HELPER = "in_flight"
IN_FLIGHT_CALL = re.compile(r"\b" + IN_FLIGHT_HELPER + r"\s*\(")


def strip_comment(line: str) -> str:
    return line.split("//", 1)[0]


def allowed(lines, idx, rule):
    """`lint:allow(rule)` on the line or the line above suppresses it."""
    marker = f"lint:allow({rule})"
    if marker in lines[idx]:
        return True
    return idx > 0 and marker in lines[idx - 1]


def scope_end(lines, start):
    """Index one past the enclosing scope of the statement at `start`:
    walk forward until brace depth drops below the call line's level."""
    depth = 0
    for i in range(start, len(lines)):
        for ch in strip_comment(lines[i]):
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    return i + 1
    return len(lines)


def body_end(lines, start):
    """Index one past the body of the function defined at `start`: from the
    first `{` on or after that line, walk until its brace closes."""
    depth = 0
    for i in range(start, len(lines)):
        for ch in strip_comment(lines[i]):
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
    return len(lines)


def check_missing_wait(path, lines, findings):
    for i, line in enumerate(lines):
        if not NONBLOCKING_CALL.search(strip_comment(line)):
            continue
        if allowed(lines, i, "missing-wait"):
            continue
        end = scope_end(lines, i)
        body = "\n".join(strip_comment(l) for l in lines[i:end])
        if not WAIT_CALL.search(body):
            findings.append(
                f"{path}:{i + 1}: [missing-wait] nonblocking request "
                "issued with no wait()/wait_all() in the enclosing scope")


def check_deferred_raii(path, lines, findings):
    in_allowlist = path in DEFERRED_ALLOWED
    for i, line in enumerate(lines):
        code = strip_comment(line)
        if DEFERRED_HEAP.search(code):
            findings.append(
                f"{path}:{i + 1}: [deferred-raii] DeferredScope must live "
                "on the stack (RAII), not the heap")
        if in_allowlist:
            continue
        if DEFERRED_CALL.search(code) and not allowed(lines, i,
                                                      "deferred-raii"):
            findings.append(
                f"{path}:{i + 1}: [deferred-raii] raw begin/end_deferred "
                "outside the engine; use sim::DeferredScope")


def check_single_thread(path, lines, findings):
    if path.parts[0] != "src":
        return
    for i, line in enumerate(lines):
        match = THREADING.search(strip_comment(line))
        if match and not allowed(lines, i, "single-thread"):
            findings.append(
                f"{path}:{i + 1}: [single-thread] {match.group(0)}: the "
                "simulator runs every rank as a fiber on one OS thread")


def check_retry_loop(path, lines, findings):
    if path.parts[0] != "src" or path in RETRY_LOOP_HOME:
        return
    for i, line in enumerate(lines):
        if (TRANSIENT_CATCH.search(strip_comment(line))
                and not allowed(lines, i, "retry-loop")):
            findings.append(
                f"{path}:{i + 1}: [retry-loop] TransientIoError caught "
                "outside fault::transfer; route the transfer through it")


def check_shared_wait(path, lines, findings):
    if path.parts[0] != "src" or path.parts[1] == "sim":
        return
    home = range(0)
    if path in SHARED_WAIT_HOMES:
        sig = re.compile(re.escape(SHARED_WAIT_HOMES[path]) + r"\s*\(")
        for i, line in enumerate(lines):
            code = strip_comment(line)
            if sig.search(code) and not code.rstrip().endswith(";"):
                home = range(i, body_end(lines, i))
                break
    for i, line in enumerate(lines):
        if (BLOCK_CALL.search(strip_comment(line)) and i not in home
                and not allowed(lines, i, "shared-wait")):
            findings.append(
                f"{path}:{i + 1}: [shared-wait] block() outside Comm::recv "
                "and query::Service::single_flight; wait through one of "
                "them")


def check_obs_span(findings):
    path = ROOT / OBS_SPAN_FILE
    lines = path.read_text().splitlines()
    for name in ENTRY_POINTS + [IN_FLIGHT_HELPER]:
        sig = re.compile(r"File::" + re.escape(name) + r"\s*\(")
        for i, line in enumerate(lines):
            code = strip_comment(line)
            # A definition opens a scope; call sites end in ';'.
            if sig.search(code) and not code.rstrip().endswith(";"):
                body = "\n".join(
                    strip_comment(l) for l in lines[i:body_end(lines, i)])
                spanned = "OBS_SPAN" in body or (
                    name != IN_FLIGHT_HELPER and IN_FLIGHT_CALL.search(body))
                if not spanned:
                    what = ("in-flight helper" if name == IN_FLIGHT_HELPER
                            else "public I/O entry point")
                    findings.append(
                        f"{OBS_SPAN_FILE}:{i + 1}: [obs-span] {what} "
                        f"File::{name} has no OBS_SPAN")
                break
        else:
            findings.append(
                f"{OBS_SPAN_FILE}: [obs-span] expected entry point "
                f"File::{name} not found (update tools/lint)")


def main():
    findings = []
    for d in SCAN_DIRS:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix not in {".cpp", ".hpp"}:
                continue
            rel = path.relative_to(ROOT)
            lines = path.read_text().splitlines()
            check_missing_wait(rel, lines, findings)
            check_deferred_raii(rel, lines, findings)
            check_single_thread(rel, lines, findings)
            check_retry_loop(rel, lines, findings)
            check_shared_wait(rel, lines, findings)
    check_obs_span(findings)

    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} idiom violation(s)", file=sys.stderr)
        return 1
    print("idiom lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
