#!/usr/bin/env python3
"""Project idiom lint: cheap, dependency-free static checks for the I/O
layer's house rules (run by CI next to clang-tidy; see docs/VERIFY.md).

Rules
-----
missing-wait
    A scope that issues a nonblocking `.iread_at(...)`/`.iwrite_at(...)`
    must lexically contain a `wait(`/`wait_all(` before the scope closes.
    The runtime verifier (src/verify/) catches the dynamic leak; this pass
    catches it at review time.  Suppress an intentional plant with
    `lint:allow(missing-wait)` on or directly above the call line.

deferred-raii
    `Proc::begin_deferred()`/`end_deferred()` are engine and DeferredScope
    internals; everything else models in-flight work through DeferredScope
    RAII.  Heap-allocating a DeferredScope defeats the RAII contract.
    Suppress with `lint:allow(deferred-raii)`.

obs-span
    Every public I/O entry point of mpi::io::File carries an OBS_SPAN so
    the cross-layer profiler sees it.  Extend ENTRY_POINTS when adding one.

single-thread
    The simulator runs on one OS thread: every rank is a fiber and the
    engine serialises them, which is why the engine and the layers above it
    take no locks.  Under src/, flag what would start or synchronise a
    second thread (std::thread/jthread, std::mutex/shared_mutex,
    std::condition_variable, std::atomic, pthread_create).  Suppress with
    `lint:allow(single-thread)`.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCAN_DIRS = ["src", "tests", "examples", "bench"]

NONBLOCKING_CALL = re.compile(r"\.i(?:read|write)_at\s*\(")
WAIT_CALL = re.compile(r"\bwait(?:_all)?\s*\(")
DEFERRED_CALL = re.compile(r"\b(?:begin|end)_deferred\s*\(")
DEFERRED_HEAP = re.compile(r"new\s+DeferredScope|make_unique\s*<\s*DeferredScope")
THREADING = re.compile(
    r"\bstd::(?:thread|jthread|mutex|shared_mutex|condition_variable|atomic)\b"
    r"|\bpthread_create\b")

# Files that legitimately touch the raw deferred-clock API: the engine
# itself and the RAII wrappers built directly on it (mpi::io::DeferredScope,
# stage/'s local DeferredRegion).
DEFERRED_ALLOWED = {
    Path("src/sim/engine.hpp"),
    Path("src/sim/engine.cpp"),
    Path("src/mpi/io/deferred_scope.hpp"),
    Path("src/stage/staged_fs.cpp"),
}

# Public I/O entry points of mpi::io::File that must open an OBS_SPAN.
OBS_SPAN_FILE = Path("src/mpi/io/file.cpp")
ENTRY_POINTS = [
    "close", "flush", "read_at", "write_at", "read_at_all", "write_at_all",
    "iread_at", "iwrite_at", "read_at_all_begin", "read_at_all_end",
    "write_at_all_begin", "write_at_all_end", "prefetch",
]


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
                "outside the engine; use DeferredScope RAII")


def check_single_thread(path, lines, findings):
    if path.parts[0] != "src":
        return
    for i, line in enumerate(lines):
        match = THREADING.search(strip_comment(line))
        if match and not allowed(lines, i, "single-thread"):
            findings.append(
                f"{path}:{i + 1}: [single-thread] {match.group(0)}: the "
                "simulator runs every rank as a fiber on one OS thread")


def check_obs_span(findings):
    path = ROOT / OBS_SPAN_FILE
    lines = path.read_text().splitlines()
    for name in ENTRY_POINTS:
        sig = re.compile(r"File::" + re.escape(name) + r"\s*\(")
        for i, line in enumerate(lines):
            code = strip_comment(line)
            # A definition opens a scope; call sites end in ';'.
            if sig.search(code) and not code.rstrip().endswith(";"):
                body = "\n".join(lines[i:scope_end(lines, i)])
                if "OBS_SPAN" not in body:
                    findings.append(
                        f"{OBS_SPAN_FILE}:{i + 1}: [obs-span] public I/O "
                        f"entry point File::{name} has no OBS_SPAN")
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
