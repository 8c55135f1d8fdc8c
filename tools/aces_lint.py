#!/usr/bin/env python3
"""aces_lint: determinism lint for the ACES tree.

The repo's determinism contract (docs/benchmarking.md) promises that
simulator runs, sweep results, and optimizer output are bit-reproducible
from (topology, seed, options). That contract dies quietly the first time
someone reaches for `rand()` or iterates an unordered container inside a
fingerprinted path, so this lint bans the relevant constructs statically:

Rule groups and where they apply
--------------------------------
``fingerprint`` paths (src/sim, src/pe, src/harness, src/opt,
src/metrics — anything whose output feeds a result fingerprint; the PE
kernel in src/pe runs inside the deterministic substrates):

* ``nondet-random``   -- rand()/srand(), std::random_device, mt19937 seeded
                         off entropy. Use common/rng.h (splitmix64 /
                         deterministic streams) instead.
* ``wall-clock``      -- time(), clock(), gettimeofday(), localtime()/
                         gmtime()/ctime(), std::chrono::system_clock.
                         steady_clock is allowed: it is monotonic and the
                         contract excludes wall_ms fields from hashes.
* ``unordered-iter``  -- std::unordered_map/set (and multi variants).
                         Iteration order is hash-seed dependent, which
                         perturbs any serialized or accumulated-in-order
                         result. Use std::map / sorted vectors.

``report`` writers (src/harness/*.cc, src/obs/export.cc,
src/metrics/*.cc, bench/*.cc, tools/aces_cli.cc — code that formats
floating-point results for files another run or tool compares, which
since the bench "perf" block includes every bench JSON writer and the
CLI front end):

* ``float-format``    -- printf-family %e/%f/%g conversions that are not
                         exactly ``%.17g`` (shortest exact round-trip for
                         IEEE-754 doubles) or hexfloat ``%a``. A ``%.6f``
                         in a report writer silently truncates doubles and
                         two bit-identical runs stop diffing clean.

``hotpath`` files (src/runtime and src/pe — the threaded data plane and
the PE kernel its node threads run, whose steady state must be
lock-annotated and allocation-free; see docs/performance.md):

* ``raw-mutex``       -- std::mutex and friends. The hot path uses
                         common/mutex.h (aces::Mutex), which carries the
                         clang thread-safety capability annotations the
                         concurrency CI job checks; a bare std::mutex is
                         invisible to that analysis.
* ``raw-new``         -- `new` expressions. Steady-state data-plane code
                         preallocates (ring slots, BoundedQueue, pooled
                         staging buffers); an ad-hoc `new` reintroduces
                         per-SDO allocator traffic that the dataplane
                         bench's alloc_count() gate exists to keep at
                         zero. Setup-time containers (std::vector etc.)
                         are fine; `= delete;` declarations do not trip
                         the companion rule.
* ``raw-delete``      -- `delete` expressions, for the same reason (and
                         because a matching raw delete implies a raw
                         owning pointer the annotations cannot see).
* ``raw-condvar``     -- std::condition_variable and
                         std::condition_variable_any. Waits use
                         common/mutex.h's aces::CondVar, which waits on an
                         aces::Mutex (so the analysis sees the lock) and
                         wakes its waiter once: condition_variable_any
                         notifies under a mutex of its own, which a woken
                         waiter on the same CPU finds taken and sleeps on
                         again.

``atomics`` files (src/runtime and src/obs — the lock-free algorithms
the bounded model checker must be able to interpose on; see
docs/model_checking.md):

* ``raw-atomic``      -- ``std::atomic<T>``. Shim-covered code declares
                         ``aces::Atomic<T>`` (common/atomic_shim.h),
                         which compiles to std::atomic in production and
                         routes through the instrumented scheduler under
                         ``-DACES_MODEL_CHECK=ON``; a bare std::atomic is
                         invisible to the checker, so its orderings are
                         never model-verified. ``std::atomic_signal_fence``
                         (a pure compiler barrier) stays allowed.
* ``raw-fence``       -- ``std::atomic_thread_fence`` calls; use
                         ``aces::atomic_fence``, the interposable
                         drop-in with identical production codegen.

``wire`` codec files (src/runtime/wire.{h,cc} and
src/runtime/transport/ — everything that reads bytes off a socket or
frame buffer):

* ``memcpy-decode``   -- ``memcpy(&obj, ...)``: decoding a frame by
                         overlaying bytes onto a struct. The in-memory
                         layout (padding, field order, endianness) is not
                         a wire format; a struct overlay turns every
                         compiler/ABI difference into silent corruption
                         and skips the bounds and validation checks the
                         cursor decoders centralize. Decode field by
                         field through wire.h's bounds-checked cursor.
* ``cast-decode``     -- ``reinterpret_cast<T*>`` of a byte buffer to a
                         non-byte struct pointer, the same overlay in
                         pointer clothes (also an alignment/strict-
                         aliasing violation). Byte views (``char*``,
                         ``std::byte*``, ``uint8_t*``) and the POSIX
                         ``sockaddr*`` shapes are allowed.

Suppressions
------------
A finding is suppressed by an explicit, reasoned annotation on the same
line or the line above::

    std::snprintf(buf, sizeof buf, "%.12g", v);  // aces-lint: allow(float-format) trace exposition, not fingerprinted

Bare ``allow(<rule>)`` without a reason is itself a finding
(``bare-allow``): the reason is the review artifact.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

FINGERPRINT_DIRS = ("src/sim", "src/pe", "src/harness", "src/opt",
                    "src/metrics")
HOTPATH_DIRS = ("src/runtime", "src/pe")
ATOMICS_DIRS = ("src/runtime", "src/obs")
REPORT_FILES_GLOB = re.compile(
    r"(src/harness/[^/]+\.cc|src/obs/export\.cc|src/obs/cluster_aggregate\.cc|"
    r"src/metrics/[^/]+\.cc|bench/[^/]+\.cc|tools/aces_cli\.cc)$"
)
WIRE_FILES_GLOB = re.compile(
    r"(src/runtime/wire\.(h|cc)|src/runtime/transport/[^/]+\.(h|cc))$"
)

ALLOW_RE = re.compile(r"aces-lint:\s*allow\(([a-z-]+)\)\s*(\S?)")

# Each rule: (name, compiled regex applied to comment-stripped code,
# human-readable message). Word boundaries keep `advance_time(` or
# `steady_clock` from tripping the wall-clock rules.
FINGERPRINT_RULES = [
    (
        "nondet-random",
        re.compile(r"\b(?:s?rand)\s*\(|\brandom_device\b"),
        "non-deterministic randomness; use common/rng.h streams",
    ),
    (
        "wall-clock",
        re.compile(
            r"\bsystem_clock\b|\bgettimeofday\s*\(|\blocaltime\s*\(|"
            r"\bgmtime\s*\(|\bctime\s*\(|\btime\s*\(|\bclock\s*\("
        ),
        "wall-clock read in a fingerprinted path; steady_clock is the "
        "only permitted clock (and never in fingerprints)",
    ),
    (
        "unordered-iter",
        re.compile(r"\bunordered_(?:multi)?(?:map|set)\b"),
        "unordered container in a fingerprinted path; iteration order is "
        "hash-seed dependent — use std::map or a sorted vector",
    ),
]

# %a (hexfloat) and %.17g (shortest exact decimal) are the two sanctioned
# double formats for anything a fingerprint or diff will see.
FLOAT_SPEC_RE = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[efgEFG]")
ALLOWED_SPECS = {"%.17g"}

# Hot-path rules. `raw-new` matches a new-expression (identifier, paren,
# qualified or template type after the keyword) so prose uses of the word
# in identifiers stay clean; `raw-delete` requires an operand, which keeps
# `= delete;` declarations out of scope.
HOTPATH_RULES = [
    (
        "raw-mutex",
        re.compile(r"\bstd::(?:recursive_|shared_|timed_|"
                   r"recursive_timed_)?mutex\b"),
        "raw std::mutex in the data plane; use aces::Mutex "
        "(common/mutex.h) so thread-safety analysis sees the lock",
    ),
    (
        "raw-new",
        re.compile(r"\bnew\s+[A-Za-z_(:<]|\bnew\s*\("),
        "raw `new` in the data plane; preallocate at setup time or use "
        "std::make_unique outside the steady-state path",
    ),
    (
        "raw-delete",
        re.compile(r"\bdelete\s*(?:\[\s*\]\s*)?[A-Za-z_(*]"),
        "raw `delete` in the data plane; owning raw pointers defeat both "
        "the allocation gate and the annotations — use RAII",
    ),
    (
        "raw-condvar",
        re.compile(r"\bstd::condition_variable(?:_any)?\b"),
        "raw std::condition_variable in the data plane; use aces::CondVar "
        "(common/mutex.h), which waits on an aces::Mutex and wakes its "
        "waiter once",
    ),
]

# Shim-coverage rules. `raw-atomic` matches the template-id (`std::atomic<`)
# so `std::atomic_signal_fence` — a compiler barrier with no inter-thread
# semantics for the model to simulate — stays clean. `raw-fence` matches the
# thread fence only, for the same reason.
ATOMICS_RULES = [
    (
        "raw-atomic",
        re.compile(r"\bstd::atomic\s*<"),
        "raw std::atomic in shim-covered code; use aces::Atomic "
        "(common/atomic_shim.h) so the bounded model checker can "
        "interpose on the operation",
    ),
    (
        "raw-fence",
        re.compile(r"\batomic_thread_fence\s*\("),
        "raw std::atomic_thread_fence in shim-covered code; use "
        "aces::atomic_fence (common/atomic_shim.h), the interposable "
        "drop-in",
    ),
]

# Wire-codec rules. `memcpy-decode` matches a memcpy whose destination is
# the address of an object (`memcpy(&frame, ...)`): the struct-overlay
# decode. Copies into plain byte arrays (`memcpy(buf, ...)`,
# `memcpy(addr.sun_path, ...)`) stay clean. `cast-decode` matches a
# reinterpret_cast to a non-byte object pointer; byte views and the POSIX
# sockaddr shapes (the OS API's own type-pun) are carved out.
WIRE_RULES = [
    (
        "memcpy-decode",
        re.compile(r"\bmemcpy\s*\(\s*&"),
        "memcpy-into-struct decoding in wire code; in-memory layout "
        "(padding, endianness) is not a wire format — decode field by "
        "field through the bounds-checked cursor (runtime/wire.h)",
    ),
    (
        "cast-decode",
        re.compile(
            r"reinterpret_cast\s*<\s*(?:const\s+)?"
            r"(?!(?:unsigned\s+char|signed\s+char|char|std::byte|"
            r"std::uint8_t|uint8_t|sockaddr\w*)\s*\*)"
            r"[A-Za-z_][\w:]*\s*\*\s*>"
        ),
        "byte buffer cast to a struct pointer in wire code; that is the "
        "memcpy overlay in pointer clothes (plus an alignment/aliasing "
        "violation) — use the cursor decoders",
    ),
]


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str
    excerpt: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
            f"    {self.excerpt.strip()}"
        )


def strip_comments(text: str) -> str:
    """Blank out comments, preserving string literals and line structure.

    Replaced characters become spaces so line/column arithmetic on the
    result still maps back to the source. Handles //, /* */, character
    literals, plain strings with escapes, and R"delim(...)delim" raw
    strings — enough of C++ lexing for line-oriented pattern rules.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == "R" and nxt == '"':
            j = i + 2
            while j < n and text[j] not in "(\n":
                j += 1
            if j < n and text[j] == "(":
                delim = text[i + 2 : j]
                end = text.find(")" + delim + '"', j + 1)
                i = n if end < 0 else end + len(delim) + 2
            else:
                i = j
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            i += 1
    return "".join(out)


def string_literals(line: str) -> list[str]:
    """Ordinary string-literal bodies on a (comment-stripped) line."""
    literals = []
    i, n = 0, len(line)
    while i < n:
        if line[i] == '"' and (i == 0 or line[i - 1] != "\\"):
            j = i + 1
            while j < n and line[j] != '"':
                j += 2 if line[j] == "\\" else 1
            literals.append(line[i + 1 : j])
            i = j + 1
        else:
            i += 1
    return literals


def collect_allows(raw_lines: list[str]) -> tuple[dict[int, set[str]], list[tuple[int, str]]]:
    """Map line number -> rules suppressed there, plus bare-allow abuses.

    An ``allow(<rule>)`` covers its own line and the line below, so the
    annotation can sit above a long statement.
    """
    allows: dict[int, set[str]] = {}
    bare: list[tuple[int, str]] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(raw):
            rule, reason_head = m.group(1), m.group(2)
            if not reason_head:
                bare.append((lineno, rule))
                continue
            allows.setdefault(lineno, set()).add(rule)
            allows.setdefault(lineno + 1, set()).add(rule)
    return allows, bare


def lint_text(path: str, text: str, groups: set[str]) -> list[Finding]:
    raw_lines = text.splitlines()
    code_lines = strip_comments(text).splitlines()
    allows, bare = collect_allows(raw_lines)

    findings = [
        Finding(path, lineno, "bare-allow",
                f"allow({rule}) without a reason; state why the "
                "suppression is sound", raw_lines[lineno - 1])
        for lineno, rule in bare
    ]

    for lineno, code in enumerate(code_lines, start=1):
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        if "fingerprint" in groups:
            for rule, pattern, message in FINGERPRINT_RULES:
                if pattern.search(code) and rule not in allows.get(lineno, ()):
                    findings.append(Finding(path, lineno, rule, message, raw))
        if "hotpath" in groups:
            for rule, pattern, message in HOTPATH_RULES:
                if pattern.search(code) and rule not in allows.get(lineno, ()):
                    findings.append(Finding(path, lineno, rule, message, raw))
        if "atomics" in groups:
            for rule, pattern, message in ATOMICS_RULES:
                if pattern.search(code) and rule not in allows.get(lineno, ()):
                    findings.append(Finding(path, lineno, rule, message, raw))
        if "wire" in groups:
            for rule, pattern, message in WIRE_RULES:
                if pattern.search(code) and rule not in allows.get(lineno, ()):
                    findings.append(Finding(path, lineno, rule, message, raw))
        if "report" in groups:
            for literal in string_literals(code):
                for spec in FLOAT_SPEC_RE.findall(literal):
                    if spec in ALLOWED_SPECS:
                        continue
                    if "float-format" in allows.get(lineno, ()):
                        continue
                    findings.append(Finding(
                        path, lineno, "float-format",
                        f"'{spec}' in a report writer loses double "
                        "precision; use %.17g (exact decimal) or %a "
                        "(hexfloat)", raw))
    return findings


def classify(rel_path: str) -> set[str]:
    rel = rel_path.replace(os.sep, "/")
    groups: set[str] = set()
    if any(rel.startswith(d + "/") or rel == d for d in FINGERPRINT_DIRS):
        groups.add("fingerprint")
    if REPORT_FILES_GLOB.search(rel):
        groups.add("report")
    if any(rel.startswith(d + "/") or rel == d for d in HOTPATH_DIRS):
        groups.add("hotpath")
    if any(rel.startswith(d + "/") or rel == d for d in ATOMICS_DIRS):
        groups.add("atomics")
    if WIRE_FILES_GLOB.search(rel):
        groups.add("wire")
    return groups


def iter_source_files(root: str):
    # A directory in several rule groups (src/pe) is still scanned once.
    bases = FINGERPRINT_DIRS + HOTPATH_DIRS + ("src/obs", "bench", "tools")
    for base in dict.fromkeys(bases):
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in sorted(filenames):
                if name.endswith((".cc", ".h")):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="aces_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".",
                        help="repo root the default scope is relative to")
    parser.add_argument("--force-groups", default=None,
                        help="comma-separated rule groups (fingerprint,"
                             "report,hotpath,atomics,wire) to apply to the "
                             "given paths instead of path-based "
                             "classification; for fixtures")
    parser.add_argument("paths", nargs="*",
                        help="files to lint; default: the standard scope "
                             "under --root")
    args = parser.parse_args(argv)

    forced: set[str] | None = None
    if args.force_groups is not None:
        forced = {g for g in args.force_groups.split(",") if g}
        if not forced or forced - {"fingerprint", "report", "hotpath",
                                   "atomics", "wire"}:
            print(f"aces_lint: bad --force-groups '{args.force_groups}'",
                  file=sys.stderr)
            return 2

    if args.paths:
        targets = [(p, os.path.relpath(p, args.root)
                    if os.path.isabs(p) else p) for p in args.paths]
    else:
        targets = [(os.path.join(args.root, rel), rel)
                   for rel in iter_source_files(args.root)]

    findings: list[Finding] = []
    checked = 0
    for full, rel in targets:
        groups = forced if forced is not None else classify(rel)
        if not groups:
            continue
        try:
            with open(full, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            print(f"aces_lint: cannot read {full}: {err}", file=sys.stderr)
            return 2
        checked += 1
        findings.extend(lint_text(rel, text, groups))

    if checked == 0:
        print("aces_lint: nothing in scope to lint", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"aces_lint: {len(findings)} finding(s) in {checked} file(s)")
        return 1
    print(f"aces_lint: clean ({checked} files)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # |head closed the pipe; not a lint failure
        sys.exit(0)
