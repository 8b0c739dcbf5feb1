#!/usr/bin/env python3
"""Repo-specific banned-API lint, run by the `lint` CMake target and CI.

Seven rule families, each encoding a project invariant that neither the
compiler nor clang-tidy enforces:

  raw-sync       Raw std::mutex / std::condition_variable / std::atomic /
                 lock adapters anywhere except src/common/sync.h. Every
                 concurrency primitive must go through the annotated
                 wrappers (Mutex, MutexLock, CondVar, AtomicCounter) so
                 Clang's -Wthread-safety analysis sees every lock and the
                 inventory of primitives stays in one header.

  value-by-value Function parameters taking `Value`/`ValueList` by value
                 in the operator hot paths (src/plan/, src/interp/,
                 src/exec/). Values are O(1) to copy but not free; hot
                 paths take `const Value&` and copy explicitly where a
                 copy is meant.

  nondeterminism Wall-clock / entropy sources in tests/ (std::random_device,
                 srand(time(...)), system_clock::now, steady_clock::now
                 used for seeding). Tests must be deterministic; benches
                 may time themselves, so bench/ is exempt.

  graph-mutation PropertyGraph mutator calls in src/ outside the layers
                 that own writes (src/graph/ itself, src/update/, and
                 src/storage/ — WAL replay reconstructs the graph
                 through the same mutators). The fixtures/ generators
                 live outside src/ and build graphs directly.
                 Engine code must route writes through UpdateExecutor
                 under the session/transaction layer, so the
                 single-writer MVCC discipline (frozen snapshots, COW
                 pages, data_version bumps) cannot be bypassed by a
                 stray direct call.

  storage-io     Raw file IO (fstream, fopen, ::open, O_CREAT flags) in
                 src/ or examples/ outside src/storage/. Durability has
                 exactly one home: everything that writes bytes to disk
                 (WAL frames, checkpoint files, fsync discipline) lives
                 behind the StorageEngine interface, so crash-safety
                 invariants (append order, atomic replace, CRC framing)
                 are auditable in one directory.

  env-override   getenv in src/ outside src/plan/runtime.cc (the
                 GQLITE_BATCH_SIZE / GQLITE_THREADS overrides) and
                 src/storage/wal.cc (the crash-sweep fault hook). Every
                 environment knob is an untested configuration axis, so
                 a new one must be added here on purpose, not slip in.

  expr-walk      A `case` label on Expr::Kind::kIndex or Expr::Kind::kCase
                 in src/ outside src/frontend/ast.h (the one child
                 traversal, ForEachChild / ForEachChildSlot),
                 src/frontend/ast.cc (CloneExpr),
                 src/frontend/ast_printer.cc (UnparseExpr) and
                 src/eval/evaluator.cc (EvaluateExpr). Only a full walk
                 over every expression kind needs those two labels. A walk
                 that recurses by hand drifts from the AST and skips kinds,
                 so walks go through the traversal and keep only the kinds
                 they treat specially.

Waivers: append `// lint: allow(<rule>) <reason>` on the offending line,
or as a full-line comment on the line directly above (for lines that
would blow the 80-column limit). The reason is mandatory — a bare
allow() still fails.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SOURCE_EXTS = (".h", ".cc", ".cpp")

# rule name -> (pattern, applies_to_path predicate, message)
RULES = [
    (
        "raw-sync",
        re.compile(
            r"std::(mutex|recursive_mutex|shared_mutex|condition_variable"
            r"(_any)?|atomic\b|atomic<|lock_guard|unique_lock|scoped_lock"
            r"|shared_lock)"),
        lambda path: (path.startswith(("src/", "tests/", "bench/",
                                       "examples/"))
                      and path != "src/common/sync.h"),
        "raw synchronization primitive; use the annotated wrappers from "
        "src/common/sync.h (Mutex/MutexLock/CondVar/AtomicCounter)",
    ),
    (
        "value-by-value",
        # A parameter list fragment like `(Value v` / `, ValueList rows` —
        # by-value without const&/&&/*. GQL_ASSIGN_OR_RETURN(Value v, ...)
        # declares a local inside a macro, not a parameter.
        re.compile(r"^(?!.*GQL_ASSIGN_OR_RETURN)"
                   r".*[(,]\s*(Value|ValueList)\s+\w+\s*[,)]"),
        lambda path: path.startswith(("src/plan/", "src/interp/",
                                      "src/exec/")),
        "by-value Value/ValueList parameter in an operator hot path; "
        "take `const Value&` (copy explicitly where a copy is meant)",
    ),
    (
        "nondeterminism",
        re.compile(r"std::random_device|srand\s*\(\s*time\s*\("
                   r"|system_clock::now|steady_clock::now"),
        lambda path: path.startswith("tests/"),
        "nondeterministic seed/clock in a test; use a fixed seed "
        "(tests must be reproducible)",
    ),
    (
        "graph-mutation",
        re.compile(
            r"(?:->|\.)\s*(CreateNode|CreateRelationship|AddLabel"
            r"|RemoveLabel|SetNodeProperty|SetRelProperty|DeleteNode"
            r"|DetachDeleteNode|DeleteRelationship)\s*\("),
        lambda path: (path.startswith("src/")
                      and not path.startswith(("src/graph/", "src/update/",
                                               "src/storage/"))),
        "direct PropertyGraph mutation outside the write-owning layers; "
        "route writes through UpdateExecutor / the transaction layer",
    ),
    (
        "storage-io",
        re.compile(r"std::(o|i)?fstream|\bfopen\s*\(|::open\s*\("
                   r"|::creat\s*\(|\bO_CREAT\b|\bO_WRONLY\b|\bO_RDWR\b"),
        lambda path: (path.startswith(("src/", "examples/"))
                      and not path.startswith("src/storage/")),
        "raw file IO outside src/storage/; durability goes through the "
        "StorageEngine interface (WAL + checkpoint)",
    ),
    (
        "env-override",
        re.compile(r"\bgetenv\s*\("),
        lambda path: (path.startswith("src/")
                      and path not in ("src/plan/runtime.cc",
                                       "src/storage/wal.cc")),
        "environment read outside src/plan/runtime.cc and "
        "src/storage/wal.cc; configuration goes through EngineOptions",
    ),
    (
        "expr-walk",
        re.compile(r"\bcase\s+(?:\w+::)*Expr::Kind::k(?:Index|Case)\b"),
        lambda path: (path.startswith("src/")
                      and path not in ("src/frontend/ast.h",
                                       "src/frontend/ast.cc",
                                       "src/frontend/ast_printer.cc",
                                       "src/eval/evaluator.cc")),
        "hand-written expression walk; recurse through ast::ForEachChild "
        "/ ForEachChildSlot (src/frontend/ast.h) and keep only the kinds "
        "this walk treats specially",
    ),
]

ALLOW = re.compile(r"//\s*lint:\s*allow\((?P<rule>[\w-]+)\)\s*(?P<reason>.*)")


def lint_file(relpath, abspath):
    findings = []
    try:
        with open(abspath, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        findings.append((relpath, 0, "io", str(e)))
        return findings
    for lineno, line in enumerate(lines, start=1):
        for rule, pattern, applies, message in (
                (r[0], r[1], r[2], r[3]) for r in RULES):
            if not applies(relpath) or not pattern.search(line):
                continue
            m = ALLOW.search(line)
            if m is None and lineno >= 2:
                prev = lines[lineno - 2].strip()
                if prev.startswith("//"):
                    m = ALLOW.search(prev)
            if m and m.group("rule") == rule:
                if not m.group("reason").strip():
                    findings.append(
                        (relpath, lineno, rule,
                         "allow() waiver is missing its reason"))
                continue  # waived
            findings.append((relpath, lineno, rule, message))
    return findings


def main():
    if len(sys.argv) > 1:
        print(__doc__)
        return 2
    findings = []
    for top in ("src", "tests", "bench", "examples"):
        for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                abspath = os.path.join(dirpath, name)
                relpath = os.path.relpath(abspath, REPO_ROOT).replace(
                    os.sep, "/")
                findings.extend(lint_file(relpath, abspath))
    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint_banned: {len(findings)} finding(s)")
        return 1
    print("lint_banned: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
