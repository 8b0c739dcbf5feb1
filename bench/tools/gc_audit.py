#!/usr/bin/env python3
"""List the libgqlite functions that no public entry point reaches.

Usage:
    gc_audit.py [--build-dir DIR] [--jobs N]

Builds the gqlite library with -ffunction-sections (one text section per
function) into DIR (default: build-gc-audit), then links a client that
calls every public Database / Session / QueryResult entry point under
-Wl,--gc-sections,--print-gc-sections. The linker drops every section
that nothing reachable from main() references; the script prints the
dropped sections that hold one of the library's strong (non-inline,
non-template) text symbols, grouped by object file.

An entry is a candidate, not a verdict. A function that the compiler
inlined into every caller in its own file keeps an unreferenced
out-of-line copy, so the list over-reports: confirm each entry by grep
before deleting it. For the same reason this is not a CI gate.
"""

import argparse
import collections
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Every public entry point of the engine's client surface. The inputs do
# not matter: the linker keeps what is referenced, whatever runs.
CLIENT = r"""
#include <memory>
#include <string>

#include "src/core/database.h"
#include "src/core/query_result.h"
#include "src/core/session.h"

using namespace gqlite;

int main(int argc, char** argv) {
  EngineOptions options;
  Result<Database> opened = argc > 1 ? Database::Open(argv[1], options)
                                     : Database::OpenInMemory(options);
  if (!opened.ok()) return 1;
  Database db = std::move(*opened);
  ValueMap params;
  db.RegisterGraph("g", std::make_shared<PropertyGraph>());
  db.RegisterUrl("gqlite://g", std::make_shared<PropertyGraph>());
  Result<QueryResult> r = db.Execute("RETURN 1", params);
  Result<PreparedQuery> p = db.Prepare("RETURN $x");
  if (p.ok()) r = db.Execute(*p, params);
  Result<std::string> text = db.Explain("RETURN 1", params);
  text = db.Profile("RETURN 1", params);
  std::unique_ptr<Session> s = db.CreateSession();
  Status st = s->Begin(TxnMode::kWrite);
  r = s->Execute("CREATE ()", params);
  if (p.ok()) r = s->Execute(*p, params);
  bool busy = s->in_transaction() && s->mode() == TxnMode::kWrite &&
              s->graph() != nullptr;
  st = busy ? s->Commit() : s->Rollback();
  st = db.Checkpoint();
  std::string out = r.ok() ? r->ToString(db.Snapshot().get())
                           : r.status().ToString();
  st = db.Close();
  out += st.ToString();
  return static_cast<int>(out.size() % 2);
}
"""

SECTION_RE = re.compile(
    r"removing unused section '\.text\.(?:(?:unlikely|hot|startup)\.)?"
    r"([^']+)' in file '[^']*libgqlite\.a\(([^)]+)\)'")


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), file=sys.stderr)
    return subprocess.run(cmd, check=True, text=True, **kwargs)


def strong_text_symbols(lib):
    """Mangled names of the library's strong (global, T) text symbols."""
    out = run(["nm", "--defined-only", "-g", lib],
              capture_output=True).stdout
    return {line.split()[2] for line in out.splitlines()
            if len(line.split()) == 3 and line.split()[1] == "T"}


STD_STRING = "std::__cxx11::basic_string<char, std::char_traits<char>, " \
             "std::allocator<char> >"
STD_STRING_VIEW = "std::basic_string_view<char, std::char_traits<char> >"


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              capture_output=True).stdout
    readable = [line.replace(STD_STRING, "std::string")
                .replace(STD_STRING_VIEW, "std::string_view")
                for line in out.splitlines()]
    return dict(zip(names, readable))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT,
                                                        "build-gc-audit"))
    ap.add_argument("--jobs", default="2")
    args = ap.parse_args()

    build = os.path.abspath(args.build_dir)
    run(["cmake", "-S", ROOT, "-B", build,
         "-DCMAKE_CXX_FLAGS=-ffunction-sections",
         "-DGQLITE_BUILD_TESTS=OFF", "-DGQLITE_BUILD_BENCHMARKS=OFF",
         "-DGQLITE_BUILD_EXAMPLES=OFF"], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build, "--target", "gqlite", "-j", args.jobs],
        stdout=subprocess.DEVNULL)
    lib = os.path.join(build, "libgqlite.a")

    client = os.path.join(build, "gc_audit_client.cc")
    with open(client, "w", encoding="utf-8") as f:
        f.write(CLIENT)
    # --whole-archive: an object file that nothing references must still
    # reach the linker, or its functions would never be reported.
    link = run([os.environ.get("CXX", "c++"), "-std=c++20", "-O2",
                "-ffunction-sections", "-I", ROOT, client,
                "-Wl,--whole-archive", lib, "-Wl,--no-whole-archive",
                "-pthread", "-Wl,--gc-sections,--print-gc-sections",
                "-o", os.path.join(build, "gc_audit_client")],
               capture_output=True)

    strong = strong_text_symbols(lib)
    # A function split into hot and cold parts drops two sections.
    dropped = collections.defaultdict(set)
    for m in SECTION_RE.finditer(link.stderr):
        symbol, obj = m.group(1), m.group(2)
        if symbol in strong:
            dropped[obj].add(symbol)
    names = demangle(sorted({s for syms in dropped.values() for s in syms}))
    total = sum(len(syms) for syms in dropped.values())
    print(f"{total} of {len(strong)} strong text symbols in libgqlite are "
          f"unreachable from the public API")
    for obj in sorted(dropped):
        print(f"{obj}:")
        for s in sorted(names[s] for s in dropped[obj]):
            print(f"  {s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
