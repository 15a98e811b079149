#!/usr/bin/env python3
"""Check that docs/*.md name only flags and paths that exist.

In every inline code span and fenced block of docs/*.md, each --flag
must be a quoted flag literal of src/sweep/options.cc, tools/*.cc,
tools/*.py or perfbench/run.py (google-benchmark's --benchmark_* and
cmake/ctest's own flags pass too, and a trailing * matches a prefix),
and each src/, tests/, tools/, bench/ or perfbench/ path must exist
(brace sets such as {hh,cc} expanded). Lists every stale reference and
exits 1 if there is one, 0 otherwise.

    python3 tools/check_doc_refs.py [REPO_ROOT]
"""

import glob
import os
import re
import sys

SOURCES = ("src/sweep/options.cc", "tools/*.cc", "tools/*.py",
           "perfbench/run.py")
BUILD_FLAGS = {"--build", "--target", "--test-dir", "--output-on-failure"}
LITERAL = re.compile(r"""["'](--[A-Za-z][\w-]*)["']""")
FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*\*?")
PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|tools|bench|perfbench)/[\w./{},*-]*")
FENCE = re.compile(r"\s*(```|~~~)")
# A backtick run, then text up to a run of the same length, within one
# paragraph.
SPAN = re.compile(r"(?<!`)(`+)(?!`)((?:(?!\n[ \t]*\n).)+?)(?<!`)\1(?!`)",
                  re.S)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def code(text):
    """Yield (line, code) for each fenced line and inline code span."""
    prose, fence = [], None
    for n, line in enumerate(text.split("\n"), 1):
        m = FENCE.match(line)
        if fence is None and m:
            fence = m.group(1)
        elif fence is None:
            prose.append(line)
            continue
        elif m and m.group(1) == fence:
            fence = None
        else:
            yield n, line
        prose.append("")
    prose = "\n".join(prose)
    for m in SPAN.finditer(prose):
        yield prose.count("\n", 0, m.start(2)) + 1, m.group(2)


def expand(path):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [p for alt in m.group(1).split(",")
            for p in expand(path[:m.start()] + alt + path[m.end():])]


def known(flag, flags):
    if flag.endswith("*"):
        return any(f.startswith(flag[:-1]) for f in flags)
    return (flag in flags or flag in BUILD_FLAGS
            or flag.startswith("--benchmark_"))


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    flags = {f for pattern in SOURCES
             for src in glob.glob(os.path.join(root, pattern))
             for f in LITERAL.findall(read(src))}
    stale = []
    for doc in sorted(glob.glob(os.path.join(root, "docs", "*.md"))):
        for line, text in sorted(code(read(doc))):
            where = f"{os.path.relpath(doc, root)}:{line}"
            stale += [f"{where}: unknown flag {f}"
                      for f in FLAG.findall(text) if not known(f, flags)]
            stale += [f"{where}: missing path {p}"
                      for ref in PATH.findall(text)
                      for p in expand(ref.rstrip(".,"))
                      if not glob.glob(os.path.join(root, p))]
    print("\n".join(stale + [f"{len(stale)} stale doc reference(s)"]))
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
