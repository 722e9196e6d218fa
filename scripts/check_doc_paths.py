#!/usr/bin/env python3
"""Fails if the docs name a repository path that does not exist.

Usage: scripts/check_doc_paths.py [REPO_ROOT]

Scans the code spans (`...`) and fenced code blocks of README.md,
DESIGN.md, EXPERIMENTS.md, docs/*.md and mbpbench/README.md for tokens
that start with one of the source directories below, expands `{a,b}`
alternatives and `*` globs, and checks that each resolves to at least one
file or directory. A binary name such as `bench/fig5_example` also resolves when
its `.cc` or `.cpp` source exists. Prints every dangling path with its
file and line, and exits 1 if there is one.
"""

import glob
import os
import re
import sys

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
        "mbpbench/README.md"]
PREFIXES = ("src/", "tests/", "bench/", "tools/", "scripts/", "examples/",
            "docs/", "mbpbench/")

FENCE = re.compile(r"^\s*```")
CODE_SPAN = re.compile(r"`([^`]+)`")
# A path token: path characters plus brace alternatives and globs.
TOKEN = re.compile(r"[A-Za-z0-9_./*{},+-]+")


def expand_braces(path):
    match = re.search(r"\{([^{}]*)\}", path)
    if match is None:
        return [path]
    out = []
    for alt in match.group(1).split(","):
        out += expand_braces(path[:match.start()] + alt + path[match.end():])
    return out


def resolves(root, path):
    for candidate in expand_braces(path):
        full = os.path.join(root, candidate)
        if glob.glob(full):
            return True
        if any(os.path.isfile(full + ext) for ext in (".cc", ".cpp")):
            return True
    return False


def doc_paths(text):
    """Yields (line number, path) for every source path in code."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        for span in [line] if in_fence else CODE_SPAN.findall(line):
            for token in TOKEN.findall(span):
                token = token.rstrip(".,")
                if token.startswith(PREFIXES):
                    yield lineno, token


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    checked = 0
    dangling = []
    for pattern in DOCS:
        for doc in sorted(glob.glob(os.path.join(root, pattern))):
            with open(doc, encoding="utf-8") as f:
                text = f.read()
            for lineno, path in doc_paths(text):
                checked += 1
                if not resolves(root, path):
                    dangling.append(
                        f"{os.path.relpath(doc, root)}:{lineno}: {path}")
    for line in dangling:
        print(f"dangling doc path: {line}")
    print(f"checked {checked} doc paths, {len(dangling)} dangling")
    return 1 if dangling else 0


if __name__ == "__main__":
    sys.exit(main())
