#!/usr/bin/env python3
"""Count the workspace's Rust lines, split into non-test and test.

Every `.rs` file counts, except those under a directory named
`target`, `.git`, `.bench_build`, `perfbench` or `shims`. A file under a
`tests/` directory is all test. In any other file, the lines from the
first line that starts with `#[cfg(test)]` onward are test, and the
lines before it are non-test.

Usage: python3 scripts/loc.py [ROOT]   (ROOT defaults to the repo root)
"""

import os
import sys

SKIP = {"target", ".git", ".bench_build", "perfbench", "shims"}


def count_file(path, is_test_dir):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if is_test_dir:
        return 0, len(lines)
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return i, len(lines) - i
    return len(lines), 0


def count_tree(root):
    non_test = test = 0
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        parts = [] if rel == "." else rel.split(os.sep)
        dirnames[:] = [d for d in dirnames if d not in SKIP]
        is_test_dir = "tests" in parts
        for name in filenames:
            if name.endswith(".rs"):
                n, t = count_file(os.path.join(dirpath, name), is_test_dir)
                non_test += n
                test += t
    return non_test, test


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(here)
    non_test, test = count_tree(root)
    print(f"non-test: {non_test}")
    print(f"test: {test}")


if __name__ == "__main__":
    main()
