#!/usr/bin/env python3
"""Deterministic style gate for src/, tests/, bench/, and examples/.

Enforces the mechanical invariants of the repo's .clang-format profile
(Google style, 79-column limit) that do not depend on having a specific
clang-format version installed:

  * no line longer than 79 columns
  * no tab characters
  * no trailing whitespace
  * LF line endings, file ends with exactly one newline

clang-format itself is advisory (run it locally if you have it); this
check is what CI enforces, because byte-exact clang-format output is not
stable across the versions developers and runners have installed.

Usage: format_check.py [paths...]   (default: src tests bench examples)
Exits non-zero listing every violation.
"""

import sys
from pathlib import Path

COLUMN_LIMIT = 79
EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}


def check_file(path):
    violations = []
    data = path.read_bytes()
    if b"\r" in data:
        violations.append(f"{path}: CRLF line endings")
    if data and not data.endswith(b"\n"):
        violations.append(f"{path}: missing final newline")
    if data.endswith(b"\n\n"):
        violations.append(f"{path}: trailing blank lines at end of file")
    text = data.decode("utf-8", errors="replace")
    for number, line in enumerate(text.splitlines(), start=1):
        if "\t" in line:
            violations.append(f"{path}:{number}: tab character")
        if line != line.rstrip():
            violations.append(f"{path}:{number}: trailing whitespace")
        if len(line) > COLUMN_LIMIT:
            violations.append(
                f"{path}:{number}: line is {len(line)} columns "
                f"(limit {COLUMN_LIMIT})"
            )
    return violations


def main():
    roots = sys.argv[1:] or ["src", "tests", "bench", "examples"]
    files = []
    for root in roots:
        root_path = Path(root)
        if root_path.is_file():
            files.append(root_path)
        else:
            files.extend(
                p
                for p in sorted(root_path.rglob("*"))
                if p.suffix in EXTENSIONS
            )
    violations = []
    for path in files:
        violations.extend(check_file(path))
    if violations:
        print(f"format check failed ({len(violations)} violations):")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"format check passed ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
