"""Compare every CLI golden against the installed console script.

    python3 .github/scripts/check_goldens.py

Reads ``GOLDEN_CASES``, the table of golden file name to argv in
tests/test_cli.py (parsed, not imported, so the test suite's imports are not
needed), runs the ``clusterline`` found on PATH with each argv and compares
its stdout byte for byte with tests/goldens/<name>. Exits 1 with one line
per golden that differs or whose command fails.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN_DIR = os.path.join(ROOT, "tests", "goldens")


def golden_cases() -> dict[str, str]:
    with open(os.path.join(ROOT, "tests", "test_cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "GOLDEN_CASES" for target in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_cli.py defines no GOLDEN_CASES")


def main() -> int:
    cases = golden_cases()
    problems = []
    for name, argv in sorted(cases.items()):
        proc = subprocess.run(["clusterline", *argv.split()], capture_output=True)
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            expected = fh.read()
        if proc.returncode != 0:
            problems.append(f"{name}: `clusterline {argv}` exited {proc.returncode}: {proc.stderr.decode().strip()}")
        elif proc.stdout != expected:
            problems.append(f"{name}: `clusterline {argv}` differs from tests/goldens/{name}")
    for line in problems:
        print(line)
    print(f"{len(cases) - len(problems)} of {len(cases)} goldens match the installed clusterline")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
