"""Guards on the repository's layout: the package stays stdlib-only, its
checks survive ``python -O``, and every pinned digest is stated once, in a
test."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
DIGEST = re.compile(r"\b[0-9a-f]{64}\b")


def test_package_is_stdlib_only():
    # every import in src/ names a standard-library module or the package
    # itself, and the project declares no dependency
    allowed = {*sys.stdlib_module_names, "cochain_tuza"}
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not found, found
    # a regex, not tomllib: Python 3.10 has no TOML reader
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project and re.search(r"^dependencies = \[\]$", project.group(1), re.M)


def test_src_has_no_assert_and_no_debug_flag():
    # CI runs the suite under python -O, which strips assert statements and
    # fixes __debug__ to False: every check in the package is an explicit raise
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Assert)
        ]
        found += [
            f"{path.relative_to(ROOT)}:{lineno}: __debug__"
            for lineno, line in enumerate(text.splitlines(), 1)
            if "__debug__" in line
        ]
    assert not found, found


def test_ci_runs_the_suite_once_under_python_O_and_states_no_pin():
    # a digest or an inline program in the workflow would be a second
    # statement of a fact the tests pin, or a check a local run cannot see
    text = WORKFLOW.read_text()
    assert not DIGEST.findall(text)
    assert not re.search(r"python3?( -\w+)* -c\b", text)
    assert text.count("python -O -m pytest") == 1
    assert text.count("-m pytest") == 2  # the suite and the benchmark smoke test


def test_each_pin_is_stated_once():
    # every 64-hex digest under tests/ and .github/ appears exactly once
    sources = [*sorted((ROOT / "tests").rglob("*.py")), WORKFLOW]
    counts = Counter(d for path in sources for d in DIGEST.findall(path.read_text()))
    assert counts, "no pinned digest found"
    assert all(c == 1 for c in counts.values()), [d for d, c in counts.items() if c > 1]
