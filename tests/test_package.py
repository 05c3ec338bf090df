"""The package namespace: every exported name resolves, listed in order, the
README's Python examples run, and the package's checks hold under ``python
-O``."""

import ast
import re
from pathlib import Path

import subseq_automata

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_and_are_sorted():
    missing = [name for name in subseq_automata.__all__ if not hasattr(subseq_automata, name)]
    assert missing == []
    assert subseq_automata.__all__ == sorted(subseq_automata.__all__)
    assert len(set(subseq_automata.__all__)) == len(subseq_automata.__all__)


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements: every check on input must raise
    package = Path(subseq_automata.__file__).resolve().parent
    asserts = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
