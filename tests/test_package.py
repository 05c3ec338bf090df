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


def test_every_kernel_is_called_from_another_module():
    # the package keeps only what it runs: each kernel but ``warmup`` (which
    # calls the others) has a call site outside ``_kernels.py``
    package = Path(subseq_automata.__file__).resolve().parent
    kernels = {
        node.name
        for node in ast.parse((package / "_kernels.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name != "warmup"
    }
    called = set()
    for path in sorted(package.rglob("*.py")):
        if path.name == "_kernels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
        aliases = [(node.module, a.name, a.asname or a.name) for node in imports for a in node.names]
        modules = {alias for module, name, alias in aliases if module is None and name == "_kernels"}
        names = {alias: name for module, name, alias in aliases if module == "_kernels"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in names:
                called.add(names[f.id])
    assert kernels
    assert sorted(kernels - called) == []
