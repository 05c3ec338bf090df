"""The package namespace: every exported name resolves, listed in order, the
README's Python examples and ``subseqa`` lines run, its flag table matches the
parser, and the package's checks hold under ``python -O``."""

import argparse
import ast
import importlib
import re
import shlex
from pathlib import Path

import subseq_automata
from subseq_automata import cli
from subseq_automata.cli import main

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


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every ``subseqa`` line of the README's bash blocks, in order, in one
    # directory; ``match`` may reject (exit 1), and ``> file`` goes to --out
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    commands = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["subseqa"]]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if ">" in argv:
            at = argv.index(">")
            argv = [*argv[:at], "--out", *argv[at + 1 :]]
        assert main(argv) in ((0, 1) if argv[0] == "match" else (0,)), (argv, capsys.readouterr().err)


def test_readme_flag_table_matches_the_parser():
    # the README's per-command flag table lists, command by command, the
    # options of the parser (help aside), so the two cannot drift apart
    readme = README.read_text(encoding="utf-8")
    table = re.search(r"^\| command \| flags it reads \|\n\|---\|---\|\n((?:\|.*\n)+)", readme, re.M)
    assert table
    documented = {
        command: sorted(re.findall(r"`(--[\w-]+)`", flags))
        for command, flags in re.findall(r"^\| `(\w+)` \| (.*) \|$", table[1], re.M)
    }
    (commands,) = [a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        command: sorted(o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))
        for command, parser in commands.items()
    }
    assert documented == parsed


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


def test_every_definition_is_used_or_exported():
    # the package keeps only what it runs: each kernel but ``warmup`` (which
    # calls the others) has a call site outside ``_kernels.py``, and every
    # module-level function and class is referenced in the package outside
    # its own definition, or exported in ``__all__``
    package = Path(subseq_automata.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    kernels = {name for module, name in defined if module == "_kernels" and name != "warmup"}
    called, referenced = set(), set()
    for module, tree in trees.items():
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
        aliases = [(node.module, a.name, a.asname or a.name) for node in imports for a in node.names]
        modules = {alias: name for source, name, alias in aliases if source is None}
        names = {alias: (source, name) for source, name, alias in aliases if source is not None}
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            calls = {id(node.func) for node in ast.walk(stmt) if isinstance(node, ast.Call)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    target = names.get(node.id, (module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                referenced.add(target)
                if target[0] == "_kernels" and module != "_kernels" and id(node) in calls:
                    called.add(target[1])
    exported = {
        (module, name)
        for module, name in defined
        if name in subseq_automata.__all__
        and getattr(subseq_automata, name) is getattr(importlib.import_module(f"subseq_automata.{module}"), name)
    }
    assert kernels
    assert sorted(kernels - called) == []
    assert sorted(defined - referenced - exported) == []


def test_every_reference_definition_is_used():
    # tests/reference.py holds only what the tests check against: each of its
    # top-level definitions is imported from it by a test module, or named in
    # another of its top-level statements
    tests = Path(__file__).resolve().parent
    reference = ast.parse((tests / "reference.py").read_text(encoding="utf-8"))
    defined, used = set(), set()
    for stmt in reference.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            own = {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
        else:
            continue
        defined |= own
        used |= {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)} - own
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "reference":
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "reference":
                used.add(node.attr)
    assert defined
    assert sorted(defined - used) == []
