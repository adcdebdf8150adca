"""src/ holds only what the program runs: every function, class and method
defined in src/superhecke has a caller there, outside its own definition,
or in perfbench/traced.py, which wraps some of them by name.  A re-export
in the package's __init__.py is not a caller.  Code that only the tests use
lives in tests/helpers.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "superhecke").glob("*.py"))
CALLERS = [p for p in SRC if p.name != "__init__.py"] + [ROOT / "perfbench" / "traced.py"]

# verification helpers that `irreps --verify` is to call (ROADMAP item 8,
# stage 1); until then only the tests do
AWAITING_CALLER = {"verify_irrep_relations", "pairwise_distinct_traces", "character_on_group"}


def _references(tree):
    """(line, name) of every name a module reads: plain and attribute names,
    imported names and string constants, as a wrapper uses them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def test_every_src_definition_has_a_caller():
    refs = [(path, ref) for path in CALLERS for ref in _references(ast.parse(path.read_text()))]
    uncalled = set()
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (p == path and line in own) for p, (line, n) in refs):
                uncalled.add(name)
    # fails, too, once an allowlisted name gains a caller: drop it from the list
    assert uncalled == AWAITING_CALLER


def test_act_is_called_only_by_the_root_data_and_the_rows():
    # every word walk after the root data steps through CoxeterGroupoid.row,
    # which calls act once per (domain, letter)
    calls, in_row = [], 0
    for path in SRC:
        if path.name == "roots.py":
            continue
        tree = ast.parse(path.read_text())
        row = range(0)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "CoxeterGroupoid":
                fn = next(f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "row")
                row = range(fn.lineno, fn.end_lineno + 1)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != "act":
                continue
            if node.lineno in row:
                in_row += 1
            else:
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
    assert in_row == 1


def test_only_main_writes_the_cli_output():
    # each subcommand returns (exit code, document, text) and cli.main writes
    # one of them, with the one schema version; structconst streams through
    # _writer itself
    path = ROOT / "src" / "superhecke" / "cli.py"
    tree = ast.parse(path.read_text())
    writers = {"_emit", "_json_dump", "print", "sys.stdout.write"}
    calls = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in writers:
                calls.append(f"{fn.name}:{node.lineno} {ast.unparse(node.func)}")
    assert calls == []
    literals = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "schema_version"
    ]
    assert len(literals) == 1
