import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "febe"


def _identifiers(node):
    """Counter of the identifiers a syntax tree mentions: names, attributes,
    imported names and the parts of dotted-name string constants
    (bench/spans.py names the functions it traces by string)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and re.fullmatch(r"[\w.]+", n.value)):
            found.update(n.value.split("."))
    return found


def test_every_public_name_has_a_program_caller():
    """Each public module-level function and class of src/febe, and each
    public method of those classes, is named somewhere outside its own
    definition in src/febe, in bench/ or in pyproject.toml: an API that
    only tests read belongs in tests/."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in
             sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))}
    used = sum((_identifiers(t) for t in trees.values()), Counter())
    used.update(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(path.stem, node)]
            if isinstance(node, ast.ClassDef):
                members += [("%s.%s" % (path.stem, node.name), n) for n in node.body
                            if isinstance(n, ast.FunctionDef)]
            unused += ["%s.%s" % (owner, n.name) for owner, n in members
                       if not n.name.startswith("_")
                       and used[n.name] <= _identifiers(n)[n.name]]
    assert not unused, "public names no program path reads: " + ", ".join(unused)
