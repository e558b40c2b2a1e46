"""Every module-level function and class in `src/wscan` has a caller in `src`,
and so does every method and property of its classes.

A helper that only tests call belongs in `tests/`, and one that nothing calls
belongs nowhere.  A name counts as used when code outside its own definition
refers to it; a member counts as used when code outside its own definition
reads it as an attribute (`x.name`).  Dunder methods are called by Python
itself and are not checked.  The only other ways to pass are listed below,
with reasons.
"""

import ast
import pathlib
from collections import Counter

import pytest

import wscan

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wscan"

# names that may have no caller in src, and why
ALLOWED = {
    ("cli", "main"): "the console-script entry point",
    ("logic", "formula_str"): "the public formula printer",
}


def _benchmark_targets():
    """(module, function) pairs that the benchmark's tracer wraps by name."""
    tree = ast.parse((ROOT / "wscanbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            # a row's note may be a name such as `bool`, so read only the strings
            return {tuple(ast.literal_eval(e) for e in row.elts[:2]) for row in node.value.elts}
    raise AssertionError("wscanbench/tracer.py has no TARGETS list")


def _definitions_and_references(src):
    """The module-level functions and classes of each module in `src`, and
    every name referred to outside the definition that binds it."""
    defined, referenced = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.add((path.stem, own))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined, referenced


def unreferenced(src):
    defined, referenced = _definitions_and_references(src)
    exempt = set(ALLOWED) | _benchmark_targets()
    return sorted(
        (module, name)
        for module, name in defined
        if name not in referenced and name not in wscan.__all__ and (module, name) not in exempt
    )


def unread_members(src):
    """(module, class, member) for each non-dunder method or property whose
    name is read as an attribute only inside its own definition."""
    members, reads = [], Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                name = item.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                own = sum(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(item))
                members.append(((path.stem, cls.name, name), own))
    return sorted(key for key, own in members if reads[key[2]] == own)


def _copy_of_src_with(tmp_path, appended_to_logic):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "logic.py", "a") as f:
        f.write(appended_to_logic)
    return tmp_path


def test_every_module_level_name_in_src_has_a_caller_in_src():
    assert unreferenced(SRC) == []


def test_every_method_and_property_in_src_is_read_in_src():
    assert unread_members(SRC) == []


def test_every_allowed_name_still_exists():
    defined, _ = _definitions_and_references(SRC)
    assert set(ALLOWED) <= defined
    assert _benchmark_targets() <= defined


def test_an_unreferenced_helper_is_caught(tmp_path):
    src = _copy_of_src_with(tmp_path, "\n\ndef _orphan():\n    return _orphan()\n")
    assert unreferenced(src) == [("logic", "_orphan")]


@pytest.mark.parametrize("decorator", ["", "    @property\n"], ids=["method", "property"])
def test_an_unread_method_or_property_is_caught(tmp_path, decorator):
    # the class has a caller, so only the member rule can catch its orphan
    planted = (
        f"\n\nclass _Host:\n{decorator}    def orphan(self):\n        return self.orphan\n"
        "\n\nHOST = _Host()\n"
    )
    src = _copy_of_src_with(tmp_path, planted)
    assert unreferenced(src) == []
    assert unread_members(src) == [("logic", "_Host", "orphan")]
