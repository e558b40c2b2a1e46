"""Every module-level function and class in `src/wscan` has a caller in `src`,
and so does every method and property of its classes; every field of its
dataclasses is read in `src`.  No module-level name holds state that lives
as long as the process.

A helper that only tests call belongs in `tests/`, and one that nothing calls
belongs nowhere; a field that nothing reads is a stored copy nobody needs.  A
name counts as used when code outside its own definition refers to it; a
member counts as used when code outside its own definition reads it as an
attribute (`x.name`), and a field when any code reads it as an attribute.
Dunder methods are called by Python itself and are not checked.  The only
other ways to pass are listed below, with reasons.
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
    ("problems", "Problem", "origin"): "set by parse_problem's origin=, which the benchmark passes",
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


def _fields_and_reads(src):
    """(module, class, field) for each field of each dataclass, and how often
    each attribute name is read (`x.name` in a load)."""
    fields, reads = [], Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(
            n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        )
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list
            ):
                fields += [
                    (path.stem, cls.name, item.target.id)
                    for item in cls.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return fields, reads


def unread_fields(src):
    """(module, class, field) for each dataclass field that no code reads."""
    fields, reads = _fields_and_reads(src)
    return sorted(f for f in fields if not reads[f[2]] and f not in ALLOWED)


# constructors of mutable containers; `defaultdict` takes its factory
_CONTAINERS = {"dict", "list", "set", "bytearray", "deque", "Counter", "OrderedDict", "defaultdict"}
_COUNTERS = {"count", "itertools.count"}
_CACHES = {"cache", "lru_cache", "functools.cache", "functools.lru_cache"}


def _callee(node):
    """The dotted name a call or decorator calls (`lru_cache` for
    `@lru_cache(maxsize=None)`), or None."""
    if isinstance(node, ast.Call):
        node = node.func
    return ast.unparse(node) if isinstance(node, (ast.Name, ast.Attribute)) else None


def _holds_state(value):
    """An empty mutable container, an `itertools.count()` or a `functools`
    cache: each a cache or counter that lives as long as the process."""
    if isinstance(value, (ast.Dict, ast.List)):
        return not (value.keys if isinstance(value, ast.Dict) else value.elts)
    if not isinstance(value, ast.Call):
        return False
    name = _callee(value)
    short = name and name.rsplit(".", 1)[-1]
    if short in _CONTAINERS:
        return len(value.args) <= (short == "defaultdict")
    # `lru_cache(maxsize=None)(f)` calls the cache that the inner call made
    return name in _COUNTERS or name in _CACHES or _callee(value.func) in _CACHES


def module_state(src):
    """(module, name) for each module-level name bound to process-lifetime
    state: by an assignment, or by defining a function under a cache."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if _holds_state(node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    out += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_callee(d) in _CACHES for d in node.decorator_list):
                    out.append((path.stem, node.name))
    return sorted(out)


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


def test_every_dataclass_field_in_src_is_read_in_src():
    assert unread_fields(SRC) == []


def test_every_allowed_name_still_exists():
    defined, _ = _definitions_and_references(SRC)
    fields, _ = _fields_and_reads(SRC)
    assert set(ALLOWED) <= defined | set(fields)
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


def test_an_unread_dataclass_field_is_caught(tmp_path):
    # the class has a caller and no method, so only the field rule can catch it
    planted = "\n\n@dataclass\nclass _Host:\n    orphan: int = 0\n\n\nHOST = _Host()\n"
    src = _copy_of_src_with(tmp_path, planted)
    assert unreferenced(src) == []
    assert unread_members(src) == []
    assert unread_fields(src) == [("logic", "_Host", "orphan")]


def test_no_module_level_name_in_src_holds_process_state():
    assert module_state(SRC) == []


@pytest.mark.parametrize(
    "planted, names",
    [
        ("_memo: dict[str, int] = {}\n", ["_memo"]),
        ("_seen = _order = set()\n", ["_order", "_seen"]),
        ("_queue = collections.defaultdict(list)\n", ["_queue"]),
        ("_ids = itertools.count(1)\n", ["_ids"]),
        ("@functools.lru_cache(maxsize=None)\ndef _memo(x):\n    return x\n", ["_memo"]),
        ("@cache\ndef _memo(x):\n    return x\n", ["_memo"]),
        ("_memo = lru_cache(maxsize=None)(str)\n", ["_memo"]),
    ],
    ids=["empty-dict", "empty-set", "defaultdict", "count", "lru-cache", "cache", "cache-call"],
)
def test_module_level_process_state_is_caught(tmp_path, planted, names):
    src = _copy_of_src_with(tmp_path, "\n\n" + planted)
    assert module_state(src) == [("logic", n) for n in names]


def test_constant_tables_are_not_module_state(tmp_path):
    planted = '\n\nTABLE = {"a": 1}\nNOTHING = ()\nNAMES = frozenset()\nROWS = list(range(3))\n'
    assert module_state(_copy_of_src_with(tmp_path, planted)) == []
