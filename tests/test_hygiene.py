"""Static checks on the package source, using only the standard library."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gcgeo"
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detects_unused_import():
    src = "import os\nfrom json import dumps, loads\n\ndef f():\n    return loads('1')\n"
    assert unused_imports(src) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str):
    """The absolute modules named by every import statement, nested ones too."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module)
    return out


def test_detects_imported_modules():
    src = "import os.path\n\ndef f():\n    from dataclasses import dataclass\n    from . import x\n"
    assert imported_modules(src) == {"os.path", "dataclasses"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    # `dataclasses` pulls in `inspect`, `ast` and `dis` at start-up; gcgeo's
    # data classes derive from record.Record instead
    assert "dataclasses" not in imported_modules(path.read_text())


def private_definitions(tree):
    """(name, node) of each module-level private function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(tree):
    """Every name the tree reads, as a Counter."""
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.asname or n.name] += 1
    return out


def unreferenced_privates(sources: dict):
    """(module, name) of private names that no code outside their definition reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    total = sum(map(references, trees.values()), Counter())
    return sorted(
        (mod, name)
        for mod, tree in trees.items()
        for name, node in private_definitions(tree)
        if total[name] == references(node)[name]
    )


def test_detects_unreferenced_private():
    sources = {
        "a": "_K = 1\n\ndef _f():\n    return _f()\n\ndef _g():\n    return _K\n",
        "b": "from a import _g\n",
    }
    assert unreferenced_privates(sources) == [("a", "_f")]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_privates(sources) == []


def is_command(node):
    """A `@command(...)` handler, which cli dispatches by its registered name."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "command"
        for d in node.decorator_list
    )


def public_definitions(tree):
    """(name, node) of each public module-level function and public method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [d for d in node.body if isinstance(d, ast.FunctionDef)]
        else:
            defs = [node] if isinstance(node, ast.FunctionDef) and not is_command(node) else []
        for d in defs:
            if not d.name.startswith("_"):
                yield d.name, d


def export_strings(tree):
    """The strings in a module-level `_EXPORTS` assignment, as a Counter."""
    return Counter(
        n.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    )


def unreferenced_publics(package: dict, users: dict):
    """(module, name) of public functions and methods in `package` that no code
    outside their definition reads, in the package or in `users`."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    total = sum(map(references, trees.values()), Counter())
    total += sum((references(ast.parse(src)) for src in users.values()), Counter())
    total += sum(map(export_strings, trees.values()), Counter())
    return sorted(
        (mod, name)
        for mod, tree in trees.items()
        for name, node in public_definitions(tree)
        if total[name] == references(node)[name]
    )


def test_detects_unreferenced_public():
    package = {
        "__init__": "_EXPORTS = {'a': ('e',)}\n",
        "a": (
            "def e():\n    return 1\n\ndef f():\n    return f()\n\ndef g():\n    return 1\n\n"
            "@command('h')\ndef h(doc):\n    return 1\n\n"
            "class C:\n    def __init__(self):\n        self.m()\n\n"
            "    def m(self):\n        return 1\n\n    def n(self):\n        return 1\n"
        ),
    }
    users = {"test_a": "from a import g\n"}
    assert unreferenced_publics(package, users) == [("a", "f"), ("a", "n")]


def test_every_public_name_is_referenced():
    package = {p.name: p.read_text() for p in SRC.glob("*.py")}
    users = {
        str(p): p.read_text()
        for folder in ("tests", "scripts", "perfbench")
        for p in (ROOT / folder).rglob("*.py")
    }
    assert unreferenced_publics(package, users) == []


def slotted_setattr_calls(source: str):
    """(class, line) of each `object.__setattr__` call inside a class that declares
    `__slots__`: such a class writes its slots through setters bound once."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not any(
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
            for node in cls.body
        ):
            continue
        out += [
            (cls.name, n.lineno)
            for n in ast.walk(cls)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "__setattr__"
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id == "object"
        ]
    return out


def test_detects_slotted_setattr():
    src = (
        "class A:\n    __slots__ = ('x',)\n\n    def __init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n\n"
        "class B:\n    def __init__(self):\n        object.__setattr__(self, 'x', 1)\n"
    )
    assert slotted_setattr_calls(src) == [("A", 5)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_slotted_classes_use_bound_setters(path):
    assert slotted_setattr_calls(path.read_text()) == []


def hasattr_calls(source: str):
    """The lines that call `hasattr`.

    A coefficient is a GaussRat or a Poly, and GaussRat answers the calls
    polynomial code makes (`scalars`' constant-polynomial interface), so a
    duck-typing guard in the package has nothing to test.
    """
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "hasattr"
    ]


def test_detects_hasattr_call():
    src = "def f(c):\n    return c.eval(0) if hasattr(c, 'eval') else c\n\nNAME = 'hasattr'\n"
    assert hasattr_calls(src) == [2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_hasattr(path):
    assert hasattr_calls(path.read_text()) == []


def exp_then_wedge_calls(source: str):
    """The lines that call `.exp_wedge().wedge(...)`.

    `MixedForm.exp_wedge_on` grows e^A ^ Omega as one series that starts at
    Omega; forming e^A first and wedging it afterwards computes every power
    of A on its own.
    """
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "wedge"
        and isinstance(n.func.value, ast.Call)
        and isinstance(n.func.value.func, ast.Attribute)
        and n.func.value.func.attr == "exp_wedge"
    ]


def test_detects_exp_then_wedge():
    src = (
        "def f(a, w):\n    return a.exp_wedge().wedge(w)\n\n"
        "def g(a, w):\n    return (\n        (-a)\n        .exp_wedge()\n        .wedge(w)\n    )\n\n"
        "def h(a, w):\n    return a.exp_wedge_on(w).wedge(w), a.exp_wedge(), w.wedge(a)\n"
    )
    assert exp_then_wedge_calls(src) == [2, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_exp_then_wedge(path):
    assert exp_then_wedge_calls(path.read_text()) == []


def private_slots(source: str, cls: str):
    """The private names in the `__slots__` of class cls in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    return {
                        n.value for n in ast.walk(stmt.value)
                        if isinstance(n, ast.Constant) and n.value.startswith("_")
                    }
    return set()


def slot_reads(source: str, names):
    """(attribute, line) of each access to one of the attribute names."""
    return [
        (n.attr, n.lineno)
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr in names
    ]


POLY_PRIVATE = private_slots((SRC / "scalars.py").read_text(), "Poly")


def test_detects_poly_slot_reads():
    src = (
        "class Poly:\n    __slots__ = ('vars', '_q', '_nums')\n\n"
        "def f(p):\n    q, nums = poly_lane(p)\n    return p._nums, p.vars, p.q\n"
    )
    assert private_slots(src, "Poly") == {"_q", "_nums"}
    assert slot_reads(src, {"_q", "_nums"}) == [("_nums", 6)]
    assert {"_q", "_nums"} <= POLY_PRIVATE


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "scalars.py"], ids=lambda p: p.name
)
def test_poly_storage_is_read_through_the_accessor(path):
    # a Poly's integers are read outside scalars only through `poly_lane`
    assert slot_reads(path.read_text(), POLY_PRIVATE) == []


def bare_calls(source: str, name: str):
    """The lines that call the class `name` itself, not one of its methods."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and (
            isinstance(n.func, ast.Name) and n.func.id == name
            or isinstance(n.func, ast.Attribute) and n.func.attr == name
        )
    ]


def test_detects_bare_structure_calls():
    src = (
        "def f(j):\n    return GCStructure(2, j)\n\n"
        "def g(j):\n    return GCStructure._trusted(2, j), gcs.GCStructure(2, j)\n\n"
        "def h(j):\n    return validate_gc(j), GCStructure\n"
    )
    assert bare_calls(src, "GCStructure") == [2, 5]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "gcs.py"], ids=lambda p: p.name
)
def test_structures_are_built_in_gcs(path):
    # outside gcs a GCStructure comes from validate_gc, which checks its input,
    # or from a gcs construction that is valid by proof
    assert bare_calls(path.read_text(), "GCStructure") == []
