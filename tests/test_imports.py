"""Static checks: every name a graftkit module imports is used in that module,
and every top-level function, class or constant of a graftkit module, and
every non-dunder method of its classes, is referenced somewhere in src/ or
perfbench/ outside its own definition; a reference from tests/ alone does
not keep a name alive, except for the names in ``AWAITING_REPORT``.  A
method that shares its name with a method of a builtin container, ``str`` or
``np.ndarray`` counts as referenced only through ``self.<name>`` in its
class or ``<Class>.<name>``.  Every defaulted parameter of a graftkit function
or method is set by some call in src/ or perfbench/, except the options in
``AWAITING_REPORT_OPTIONS``, and so is every defaulted field of a graftkit
dataclass that is not read from a file.  No graftkit module parses JSON
outside ``params.read_json``, none writes to a ``.data`` in place outside
``Parameter.write``, which bumps the parameter's version, and none but
``partworker`` imports ``multiprocessing``, ``mmap``, ``pickle`` or ``signal``,
which maps shared memory only for its request and reply areas and its part
counter.  Every
``PartKind`` a graftkit module defines has an entry in
``tests/test_partworker.py``'s ``STEPS``.  ``autograd.py`` calls no
reduction method (``.sum``, ``.mean``, ``.max``, ...) and none of
``np.transpose``, ``np.argsort``, ``np.any`` or ``np.all``.  No graftkit
module but ``autograd`` names ``NEG_INF`` or ``key_padding_mask``, nothing in
``autograd`` outside ``class Visible`` reads ``NEG_INF``, and no graftkit
function has a ``causal`` parameter.  No graftkit module but ``train`` calls
an optimizer's ``.step(`` or loops ``for step in range(``."""

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "graftkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
# Tested names that only the planned run report will call, each with the
# table of it that the name serves; the report empties this list.
AWAITING_REPORT = {
    ("stats.py", "delong_ci"): "zero-shot AUC per finding with a DeLong 95% CI",
    ("stats.py", "noninferiority_margin_test"):
        "data-efficiency curve: smallest training size against the full size",
    ("qa.py", "aggregate_grades"): "VQA accuracy, sensitivity and specificity",
    ("vqa.py", "auto_grade_yes_no"): "VQA grades of the presence questions, N/A excluded",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import outside ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((name, line) for name, line in imported_names(tree).items()
                  if name not in used)


def test_checker_flags_unused_and_accepts_used():
    src = ("from __future__ import annotations\n"
           "import os\nimport numpy as np\nfrom json import dumps, loads\n"
           "from pathlib import Path\n"
           "def f(x: 'Path') -> None:\n    return np.zeros(1), loads(x), 'os'\n")
    assert unused_imports(src) == [("dumps", 4), ("os", 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# --------------------------------------------------------------------------
# dead top-level names and methods

_PATH = re.compile(r"[A-Za-z_][\w.:]*")  # "name", "pkg.mod:Name" (tracer targets)


def referenced_names(tree: ast.AST) -> Counter:
    """Names loaded, reached as attributes, imported, spelled as an identifier
    path string (``getattr`` targets) or used in a quoted annotation."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _PATH.fullmatch(node.value)):
            refs.update(re.split(r"[.:]", node.value))
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                refs.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return refs


def top_level_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def methods(tree: ast.Module):
    """(class, method) for the non-dunder methods of each top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield node, item


# Public method names of the builtin containers, str and np.ndarray: a method
# of one of these names (say ``extend``) would look referenced by every
# ``list.extend`` call, so it must be reached through its own class.
SHARED_NAMES = {name for t in (list, dict, set, str, tuple, np.ndarray) for name in dir(t)
                if not name.startswith("_")}


def attribute_uses(tree: ast.AST, owner: str, name: str) -> int:
    """The ``<owner>.<name>`` attributes in ``tree``."""
    return sum(isinstance(n, ast.Attribute) and n.attr == name
               and isinstance(n.value, ast.Name) and n.value.id == owner for n in ast.walk(tree))


def class_uses(cls: ast.ClassDef, fn: ast.FunctionDef, trees) -> int:
    """``self.<fn>`` inside ``cls`` plus ``<cls>.<fn>`` anywhere in ``trees``,
    outside ``fn`` itself."""
    inside = attribute_uses(fn, "self", fn.name) + attribute_uses(fn, cls.name, fn.name)
    return (attribute_uses(cls, "self", fn.name) - inside
            + sum(attribute_uses(t, cls.name, fn.name) for t in trees))


def dead_definitions(modules: dict[str, str], others=()) -> list[tuple[str, str]]:
    """(module, name) for each top-level definition or method in ``modules``
    that no source in ``modules`` or ``others`` references outside the
    definition.  A method counts as referenced when any attribute of that
    name is, except that one named in ``SHARED_NAMES`` (and not a property)
    counts only through ``class_uses``."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    everything = [*trees.values(), *(ast.parse(src) for src in others)]
    refs = Counter()
    for tree in everything:
        refs += referenced_names(tree)
    dead = [(mod, name) for mod, tree in trees.items()
            for name, node in top_level_definitions(tree)
            if refs[name] <= referenced_names(node)[name]]
    for mod, tree in trees.items():
        for cls, fn in methods(tree):
            if fn.name in SHARED_NAMES and not any(
                    isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list):
                live = class_uses(cls, fn, everything) > 0
            else:
                live = refs[fn.name] > referenced_names(fn)[fn.name]
            if not live:
                dead.append((mod, fn.name))
    return sorted(dead)


def test_dead_checker_flags_unreferenced_definitions():
    module = ("X = 1\nY = 2\nZ: int = 3\n"
              "def f(n):\n    return f(n - 1)\n"
              "class C:\n    def copy(self) -> 'C':\n        return self\n"
              "class D:\n    def __init__(self):\n        self.go()\n"
              "    def go(self):\n        pass\n    def stop(self):\n        self.stop()\n"
              "def g():\n    return Y, D()\n")
    other = "import m\nm.g()\ngetattr(m, 'Z')\n"
    assert dead_definitions({"m": module}, [other]) == [
        ("m", "C"), ("m", "X"), ("m", "copy"), ("m", "f"), ("m", "stop")]


def test_dead_checker_resolves_builtin_method_names_by_class():
    """An orphaned ``extend`` is dead although ``[].extend`` is called; one
    reached as ``self.extend`` in its class or as ``Lm.extend`` is not, and a
    property of a shared name is exempt."""
    module = ("class Block:\n    def extend(self, x):\n        return self.extend(x)\n"
              "class Lm:\n    def extend(self, x):\n        return x\n"
              "    def decode(self):\n        return self.extend(1)\n"
              "class Grid:\n    def count(self):\n        return 0\n"
              "    @property\n    def index(self):\n        return 0\n"
              "def run():\n    [].extend([Lm().decode(), Grid.count, Grid().index])\n")
    other = "import m\nm.run()\n"
    assert dead_definitions({"m": module}, [other]) == [("m", "Block"), ("m", "extend")]


def graftkit_sources(root: Path) -> tuple[dict[str, str], list[str]]:
    """(module file name -> source) of the graftkit modules under ``root``,
    and the sources of every other file of src/ and perfbench/ (tests/ are
    not callers)."""
    src = root / "src" / "graftkit"
    modules = {p.name: p.read_text() for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    callers = [p.read_text() for d in ("src", "perfbench") for p in sorted((root / d).rglob("*.py"))
               if p.parent != src or p.name == "__init__.py"]
    return modules, callers


def dead_names(root: Path, exempt=()) -> list[tuple[str, str]]:
    """``dead_definitions`` of the graftkit modules under ``root``, with src/
    and perfbench/ as callers, less the ``exempt`` names."""
    return [d for d in dead_definitions(*graftkit_sources(root)) if d not in exempt]


def test_dead_checker_does_not_count_tests_as_callers(tmp_path):
    """A name only a test references is dead, unless it is exempt; one that
    perfbench/ references is live."""
    for d in ("src/graftkit", "tests", "perfbench"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/graftkit/m.py").write_text(
        "def reported():\n    return 1\ndef tested():\n    return 2\ndef benched():\n    return 3\n")
    (tmp_path / "tests/test_m.py").write_text("from graftkit.m import reported, tested\n")
    (tmp_path / "perfbench/run.py").write_text("from graftkit.m import benched\n")
    assert dead_names(tmp_path) == [("m.py", "reported"), ("m.py", "tested")]
    assert dead_names(tmp_path, exempt={("m.py", "reported")}) == [("m.py", "tested")]


def test_no_dead_top_level_names():
    assert dead_names(ROOT, exempt=AWAITING_REPORT) == []


def test_awaiting_report_has_no_stale_entry():
    """Each allowlisted name still exists and still has no caller in src/ or
    perfbench/; one that gained a caller leaves the list."""
    defined = {(p.name, name) for p in MODULES
               for name, _ in top_level_definitions(ast.parse(p.read_text()))}
    dead = set(dead_names(ROOT))
    assert {k: "has a caller" if k in defined else "is gone"
            for k in AWAITING_REPORT if k not in dead} == {}


# --------------------------------------------------------------------------
# options that no caller sets

# Options of names awaiting the report, each with the ``AWAITING_REPORT``
# entry whose table will set it.
AWAITING_REPORT_OPTIONS = {
    ("stats.py", "delong_ci", "alpha"): ("stats.py", "delong_ci"),
    ("stats.py", "delong_compare", "alpha"): ("stats.py", "noninferiority_margin_test"),
    ("stats.py", "noninferiority_margin_test", "margin"):
        ("stats.py", "noninferiority_margin_test"),
}


def defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter of ``fn`` with a default; the
    position is None for a keyword-only one."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    first = len(positional) - len(args.defaults)
    return ([(i, positional[i]) for i in range(first, len(positional))]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _is_super_init(call: ast.Call) -> bool:
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr == "__init__" and isinstance(f.value, ast.Call)
            and isinstance(f.value.func, ast.Name) and f.value.func.id == "super")


def _name(node: ast.AST) -> str | None:
    """``f`` of a name ``f`` or an attribute ``x.f``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Calls keyed by the name they call (``f(...)``, ``x.f(...)``); a class
    is called by its name, and ``super().__init__(...)`` in a class calls
    each of its bases."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))]
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and _is_super_init(call):
                        for base in bases:
                            calls.setdefault(base, []).append(call)
            elif isinstance(node, ast.Call) and not _is_super_init(node):
                name = _name(node.func)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` sets the parameter ``name`` at ``position`` (counted
    after any bound first parameter): by keyword, by position, or through
    ``*`` / ``**`` unpacking."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))


def callables(tree: ast.Module):
    """(label, name calls use, function, bound parameters) of every function
    and method in ``tree`` but ``__call__``: a method binds its first
    parameter unless it is a staticmethod, and ``__init__`` is called by its
    class's name."""
    methods = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(fn)
                if fn.name == "__call__":
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                init = fn.name == "__init__"
                yield (f"{cls.name}.__init__" if init else fn.name,
                       cls.name if init else fn.name, fn, 0 if static else 1)
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn not in methods:
            yield fn.name, fn.name, fn, 0


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def dataclass_fields(cls: ast.ClassDef) -> list[tuple[int, str, bool]]:
    """(position, name, defaulted) of each ``__init__`` field of a dataclass:
    its annotated class attributes but ``ClassVar``s and ``init=False``
    fields, which take no position."""
    fields = []
    for node in cls.body:
        if (not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name)
                or "ClassVar" in ast.unparse(node.annotation)):
            continue
        value, defaulted = node.value, node.value is not None
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        fields.append((len(fields), node.target.id, defaulted))
    return fields


def type_names(node: ast.AST) -> set[str]:
    """The names a type expression uses, quoted ones too."""
    return {n.id if isinstance(n, ast.Name) else n.value for n in ast.walk(node)
            if isinstance(n, ast.Name) or (isinstance(n, ast.Constant)
                                           and isinstance(n.value, str) and n.value.isidentifier())}


def decoded_dataclasses(trees) -> set[str]:
    """The names of the dataclasses ``params.decode`` builds from files: each
    name in the kind argument of a ``decode`` or ``decode_field`` call, and
    each name in the field types of a dataclass so named (a decorated class
    or a ``make_dataclass``), which ``decode`` builds too."""
    field_types: dict[str, set[str]] = {}
    decoded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                field_types.setdefault(node.name, set()).update(
                    *(type_names(n.annotation) for n in node.body if isinstance(n, ast.AnnAssign)))
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and _name(node.value.func) == "make_dataclass"):
                # make_dataclass(name, [(field, type), ...])
                types = [type_names(f.elts[1]) for f in ast.walk(node.value)
                         if isinstance(f, ast.Tuple) and len(f.elts) > 1]
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        field_types.setdefault(target.id, set()).update(*types)
            elif isinstance(node, ast.Call) and _name(node.func) in ("decode", "decode_field"):
                at = 3 if _name(node.func) == "decode" else 4  # decode(path, where, value, kind)
                kinds = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "kind"]
                decoded.update(*map(type_names, kinds))
    pending = set(decoded)
    while pending:
        new = field_types.get(pending.pop(), set()) - decoded
        decoded |= new
        pending |= new
    return decoded


def _targets(node: ast.AST):
    """The single targets of an assignment target, tuples unpacked."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def assigned_fields(trees) -> set[str]:
    """The field names set other than by a constructor call: each keyword of a
    ``replace`` call, and every attribute in the target chain of an
    assignment not rooted at ``self`` (``cfg.qformer.vocab_size = ...``
    sets ``qformer`` and ``vocab_size``)."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) == "replace":
                names.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                tops = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in (t for top in tops for t in _targets(top)):
                    chain = []
                    while isinstance(target, ast.Attribute):
                        chain.append(target.attr)
                        target = target.value
                    if not (isinstance(target, ast.Name) and target.id == "self"):
                        names.update(chain)
    return names


def unset_options(root: Path, exempt=()) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each defaulted parameter of a
    graftkit function or method under ``root`` that no call in src/ or
    perfbench/ sets, and (module, class, field) for each defaulted field of a
    graftkit dataclass that no code there sets, less the ``exempt`` ones.
    Methods are matched by name, and so are fields outside a constructor
    call; ``init=False`` fields and the dataclasses that ``decode`` builds
    from files are not checked."""
    modules, callers = graftkit_sources(root)
    trees = {name: ast.parse(source) for name, source in modules.items()}
    everything = [*trees.values(), *(ast.parse(source) for source in callers)]
    calls = calls_by_name(everything)
    unset = [(mod, label, name) for mod, tree in trees.items()
             for label, called_as, fn, bound in callables(tree)
             for position, name in defaulted_parameters(fn)
             if not any(passes(c, None if position is None else position - bound, name)
                        for c in calls.get(called_as, []))]
    assigned, decoded = assigned_fields(everything), decoded_dataclasses(everything)
    unset += [(mod, cls.name, name) for mod, tree in trees.items() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and is_dataclass(cls) and cls.name not in decoded
              for position, name, defaulted in dataclass_fields(cls)
              if defaulted and name not in assigned
              and not any(passes(c, position, name) for c in calls.get(cls.name, []))]
    return sorted(u for u in unset if u not in exempt)


def test_unset_option_checker_counts_only_src_and_perfbench_calls(tmp_path):
    """An option is set by keyword, by position, by unpacking or through
    ``super().__init__``; one only a test sets is unset, and ``__call__`` is
    not checked."""
    for d in ("src/graftkit", "tests", "perfbench"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/graftkit/m.py").write_text(
        "def f(x, by_pos=1, by_kw=2, tested=3, unset=4):\n    return x\n"
        "def g(x, by_star=1, by_kwargs=2):\n    return x\n"
        "class Base:\n    def __init__(self, by_super=1, unset=2):\n        pass\n"
        "    def run(self, by_pos=1, *, by_kw=2, unset=3):\n        return by_pos\n"
        "    def __call__(self, x=None):\n        return x\n"
        "    @staticmethod\n    def make(by_pos=1):\n        return Base()\n"
        "class Sub(Base):\n    def __init__(self):\n        super().__init__(by_super=0)\n")
    (tmp_path / "src/graftkit/other.py").write_text(
        "from .m import f, g\nf(0, 1, by_kw=2)\ng(*[0, 1])\n")
    (tmp_path / "perfbench/run.py").write_text(
        "from graftkit.m import Base, g\ng(0, **{'by_kwargs': 2})\n"
        "Base().run(1, by_kw=2)\nBase.make(3)\n")
    (tmp_path / "tests/test_m.py").write_text("from graftkit.m import f\nf(0, tested=1)\n")
    assert unset_options(tmp_path) == [
        ("m.py", "Base.__init__", "unset"), ("m.py", "f", "tested"), ("m.py", "f", "unset"),
        ("m.py", "run", "unset")]
    assert unset_options(tmp_path, exempt={("m.py", "f", "unset")}) == [
        ("m.py", "Base.__init__", "unset"), ("m.py", "f", "tested"), ("m.py", "run", "unset")]


def test_unset_field_checker_counts_only_src_and_perfbench_setters(tmp_path):
    """A dataclass field is set by keyword, by position, by ``**``, by
    ``replace`` or by an assignment not rooted at ``self``, which sets each
    attribute of its chain; a ``self.`` assignment or a test does not set
    one.  ``init=False`` fields take no position and are not checked, nor are
    the dataclasses ``decode`` builds, with their fields' dataclasses."""
    for d in ("src/graftkit", "tests", "perfbench"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/graftkit/m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass Inner:\n    by_chain: int = 1\n    unset: int = 2\n"
        "@dataclass\nclass Cfg:\n    need: int\n    cache: int = field(default=0, init=False)\n"
        "    by_pos: int = 1\n    by_kw: int = 2\n    by_replace: int = 3\n"
        "    inner: Inner = field(default_factory=Inner)\n    by_self: int = 4\n"
        "    tested: int = 5\n    CONSTANT = 6\n"
        "    def reset(self):\n        self.by_self = 0\n"
        "@dataclass(frozen=True)\nclass Spread:\n    a: int = 1\n    b: int = 2\n"
        "@dataclass\nclass Saved:\n    x: int = 1\n    part: 'Part' = None\n"
        "@dataclass\nclass Part:\n    y: int = 1\n")
    (tmp_path / "src/graftkit/other.py").write_text(
        "from dataclasses import replace\nfrom .m import Cfg, Saved\nfrom .params import decode\n"
        "cfg = replace(Cfg(0, 1), by_replace=3)\n"
        "saved = decode('f.json', 'the file', {}, list[Saved])\n")
    (tmp_path / "perfbench/run.py").write_text(
        "from graftkit.m import Cfg, Spread\ncfg = Cfg(0, by_kw=2)\ncfg.inner.by_chain = 3\n"
        "Spread(**{})\n")
    (tmp_path / "tests/test_m.py").write_text("from graftkit.m import Cfg\nCfg(0, tested=1)\n")
    assert unset_options(tmp_path) == [
        ("m.py", "Cfg", "by_self"), ("m.py", "Cfg", "tested"), ("m.py", "Inner", "unset")]


def test_no_option_without_a_caller_that_sets_it():
    """A defaulted parameter no caller sets is a constant: inline it."""
    assert unset_options(ROOT, exempt=AWAITING_REPORT_OPTIONS) == []


def test_awaiting_report_options_have_no_stale_entry():
    """Each exempt option belongs to a name awaiting the report and is still
    unset; one that gained a caller leaves the list."""
    assert {k: v for k, v in AWAITING_REPORT_OPTIONS.items() if v not in AWAITING_REPORT} == {}
    assert set(AWAITING_REPORT_OPTIONS) <= set(unset_options(ROOT))


# --------------------------------------------------------------------------
# JSON parsed outside the one reader


def json_parses(root: Path) -> list[tuple[str, int]]:
    """(module, line) of each ``json.load`` / ``json.loads`` call, and each
    import of either from ``json``, in the graftkit modules under ``root``
    outside the body of ``params.read_json``."""
    found = []
    for path in sorted((root / "src" / "graftkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        reader = {id(n) for fn in tree.body if path.name == "params.py"
                  and isinstance(fn, ast.FunctionDef) and fn.name == "read_json"
                  for n in ast.walk(fn)}
        for node in ast.walk(tree):
            call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("load", "loads")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")
            imported = (isinstance(node, ast.ImportFrom) and node.module == "json"
                        and any(a.name in ("load", "loads") for a in node.names))
            if (call or imported) and id(node) not in reader:
                found.append((path.name, node.lineno))
    return sorted(found)


def test_json_parse_checker_flags_all_but_the_reader(tmp_path):
    (tmp_path / "src/graftkit").mkdir(parents=True)
    (tmp_path / "src/graftkit/params.py").write_text(
        "import json\ndef read_json(path):\n    return json.loads(path.read_text())\n"
        "def other(text):\n    return json.loads(text)\n")
    (tmp_path / "src/graftkit/m.py").write_text(
        "import json\nfrom json import load\ndef read_json(fh):\n    return json.load(fh)\n"
        "def dump(x):\n    return json.dumps(x)\n")
    assert json_parses(tmp_path) == [("m.py", 2), ("m.py", 4), ("params.py", 5)]


def test_json_is_parsed_only_by_the_reader():
    """Every JSON file goes through ``read_json`` and ``decode``, which name
    the file and the field of a bad input."""
    assert json_parses(ROOT) == []


# --------------------------------------------------------------------------
# parameter values written outside the one version-bumping method


def _reaches_data(node) -> bool:
    """Whether ``node`` is ``<x>.data``, or a subscript, attribute or call
    result down a chain from one (``p.data[0]``, ``p.data.reshape(-1)``)."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Call)):
        if isinstance(node, ast.Attribute) and node.attr == "data":
            return True
        node = node.func if isinstance(node, ast.Call) else node.value
    return False


def data_writes(root: Path) -> list[tuple[str, int]]:
    """(module, line) of each in-place write to a ``.data`` in the graftkit
    modules under ``root``: an assignment to or into one (``=``, ``-=``,
    ``+=``, ``[...] =``) or a call's ``out=`` one, outside the bodies of
    ``autograd.Parameter.write`` and of ``autograd.Tensor.__init__``, which
    binds a new tensor's data."""
    exempt = {("Parameter", "write"), ("Tensor", "__init__")}
    found = []
    for path in sorted((root / "src" / "graftkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(n) for cls in tree.body if path.name == "autograd.py"
                   and isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and (cls.name, fn.name) in exempt
                   for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                targets = [k.value for k in node.keywords if k.arg == "out"]
            else:
                continue
            if id(node) not in allowed and any(_reaches_data(t) for t in targets):
                found.append((path.name, node.lineno))
    return sorted(found)


def test_data_write_checker_flags_all_but_the_version_bumping_method(tmp_path):
    (tmp_path / "src/graftkit").mkdir(parents=True)
    (tmp_path / "src/graftkit/autograd.py").write_text(
        "import numpy as np\n"
        "class Tensor:\n"
        "    def __init__(self, data):\n"
        "        self.data = data\n"
        "class Parameter(Tensor):\n"
        "    def write(self, value, ufunc=None):\n"
        "        self.data[...] = value\n"
        "        ufunc(self.data, value, out=self.data)\n"
        "    def other(self, value):\n"
        "        self.data = value\n")
    (tmp_path / "src/graftkit/optim.py").write_text(
        "import numpy as np\n"
        "def step(p, d, buf):\n"
        "    p.data -= d\n"
        "    p.data += d\n"
        "    p.data[...] = d\n"
        "    p.data.reshape(-1)[0] = 1.0\n"
        "    np.subtract(p.data, d, out=p.data)\n"
        "    np.subtract(p.data, d, out=buf)\n"
        "    buf -= p.data\n"
        "    buf[...] = p.data\n"
        "    p.write(d, np.subtract)\n")
    assert data_writes(tmp_path) == [("autograd.py", 10), ("optim.py", 3), ("optim.py", 4),
                                     ("optim.py", 5), ("optim.py", 6), ("optim.py", 7)]


def test_parameter_values_are_written_only_by_the_version_bumping_method():
    """A write that skips ``Parameter.write`` leaves the version as it was,
    so ``ParamRegistry.memo`` and ``LmState`` would serve stale values."""
    assert data_writes(ROOT) == []


# --------------------------------------------------------------------------
# process machinery outside the part worker


PROCESS_MODULES = ("multiprocessing", "mmap", "pickle", "signal")


def process_imports(root: Path) -> list[tuple[str, int]]:
    """(module, line) of each import of ``PROCESS_MODULES`` (or of a
    submodule or name from one) in the graftkit modules under ``root``
    other than ``partworker.py``."""
    found = []
    for path in sorted((root / "src" / "graftkit").glob("*.py")):
        if path.name == "partworker.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] in PROCESS_MODULES for n in names):
                found.append((path.name, node.lineno))
    return found


def test_process_import_checker_flags_all_but_the_worker_module(tmp_path):
    (tmp_path / "src/graftkit").mkdir(parents=True)
    (tmp_path / "src/graftkit/partworker.py").write_text("import mmap\nimport signal\n")
    (tmp_path / "src/graftkit/m.py").write_text(
        "import os, mmap\nfrom multiprocessing import get_context\n"
        "import multiprocessing.shared_memory\nfrom . import signal\nimport signals\n"
        "from pickle import loads\nimport pickletools\ndef f():\n    import signal\n")
    assert process_imports(tmp_path) == [("m.py", 1), ("m.py", 2), ("m.py", 3), ("m.py", 6),
                                         ("m.py", 9)]


def test_only_the_worker_module_starts_or_signals_processes():
    """Processes, shared memory, the pickles sent between processes and
    signal handlers live in ``partworker``, so the model modules hold models
    only."""
    assert process_imports(ROOT) == []


def mmap_calls(path: Path) -> list[str]:
    """The name of the top-level function or class around each
    ``mmap.mmap(...)`` (or ``mmap(...)``) call in the module at ``path``,
    ``"?"`` for one outside any."""
    found = []
    for top in ast.parse(path.read_text()).body:
        found += [getattr(top, "name", "?") for node in ast.walk(top)
                  if isinstance(node, ast.Call) and _name(node.func) == "mmap"]
    return found


def test_mmap_checker_names_the_definition_around_each_call(tmp_path):
    path = tmp_path / "partworker.py"
    path.write_text("import mmap\nA = mmap.mmap(-1, 8)\n"
                    "def f():\n    return mmap.mmap(-1, 8), mmap.mmap(-1, 16)\n"
                    "class C:\n    def g(self):\n        self.b = mmap.mmap(-1, 8)\n"
                    "    h = mmap.mmap\n")
    assert mmap_calls(path) == ["?", "f", "f", "C"]


def test_the_worker_module_maps_shared_memory_in_two_places():
    """Every step's data, the weights and gradients included, travels as a
    message through the request and reply areas (``_areas``); the part
    counter (``_PartCounter``) is synchronisation.  A third mapping would be
    a second way to move data."""
    assert mmap_calls(SRC / "partworker.py") == ["_areas", "_PartCounter"]


# --------------------------------------------------------------------------
# part kinds without the part worker's lifecycle tests


def part_kinds(root: Path) -> list[tuple[str, str, int]]:
    """(kind name, module, line) of each ``PartKind(...)`` call in the
    graftkit modules under ``root``; a name that is not a string literal is
    ``"?"``."""
    found = []
    for path in sorted((root / "src" / "graftkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _name(node.func) == "PartKind":
                arg = node.args[0] if node.args else None
                literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                found.append((arg.value if literal else "?", path.name, node.lineno))
    return found


def lifecycle_steps(root: Path) -> set[str]:
    """The string keys of the ``STEPS`` dict in ``tests/test_partworker.py``."""
    tree = ast.parse((root / "tests" / "test_partworker.py").read_text())
    keys = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(_name(t) == "STEPS" for t in node.targets)
                and isinstance(node.value, ast.Dict)):
            keys |= {k.value for k in node.value.keys if isinstance(k, ast.Constant)}
    return keys


def kinds_without_steps(root: Path) -> list[tuple[str, str, int]]:
    steps = lifecycle_steps(root)
    return [kind for kind in part_kinds(root) if kind[0] not in steps]


def test_kind_checker_flags_each_kind_missing_from_steps(tmp_path):
    (tmp_path / "src/graftkit").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src/graftkit/a.py").write_text(
        "from . import partworker\nfrom .partworker import PartKind\n"
        "A = partworker.PartKind('a', f, 2)\nB = PartKind('b', f, 2)\n"
        "C = partworker.PartKind(NAME, f, 2)\nD = PartKinds('d')\n")
    (tmp_path / "tests/test_partworker.py").write_text(
        "def f(): pass\nSTEPS = {'a': f, 'x': f}\nOTHER = {'b': f}\n")
    assert kinds_without_steps(tmp_path) == [("b", "a.py", 4), ("?", "a.py", 5)]


def test_every_part_kind_has_lifecycle_tests():
    """A kind ships only with its entry in ``test_partworker.STEPS``, which
    runs the worker's lifecycle tests on it."""
    assert {name for name, _, _ in part_kinds(ROOT)} >= {"LM", "phase-1", "itm"}
    assert kinds_without_steps(ROOT) == []


# --------------------------------------------------------------------------
# numpy's Python-level wrappers in the autograd primitives


WRAPPED_METHODS = ("mean", "sum", "max", "min", "all", "any")
WRAPPED_NUMPY = ("transpose", "argsort", "any", "all")


def wrapper_calls(path: Path) -> list[tuple[str, int]]:
    """(call, line) of each call in the module at ``path`` that goes through
    a numpy Python-level wrapper: a ``.mean``, ``.sum``, ``.max``, ``.min``,
    ``.all`` or ``.any`` method (``"np.sum"`` counts too), or ``np.transpose``,
    ``np.argsort``, ``np.any`` or ``np.all``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr, owner = node.func.attr, _name(node.func.value)
        if owner == "np" and attr in WRAPPED_NUMPY + WRAPPED_METHODS:
            found.append((f"np.{attr}", node.lineno))
        elif attr in WRAPPED_METHODS:
            found.append((f".{attr}", node.lineno))
    return sorted(found, key=lambda call: call[1])


def test_wrapper_checker_flags_methods_and_numpy_functions_only(tmp_path):
    path = tmp_path / "autograd.py"
    path.write_text(
        "import numpy as np\n"
        "a = x.mean(axis=-1)\nb = x.data.sum()\nc = np.transpose(x, (1, 0))\n"
        "d = np.argsort(axes)\ne = np.any(x < 0) or np.all(x)\nf = x.max(1) + x.min(1)\n"
        "g = np.isfinite(x).all() and x.any()\nh = np.sum(x)\n"
        "ok = (np.add.reduce(x, -1) / n, np.maximum.reduce(x, -1), x.transpose((1, 0)),\n"
        "      x.argmax(1), np.logical_and.reduce(x, axis=None), np.swapaxes(x, 0, 1))\n")
    assert wrapper_calls(path) == [
        (".mean", 2), (".sum", 3), ("np.transpose", 4), ("np.argsort", 5), ("np.any", 6),
        ("np.all", 6), (".max", 7), (".min", 7), (".all", 8), (".any", 8), ("np.sum", 9)]


def test_the_autograd_primitives_call_no_numpy_wrapper():
    """A decode step runs hundreds of small ops, and these wrappers cost as
    much as the arithmetic of a small one: reductions go through
    ``ufunc.reduce`` (same bits), transposes through ``ndarray.transpose``."""
    assert wrapper_calls(SRC / "autograd.py") == []


# --------------------------------------------------------------------------
# one attention description for every model

ADDITIVE_MASK_NAMES = ("NEG_INF", "key_padding_mask")


def _defined_or_read(node: ast.AST) -> str | None:
    """The name a node defines, imports or reads: a function or class, an
    import alias, a bare name or an attribute."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return _name(node)


def attention_mask_plumbing(root: Path) -> list[tuple[str, int, str]]:
    """(module, line, what) of each name in ``ADDITIVE_MASK_NAMES`` that a
    graftkit module under ``root`` other than ``autograd.py`` defines,
    imports or reads, bare or as an attribute, of each read of ``NEG_INF``
    in ``autograd.py`` outside ``class Visible``, and of each function or
    method with a ``causal`` parameter in any of them."""
    found = []
    for path in sorted((root / "src" / "graftkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        in_visible = {id(n) for c in tree.body if isinstance(c, ast.ClassDef)
                      and c.name == "Visible" for n in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if "causal" in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]:
                    found.append((path.name, node.lineno, f"{node.name}(causal)"))
            name = _defined_or_read(node)
            if path.name != "autograd.py" and name in ADDITIVE_MASK_NAMES:
                found.append((path.name, getattr(node, "lineno", 0), name))
            elif (name == "NEG_INF" and isinstance(getattr(node, "ctx", None), ast.Load)
                  and id(node) not in in_visible):
                found.append((path.name, node.lineno, name))
    return sorted(found)


def test_mask_plumbing_checker_flags_lm_masks_and_causal_parameters(tmp_path):
    (tmp_path / "src/graftkit").mkdir(parents=True)
    (tmp_path / "src/graftkit/nn.py").write_text(
        "from .autograd import NEG_INF\n"
        "def key_padding_mask(lengths, n):\n    return lengths\n"
        "class TextEncoder:\n    def forward(self, t):\n        return t\n"
        "class DecoderLM:\n    def run(self, x, causal=None):\n"
        "        return ag.NEG_INF\n")
    (tmp_path / "src/graftkit/qformer.py").write_text(
        "from . import nn\nmask = nn.key_padding_mask([1], 2)\n")
    (tmp_path / "src/graftkit/autograd.py").write_text(
        "NEG_INF = -1e9\n"
        "def sdpa(q, k, v, mask=None, *, causal=None):\n    return NEG_INF\n"
        "def key_padding_mask(lengths, n):\n    causal = lengths\n"
        "class Visible:\n    def piece(self):\n        return NEG_INF\n")
    assert attention_mask_plumbing(tmp_path) == [
        ("autograd.py", 2, "sdpa(causal)"), ("autograd.py", 3, "NEG_INF"), ("nn.py", 1, "NEG_INF"),
        ("nn.py", 2, "key_padding_mask"), ("nn.py", 8, "run(causal)"), ("nn.py", 9, "NEG_INF"),
        ("qformer.py", 2, "key_padding_mask")]


def test_the_lm_describes_attention_once():
    """The LM, the Q-Former and the text encoder tell ``ag.sdpa`` what each
    row sees through one ``ag.Visible`` per pass; an additive mask outside
    ``autograd`` or a second causal flag would be a second description of
    the same rule."""
    assert attention_mask_plumbing(ROOT) == []


# --------------------------------------------------------------------------
# one training loop


def training_loops(root: Path) -> list[tuple[str, int, str]]:
    """(module, line, what) of each ``.step(...)`` call (an optimizer step)
    and each ``for step in range(...)`` loop in a graftkit module under
    ``root`` other than ``train.py``."""
    found = []
    for path in sorted((root / "src" / "graftkit").glob("*.py")):
        if path.name == "train.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "step"):
                found.append((path.name, node.lineno, ".step("))
            elif (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                  and node.target.id == "step" and isinstance(node.iter, ast.Call)
                  and _name(node.iter.func) == "range"):
                found.append((path.name, node.lineno, "for step in range("))
    return sorted(found)


def test_training_loop_checker_flags_optimizer_steps_and_step_loops(tmp_path):
    (tmp_path / "src/graftkit").mkdir(parents=True)
    (tmp_path / "src/graftkit/stage0.py").write_text(
        "def fit(opt, grads, steps):\n    for step in range(steps):\n"
        "        opt.step(grads)\n    for i in range(steps):\n        pass\n"
        "    return step\n")
    (tmp_path / "src/graftkit/optim.py").write_text(
        "class Sgd:\n    def step(self, grads):\n        return grads\n")
    (tmp_path / "src/graftkit/train.py").write_text(
        "def run(opt, steps):\n    for step in range(steps):\n        opt.step({})\n")
    assert training_loops(tmp_path) == [("stage0.py", 2, "for step in range("),
                                        ("stage0.py", 3, ".step(")]


def test_only_the_train_module_steps_an_optimizer():
    """Every training stage hands its optimizer, batches and step to
    ``train.run``, where the finite-loss check and the frozen contracts
    live; a stage with a loop of its own would skip them."""
    assert training_loops(ROOT) == []
