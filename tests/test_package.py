import ast
import json
import re
from collections import defaultdict
from pathlib import Path

import soficdim


def test_every_exported_name_exists():
    missing = [name for name in soficdim.__all__ if not hasattr(soficdim, name)]
    assert missing == []
    assert len(set(soficdim.__all__)) == len(soficdim.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from soficdim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(soficdim.__all__)



ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soficdim"

README = "README-documented API"
EXPORTED = "exported in soficdim.__all__"
ACCEPTANCE = "called by the acceptance tests"
PER_LAYER = "a BENCHMARK.json per-layer name"


def _words(path):
    return set(re.findall(r"\w+", path.read_text()))


def _names_by_reason():
    """The names each ``KEEP`` reason holds for."""
    per_layer = {part for layer in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                 for part in layer["name"].split(".")}
    return {README: _words(ROOT / "README.md"),
            EXPORTED: set(soficdim.__all__),
            ACCEPTANCE: _words(ROOT / "tests" / "test_acceptance.py"),
            PER_LAYER: per_layer}


# Definitions that no library module, script or benchmark file reads,
# with the reasons each one stays.
KEEP = {
    "parse_pperm": (EXPORTED,),
    "iter_all": (README,),
    "iter_permutations": (README,),
    "random_pperm": (ACCEPTANCE, PER_LAYER),  # criterion 1 draws with it
    "scaling_value": (EXPORTED,),
    "restricted_statistic": (EXPORTED, PER_LAYER),
    "ha_statistic": (README,),
    "with_weight": (README,),  # SExpression.with_weight
    "check_hypothesis": (README,),  # the hypothesis the certificates assume
    "ball_params": (ACCEPTANCE,),
    "distances": (ACCEPTANCE,),
    "random_permutation": (PER_LAYER,),
}


MODULES = frozenset({"soficdim"} | {p.stem for p in PACKAGE.glob("*.py")})


def _reads(path):
    """Where a Python file reads each name, by kind: ``attr`` for any
    ``.name``, ``module_attr`` for ``<package module>.name``, ``bare`` for a
    bare NAME and ``string`` for a ``"name"`` constant.  Each maps a name
    to the lines that read it.

    The name after ``def`` or ``class`` is no NAME node, so it reads
    nothing.  f-string fields are parsed into the syntax tree.
    """
    reads = {kind: defaultdict(list) for kind in ("attr", "module_attr", "bare", "string")}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            reads["attr"][node.attr].append(node.lineno)
            if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                reads["module_attr"][node.attr].append(node.lineno)
        elif isinstance(node, ast.Name):
            reads["bare"][node.id].append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads["string"][node.value].append(node.lineno)
    return reads


def _targets(tree):
    """(qualified name, kinds of read, node) of each module-level def or
    class and each def placed directly in a class body."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs + (ast.ClassDef,)):
            yield node.name, ("bare", "module_attr"), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", ("attr", "string"), item


def test_every_library_definition_has_a_reader():
    """A method is read by a ``.name`` access on anything or by a
    ``"name"`` string; a module-level definition by a bare NAME or by
    ``<package module>.name``.  Readers count in the other package
    modules, outside the definition's own body, and in the scripts and
    benchmark files.  A ``KEEP`` name must name a definition that has no
    reader, so an entry leaves once its reason is gone, and each of its
    reasons must hold: the name is a word of README.md or of the
    acceptance tests, is in ``soficdim.__all__``, or is a part of a
    BENCHMARK.json per-layer name."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    outside = [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    reads = {p: _reads(p) for p in modules + outside}
    unread, kept = [], set()
    for path in modules:
        for qualname, kinds, node in _targets(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, r in reads.items() for kind in kinds for line in r[kind][name]):
                if name in KEEP:
                    kept.add(name)
                else:
                    unread.append(f"{path.stem}.{qualname}")
    assert unread == []
    assert sorted(set(KEEP) - kept) == []
    names = _names_by_reason()
    assert [(name, reason) for name, reasons in KEEP.items() for reason in reasons
            if name not in names[reason]] == []


# Defaulted parameters and dataclass fields that fewer than two values
# set outside the tests, or whose default no caller outside the tests
# leaves in place, with the reason each one stays.
KEEP_DEFAULTS = {
    "sofic.ball_params.mode": "acceptance criterion 3 sets it",
}


def _is_dataclass(node):
    """Decorated ``@dataclass`` or ``@dataclasses.dataclass``, with or
    without arguments."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(t, "id", getattr(t, "attr", "")) == "dataclass" for t in targets)


def _settings(tree):
    """(qualified name, called name, kinds of call, argument names in call
    order, {name: default}, node whose body calls do not count) of each
    def or dataclass that ``_targets`` yields and that has a default.  A
    method is called by ``.name(...)`` and an ``__init__`` by a call of its
    class, both without ``self``."""
    for qualname, kinds, node in _targets(tree):
        if isinstance(node, ast.ClassDef):
            if not _is_dataclass(node):
                continue
            fields = [s for s in node.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            names = [f.target.id for f in fields]
            defaults = {f.target.id: f.value for f in fields if f.value is not None}
            yield qualname, node.name, kinds, names, defaults, None
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = dict(zip((a.arg for a in positional[len(positional) - len(args.defaults):]),
                            args.defaults))
        defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None)
        names = [a.arg for a in positional]
        called = node.name
        if "." in qualname:
            kinds = ("attr",)
            if not any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list):
                names = names[1:]
        if node.name == "__init__":
            called, kinds = qualname.split(".")[0], ("bare", "module_attr")
        if defaults:
            yield qualname, called, kinds, names, defaults, node


def _calls(path):
    """Each call of a Python file by kind, as ``_reads`` reads names: the
    called name maps to (line, call) pairs."""
    calls = {kind: defaultdict(list) for kind in ("attr", "module_attr", "bare")}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            calls["attr"][func.attr].append((node.lineno, node))
            if isinstance(func.value, ast.Name) and func.value.id in MODULES:
                calls["module_attr"][func.attr].append((node.lineno, node))
        elif isinstance(func, ast.Name):
            calls["bare"][func.id].append((node.lineno, node))
    return calls


def _value(node):
    """The literal a node spells, else None: a value that may vary."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _passed(call, names, name, default):
    """The value a call gives parameter ``name``: its literal, None for a
    non-literal or a starred argument that may reach it, or the default
    when the call leaves it out."""
    keywords = {k.arg: k.value for k in call.keywords}
    if name in keywords:
        return _value(keywords[name])
    if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if name in names and names.index(name) < len(call.args):
        return _value(call.args[names.index(name)])
    return "default " + ast.unparse(default)


def test_every_default_has_two_values_in_use():
    """A defaulted parameter or dataclass field of ``src/soficdim`` stays
    settable only if callers outside the tests give it two values, one
    of them the default: it fails with no caller, when every caller
    leaves it out, when every caller passes one and the same literal, or
    when no caller leaves it out.  Callers are found as
    readers are, in the package modules, scripts and benchmark files,
    outside the function's own body, and their arguments are mapped onto
    the signature; a non-literal argument counts as a value of its own.
    CLI options are not covered: their values are echoed into output
    headers.  A ``KEEP_DEFAULTS`` name must fail, so an entry leaves once
    its reason is gone."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    outside = [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    calls = {p: _calls(p) for p in modules + outside}
    single = []
    for path in modules:
        for qualname, called, kinds, names, defaults, body in _settings(
                ast.parse(path.read_text())):
            found = [call for p, c in calls.items() for kind in kinds
                     for line, call in c[kind][called]
                     if body is None or p != path
                     or not body.lineno <= line <= body.end_lineno]
            for name, default in defaults.items():
                values = {_passed(call, names, name, default) for call in found}
                if (len(values) == 1 and None not in values
                        or "default " + ast.unparse(default) not in values):
                    single.append(f"{path.stem}.{qualname}.{name}")
    assert sorted(set(single) - set(KEEP_DEFAULTS)) == []
    assert sorted(set(KEEP_DEFAULTS) - set(single)) == []
