"""The public surface of ``src/zdt``: no top-level function or class that only
tests call, and no defaulted parameter that only tests set.

Each top-level definition must be referenced from some other code in
``src/zdt`` or be on the allowlist below, which names what is kept for a
caller outside the package with one line of reason each; an export in
``zdt.__all__`` is no reason of its own.  References are resolved through the module aliases and
``from`` imports of each file, so a use of ``ps.cut`` keeps ``poset.cut``
and not a ``cut`` of another module.  A definition's references to itself
do not count.

Each defaulted parameter of a function or method must be passed, by
position or keyword, at some call in ``src/zdt``, ``perfbench/`` or
``benchmarks/`` outside their tests, or be on ``UNCALLED_DEFAULTS``; a
setting that no caller varies is a constant.  Calls resolve as references
do; a call of an attribute of anything but a module alias, such as
``self.f(...)``, counts for every method named ``f``.
"""

import ast
from pathlib import Path

import zdt

SRC = Path(zdt.__file__).parent

ALLOWED = {
    # Z-hypothesis diagnostics; README "Known findings" cites property M as
    # the evidence for thm-main-s3's scope
    ("systems", "check_property_M_instance"): "Z-hypothesis diagnostic (README)",
    ("systems", "check_ffup_instance"): "Z-hypothesis diagnostic",
    ("systems", "check_union_complete_instance"): "Z-hypothesis diagnostic",
    ("systems", "check_rudin_instance"): "Z-hypothesis diagnostic",
    ("systems", "check_system_axioms"): "acceptance criterion 2 runs it",
    ("systems", "check_subset_hereditary_instances"): "the axiom sweep beside it",
    ("kernels", "enumerate_labeled_orders"): "benchmarks/bench_backends.py times it",
    ("claims", "registry"): "README documents `zdt.claims.registry()`",
}

ROOT = Path(__file__).resolve().parents[1]
CALLERS = (SRC, ROOT / "perfbench", ROOT / "benchmarks")

UNCALLED_DEFAULTS = {}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _aliases(tree):
    """name -> (module, attr or None) for the zdt imports of one file."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.module == "zdt":
            for a in node.names:
                out[a.asname or a.name] = (a.name, None)
        elif node.module.startswith("zdt."):
            module = node.module.split(".", 1)[1]
            for a in node.names:
                out[a.asname or a.name] = (module, a.name)
    return out


def _references(module, node, aliases, local):
    """The (module, name) pairs that the code under ``node`` refers to."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in local:
                refs.add((module, sub.id))
            elif sub.id in aliases and aliases[sub.id][1] is not None:
                refs.add(aliases[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = aliases.get(sub.value.id)
            if target is not None and target[1] is None:
                refs.add((target[0], sub.attr))
    return refs


def _definitions_and_references():
    definitions, referenced = set(), set()
    for module, tree in _modules().items():
        aliases = _aliases(tree)
        local = {
            n.name
            for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        if module == "__init__":
            continue  # its imports re-export; __all__ is checked on its own
        definitions |= {(module, name) for name in local}
        for node in tree.body:
            refs = _references(module, node, aliases, local)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.discard((module, node.name))
            referenced |= refs
    return definitions, referenced


def test_every_src_definition_has_a_src_caller():
    definitions, referenced = _definitions_and_references()
    unused = sorted(
        f"{module}.{name}"
        for module, name in definitions
        if (module, name) not in referenced and (module, name) not in ALLOWED
    )
    assert not unused, "no src caller: " + ", ".join(unused)


def test_allowlist_names_live_definitions():
    definitions, referenced = _definitions_and_references()
    for key in ALLOWED:
        assert key in definitions, key
        assert key not in referenced, f"{key} has a src caller; drop it from ALLOWED"


def _defaulted(fn, bound):
    """(name, position) of each defaulted parameter of ``fn``; the position
    counts a call's positional arguments, past ``self`` when ``bound``, and
    is None for a keyword-only parameter."""
    args = fn.args.posonlyargs + fn.args.args
    out = [(a.arg, i - bound) for i, a in enumerate(args)][len(args) - len(fn.args.defaults):]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
    return out


def _defaulted_parameters():
    """(module, callee) -> its defaulted parameters, where the callee of a
    method is ``Class.name`` and that of ``__init__`` is the class."""
    params = {}
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params[module, node.name] = _defaulted(node, 0)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list
                    )
                    callee = node.name if fn.name == "__init__" else f"{node.name}.{fn.name}"
                    params[module, callee] = _defaulted(fn, 0 if static else 1)
    return {key: value for key, value in params.items() if value}


def _callees(func, module, aliases, local, methods):
    """The (module, callee) keys that a call of ``func`` may reach."""
    if isinstance(func, ast.Name):
        if func.id in local:
            return {(module, func.id)}
        target = aliases.get(func.id)
        return {target} if target and target[1] is not None else set()
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name) and base.id in aliases and aliases[base.id][1] is None:
            return {(aliases[base.id][0], func.attr)}
        return methods.get(func.attr, set())
    return set()


def test_every_defaulted_parameter_has_a_caller():
    params = _defaulted_parameters()
    methods = {}
    for module, callee in params:
        if "." in callee:
            methods.setdefault(callee.split(".")[1], set()).add((module, callee))
    passed = set()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            tree = ast.parse(path.read_text(), str(path))
            module, local = None, set()
            if root == SRC:
                module = path.stem
                local = {
                    n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                }
            aliases = _aliases(tree)
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                given = sum(not isinstance(a, ast.Starred) for a in call.args)
                keywords = {k.arg for k in call.keywords}
                for key in _callees(call.func, module, aliases, local, methods):
                    for name, position in params.get(key, ()):
                        if name in keywords or (position is not None and position < given):
                            passed.add((key, name))
    uncalled = {
        f"{module}.{callee}.{name}"
        for (module, callee), names in params.items()
        for name, _ in names
        if ((module, callee), name) not in passed
    }
    unlisted = sorted(uncalled - UNCALLED_DEFAULTS.keys())
    assert not unlisted, "no caller sets: " + ", ".join(unlisted)
    stale = sorted(UNCALLED_DEFAULTS.keys() - uncalled)
    assert not stale, "set by a caller or gone; drop from UNCALLED_DEFAULTS: " + ", ".join(stale)
