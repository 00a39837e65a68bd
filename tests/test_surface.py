"""The public surface of ``src/zdt``: no top-level function or class that only
tests call.

Each top-level definition must be referenced from some other code in
``src/zdt``, be exported in ``zdt.__all__``, or be on the allowlist below,
which names what is kept for a caller outside the package with one line of
reason each.  References are resolved through the module aliases and
``from`` imports of each file, so a use of ``ps.cut`` keeps ``poset.cut``
and not a ``cut`` of another module.  A definition's references to itself
do not count.
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
}


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
    exported = set(zdt.__all__)
    unused = sorted(
        f"{module}.{name}"
        for module, name in definitions
        if (module, name) not in referenced
        and name not in exported
        and (module, name) not in ALLOWED
    )
    assert not unused, "no src caller: " + ", ".join(unused)


def test_allowlist_names_live_definitions():
    definitions, referenced = _definitions_and_references()
    for key in ALLOWED:
        assert key in definitions, key
        assert key not in referenced, f"{key} has a src caller; drop it from ALLOWED"
