"""Poset text format, DOT export, and witness formatting.

The text format::

    # optional comments
    poset <name>
    elements a b c
    order a<c
    order b<c
    end
"""

from __future__ import annotations

from zdt import poset as ps
from zdt.errors import ParseError


def parse_poset_text(text):
    """Parse the poset text format; returns (name, poset)."""
    name = None
    labels = None
    pairs = []
    saw_end = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if saw_end:
            raise ParseError(f"line {lineno}: content after 'end'")
        tokens = line.split()
        kind = tokens[0]
        if kind == "poset":
            if name is not None:
                raise ParseError(f"line {lineno}: duplicate 'poset' line")
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'poset <name>'")
            name = tokens[1]
        elif kind == "elements":
            if name is None:
                raise ParseError(f"line {lineno}: 'elements' before 'poset'")
            if labels is not None:
                raise ParseError(f"line {lineno}: duplicate 'elements' line")
            if len(tokens) < 2:
                raise ParseError(f"line {lineno}: no elements listed")
            labels = tokens[1:]
            for lbl in labels:
                if not ps.LABEL_RE.match(lbl):
                    raise ParseError(f"line {lineno}: bad label {lbl!r}")
        elif kind == "order":
            if labels is None:
                raise ParseError(f"line {lineno}: 'order' before 'elements'")
            body = "".join(tokens[1:])
            parts = body.split("<")
            if len(parts) != 2 or not all(parts):
                raise ParseError(f"line {lineno}: expected 'order a<b'")
            pairs.append((parts[0], parts[1]))
        elif kind == "end":
            if labels is None:
                raise ParseError(f"line {lineno}: 'end' before 'elements'")
            saw_end = True
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    if name is None or labels is None or not saw_end:
        raise ParseError("incomplete poset file (need poset/elements/end)")
    return name, ps.from_order_pairs(labels, pairs)


def load_poset(path):
    with open(path, encoding="utf-8") as fh:
        return parse_poset_text(fh.read())


def format_poset_text(P, name="p"):
    lines = [f"poset {name}", "elements " + " ".join(P.labels)]
    for i, j in ps.covers(P):
        lines.append(f"order {P.labels[i]}<{P.labels[j]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def format_set(P, mask):
    return "{" + ",".join(P.names(mask)) + "}"


def format_witness(witness):
    """One 'key = value' line per witness entry, deterministic order."""
    if not witness:
        return []
    out = []
    for key in sorted(witness):
        val = witness[key]
        if isinstance(val, (tuple, list)):
            val = "{" + ",".join(str(v) for v in val) + "}"
        out.append(f"  {key} = {val}")
    return out


def export_dot(P, name="poset", overlay=None, system=None):
    """Hasse diagram in DOT, cover edges bottom-to-top, optional dashed overlay.

    ``overlay`` is one of None, "waybelow", "beneath"; relation edges are
    dashed and labeled, reflexive pairs suppressed.  The name is quoted
    with its backslashes and double quotes escaped.
    """
    quoted = name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{quoted}" {{', "  rankdir=BT;"]
    for lbl in P.labels:
        lines.append(f'  "{lbl}";')
    for i, j in ps.covers(P):
        lines.append(f'  "{P.labels[i]}" -> "{P.labels[j]}";')
    if overlay is not None:
        from zdt import continuity as ct

        if overlay == "waybelow":
            rel = lambda x, y: ct.way_below_sets(P, system, 1 << x, 1 << y)
        elif overlay == "beneath":
            rel = lambda x, y: ct.beneath(P, system, x, y)
        else:
            raise ValueError(f"unknown overlay {overlay!r}")
        for x in range(P.n):
            for y in range(P.n):
                if x != y and rel(x, y):
                    lines.append(
                        f'  "{P.labels[x]}" -> "{P.labels[y]}"'
                        f' [style=dashed, label="{overlay}"];'
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
