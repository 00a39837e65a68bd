"""Text format round-trips, parse errors, DOT output."""

import re

import pytest

from zdt import fixtures as fx, io as zio, poset as ps
from zdt.errors import AntisymmetryError, ParseError
from zdt.systems import DIRECTED

GOOD = """\
# a comment
poset vee
elements a b c
order a<c
order b<c   # trailing comment
end
"""


def test_parse_round_trip():
    name, P = zio.parse_poset_text(GOOD)
    assert name == "vee"
    assert P == fx.vee()
    again_name, again = zio.parse_poset_text(zio.format_poset_text(P, name))
    assert again == P and again_name == name


def test_format_emits_covers_only():
    text = zio.format_poset_text(fx.chain(3), "c3")
    assert "order a<b" in text and "order b<c" in text
    assert "order a<c" not in text


@pytest.mark.parametrize(
    "bad",
    [
        "poset p\nelements a b\norder a<z\nend\n",
        "poset p\nelements a a\nend\n",
        "elements a b\nend\n",
        "poset p\nelements a b\n",
        "poset p\nelements a b\norder a=b\nend\n",
        "poset p\nelements a b\nweird\nend\n",
        "poset p\nelements a b\nend\nleftover\n",
        "poset p\nelements a-b\nend\n",
    ],
)
def test_parse_errors(bad):
    with pytest.raises((ParseError, Exception)):
        zio.parse_poset_text(bad)


def test_parse_cycle_is_hard_error():
    with pytest.raises(AntisymmetryError):
        zio.parse_poset_text("poset p\nelements a b\norder a<b\norder b<a\nend\n")


def test_dot_plain():
    dot = zio.export_dot(fx.chain(3), "c3")
    assert dot.count("->") == 2
    assert "rankdir=BT" in dot
    assert zio.export_dot(fx.antichain(2), "a2").count("->") == 0


@pytest.mark.parametrize("name", ['a"b', 'a\\', '"', 'a\\"b'])
def test_dot_quotes_the_poset_name(name):
    # a name the text format accepts gives a graph header whose quoted
    # string a DOT scanner, which reads a backslash with the character after
    # it, ends at the last quote; read as a label (\\ and \" stand for \ and
    # "), it is the name
    parsed, P = zio.parse_poset_text(f"poset {name}\nelements x\nend\n")
    assert parsed == name
    head = zio.export_dot(P, parsed).splitlines()[0]
    m = re.fullmatch(r'digraph "((?:[^"\\]|\\.)*)" \{', head)
    assert m, head
    assert re.sub(r"\\(.)", r"\1", m.group(1)) == name


def test_dot_overlay_beneath():
    dot = zio.export_dot(fx.vee(), "vee", overlay="beneath", system=DIRECTED)
    assert '"a" -> "c" [style=dashed, label="beneath"];' in dot
    assert '"b" -> "c" [style=dashed, label="beneath"];' in dot
    # reflexive compact pairs stay suppressed
    assert '"a" -> "a"' not in dot


def test_dot_overlay_waybelow():
    dot = zio.export_dot(fx.chain(3), "c3", overlay="waybelow", system=DIRECTED)
    assert '"a" -> "c" [style=dashed, label="waybelow"];' in dot


def test_dot_deterministic():
    a = zio.export_dot(fx.diamond(), "d", overlay="beneath", system=DIRECTED)
    b = zio.export_dot(fx.diamond(), "d", overlay="beneath", system=DIRECTED)
    assert a == b
