"""End-to-end CLI coverage: every subcommand plus the exit-code contract."""

import dataclasses

import pytest

from zdt import claims as cl, cli, fixtures as fx, io as zio, poset as ps
from zdt.reports import CheckResult

VEE = """\
poset vee
elements a b c
order a<c
order b<c
end
"""

ANTI2 = """\
poset anti2
elements a b
end
"""

FAN3 = """\
poset fan3
elements a b x t
order a<t
order b<t
order x<t
end
"""


TWIN = """\
poset twin
elements a b c d
order a<c
order a<d
order b<c
order b<d
end
"""


@pytest.fixture
def vee_file(tmp_path):
    p = tmp_path / "vee.poset"
    p.write_text(VEE)
    return str(p)


@pytest.fixture
def anti2_file(tmp_path):
    p = tmp_path / "anti2.poset"
    p.write_text(ANTI2)
    return str(p)


@pytest.fixture
def fan3_file(tmp_path):
    p = tmp_path / "fan3.poset"
    p.write_text(FAN3)
    return str(p)


def test_check_holds(vee_file, capsys):
    assert cli.main(["check", "--poset", vee_file, "--system", "finite",
                     "--property", "weakly-meet"]) == 0
    assert "holds" in capsys.readouterr().out


def test_check_fails_with_witness(fan3_file, capsys):
    code = cli.main(["check", "--poset", fan3_file, "--system", "finite",
                     "--property", "weakly-meet"])
    out = capsys.readouterr().out
    assert code == 1
    assert "fails" in out and "element" in out


def test_check_delta_cpo_fails_with_witness(anti2_file, capsys):
    # the empty compact closed set has no supremum: anti2 has no bottom
    code = cli.main(["check", "--poset", anti2_file, "--system", "directed",
                     "--property", "delta-cpo"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out == [
        "delta-cpo fails on anti2.poset (directed)",
        "  closed_set = {}",
        "  reason = no supremum",
    ]


def test_check_lower_hereditary_fails_with_witness(tmp_path, capsys):
    # {a,b} is Γ^Z-closed in P but not in the vee-shaped closed set {a,b,c},
    # where its relative cut grows to the whole subposet
    twin = tmp_path / "twin.poset"
    twin.write_text(TWIN)
    code = cli.main(["check", "--poset", str(twin), "--system", "finite",
                     "--property", "lower-hereditary"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out == [
        "lower-hereditary fails on twin.poset (finite)",
        "  closed_set = {a,b,c}",
        "  subposet_only = {}",
        "  trace_only = {('a', 'b')}",
    ]


def test_check_all_properties_run(vee_file):
    for prop in sorted(cli.PROPERTY_CHECKS):
        assert cli.main(["check", "--poset", vee_file, "--system", "directed",
                         "--property", prop]) in (0, 1)


def test_check_missing_file(tmp_path):
    assert cli.main(["check", "--poset", str(tmp_path / "nope.poset"),
                     "--system", "finite", "--property", "weakly-meet"]) == 2


def test_check_parse_error(tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("poset p\nelements a b\norder a<b\norder b<a\nend\n")
    assert cli.main(["check", "--poset", str(bad), "--system", "finite",
                     "--property", "weakly-meet"]) == 2


def test_usage_error():
    assert cli.main(["check", "--poset", "x"]) == 2
    assert cli.main(["frobnicate"]) == 2


def test_family_output(vee_file, capsys):
    assert cli.main(["family", "--poset", vee_file, "--system", "finite",
                     "--family", "gamma-subbasis"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["", "a", "b", "a,b,c"]
    assert cli.main(["family", "--poset", vee_file, "--system", "finite",
                     "--family", "sigma-subbasis"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["", "a,c", "b,c", "a,b,c"]
    assert cli.main(["family", "--poset", vee_file, "--system", "finite",
                     "--family", "lower"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["", "c", "a,c", "b,c", "a,b,c"]


def test_relation_matrix_and_pairs(vee_file, capsys):
    assert cli.main(["relation", "--poset", vee_file, "--system", "directed",
                     "--relation", "beneath"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a b c"
    assert out[1:] == ["101", "011", "000"]
    assert cli.main(["relation", "--poset", vee_file, "--system", "directed",
                     "--relation", "beneath", "--pairs"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a -< a", "a -< c", "b -< b", "b -< c"]


def test_monad_subcommand(vee_file, tmp_path, capsys):
    for verify in ("adjunction", "monad-laws", "em"):
        assert cli.main(["monad", "--poset", vee_file, "--system", "directed",
                         "--verify", verify]) == 0
    out = capsys.readouterr().out
    assert "CLAIM thm-em HOLDS" in out
    assert "no algebra structure: not every compact closed set has a sup\n" in out
    # the wedge is a δ-cpo: its structure map sends each compact set to its sup
    wedge = tmp_path / "wedge.poset"
    wedge.write_text(zio.format_poset_text(fx.wedge(), "wedge"))
    assert cli.main(["monad", "--poset", str(wedge), "--system", "directed",
                     "--verify", "em"]) == 0
    assert capsys.readouterr().out == (
        "structure map: {}↦o, {o}↦o, {o,a}↦a, {o,b}↦b\n"
        "CLAIM thm-em HOLDS\n"
        "CLAIM prop-em-morph HOLDS\n"
    )


@pytest.mark.parametrize("name", ["wedge", "vee"])
def test_monad_laws_subcommand_on_every_system(name, tmp_path, capsys):
    # the command evaluates thm-monad with each real system, never through
    # the principal-ideals view that the claim sweeps share
    path = tmp_path / f"{name}.poset"
    path.write_text(zio.format_poset_text(getattr(fx, name)(), name))
    for system in ("singletons", "chains", "directed", "finite", "connected"):
        assert cli.main(["monad", "--poset", str(path), "--system", system,
                         "--verify", "monad-laws"]) == 0
        assert capsys.readouterr().out == "CLAIM thm-monad HOLDS\n", system


def test_monad_subcommand_on_a_nine_point_chain(tmp_path, capsys):
    # the naturality and algebra-morphism walks from P into codomains of at
    # most three points take a poset file past ENUM_CAP + 2 points
    path = tmp_path / "chain9.poset"
    path.write_text(zio.format_poset_text(fx.chain(9), "chain9"))
    for verify in ("monad-laws", "em"):
        assert cli.main(["monad", "--poset", str(path), "--system", "directed",
                         "--verify", verify]) == 0
    out = capsys.readouterr().out
    for claim in ("thm-monad", "thm-em", "prop-em-morph"):
        assert f"CLAIM {claim} HOLDS" in out


def test_search_pass_and_fail(capsys, tmp_path):
    assert cli.main(["search", "--claim", "lemma-wmc", "--max-size", "3",
                     "--system", "finite"]) == 0
    out = capsys.readouterr().out
    assert "CLAIM lemma-wmc finite n=3 holds=5 fails=0 inapplicable=0" in out

    cex = tmp_path / "cex"
    assert cli.main(["search", "--claim", "thm-local-wmc", "--max-size", "3",
                     "--system", "finite", "--emit-counterexamples", str(cex)]) == 1
    files = sorted(cex.iterdir())
    assert files
    # every emitted counterexample reproduces through `check`
    for f in files:
        assert cli.main(["check", "--poset", str(f), "--system", "finite",
                         "--property", "weakly-meet"]) == 1


def test_emitted_counterexamples_replay_on_their_own_system(capsys, tmp_path):
    # without --system, the witnesses of `finite` and `connected` share one
    # directory: each file names its system, and its header names the
    # system and the mode; each replays on that system, while several of
    # the `finite` ones are weakly meet on `connected`
    cex = tmp_path / "cex"
    assert cli.main(["search", "--claim", "thm-local-wmc", "--max-size", "4",
                     "--emit-counterexamples", str(cex)]) == 1
    capsys.readouterr()
    seen = set()
    for f in sorted(cex.iterdir()):
        system = f.name.split("-")[-2]
        header = f.read_text().splitlines()[:3]
        assert header == ["# claim thm-local-wmc", f"# system {system}", "# mode up_to_iso"]
        assert cli.main(["check", "--poset", str(f), "--system", system,
                         "--property", "weakly-meet"]) == 1, f.name
        assert cli.main(["check", "--poset", str(f), "--system", system,
                         "--property", "locally-weakly-meet"]) == 0, f.name
        seen.add(system)
    assert seen == {"finite", "connected"}


def test_search_labeled_mode(capsys):
    assert cli.main(["search", "--claim", "lemma-wmc", "--max-size", "2",
                     "--system", "finite", "--labeled"]) == 0
    out = capsys.readouterr().out
    assert "CLAIM lemma-wmc finite n=2 holds=3 fails=0 inapplicable=0" in out


def test_relation_waybelow_pairs(vee_file, capsys):
    assert cli.main(["relation", "--poset", vee_file, "--system", "finite",
                     "--relation", "waybelow", "--pairs"]) == 0
    out = capsys.readouterr().out
    assert "a << a" in out


def test_search_jobs_deterministic(capsys):
    cli.main(["search", "--claim", "lemma-lh", "--max-size", "3", "--system",
              "finite", "--jobs", "1"])
    solo = capsys.readouterr().out
    cli.main(["search", "--claim", "lemma-lh", "--max-size", "3", "--system",
              "finite", "--jobs", "2"])
    assert capsys.readouterr().out == solo


@pytest.mark.parametrize("jobs", ["0", "-2", "x"])
def test_search_rejects_bad_jobs_at_parse_time(jobs, capsys):
    argv = ["search", "--claim", "lemma-wmc", "--max-size", "2", "--jobs", jobs]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert cli.main(argv) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-1"])
def test_search_rejects_bad_max_size_at_parse_time(size, capsys):
    argv = ["search", "--claim", "lemma-wmc", "--max-size", size]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "--max-size" in captured.err
    assert captured.out == ""


def test_search_rejects_max_size_above_cap_with_the_size_asked_for(capsys):
    assert cli.main(["search", "--claim", "lemma-wmc", "--max-size", "9"]) == 2
    captured = capsys.readouterr()
    assert f"size 9 exceeds cap {ps.ENUM_CAP}" in captured.err
    assert captured.out == ""


def test_search_unknown_claim():
    assert cli.main(["search", "--claim", "no-such", "--max-size", "2"]) == 2


def test_fixtures_subcommand(capsys):
    assert cli.main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "fixture-ladder-lh-3-not-5" in out


def test_export(vee_file, tmp_path, capsys):
    assert cli.main(["export", "--poset", vee_file]) == 0
    out = capsys.readouterr().out
    assert 'digraph "vee"' in out and out.count("->") == 2
    target = tmp_path / "vee.dot"
    assert cli.main(["export", "--poset", vee_file, "--overlay", "beneath",
                     "--system", "directed", "--out", str(target)]) == 0
    assert "style=dashed" in target.read_text()
    # overlay without a system is a usage error
    assert cli.main(["export", "--poset", vee_file, "--overlay", "beneath"]) == 2


def test_search_labeled_reports_a_checker_that_reads_labels(monkeypatch, capsys):
    def reads_labels(P, system):
        return CheckResult.fails() if P.up[0] == 1 else CheckResult.holds()

    monkeypatch.setattr(cl, "_CLAIMS", [
        dataclasses.replace(c, evaluate=reads_labels) if c.id == "lemma-wmc" else c
        for c in cl._CLAIMS
    ])
    assert cli.main(["search", "--claim", "lemma-wmc", "--max-size", "2",
                     "--system", "finite", "--labeled"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: lemma-wmc on finite: the labeled order" in captured.err
