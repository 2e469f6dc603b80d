import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from legfronts import cli, corpus, fronts, rulings, skein
from legfronts.fronts import connected_sum, front, parse_front, render_front

from conftest import random_fronts, ruled_random_front


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_lists_bundled_fronts(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    for name in ("unknot", "stabilized_unknot", "unlink2", "trefoil", "51", "trefoil_sum"):
        assert name in out


def test_rulings_trefoil_two_graded_json(capsys):
    code, out, _ = run(capsys, "rulings", "--class=two_graded", "trefoil", "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert [r["switches"] for r in data["rulings"]] == [[1], [1, 2, 3], [3]]
    assert [r["genus"] for r in data["rulings"]] == [0, 1, 0]
    assert data["polynomial_text"] == "z^2 + 2"


def test_validate_garbage_reports_line(tmp_path, capsys):
    bad = tmp_path / "garbage.front"
    bad.write_text("L 1\nnot an event\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert ":2:" in err


def test_validate_semantic_violation_uses_source_line(tmp_path, capsys):
    bad = tmp_path / "bad.front"
    bad.write_text("# header\nL 1\nR 2\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert f"{bad}:3" in err
    assert "out of range" in err


@pytest.mark.parametrize("command", ["homfly", "kauffman", "conway", "tests"])
def test_empty_front_skein_commands_fail_clearly(tmp_path, capsys, command):
    empty = tmp_path / "empty.front"
    empty.write_text("# no events\n")
    code, out, err = run(capsys, command, str(empty))
    assert (code, out) == (1, "")
    assert err == "a front with no components has no Homfly or Kauffman polynomial\n"


def test_validate_ok(capsys):
    assert run(capsys, "validate", "trefoil") == (0, "trefoil: ok (7 events)\n", "")
    expected = json.dumps({"front": "trefoil", "ok": True, "violations": []}, indent=2, sort_keys=True) + "\n"
    assert run(capsys, "validate", "trefoil", "--format=json") == (0, expected, "")


def test_validate_reports_an_open_front_at_the_end_of_a_file(tmp_path, capsys):
    path = tmp_path / "open.front"
    path.write_text("L 1\n")
    message = f"{path}: end of diagram: 2 strands left open at the end of the diagram\n"
    assert run(capsys, "validate", str(path)) == (1, "", message)


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "trefoil")
    assert code == 0
    assert "tb           1" in out


def test_invariants_reverse_component(capsys):
    code, out, _ = run(capsys, "invariants", "stabilized_unknot", "--format=json")
    data = json.loads(out)
    code2, out2, _ = run(
        capsys, "invariants", "stabilized_unknot", "--format=json", "--reverse-component=0"
    )
    data2 = json.loads(out2)
    assert code == code2 == 0
    assert data2["rotation_per_component"] == [-x for x in data["rotation_per_component"]]
    assert data2["tb"] == data["tb"]


def test_homfly_json(capsys):
    code, out, _ = run(capsys, "homfly", "trefoil", "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["homfly"] == [
        {"v": 2, "z": 0, "c": 2},
        {"v": 2, "z": 2, "c": 1},
        {"v": 4, "z": 0, "c": -1},
    ]


def test_conway_text(capsys):
    code, out, _ = run(capsys, "conway", "trefoil")
    assert code == 0
    assert "z^2 + 1" in out


def test_kauffman_runs(capsys):
    code, out, _ = run(capsys, "kauffman", "unknot")
    assert code == 0
    assert "= 1" in out


def test_max_crossings_exceeded_gives_exit_2(capsys):
    code, _, err = run(capsys, "homfly", "trefoil", "--max-crossings=2")
    assert code == 2
    assert "resource limit" in err


def test_negative_crossing_ceiling_is_a_usage_error(capsys):
    for command in ("homfly", "kauffman", "conway", "rutherford", "rho", "tests"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "unknot", "--max-crossings=-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: argument --max-crossings: must be non-negative, got -1\n")
    assert run(capsys, "homfly", "unknot", "--max-crossings=0") == (0, "homfly(unknot) = 1\n", "")


def test_internal_consistency_error_gives_exit_1(capsys, monkeypatch):
    # a wrong circle count trips the parity check inside seifert_diagram_genus
    monkeypatch.setattr(skein.LinkDiagram, "seifert_circles", lambda d: 1)
    code, out, err = run(capsys, "tests", "trefoil")
    assert code == 1
    assert out == ""
    assert err == "internal consistency check failed: Seifert circle count has impossible parity\n"


def test_rutherford_51_mentions_genus_two_term(capsys):
    code, out, _ = run(capsys, "rutherford", "51")
    assert code == 0
    assert out == (
        "front 51: tb = 3\n"
        "  two-graded: homfly v^4 slice = z^4 + 4 z^2 + 3, ruling polynomial = z^4 + 4 z^2 + 3 [PASS]\n"
        "  ungraded:   kauffman v^4 slice = z^4 + 4 z^2 + 3, ruling polynomial = z^4 + 4 z^2 + 3 [PASS]\n"
    )


def test_rho_trefoil(capsys):
    code, out, _ = run(capsys, "rho", "trefoil")
    assert code == 0
    assert "rho(trefoil) = 1" in out


def test_tests_subcommand_passes_on_corpus(capsys):
    for name in corpus.corpus_names():
        code, out, _ = run(capsys, "tests", name)
        assert code == 0, name
        assert "overall: PASS" in out
    assert "  PASS max-tb certificate: tb+1 = 4, e = 4, maximal = True\n" in run(capsys, "tests", "51")[1]


def test_connsum_trefoils(capsys):
    code, out, _ = run(capsys, "connsum", "trefoil", "trefoil", "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["counts_multiplicative"] is True
    # the rendered composite front parses back to the same events
    again = parse_front(data["text"])
    assert str(again) == data["events"]


def test_missing_input(capsys):
    code, _, err = run(capsys, "homfly", "no_such_front")
    assert code == 1
    assert "no_such_front" in err
    for command in ("invariants", "validate"):
        code, out, err = run(capsys, command, "no/such/path.front")
        assert (code, out) == (1, "")
        assert err == "'no/such/path.front' is neither a file nor a bundled front\n"


def test_invariants_reports_a_parse_error_without_a_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.front"
    bad.write_text("L 1\nR\n")
    code, out, err = run(capsys, "invariants", str(bad))
    assert (code, out) == (1, "")
    assert err == "parse error: line 2: expected 'L|R|X <height>', got 'R'\n"


def _indented_rulings_json(diagram, grading, rev):
    """The rulings payload built whole and written by the indenting encoder."""
    cens, r = rulings.census(diagram, rev), fronts.classical_invariants(diagram, rev).r
    poly = cens.polynomials[grading]
    payload = {
        "front": diagram.name,
        "class": grading,
        "count": cens.count(grading),
        "rotation_gcd": r,
        "rulings": [
            {
                "switches": list(r.switches),
                "theta": r.theta,
                "genus": r.genus,
                "grading": str(r.grading),
                "orientable": r.orientable,
            }
            # sorted here by the id tuples, so that the listing's own order is checked
            for r in sorted(rulings.enumerate_rulings(diagram, grading, rev), key=lambda r: r.switches)
        ],
        "polynomial": poly.to_terms(),
        "polynomial_text": str(poly),
        "polynomials_by_class": {cls: cens.polynomials[cls].to_terms() for cls in rulings.GRADING_FILTERS},
    }
    if r != 0:
        payload["note"] = "r != 0: graded classes use residues mod 2r"
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _listing_cases(tmp_path):
    """(front file, its parsed diagram, reversed components) for the listing tests."""
    torus = {n: front("L1 L3 " + "X2 " * n + "R1 R1") for n in range(1, 16, 2)}
    cases = {f"T2-{n}": (t, ()) for n, t in torus.items()}
    power = torus[3]
    for k in range(2, 6):
        power = connected_sum(power, torus[3])
        cases[f"trefoil-x{k}"] = (power, ())
    cases["T2-7xT2-7xT2-5"] = (connected_sum(connected_sum(torus[7], torus[7]), torus[5]), ())
    for name in ("stabilized_unknot", "unlink2"):
        cases[name] = (corpus.load(name), ())
    cases["unlink2-reversed"] = (corpus.load("unlink2"), (0,))
    # the reversed clasp's switched ruling is ungraded only: orientable null
    cases["hopf-reversed"] = (front("L1 L2 X1 X3 R2 R1"), (1,))
    # a knot with r = -1 and three rulings, none of them 2-graded
    cases["r-nonzero"] = (front("L1 L2 L4 X3 X5 X3 X3 X5 X4 X3 R5 R2 R1"), ())
    # a 3-component link whose rulings take all three gradings, two of them at 4 switches
    cases["three-gradings"] = (front("L1 L1 X2 L1 X2 R5 X2 L5 X2 X1 X3 X4 L6 X3 R2 R1 R2 R1"), ())
    # all three end tags and switch sets with ids on both sides of 9 | 10, where
    # the id order, (..., 8, 9, 10, 11) before (..., 8, 11), is not the decimal text order
    cases["three-gradings#trefoil"] = (connected_sum(cases["three-gradings"][0], torus[3]), ())
    out = []
    for stem, (f, rev) in cases.items():
        path = tmp_path / f"{stem}.front"
        path.write_text(render_front(f))
        out.append((path, parse_front(path.read_text(), name=stem), rev))
    return out


def test_rulings_json_matches_the_indenting_encoder(tmp_path, capsys):
    for path, diagram, rev in _listing_cases(tmp_path):
        for grading in rulings.GRADING_FILTERS:
            argv = ["rulings", str(path), "--format=json", f"--class={grading}"]
            argv += [f"--reverse-component={c}" for c in rev]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out.isascii(), (diagram.name, grading)  # no switch code point left untranslated
            assert out == _indented_rulings_json(diagram, grading, rev), (diagram.name, grading)


def _enumerated_text(diagram, grading, rev):
    """The text listing written line by line from the enumerated rulings."""
    cens = rulings.census(diagram, rev)
    expected = [
        f"front {diagram.name}: {cens.count(grading)} {grading} ruling(s), "
        f"polynomial {cens.polynomials[grading]}"
    ] + [
        f"  switches={list(r.switches)} theta={r.theta} "
        f"genus={'-' if r.genus is None else r.genus} {r.grading.value}"
        for r in rulings.enumerate_rulings(diagram, grading, rev)
    ]
    return "\n".join(expected) + "\n"


def test_rulings_text_lists_the_enumerated_fields(tmp_path, capsys):
    seen = set()
    for path, diagram, rev in _listing_cases(tmp_path):
        for grading in rulings.GRADING_FILTERS:
            listed = rulings.enumerate_rulings(diagram, grading, rev)
            argv = ["rulings", str(path), "--format", "text", f"--class={grading}"]
            argv += [f"--reverse-component={c}" for c in rev]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out.isascii(), (diagram.name, grading)
            assert out == _enumerated_text(diagram, grading, rev), (diagram.name, grading)
            seen.update((grading, r.genus is None, bool(rev)) for r in listed)
    assert {grading for grading, _, _ in seen} == set(rulings.GRADING_FILTERS)
    assert (True, True) in {(nogenus, rev) for _, nogenus, rev in seen}  # a reversed link: genus "-"
    assert (False, False) in {(nogenus, rev) for _, nogenus, rev in seen}


def test_seeded_rulings_listings_match_the_enumerated_rulings(tmp_path, capsys):
    """JSON and text listings of seeded fronts, each unreversed and with
    every single component reversed, in all three classes."""
    rng = random.Random(29)
    fs = random_fronts(seed=29, count=30) + [ruled_random_front(rng, 22, 8) for _ in range(30)]
    seen = set()
    for i, f in enumerate(fs):
        path = tmp_path / f"seeded{i}.front"
        path.write_text(render_front(f))
        diagram = parse_front(path.read_text(), name=path.stem)
        k = fronts.components(diagram).num_components
        for rev in [()] + [(c,) for c in range(k)] * (k > 1):
            for grading in rulings.GRADING_FILTERS:
                argv = ["rulings", str(path), f"--class={grading}", *[f"--reverse-component={c}" for c in rev]]
                assert run(capsys, *argv, "--format=json") == (0, _indented_rulings_json(diagram, grading, rev), "")
                assert run(capsys, *argv, "--format=text") == (0, _enumerated_text(diagram, grading, rev), "")
            listed = rulings.enumerate_rulings(diagram, "ungraded", rev)
            assert [r.switches for r in listed] == sorted(r.switches for r in listed)
            if fronts.classical_invariants(diagram, rev).r != 0:
                seen.add("r != 0")
            if k > 1 and 0 < len({r.grading for r in listed}) < 3:
                seen.add("a link with an absent end tag")
            if any(min(r.switches) <= 9 < max(r.switches) for r in listed if r.switches):
                seen.add("ids on both sides of 9 | 10")
    assert seen == {"r != 0", "a link with an absent end tag", "ids on both sides of 9 | 10"}


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    # each first call sets what its second must not inherit: a reversal,
    # which the Hopf clasp's 2-graded census shows, and a --class
    hopf = front("L1 L2 X1 X3 R2 R1", name="hopf")
    path = tmp_path / "hopf.front"
    path.write_text(render_front(hopf))
    run(capsys, "rulings", str(path), "--reverse-component=1", "--format=json")
    code, out, _ = run(capsys, "rulings", str(path), "--format=json")
    assert (code, out) == (0, _indented_rulings_json(hopf, "ungraded", ()))
    golden = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())
    run(capsys, "rulings", "unlink2", "--reverse-component=0", "--class=two_graded", "--format=json")
    code, out, _ = run(capsys, "rulings", "unlink2", "--format=json")
    assert {"exit": code, "stdout": out} == golden["rulings unlink2 --format=json"]


def test_rulings_builds_one_parser_and_no_ruling_objects(tmp_path, capsys, monkeypatch):
    builds, made, swept, passes = [], [], [], []

    def counted_parser():
        builds.append(1)
        return build_parser()

    def counted_ruling(*args):
        made.append(1)
        return Ruling(*args)

    def counted_pass(*args):
        passes.append(1)
        return ruling_pass(*args)

    build_parser, Ruling, sweep_geometry = cli.build_parser, rulings.Ruling, fronts.sweep_geometry
    ruling_pass = rulings._sweep
    monkeypatch.setattr(cli, "build_parser", counted_parser)
    monkeypatch.setattr(rulings, "Ruling", counted_ruling)
    monkeypatch.setattr(fronts, "sweep_geometry", lambda d: swept.append(d.name) or sweep_geometry(d))
    monkeypatch.setattr(rulings, "_sweep", counted_pass)
    cli._parser.cache_clear()
    path = tmp_path / "T2-15.front"
    path.write_text(render_front(front("L1 L3 " + "X2 " * 15 + "R1 R1")))
    outs = [run(capsys, "rulings", str(path), "--format=json") for _ in range(3)]
    assert len(builds) == 1
    assert made == []
    assert swept == ["T2-15"] * 3  # one front sweep per op
    assert len(passes) == 2 * 3  # two ruling passes per op, the census and the listing: rendering adds none
    assert outs[0] == outs[1] == outs[2]
    assert outs[0][0] == 0 and len(json.loads(outs[0][1])["rulings"]) == 987
    cli._parser.cache_clear()


def _run_module(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "legfronts.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_module_exits_with_the_code_main_returns(tmp_path, capsys):
    proc = _run_module("tests", "trefoil", "--format", "json")
    assert (proc.returncode, proc.stdout) == run(capsys, "tests", "trefoil", "--format", "json")[:2]
    assert proc.returncode == 0
    torus = tmp_path / "T2-17.front"
    torus.write_text(render_front(front("L1 L3 " + "X2 " * 17 + "R1 R1")))
    proc = _run_module("homfly", str(torus))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "resource limit: 17 crossings exceed the ceiling of 16\n"
    missing = str(tmp_path / "missing.front")
    proc = _run_module("homfly", missing)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"{missing!r} is neither a file nor a bundled front\n"


def test_deterministic_output_bytes(capsys):
    _, out1, _ = run(capsys, "rulings", "51", "--format=json")
    _, out2, _ = run(capsys, "rulings", "51", "--format=json")
    assert out1 == out2


def test_corpus_env_override(tmp_path, capsys, monkeypatch):
    (tmp_path / "mine.front").write_text("L 1\nR 1\n")
    monkeypatch.setenv(corpus.CORPUS_ENV_VAR, str(tmp_path))
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "mine" in out
    assert "trefoil" not in out


def test_an_unknown_corpus_name_raises_file_not_found():
    with pytest.raises(FileNotFoundError, match="no bundled front named 'nope'"):
        corpus.load("nope")


def test_round_trip_corpus_files():
    for name in corpus.corpus_names():
        f = corpus.load(name)
        assert parse_front(render_front(f)).events == f.events
