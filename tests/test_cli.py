"""End-to-end tests of the feyngraph command-line interface.

The CLI is exercised in-process through main(argv); stdout is captured
with capsys.  Checks: exit codes, the RESULT trailer, byte determinism,
and parse/serialize round trips on JSON fixtures.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from feyngraph.cli import SCHEMAS, main
from feyngraph.io import graph_from_json, graph_to_json, id_to_json
from feyngraph.brauer import BrauerDiagram, identity_wiring
from feyngraph.substitution import GraphOfGraphs
from feyngraph import (corolla, is_isomorphic, parse_graph_arg, tagged_union,
                       wheel)

from helpers_species import MONO, TWO, algebra_to_json, tuple_algebra


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_line(out):
    return out.rstrip("\n").splitlines()[-1]


@pytest.fixture()
def algebra_file(tmp_path):
    path = tmp_path / "mono4.json"
    path.write_text(json.dumps(algebra_to_json(tuple_algebra(MONO, 4))))
    return str(path)


# -- basic verbs ----------------------------------------------------------------


def test_validate_named_graphs(capsys):
    for name in ["stick", "empty", "isolated", "corolla:3", "wheel:2", "line:2"]:
        code, out = run(capsys, "validate", name)
        assert code == 0
        assert last_line(out) == "RESULT pass n_checked=1"


def test_validate_file_and_bad_input(tmp_path, capsys):
    g = wheel(2)
    path = tmp_path / "w2.json"
    path.write_text(json.dumps(graph_to_json(g)))
    code, out = run(capsys, "validate", str(path))
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text('{"edges": ["a"], "tau": [], "half_edges": [], '
                   '"s": [], "t": [], "vertices": []}')
    code, _ = run(capsys, "validate", str(bad))
    assert code == 2
    code, _ = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("form", [
    {"named": "wheel", "m": 2},
    {"edges": ["ab", "cd"], "tau": {"ab": "cd", "cd": "ab"},
     "half_edges": [], "s": [], "t": [], "vertices": []}])
def test_a_graph_not_in_the_tagged_format_is_an_input_error(
        form, tmp_path, capsys):
    """The {"named": ...} form and a flat graph with a dict-valued tau
    (whose two-character keys would unpack as pairs) are refused with the
    graph schema, never misread."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(form))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: FormatError: ")
    assert "expected: {\"edges\"" in captured.err


@pytest.mark.parametrize("argv", [
    ["validate", "corolla:-2"],
    ["law", "dt", "--species", "terminal:-1"],
    ["free", "--level", "T", "--species", "terminal:-1", "--arity", "0"]])
def test_a_negative_count_is_an_input_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: BadParameter: ")


@pytest.mark.parametrize("argv, schema", [
    (["validate", "corolla:two"], "graph"),
    (["law", "dt", "--species", "terminal:two"], "species")])
def test_a_shorthand_count_that_is_not_a_number_is_a_reading_error(
        argv, schema, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: ValueError: invalid literal for int() with base 10: 'two'",
        f"expected: {SCHEMAS[schema]}"]


@pytest.mark.parametrize("argv, error, schema", [
    (["validate", "corolla:-2"], "BadParameter", "graph"),
    (["validate", "foo"], "BadParameter", "graph"),
    (["validate", "MISSING"], "FileNotFoundError", "graph"),
    (["eval", "terminal", "corolla:-1"], "BadParameter", "graph"),
    (["law", "dt", "--species", "terminal:-1"], "BadParameter", "species"),
    (["brauer", "downward", "id:-1"], "FormatError", "brauer"),
    (["brauer", "to-graph", "MISSING"], "cannot read", "wiring")])
def test_a_reading_error_shows_the_schema_of_what_was_read(
        argv, error, schema, tmp_path, capsys):
    """An error raised while an argument is read is followed by the
    schema of that argument, whatever the error's type."""
    missing = str(tmp_path / "missing.json")
    code = main([missing if a == "MISSING" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    first, second = captured.err.splitlines()
    assert first.startswith(f"error: {error}")
    assert second == f"expected: {SCHEMAS[schema]}"


@pytest.mark.parametrize("argv", [
    ["law", "dt", "--max-arity", "-1"],
    ["law", "lt", "--max-vertices", "-1"],
    ["yb-sweep", "--max-arity", "-3"],
    ["enumerate", "--labels", "2", "--max-vertices", "-1",
     "--max-valency", "3"],
    ["enumerate", "--labels", "-2", "--max-vertices", "1",
     "--max-valency", "3"],
    ["free", "--level", "L", "--species", "terminal", "--arity", "1",
     "--max-factors", "-2"],
    ["check-ca", "ALGEBRA", "--max-arity", "-1"],
    ["check-mo", "ALGEBRA", "--max-arity", "-5"],
    ["law", "ld", "--max-vertices", "-1"],
    ["law", "dt", "--max-factors", "-1"],
    ["free", "--level", "D", "--species", "terminal", "--arity", "1",
     "--max-vertices", "-1"]])
def test_a_negative_bound_is_an_input_error(argv, algebra_file, capsys):
    """A negative bound is refused, never swept as an empty (or partly
    empty) range and reported as passing.  It is not a reading error, so
    no file schema follows the one error line."""
    code = main([algebra_file if a == "ALGEBRA" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: BadParameter: ")
    assert ">= 0, not -" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_iso_exit_codes(capsys):
    code, out = run(capsys, "iso", "wheel:1", "wheel:1")
    assert code == 0 and "isomorphic true" in out
    code, out = run(capsys, "iso", "wheel:1", "wheel:2")
    assert code == 1 and "isomorphic false" in out
    assert last_line(out) == "RESULT fail n_checked=1"


def test_glue_corolla_gives_wheel(capsys):
    code, out = run(capsys, "glue", "corolla:2", "--pair", "0", "1")
    assert code == 0
    glued = graph_from_json(json.loads(out.splitlines()[0]))
    assert is_isomorphic(glued, wheel(1))


def test_glue_reads_a_composite_port_id_as_json(tmp_path, capsys):
    """A port that no str or repr names is read by _parse_id: JSON ids,
    {"t": [...]} a tuple; a token that names no port is refused."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps(graph_to_json(
        tagged_union([("x", corolla([0, 1]))]))))
    code, out = run(capsys, "glue", str(path),
                    "--pair", '{"t": ["x", 0]}', '{"t": ["x", 1]}')
    assert code == 0
    glued = graph_from_json(json.loads(out.splitlines()[0]))
    assert is_isomorphic(glued, wheel(1))
    code = main(["glue", str(path), "--pair", "nope", '{"t": ["x", 1]}'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[0].startswith("error: NotAPort: ")
    assert len(captured.err.splitlines()) == 1


def test_substitute_identity_gog(tmp_path, capsys):
    base = parse_graph_arg("corolla:2")
    gog = GraphOfGraphs.identity(base)
    recs = []
    for v, (piece, bd) in gog.pieces.items():
        recs.append({"vertex": id_to_json(v),
                     "piece": graph_to_json(piece),
                     "boundary": [[id_to_json(p), id_to_json(h)]
                                  for p, h in sorted(bd.items(), key=repr)]})
    path = tmp_path / "gog.json"
    path.write_text(json.dumps({"base": graph_to_json(base), "pieces": recs}))
    code, out = run(capsys, "substitute", str(path))
    assert code == 0
    colim = graph_from_json(json.loads(out.splitlines()[0]))
    assert is_isomorphic(colim, base)


def test_enumerate_count(capsys):
    code, out = run(capsys, "enumerate", "--labels", "2",
                    "--max-vertices", "2", "--max-valency", "3")
    assert code == 0
    assert last_line(out) == "RESULT pass n_checked=5"


# -- brauer ---------------------------------------------------------------------


def test_brauer_compose_cap_cup_one_loop(capsys):
    code, out = run(capsys, "brauer", "compose", "cap", "cup")
    assert code == 0
    assert out.splitlines()[0] == "loops=1"
    d = BrauerDiagram.from_json(json.loads(out.splitlines()[1]))
    assert (d.m, d.n, d.loops) == (0, 0, 1)


def test_brauer_tensor_and_files(tmp_path, capsys):
    f = tmp_path / "id2.json"
    from feyngraph.brauer import identity_brauer
    f.write_text(json.dumps(identity_brauer(2).to_json()))
    code, out = run(capsys, "brauer", "tensor", str(f), "cup")
    assert code == 0
    d = BrauerDiagram.from_json(json.loads(out.splitlines()[0]))
    assert (d.m, d.n) == (2, 4)


def test_brauer_downward(capsys):
    code, _ = run(capsys, "brauer", "downward", "cap")
    assert code == 0
    code, _ = run(capsys, "brauer", "downward", "cup")
    assert code == 1


def test_brauer_to_graph(tmp_path, capsys):
    path = tmp_path / "wd.json"
    path.write_text(json.dumps(identity_wiring(2).to_json()))
    code, out = run(capsys, "brauer", "to-graph", str(path))
    assert code == 0
    g = graph_from_json(json.loads(out.splitlines()[0]))
    assert len(g.vertices) == 1 and len(g.ports) == 2


def test_brauer_fractional_numbers_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"m": 1.7, "n": 1, "loops": 0.5,
                                "matching": [[["src", 1.9], ["tgt", 1]]]}))
    code = main(["brauer", "compose", str(path), "id:1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: FormatError: bad Brauer diagram: ")


def test_brauer_compose_needs_two_args(capsys):
    code, _ = run(capsys, "brauer", "compose", "cap")
    assert code == 2


# -- species / algebra verbs ------------------------------------------------------


def test_eval_terminal(capsys):
    code, out = run(capsys, "eval", "terminal:3", "corolla:2")
    assert code == 0
    assert last_line(out) == "RESULT pass n_checked=1"


def test_check_ca_and_mo(algebra_file, capsys):
    code, out = run(capsys, "check-ca", algebra_file, "--max-arity", "3")
    assert code == 0 and last_line(out).startswith("RESULT pass")
    code, out = run(capsys, "check-mo", algebra_file, "--max-arity", "3")
    assert code == 0 and last_line(out).startswith("RESULT pass")


def test_check_ca_reads_an_algebra_written_to_the_schema(tmp_path, capsys):
    """The algebra schema's keys are the ones algebra_from_json reads: the
    unit as "external_unit", or "nonunital": true without one."""
    assert '"external_unit": elem' in SCHEMAS["algebra"]
    assert '"nonunital": true' in SCHEMAS["algebra"]
    data = {"palette": {"colours": ["*"], "omega": {"*": "*"}},
            "arity": {"0": ["u"], "2": ["e"]},
            "colour_of": {"u": [], "e": ["*", "*"]},
            "action": {"e|0": "e"},
            "box": {"u|u": "u", "u|e": "e", "e|u": "e"},
            "zeta": {"e|0|1": "u"},
            "eps": {"*": "e"},
            "external_unit": "u"}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "check-ca", str(path))
    assert code == 0 and last_line(out).startswith("RESULT pass")
    del data["external_unit"]
    path.write_text(json.dumps(dict(data, nonunital=True)))
    code, out = run(capsys, "check-ca", str(path))
    assert code == 0 and last_line(out).startswith("RESULT pass")


def test_check_ca_bad_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{}")
    code, _ = run(capsys, "check-ca", str(path))
    assert code == 2


def test_free_counts(capsys):
    code, out = run(capsys, "free", "--level", "T", "--species", "terminal:3",
                    "--arity", "0", "--max-vertices", "1")
    assert code == 0
    assert last_line(out) == "RESULT pass n_checked=2"


def test_law_and_yb_sweep(capsys):
    for which in ["dt", "lt", "ld"]:
        code, out = run(capsys, "law", which,
                        "--max-arity", "1", "--max-vertices", "1")
        assert code == 0, which
        assert last_line(out).startswith("RESULT pass")
    code, out = run(capsys, "yb-sweep", "--max-base-vertices", "2",
                    "--max-arity", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("instances=")


def test_pointed_hom_counts(capsys):
    code, out = run(capsys, "pointed-hom", "wheel:1", "stick")
    assert code == 0
    assert last_line(out) == "RESULT pass n_checked=2"
    code, out = run(capsys, "pointed-hom", "corolla:0", "stick")
    assert code == 0
    assert last_line(out) == "RESULT pass n_checked=1"


# -- nerve / segal -----------------------------------------------------------------


def test_nerve_then_segal(algebra_file, tmp_path, capsys):
    out_path = str(tmp_path / "P.json")
    code, _ = run(capsys, "nerve", algebra_file, "--corpus",
                  "stick", "corolla:1", "corolla:2", "wheel:1", "line:1",
                  "--out", out_path)
    assert code == 0
    code, out = run(capsys, "segal", out_path)
    assert code == 0
    assert last_line(out).startswith("RESULT pass")
    assert "graph wheel:1 ok segal" in out


def test_segal_rejects_mutant(algebra_file, tmp_path, capsys):
    out_path = str(tmp_path / "P.json")
    run(capsys, "nerve", algebra_file, "--corpus",
        "stick", "corolla:1", "corolla:2", "wheel:1", "--out", out_path)
    data = json.loads(open(out_path).read())
    # duplicating an element of a non-elementary object breaks injectivity
    data["sets"]["wheel:1"] = data["sets"]["wheel:1"] * 2
    mut_path = tmp_path / "Pmut.json"
    mut_path.write_text(json.dumps(data))
    code, out = run(capsys, "segal", str(mut_path))
    assert code == 1
    assert "FAIL" in out and last_line(out).startswith("RESULT fail")


# -- CLI-wide properties -----------------------------------------------------------


def test_round_trip_graph_fixture(tmp_path, capsys):
    g = wheel(3)
    blob = json.dumps(graph_to_json(g), sort_keys=True)
    assert json.dumps(graph_to_json(graph_from_json(json.loads(blob))),
                      sort_keys=True) == blob


def test_determinism(algebra_file, capsys):
    runs = []
    for _ in range(2):
        code, out = run(capsys, "nerve", algebra_file, "--corpus",
                        "stick", "corolla:1", "corolla:2", "wheel:1")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out = run(capsys, "enumerate", "--labels", "2",
                     "--max-vertices", "2", "--max-valency", "3")
        runs.append(out)
    assert runs[0] == runs[1]


def test_nerve_out_is_byte_identical_across_hash_seeds(tmp_path):
    # colimit edge ids are frozensets, whose repr follows hash order; the
    # written presheaf must not depend on PYTHONHASHSEED
    algebra = tmp_path / "two4.json"
    algebra.write_text(json.dumps(algebra_to_json(tuple_algebra(TWO, 4))))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    written = []
    for seed in range(4):
        out = tmp_path / f"P{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "feyngraph.cli", "nerve", str(algebra),
             "--corpus", "stick", "corolla:1", "corolla:2", "wheel:1",
             "wheel:2", "line:1", "--out", str(out)],
            env=env, check=True, capture_output=True)
        written.append(out.read_bytes())
    assert all(w == written[0] for w in written)


def test_max_search_env_cap(monkeypatch, capsys):
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "1")
    code, _ = run(capsys, "enumerate", "--labels", "2",
                  "--max-vertices", "2", "--max-valency", "3")
    assert code == 2
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH")


def test_malformed_max_search_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "abc")
    code = main(["enumerate", "--labels", "2", "--max-vertices", "1",
                 "--max-valency", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert ("error: BadParameter: FEYNGRAPH_MAX_SEARCH='abc' is not a "
            "nonnegative integer") in captured.err


def test_result_trailer_everywhere(capsys):
    cases = [
        ["validate", "stick"],
        ["iso", "stick", "stick"],
        ["eval", "terminal", "corolla:1"],
        ["pointed-hom", "wheel:1", "stick"],
        ["brauer", "downward", "cap"],
    ]
    for argv in cases:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert last_line(out).startswith("RESULT pass n_checked="), argv
