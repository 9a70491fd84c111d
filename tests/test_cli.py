import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctrop.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_seed_mutate(tmp_path, capsys):
    seed = {"n": 2, "unfrozen": [0, 1],
            "lambda": [["0", "1"], ["-1", "0"]], "d": [1, 1], "word": []}
    f = tmp_path / "a2.json"
    f.write_text(json.dumps(seed))
    rc, out, err = run_cli(capsys, "seed", "mutate", "--file", str(f),
                           "--k", "0")
    assert rc == 0
    data = json.loads(out)
    assert data["word"] == [0]
    assert data["eps"] == [["0", "-1"], ["1", "0"]]


def test_seed_mutate_frozen_is_domain_error(tmp_path, capsys):
    seed = {"n": 2, "unfrozen": [0],
            "lambda": [["0", "1"], ["-1", "0"]], "d": [1, 1], "word": []}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(seed))
    rc, out, err = run_cli(capsys, "seed", "mutate", "--file", str(f),
                           "--k", "1")
    assert rc == 1
    assert json.loads(err)["error"]["code"] == "frozen-index"


def _bad_params(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    return rc == 1 and out == "" and \
        json.loads(err)["error"]["code"] == "bad-params"


def test_seed_mutate_missing_file_is_domain_error(tmp_path, capsys):
    assert _bad_params(capsys, "seed", "mutate", "--file",
                       str(tmp_path / "absent.json"), "--k", "0")


def test_seed_mutate_non_json_is_domain_error(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("n = 2")
    assert _bad_params(capsys, "seed", "mutate", "--file", str(f),
                       "--k", "0")


def test_seed_mutate_missing_unfrozen_is_domain_error(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"n": 2, "lambda": [["0", "1"], ["-1", "0"]],
                             "d": [1, 1], "word": []}))
    assert _bad_params(capsys, "seed", "mutate", "--file", str(f),
                       "--k", "0")


@pytest.mark.parametrize("fields, k", [
    ({"d": [1]}, 0),
    ({"unfrozen": [0, 1, 5]}, 5),
    ({"d": [1.5, 1]}, 0),
    ({"lambda": ["00", "00"]}, 0),
    ({"word": "0"}, 0),
    ({"word": [1.0]}, 0),
    ({"d": "11"}, 0),
    ({"n": True, "unfrozen": [0], "lambda": [["0"]], "d": [1]}, 0),
    ({"unfrozen": [0, 1.0]}, 0),
], ids=["short_d", "unfrozen_out_of_range", "non_integral_d",
        "lambda_rows_as_strings", "word_as_string", "word_of_floats",
        "d_as_string", "n_as_bool", "unfrozen_of_floats"])
def test_seed_mutate_inconsistent_fixed_data_is_domain_error(tmp_path, capsys,
                                                             fields, k):
    seed = {"n": 2, "unfrozen": [0, 1],
            "lambda": [["0", "1"], ["-1", "0"]], "d": [1, 1], "word": []}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(dict(seed, **fields)))
    assert _bad_params(capsys, "seed", "mutate", "--file", str(f),
                       "--k", str(k))


SEED_TEXT = ('{"n": 2, "unfrozen": [0, 1], "lambda": [[0, %s], [-1, 0]], '
             '"d": [1, 1], "word": []}')


@pytest.mark.parametrize("command, text", [
    ("hull", "[[1e400]]"),
    ("transport", '[{"exp": [1, 0], "coef": 1e400}]'),
    ("seed", SEED_TEXT % "1e400"),
    ("seed", SEED_TEXT % '"1/0"'),
], ids=["hull_overflow", "transport_overflow", "seed_overflow",
        "seed_zero_denominator"])
def test_json_number_without_exact_value_is_domain_error(tmp_path, capsys,
                                                         command, text):
    # json reads 1e400 as float infinity, and "1/0" has a zero
    # denominator: neither is a Fraction
    f = tmp_path / "in.json"
    f.write_text(text)
    argv = {"hull": ("poly", "hull", "--points", str(f)),
            "transport": ("laurent", "transport", "--seed-file",
                          RUNNING_SEED, "--to-word", "1", "--poly", str(f)),
            "seed": ("seed", "mutate", "--file", str(f), "--k", "0")}
    assert _bad_params(capsys, *argv[command])


def test_trop_map_polytope_without_vertices_is_domain_error(tmp_path,
                                                             capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}))
    assert _bad_params(capsys, "trop", "map", "--seed-file", RUNNING_SEED,
                       "--word", "0", "--polytope", str(f))


def test_scatter_theta_label_of_wrong_length_is_domain_error(capsys):
    # the principal running-example diagram has dimension 4
    assert _bad_params(capsys, "scatter", "theta", "--fixture",
                       "running-example", "--label=1,-1", "--principal")


@pytest.mark.parametrize("argv", [
    ("scatter", "theta", "--fixture", "a2", "--label=1,x"),
    ("scatter", "theta", "--fixture", "a2", "--label=2(1,q"),
    ("scatter", "theta", "--fixture", "a2", "--label=y(1,0)"),
    ("scatter", "theta", "--fixture", "a2", "--label=2(1,0"),
    ("scatter", "alpha", "--fixture", "a2", "--p=-1,0", "--q=1,0",
     "--r=1,y"),
    ("gr", "val", "--k", "2", "--n", "5", "--J=1,a"),
    ("scatter", "theta", "--fixture", "a2", "--label=2(1,(0)"),
    ("scatter", "theta", "--fixture", "a2", "--label=1,0)"),
], ids=["label", "scaled_label", "label_scale", "unclosed_label", "alpha_r",
        "gr_J", "stray_open_paren_label", "stray_close_paren_label"])
def test_malformed_integer_option_is_domain_error(capsys, argv):
    assert _bad_params(capsys, *argv)


def test_label_scale_defaults_to_one(capsys):
    # an empty scale before the parenthesis is 1
    outs = [run_cli(capsys, "scatter", "theta", "--fixture", "a2",
                    "--label=" + label) for label in ("(1,0)", "1,0")]
    assert outs[0] == outs[1] and outs[0][0] == 0


def _transport_poly(tmp_path, capsys, terms):
    f = tmp_path / "poly.json"
    f.write_text(json.dumps(terms))
    return _bad_params(capsys, "laurent", "transport", "--seed-file",
                       RUNNING_SEED, "--to-word", "1", "--poly", str(f))


def test_laurent_transport_term_without_exp_is_domain_error(tmp_path,
                                                            capsys):
    assert _transport_poly(tmp_path, capsys, [{"coef": "1"}])


def test_laurent_transport_term_without_coef_is_domain_error(tmp_path,
                                                             capsys):
    assert _transport_poly(tmp_path, capsys, [{"exp": [1, 0]}])


def test_laurent_transport_across_an_isolated_vertex(tmp_path, capsys):
    # x_0 x_0' = 1 + 1 at a mutable vertex with no arrows
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"n": 2, "unfrozen": [0],
                                "lambda": [["0", "0"], ["0", "0"]],
                                "d": [1, 1], "word": []}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps([{"exp": [1, 0], "coef": "1"}]))
    rc, out, err = run_cli(capsys, "laurent", "transport", "--seed-file",
                           str(seed), "--from-word", "0", "--poly", str(poly))
    assert rc == 0 and err == ""
    assert json.loads(out)["poly"] == [{"coef": "2", "exp": [-1, 0]}]


@pytest.mark.parametrize("terms", [
    [{"exp": [1, 0], "coef": "1"}, {"exp": [1, 0], "coef": "2"}],
    [{"exp": [1.5, 0], "coef": "1"}],
    [{"exp": "12", "coef": "3"}],
], ids=["repeated_exponent", "non_integral_exponent", "exponent_as_string"])
def test_laurent_transport_lossy_terms_are_domain_errors(tmp_path, capsys,
                                                         terms):
    # none may be read as some other polynomial: the repeated term is not
    # summed or dropped, 1.5 is not truncated to 1, and "12" is not read
    # as the exponent (1, 2)
    assert _transport_poly(tmp_path, capsys, terms)


def test_poly_hull_ragged_points_is_domain_error(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([[0, 0], [2, 0, 1], [0, 2], [2, 2]]))
    assert _bad_params(capsys, "poly", "hull", "--points", str(f))


@pytest.mark.parametrize("command, data", [
    ("hull", "12"),
    ("hull", {"34": 1, "56": 2}),
    ("points", {"vertices": "12"}),
], ids=["points_as_string", "points_as_object", "vertices_as_string"])
def test_point_list_that_is_no_array_is_domain_error(tmp_path, capsys,
                                                     command, data):
    # a string would be read as its characters, an object as its keys
    f = tmp_path / "in.json"
    f.write_text(json.dumps(data))
    opt = "--points" if command == "hull" else "--polytope"
    assert _bad_params(capsys, "poly", command, opt, str(f))


def _slice_argv(tmp_path, cone, fiber):
    c = tmp_path / "cone.json"
    c.write_text(json.dumps(cone))
    f = tmp_path / "fiber.json"
    f.write_text(json.dumps(fiber))
    return "poly", "slice", "--cone", str(c), "--fiber", str(f)


SLICE_CONE = [{"normal": [1, 0]}, {"normal": [0, 1]}]
SLICE_FIBER = [{"normal": [1, 1], "value": 2}]


def test_poly_slice(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, *_slice_argv(tmp_path, SLICE_CONE,
                                              SLICE_FIBER))
    assert rc == 0
    assert len(json.loads(out)["polytope"]["vertices"]) == 2


@pytest.mark.parametrize("cone, fiber", [
    (SLICE_CONE, [{"normal": [1, 1]}]),
    (SLICE_CONE, [{"value": 2}]),
    ([{"offset": 0}], SLICE_FIBER),
    (SLICE_CONE, [{"normal": [1, 1], "value": "x"}]),
    ([], SLICE_FIBER),
    ([{"normal": [1, 0]}, {"normal": [0, 1, 7]},
      {"normal": [-1, -1], "offset": -3}], []),
    (SLICE_CONE, [{"normal": [1, 1, 0], "value": 2}]),
    (SLICE_CONE, [{"normal": "11", "value": 1}]),
], ids=["fiber_without_value", "fiber_without_normal", "cone_without_normal",
        "malformed_value", "empty_cone", "cone_row_of_other_length",
        "fiber_of_other_dimension", "normal_as_string"])
def test_poly_slice_bad_rows_are_domain_errors(tmp_path, capsys, cone,
                                               fiber):
    assert _bad_params(capsys, *_slice_argv(tmp_path, cone, fiber))


def test_usage_error_exit_code(capsys):
    rc, out, err = run_cli(capsys, "seed", "mutate")
    assert rc == 2


def test_scatter_theta_running_example(capsys):
    rc, out, err = run_cli(capsys, "scatter", "theta",
                           "--fixture", "running-example",
                           "--label", "2(-1,-2)", "--on-x")
    assert rc == 0
    data = json.loads(out)
    assert data["exact"] is True
    assert data["theta"] == [
        {"coef": "1", "exp": [-1, -2]},
        {"coef": "2", "exp": [-1, -1]},
        {"coef": "1", "exp": [-1, 0]},
    ]


def test_scatter_theta_deterministic(capsys):
    args = ("scatter", "theta", "--fixture", "a2", "--label=-1,0")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_gr_verify(capsys):
    rc, out, err = run_cli(capsys, "gr", "verify", "--k", "3", "--n", "6")
    assert rc == 0
    data = json.loads(out)
    assert data == {"ok": True, "passed": 20, "total": 20}


def test_gr_val_and_gvec(capsys):
    rc, out, _ = run_cli(capsys, "gr", "val", "--k", "2", "--n", "4",
                         "--J", "2,4")
    assert rc == 0 and json.loads(out)["tableau"] == [[0, 1], [1, 1]]
    rc, out, _ = run_cli(capsys, "gr", "gvec", "--k", "2", "--n", "4",
                         "--J", "1,3")
    data = json.loads(out)
    assert data["g"] == [0, -1, 1, 1, 0]


def test_poly_hull_and_points(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]]))
    rc, out, _ = run_cli(capsys, "poly", "hull", "--points", str(f))
    assert rc == 0
    hull = json.loads(out)["polytope"]
    assert len(hull["vertices"]) == 4
    g = tmp_path / "poly.json"
    g.write_text(json.dumps(hull))
    rc, out, _ = run_cli(capsys, "poly", "points", "--polytope", str(g))
    assert json.loads(out)["count"] == 9


def test_scatter_alpha(capsys):
    rc, out, _ = run_cli(capsys, "scatter", "alpha", "--fixture", "a2",
                         "--p=-1,0", "--q", "1,0", "--r", "0,1")
    assert rc == 0 and json.loads(out)["alpha"] == "1"


def test_scatter_alpha_at_order_zero_is_truncated(capsys):
    # alpha(p, q, r) = 1 needs bent lines, which order 0 cannot reach
    for order in ("0", "1"):
        rc, out, err = run_cli(capsys, "scatter", "alpha", "--fixture",
                               "a2", "--p", "1,0", "--q=-1,0", "--r", "0,1",
                               "--order", order)
        assert rc == 1 and out == ""
        assert json.loads(err)["error"]["code"] == "truncated"


@pytest.mark.parametrize("cmd", [
    ("complete",), ("theta", "--label=-1,0"),
    ("alpha", "--p=-1,0", "--q", "1,0", "--r", "0,1")])
def test_scatter_negative_order_is_domain_error(capsys, cmd):
    rc, out, err = run_cli(capsys, "scatter", cmd[0], "--fixture", "a2",
                           "--order=-1", *cmd[1:])
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == {
        "code": "bad-params",
        "message": "truncation order must be nonnegative"}


def test_trop_map_point(tmp_path, capsys):
    seed = {"n": 2, "unfrozen": [0, 1],
            "lambda": [["0", "1"], ["-1", "0"]], "d": [1, 1], "word": []}
    f = tmp_path / "a2.json"
    f.write_text(json.dumps(seed))
    rc, out, _ = run_cli(capsys, "trop", "map", "--seed-file", str(f),
                         "--word", "0", "--flavor", "A",
                         "--convention", "T", "--point", "0,1")
    assert rc == 0
    assert json.loads(out)["coords"] == ["-1", "1"]


def test_gr_nobody_unimodular_check_needs_the_gvec_side(capsys):
    # the check compares the g-vector body with the flow body; on the flow
    # side it used to be skipped without a word
    assert _bad_params(capsys, "gr", "nobody", "--k", "2", "--n", "4",
                       "--side", "flow", "--check-unimodular")


@pytest.mark.parametrize("argv", [
    ["gr", "nobody", "--k", "2", "--n", "4", "--side", "gvec", "--csv",
     "--check-unimodular"],
    ["gr", "verify", "--k", "2", "--n", "4", "--csv", "--verbose"]])
def test_csv_excludes_the_json_only_flags(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == "" and "not allowed with" in err


def test_gr_verify_csv(capsys):
    rc, out, _ = run_cli(capsys, "gr", "verify", "--k", "2", "--n", "4",
                         "--csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "J,ok" and len(lines) == 7
    assert all(line.endswith("pass") for line in lines[1:])


GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
RUNNING_SEED = str(INPUTS / "running_seed.json")
FROZEN_SEED = str(INPUTS / "frozen_seed.json")
POLYTOPE = str(INPUTS / "polytope.json")


def test_accept_run_unknown_id_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "accept", "run", "--id", "99")
    assert rc == 2 and out == "" and "invalid choice" in err


def test_trop_map_needs_exactly_one_of_point_and_polytope(capsys):
    base = ["trop", "map", "--seed-file", RUNNING_SEED, "--word", "0"]
    for extra in ([], ["--point", "1,2", "--polytope", POLYTOPE]):
        rc, out, err = run_cli(capsys, *base, *extra)
        assert rc == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("word, what", [
    ("0", ["--point", "1,2,3"]), ("", ["--point", "1,2,3"]),
    ("0", ["--point", "1"]), ("0", ["--polytope", "cube"]),
    ("", ["--polytope", "cube"])])
def test_trop_map_dimension_mismatch_is_domain_error(tmp_path, capsys, word,
                                                     what):
    if what[-1] == "cube":
        cube = tmp_path / "cube.json"
        cube.write_text(json.dumps({"vertices": [
            [a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]}))
        what = [what[0], str(cube)]
    assert _bad_params(capsys, "trop", "map", "--seed-file", RUNNING_SEED,
                       "--word", word, *what)


# name -> argv.  golden/<name>.out holds the exact stdout, golden/<name>.err
# the stderr of the cases that write any, and golden/exit_codes.json the
# exit codes, all as produced by ctrop.cli.main.
GOLDEN_CASES = {
    "transport_A_toward": [
        "laurent", "transport", "--seed-file", RUNNING_SEED,
        "--from-word", "0,1", "--poly", str(INPUTS / "poly_pos.json")],
    "transport_A_away": [
        "laurent", "transport", "--seed-file", RUNNING_SEED,
        "--to-word", "0,1", "--poly", str(INPUTS / "poly_pos.json")],
    "transport_A_frozen_across": [
        "laurent", "transport", "--seed-file", FROZEN_SEED,
        "--from-word", "0", "--to-word", "1",
        "--poly", str(INPUTS / "poly_frozen.json")],
    "transport_A_not_laurent": [
        "laurent", "transport", "--seed-file", RUNNING_SEED,
        "--to-word", "1", "--poly", str(INPUTS / "poly_bad.json")],
    "transport_X_toward": [
        "laurent", "transport", "--seed-file", RUNNING_SEED,
        "--from-word", "0,1", "--poly", str(INPUTS / "poly_neg.json"),
        "--flavor", "X"],
    "transport_X_away": [
        "laurent", "transport", "--seed-file", RUNNING_SEED,
        "--to-word", "0,1", "--poly", str(INPUTS / "poly_neg.json"),
        "--flavor", "X"],
    "transport_X_away_positive": [
        "laurent", "transport", "--seed-file", RUNNING_SEED,
        "--to-word", "1", "--poly", str(INPUTS / "poly_pos.json"),
        "--flavor", "X"],
    "scatter_theta_a2": [
        "scatter", "theta", "--fixture", "a2", "--label=-1,0"],
    "scatter_theta_kronecker": [
        "scatter", "theta", "--fixture", "kronecker", "--label=-1,1"],
    # 7 terms from broken lines with up to three bends
    "scatter_theta_kronecker_bends": [
        "scatter", "theta", "--fixture", "kronecker", "--label=1,-2"],
    "scatter_theta_on_x": [
        "scatter", "theta", "--fixture", "running-example",
        "--label", "2(-1,-2)", "--on-x"],
    "scatter_alpha_a2": [
        "scatter", "alpha", "--fixture", "a2", "--p=-1,0", "--q", "1,0",
        "--r", "0,1"],
    "scatter_alpha_running": [
        "scatter", "alpha", "--fixture", "running-example", "--p=-1,1",
        "--q=0,-1", "--r=-1,0"],
    # the p lines bend up to three times near r
    "scatter_alpha_kronecker": [
        "scatter", "alpha", "--fixture", "kronecker", "--p=1,-1",
        "--q=-1,0", "--r=0,-1"],
    # a malformed integer in an option value is a domain error
    "scatter_theta_malformed_label": [
        "scatter", "theta", "--fixture", "a2", "--label=2(1,x"],
    "gr_nobody_gvec_unimodular": [
        "gr", "nobody", "--k", "3", "--n", "6", "--side", "gvec",
        "--check-unimodular"],
    "poly_points": ["poly", "points", "--polytope", POLYTOPE],
    # a rational quadrilateral on the plane 2x + y - z = 1
    "poly_points_plane": [
        "poly", "points", "--polytope", str(INPUTS / "polytope_plane.json")],
}
for _flavor in ("A", "X"):
    for _conv in ("T", "t"):
        _map = ["trop", "map", "--seed-file", RUNNING_SEED, "--word", "0,1",
                "--flavor", _flavor, "--convention", _conv]
        GOLDEN_CASES["trop_point_%s_%s" % (_flavor, _conv)] = \
            _map + ["--point", "2,-3"]
        GOLDEN_CASES["trop_polytope_%s_%s" % (_flavor, _conv)] = \
            _map + ["--polytope", POLYTOPE]
    GOLDEN_CASES["trop_point_%s_backtrack" % _flavor] = [
        "trop", "map", "--seed-file", RUNNING_SEED, "--word", "1,0,0",
        "--flavor", _flavor, "--convention", "t", "--point", "2,-3"]
for _fixture in ("a2", "running-example", "kronecker"):
    GOLDEN_CASES["scatter_complete_%s" % _fixture] = [
        "scatter", "complete", "--fixture", _fixture]
    GOLDEN_CASES["scatter_complete_%s_principal" % _fixture] = [
        "scatter", "complete", "--fixture", _fixture, "--principal"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_golden(name, capsys):
    rc, out, err = run_cli(capsys, *GOLDEN_CASES[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert rc == codes[name]
    assert out == (GOLDEN / ("%s.out" % name)).read_text()
    err_file = GOLDEN / ("%s.err" % name)
    assert err == (err_file.read_text() if err_file.exists() else "")


def test_cli_closed_stdout_exits_cleanly():
    # `ctrop ... | head -1`: the reader has gone before anything is
    # written, so every write to stdout fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ctrop", "scatter", "theta", "--fixture",
             "a2", "--label=-1,0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr
