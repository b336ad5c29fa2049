"""Command-line front end: parsing, exit codes, determinism."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from wberg.cli import main
from wberg.config import build_tuple, parse_case, report_json
from wberg.corpus import corpus_cases
from wberg.errors import ConfigError, SeriesTailTooLarge
from wberg.series import MultiWeightSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# series subcommands
# ---------------------------------------------------------------------------

def test_series_invert_bergman(capsys):
    code, out, _ = run_cli(capsys, "series", "invert", "--weights", "bergman:2",
                           "--terms", "4")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [1.0, -2.0, 1.0, 0.0]


def test_series_invert_two_variables_is_the_outer_product_of_rows(capsys):
    rows = []
    for text in ("bergman:1.5", "hardy"):
        code, out, _ = run_cli(capsys, "series", "invert", "--weights", text, "--terms", "6")
        assert code == 0
        rows.append(json.loads(out)["coeffs"])
    code, out, _ = run_cli(capsys, "series", "invert", "--weights", "bergman:1.5,hardy",
                           "--terms", "6")
    assert code == 0
    data = json.loads(out)
    outer = np.multiply.outer(rows[0], rows[1]).ravel()
    assert data["degrees"] == [6, 6]
    # bit for bit, signed zeros included
    assert [v.hex() for v in data["coeffs"]] == [float(v).hex() for v in outer]


def test_series_invert_hardy(capsys):
    code, out, _ = run_cli(capsys, "series", "invert", "--weights", "hardy",
                           "--terms", "3")
    assert code == 0
    assert json.loads(out)["coeffs"] == [1.0, -1.0, -0.0]


def test_series_props_report(capsys):
    code, out, _ = run_cli(capsys, "series", "props", "--weights",
                           "bergman:1.5,bergman:2", "--terms", "16")
    assert code == 0
    data = json.loads(out)
    assert data["p1_ok"] is True
    assert data["p3_abs_sum"] > 0


def test_series_quotient(capsys):
    code, out, _ = run_cli(capsys, "series", "quotient", "--weights", "hardy",
                           "--r", "0.5", "--s", "0.5", "--terms", "4")
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert coeffs[0] == 1.0 and max(abs(c) for c in coeffs[1:]) < 1e-13


def test_series_bad_weights_exit_2(capsys):
    code, _, err = run_cli(capsys, "series", "invert", "--weights", "bergman:0.2",
                           "--terms", "4")
    assert code == 2
    assert "BadBeta" in err


# ---------------------------------------------------------------------------
# case commands
# ---------------------------------------------------------------------------

def test_check_multishift(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "bergman:2,bergman:2",
                           "--tuple", "multishift:4x4")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["steps"]["check"]["pure"] is True


def test_check_scalars(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "bergman:1,bergman:1",
                           "--tuple", "scalars:[0.5,0.5]")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_expansive_radius_exit_2(capsys):
    code, _, err = run_cli(capsys, "check", "--weights", "hardy,hardy",
                           "--tuple", "random-contraction:3:4:2:1.2")
    assert code == 2


def test_check_failing_verdict_exit_1(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "bergman:2,bergman:2",
                           "--tuple", "nilpotent:1:4:2:0.9")
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_dilate_pure_nilpotent(capsys):
    code, out, _ = run_cli(capsys, "dilate", "--pure", "--weights", "hardy,hardy",
                           "--tuple", "nilpotent:5:4:2:0.6")
    assert code == 0
    data = json.loads(out)
    res = data["steps"]["dilate-pure"]["residuals"]
    assert res["isometry"] < 1e-9


def test_dilate_general_mixed(capsys):
    code, out, _ = run_cli(capsys, "dilate", "--general", "--weights", "hardy,hardy",
                           "--tuple", "scalars:[1.0,0.5]")
    assert code == 0
    step = json.loads(out)["steps"]["dilate-general"]
    # the one nonzero block, and a delta_formula identity for each of the 4 subsets
    assert [(b["lam"], b["e_dim"]) for b in step["blocks"]] == [([1], 1)]
    assert sum(key.startswith("delta_formula") for key in step["residuals"]) == 4


def test_dilate_general_as_large_as_the_pure_dilation(capsys):
    code, out, _ = run_cli(capsys, "dilate", "--general", "--weights", "bergman:2,bergman:2",
                           "--tuple", "scalars:[0.8,0.8]")
    assert code == 0
    step = json.loads(out)["steps"]["dilate-general"]
    assert step["verdict"] is True and step["model_dim"] == 11236


def test_dilate_non_hypercontractive_exit_1(capsys):
    code, _, err = run_cli(capsys, "dilate", "--pure", "--weights",
                           "bergman:2,bergman:2", "--tuple", "nilpotent:1:4:2:0.9")
    assert code == 1
    assert "NotHypercontractive" in err


def test_charfn_pipeline(capsys):
    code, out, _ = run_cli(capsys, "charfn", "--weights", "bergman:2",
                           "--tuple", "nilpotent:3:5:1:0.5")
    assert code == 0
    body = json.loads(out)["steps"]["charfn"]
    assert body["block_unitarity"] < 1e-9
    assert body["coincidence"] is True


def test_dilate_pure_fractional_scalar_exit_0(capsys):
    # the defect limit is the vertex value; an r-sweep stopped short of it
    # left the dilation map non-isometric (residual 1.7e-7)
    code, out, _ = run_cli(capsys, "dilate", "--pure", "--weights", "bergman:2.5",
                           "--tuple", "scalars:[0.95]")
    assert code == 0
    assert json.loads(out)["steps"]["dilate-pure"]["residuals"]["isometry"] < 1e-9


def test_charfn_fractional_scalar_exit_0(capsys):
    code, out, _ = run_cli(capsys, "charfn", "--weights", "bergman:2.5",
                           "--tuple", "scalars:[0.95]")
    assert code == 0
    body = json.loads(out)["steps"]["charfn"]
    assert body["partial_isometry"] < 1e-8 and body["range_orthogonality"] < 1e-8


def test_charfn_non_pure_exit_1(capsys):
    code, _, err = run_cli(capsys, "charfn", "--weights", "hardy",
                           "--tuple", "scalars:[1.0]")
    assert code == 1
    assert "NotPure" in err


def test_charfn_on_a_pair_exit_2(capsys):
    # characteristic functions are one-variable: a pair is a usage error,
    # not a failed verdict
    code, out, err = run_cli(capsys, "charfn", "--weights", "hardy,hardy",
                             "--tuple", "scalars:[0.5,0.3]")
    assert code == 2 and out == ""
    error = json.loads(err.splitlines()[0])
    assert error["error"] == "ConfigError" and "arity 1" in error["message"]


def test_equivalence_without_integer_weights_or_gamma_exit_2(tmp_path, capsys):
    # the lattice criterion needs integer exponents: without them and
    # without a gamma the step cannot run, which is a usage error
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"weights": "bergman:1.5", "tuple": "scalars:[0.5]",
                                "run": ["equivalence"]}))
    code, out, err = run_cli(capsys, "check", "--config", str(path))
    assert code == 2 and out == ""
    error = json.loads(err.splitlines()[0])
    assert error["error"] == "ConfigError" and "gamma" in error["message"]
    # an explicit gamma runs the step
    path.write_text(json.dumps({"weights": "bergman:1.5", "tuple": "scalars:[0.5]",
                                "gamma": [1], "run": ["equivalence"]}))
    code, out, _ = run_cli(capsys, "check", "--config", str(path))
    assert code == 0 and json.loads(out)["steps"]["equivalence"]["gamma"] == [1]


def bergman2_prefix(length: int) -> str:
    """The first ``length`` weights ``w_k = 1/(k+1)`` of ``bergman:2`` as an explicit list."""
    return "explicit:[" + ",".join(repr(1 / (k + 1)) for k in range(length)) + "]"


@pytest.mark.parametrize("tuple_spec", ["scalars:[0.5]", "nilpotent:3:6:1:0.5"])
@pytest.mark.parametrize("command, step, sizes", [
    (("dilate", "--pure"), "dilate-pure", ("model_dim",)),
    (("charfn",), "charfn", ("n_terms", "e_dim")),
], ids=["dilate-pure", "charfn"])
def test_explicit_weights_run_like_their_preset(capsys, command, step, sizes, tuple_spec):
    # 200 entries reach past every sum these cases take: the verdicts and the
    # truncations equal those of bergman:2
    code, out, err = run_cli(capsys, *command, "--weights", bergman2_prefix(200),
                             "--tuple", tuple_spec)
    assert code == 0, err
    preset_code, preset_out, _ = run_cli(capsys, *command, "--weights", "bergman:2",
                                         "--tuple", tuple_spec)
    assert preset_code == 0
    body = json.loads(out)["steps"][step]
    preset = json.loads(preset_out)["steps"][step]
    assert body["verdict"] is preset["verdict"] is True
    assert [body[key] for key in sizes] == [preset[key] for key in sizes]


@pytest.mark.parametrize("length", [40, 80])
def test_charfn_on_an_explicit_list_shorter_than_a_kernel_chunk_exit_0(capsys, length):
    code, out, err = run_cli(capsys, "charfn", "--weights", bergman2_prefix(length),
                             "--tuple", "nilpotent:3:6:1:0.5")
    assert code == 0, err
    assert json.loads(out)["steps"]["charfn"]["verdict"] is True


@pytest.mark.parametrize("command, tuple_spec", [
    (("dilate", "--pure"), "scalars:[0.5]"),
    (("charfn",), "scalars:[0.5]"),
    (("charfn",), "nilpotent:3:6:1:0.5"),
], ids=["dilate-horizon", "charfn-horizon", "charfn-kernel"])
def test_explicit_list_too_short_for_its_sum_exit_2(capsys, command, tuple_spec):
    code, _, err = run_cli(capsys, *command, "--weights", bergman2_prefix(12),
                           "--tuple", tuple_spec)
    assert code == 2
    error = json.loads(err.splitlines()[0])
    assert error["error"] == "HorizonTooShort" and "12" in error["message"]


def test_charfn_kernel_tail_past_the_truncation_exit_2(capsys):
    # w_k = 6^-k: at |eta zeta| = 0.08 the function's 24 terms miss 3.9e-8 of
    # the scalar kernel, a truncation the identity cannot meet; it is a
    # HorizonTooShort, not a failed verdict with a truncation residual
    weights = "explicit:[" + ",".join(repr(6.0**-k) for k in range(100)) + "]"
    code, out, err = run_cli(capsys, "charfn", "--weights", weights,
                             "--tuple", "nilpotent:3:5:1:0.3")
    assert code == 2 and out == ""
    error = json.loads(err.splitlines()[0])
    assert error["error"] == "HorizonTooShort"
    assert "past the function's 24 terms" in error["message"]
    # w_k = 5^-k misses 4.1e-10 there: the identity is checked and holds
    weights = "explicit:[" + ",".join(repr(5.0**-k) for k in range(100)) + "]"
    code, out, _ = run_cli(capsys, "charfn", "--weights", weights,
                           "--tuple", "nilpotent:3:5:1:0.3")
    assert code == 0
    assert json.loads(out)["steps"]["charfn"]["key_identity_max"] < 1e-9


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = {
        "weights": "hardy,hardy",
        "tuple": "nilpotent:2:4:2:0.5",
        "degrees": [6, 6],
        "run": ["check"],
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "check", "--config", str(path))
    assert code == 0
    assert json.loads(out)["case"] == "case"


SCALAR_CASE = {"weights": "hardy", "tuple": "scalars:[0.5]"}


@pytest.mark.parametrize("cfg", [
    {"weights": "bergman:2,hardy", "tuple": "nilpotent:1:4:2:0.5", "r_grid": [[0.5]]},
    {"weights": "bergman:2,hardy", "tuple": "scalars:[0.5]"},
    {**SCALAR_CASE, "weights": [2]},
    {**SCALAR_CASE, "weights": 5},
    {**SCALAR_CASE, "weights": ["hardy", 3]},
    {**SCALAR_CASE, "weights": None},
    {**SCALAR_CASE, "tol": None},
    {**SCALAR_CASE, "seed": None},
    {**SCALAR_CASE, "seed": [1]},
    {**SCALAR_CASE, "gamma": 3},
    {**SCALAR_CASE, "run": 5},
    {**SCALAR_CASE, "tuple": "nilpotent:1"},
    {**SCALAR_CASE, "gamma": [2.5]},
    {**SCALAR_CASE, "gamma": [True]},
    {**SCALAR_CASE, "degrees": [8.5]},
    {**SCALAR_CASE, "degrees": True},
    {**SCALAR_CASE, "seed": 2.5},
    {**SCALAR_CASE, "seed": False},
], ids=["grid-point-arity", "tuple-arity", "weights-number-list", "weights-number",
        "weights-mixed-list", "weights-null", "tol-null", "seed-null", "seed-list",
        "gamma-number", "run-number", "tuple-short-generator", "gamma-fraction",
        "gamma-bool", "degrees-fraction", "degrees-bool", "seed-fraction", "seed-bool"])
def test_config_arity_mismatch_exit_2(tmp_path, capsys, cfg):
    # a configuration whose grid or tuple does not match the weights, or
    # whose entries have the wrong type, is a usage error, not a failed
    # verdict and not a traceback; an integer entry with a fractional part,
    # or a bool, is refused rather than truncated
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "check", "--config", str(path))
    assert code == 2
    assert json.loads(err.splitlines()[0])["error"] == "ConfigError"


def test_dilation_map_that_does_not_fit_exits_2(monkeypatch, capsys):
    argv = ("dilate", "--pure", "--weights", "hardy,hardy", "--tuple", "nilpotent:5:4:2:0.6")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    shape = (json.loads(out)["steps"]["dilate-pure"]["model_dim"], 4)
    original = np.empty

    def empty(size, *args, **kwargs):
        if tuple(np.atleast_1d(size)) == shape:
            raise MemoryError("no room")
        return original(size, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    error = json.loads(err.splitlines()[0])
    assert error["error"] == "BlockBudgetExceeded"
    assert f"({shape[0]}, {shape[1]})" in error["message"] and "GiB" in error["message"]


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        parse_case({"weights": "hardy", "bogus": 1})


def test_explicit_tuple_object():
    from wberg.linalg import Operator

    eye = Operator(np.eye(2)).to_dict()
    t = build_tuple({"kind": "explicit", "matrices": [eye]},
                    MultiWeightSpec.parse("hardy"), (4,))
    assert t.n == 1 and t.dim == 2


def test_explicit_tuple_from_files(tmp_path):
    from wberg.linalg import Operator

    p1 = tmp_path / "a.json"
    p1.write_text(json.dumps(Operator(np.diag([0.5, 0.25])).to_dict()))
    t = build_tuple(f"explicit:{p1}", MultiWeightSpec.parse("hardy"), (4,))
    assert t.dim == 2


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def test_corpus_has_twelve_cases():
    assert len(corpus_cases()) == 12


def test_report_json_deterministic_and_sorted():
    body = {"b": 1.0, "a": {"z": float("inf"), "y": np.float64(0.25)}}
    text = report_json(body)
    assert text == report_json({"a": {"y": 0.25, "z": float("inf")}, "b": 1.0})
    assert json.loads(text)["a"]["z"] == "inf"


def test_verify_all_runs_clean(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify-all", "--out", str(out1)]) == 0
    assert main(["verify-all", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    body = json.loads(out1.read_text())
    assert body["verdict"] is True and body["cases"] == 12


_EDGE = math.sqrt(0.50000005)  # 1 - 2 a^2 = -1e-7: bergman:2 fails at the vertex by 1e-7


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6])
@pytest.mark.parametrize("weights,spec,verdicts", [
    ("hardy", "scalars:[1.00000000005]", (False, True, True)),
    ("bergman:2", {"kind": "explicit", "matrices": [
        {"rows": 2, "cols": 2, "re": [0.0, _EDGE, 0.0, 0.0], "im": [0.0] * 4}]},
     (False, False, True)),
], ids=["hardy-scalar-past-1", "bergman2-shift-past-the-vertex"])
def test_check_witnesses_agree_with_the_verdict(tol, weights, spec, verdicts):
    # the witnesses are filtered at the tolerance the verdict is decided at:
    # a false verdict lists only failing witnesses, a true one a passing one
    from wberg.pipelines import run_case

    data = {"name": "edge", "weights": weights, "tuple": spec, "degrees": [8], "tol": tol,
            "run": ["check"]}
    ok, report = run_case(parse_case(data, name="edge"))
    step = report["steps"]["check"]
    assert step["verdict"] is ok is verdicts[[1e-12, 1e-8, 1e-6].index(tol)]
    listed = step["witnesses"]
    if ok:
        assert len(listed) == 1 and listed[0]["min_eig"] >= -tol
    else:
        assert listed and all(w["min_eig"] < -tol for w in listed)


def test_check_default_run_includes_crosschecks(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "bergman:2,bergman:2",
                           "--tuple", "multishift:3x3")
    assert code == 0
    steps = json.loads(out)["steps"]
    assert set(steps) == {"check", "equivalence", "subtuple"}


def test_check_near_the_circle_with_fractional_beta_passes(capsys):
    # the vertex defect of bergman:3.7 at |t| = 0.999 is (1 - 0.999^2)^3.7,
    # about 1e-10: positive, and resolved once the reciprocal coefficients
    # carry no forward error
    code, out, _ = run_cli(capsys, "check", "--weights", "bergman:3.7",
                           "--tuple", "scalars:[0.999]")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_near_the_circle_warns_its_vertex_floor(capsys):
    # at |t| = 0.999 the fractional factor of bergman:2.5 is cut at
    # DEGREE_CAP: the reported vertex defect comes with a warning that names
    # its floor, and the floor bounds the error against (1 - |t|^2)^2.5
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "check", "--weights", "bergman:2.5",
                               "--tuple", "scalars:[0.999]")
    floors = [str(w.message) for w in seen if issubclass(w.category, SeriesTailTooLarge)]
    assert code == 0 and floors
    floor = float(re.search(r"accuracy floor (\S+) exceeds", floors[0]).group(1))
    got = json.loads(out)["steps"]["check"]["defect_vertex_min_eig"]
    assert abs(got - (1.0 - 0.999**2) ** 2.5) <= floor


def test_check_classification_report_carries_matrices(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "bergman:2",
                           "--tuple", "scalars:[0.5]")
    assert code == 0
    body = json.loads(out)["steps"]["check"]
    assert body["q_tail"]["rows"] == 1
    assert body["defect"]["re"][0] == pytest.approx(0.75)
    assert body["pure"] is True


def test_text_format_output(capsys):
    code, out, _ = run_cli(capsys, "series", "invert", "--weights", "hardy",
                           "--terms", "3", "--format", "text")
    assert code == 0
    assert "coeffs:" in out and "{" not in out


@pytest.mark.parametrize("command", [["check"], ["dilate", "--pure"], ["charfn"]])
def test_case_commands_refuse_the_degrees_flag(capsys, command):
    # the cutoffs of these commands come from the tuple and the weights; a
    # configuration's "degrees" entry is read by the series steps only
    with pytest.raises(SystemExit) as exc:
        main([*command, "--weights", "hardy", "--tuple", "scalars:[0.5]", "--degrees", "6"])
    assert exc.value.code == 2
    assert "--degrees" in capsys.readouterr().err


def test_config_integral_float_entries_are_accepted(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**SCALAR_CASE, "degrees": [8.0], "seed": 3.0}))
    code, out, _ = run_cli(capsys, "check", "--config", str(path))
    assert code == 0
    assert json.loads(out)["degrees"] == [8]


def test_missing_generator_is_config_error(capsys):
    code, _, err = run_cli(capsys, "check", "--weights", "hardy")
    assert code == 2
    assert "ConfigError" in err
