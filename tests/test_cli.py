import json
import math
import os
import time
import warnings

import pytest

from dhmeasure import cli, conespline, hermitian, localize, polycone, verify
from dhmeasure.rational import rat


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def cone_input(tmp_path):
    return write(
        tmp_path / "cone.json",
        {
            "dim": 2,
            "halfspaces": [
                {"normal": [1, 0], "offset": 0},
                {"normal": [0, 1], "offset": 0},
                {"normal": [1, 1], "offset": -2},
            ],
        },
    )


@pytest.fixture
def sphere_input(tmp_path):
    return write(
        tmp_path / "sphere.json",
        {
            "dim": 1,
            "points": [
                {"image": ["2"], "weights": [["-1"]]},
                {"image": ["-2"], "weights": [["1"]]},
            ],
        },
    )


@pytest.fixture
def orbit_input(tmp_path):
    return write(
        tmp_path / "orbit.json",
        {"family": "AIII", "params": [2, 1], "lambda": ["3", "1", "-4"]},
    )


def test_cones_subcommand(cone_input, capsys):
    rc = cli.main(["cones", "--input", cone_input, "--xi=1,1", "--xi=-1,0"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["feasible"] is True
    assert rep["proper"] is True
    assert rep["compact"] is False
    by_xi = {tuple(d["xi"]): d for d in rep["directions"]}
    assert by_xi[("1", "1")]["bounded_below"] is True
    assert by_xi[("-1", "0")]["bounded_below"] is False


@pytest.mark.parametrize("generators,consistent", [
    ([[0, 1], [0, -1]], False),  # the line through e2 is not the half-plane
    ([[0, 1], [0, -1], [1, 0]], True),
])
def test_cones_with_both_keys_is_a_cone(generators, consistent, tmp_path, capsys):
    path = write(tmp_path / "cone.json", {
        "dim": 2, "halfspaces": [{"normal": [1, 0], "offset": 0}],
        "generators": generators})
    assert cli.main(["cones", "--input", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "cone"
    assert rep["pointed"] is False
    assert "extreme_rays" not in rep
    assert rep["representations_consistent"] is consistent


def test_cones_reports_extreme_rays_of_a_pointed_cone_with_both_keys(tmp_path, capsys):
    path = write(tmp_path / "cone.json", {
        "dim": 2,
        "halfspaces": [{"normal": [1, 0], "offset": 0}, {"normal": [-1, 2], "offset": 0}],
        "generators": [[0, 1], [2, 1]]})
    assert cli.main(["cones", "--input", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "cone" and rep["pointed"] is True
    assert sorted(rep["extreme_rays"]) == [["0", "1"], ["2", "1"]]
    assert rep["representations_consistent"] is True


def test_cones_with_generators_and_an_offset_exits_two(tmp_path, capsys):
    path = write(tmp_path / "cone.json", {
        "dim": 2, "halfspaces": [{"normal": [1, 0], "offset": -1}],
        "generators": [[1, 0]]})
    assert cli.main(["cones", "--input", path]) == 2
    assert "origin" in capsys.readouterr().err


def test_cones_accepts_space_separated_dash_values(cone_input, capsys):
    rc = cli.main(["cones", "--input", cone_input, "--xi", "-1,0"])
    assert rc == 0
    json.loads(capsys.readouterr().out)


def test_abelian_subcommand(sphere_input, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(
        [
            "abelian",
            "--input",
            sphere_input,
            "--out",
            str(out),
            "--zeta-samples",
            "3",
            "--seed",
            "5",
            "--grid=-3:3:13",
        ]
    )
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert rep["support_min"] == "-2"
    lines = (out / "density.csv").read_text().splitlines()
    assert lines[0] == "mu_1,density,error_bound"
    assert len(lines) == 14
    assert (out / "spline.json").exists()
    assert not [f for f in os.listdir(out) if f.startswith(".tmp-")]


def test_orbit_subcommand(orbit_input, tmp_path):
    out = tmp_path / "orbit_out"
    rc = cli.main(
        [
            "orbit",
            "--input",
            orbit_input,
            "--out",
            str(out),
            "--zeta-samples",
            "3",
            "--seed",
            "5",
            "--measure",
            "both",
        ]
    )
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert rep["t_measure"]["localization_worst_rel"] <= 1e-6
    assert rep["k_measure"]["worst_rel"] <= 1e-9
    for name in (
        "weyl.json",
        "t_spline.json",
        "k_spline.json",
        "t_density.csv",
        "k_density.csv",
    ):
        assert (out / name).exists()
    header = (out / "k_density.csv").read_text().splitlines()[0]
    assert header == "mu_1,mu_2,density,error_bound"


def test_orbit_wall_lambda_exits_two(tmp_path, capsys):
    bad = write(
        tmp_path / "wall.json",
        {"family": "AIII", "params": [2, 1], "lambda": ["3", "3", "-6"]},
    )
    rc = cli.main(["orbit", "--input", bad])
    assert rc == 2
    err = capsys.readouterr().err
    assert "wall" in err


def test_missing_input_exits_two(tmp_path, capsys):
    rc = cli.main(["cones", "--input", str(tmp_path / "nope.json")])
    assert rc == 2


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["cones", "--input", str(bad)])
    assert rc == 2


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_non_finite_json_number_exits_two(number, tmp_path, capsys):
    bad = tmp_path / "inf.json"
    bad.write_text(
        '{"dim": 2, "halfspaces": [{"normal": [%s, 0], "offset": 0}]}' % number
    )
    rc = cli.main(["cones", "--input", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["abelian", "orbit"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_zeta_samples_below_one_exits_two(command, count, sphere_input, orbit_input):
    path = sphere_input if command == "abelian" else orbit_input
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--input", path, "--zeta-samples", count])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["abelian", "orbit", "verify"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
def test_seed_outside_64_bits_exits_two(command, seed, sphere_input, orbit_input, capsys):
    # the draws key a 64-bit generator: 2^64 used to end in a traceback,
    # -1 in a cast warning and a run
    inputs = {"abelian": sphere_input, "orbit": orbit_input}
    argv = [command, "--seed", seed]
    if command in inputs:
        argv += ["--input", inputs[command]]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "seed" in capsys.readouterr().err


def test_seeds_above_two_to_the_63_draw_distinct_zetas(sphere_input, capsys):
    first = []
    for seed in (2**63, 2**63 + 5):
        argv = ["abelian", "--input", sphere_input, "--seed", str(seed), "--zeta-samples", "1"]
        assert cli.main(argv) == 0
        first.append(json.loads(capsys.readouterr().out)["laplace_samples"][0]["zeta"])
    assert first[0] != first[1]


@pytest.mark.parametrize("command", ["abelian", "orbit"])
def test_largest_seed_runs_with_warnings_as_errors(command, sphere_input, orbit_input, capsys):
    path = sphere_input if command == "abelian" else orbit_input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--input", path, "--seed", str(2**64 - 1),
                       "--zeta-samples", "1"])
    assert rc == 0
    json.loads(capsys.readouterr().out)


def test_cones_takes_no_seed(cone_input, capsys):
    # cones draws nothing, so a seed is bad usage
    with pytest.raises(SystemExit) as exc:
        cli.main(["cones", "--input", cone_input, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command,chamber,dim", [("abelian", "1,1", 1), ("orbit", "1,1,1", 2)])
def test_chamber_of_the_wrong_length_exits_two(
    command, chamber, dim, sphere_input, orbit_input, capsys
):
    path = sphere_input if command == "abelian" else orbit_input
    # the k-check reads no chamber, but a wrong-length one is still bad input
    measures = [[]] if command == "abelian" else [["--measure", m] for m in ("t", "k", "both")]
    for measure in measures:
        assert cli.main([command, "--input", path, f"--chamber={chamber}", *measure]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"--chamber has {len(chamber.split(','))} coordinates" in err
        assert f"dimension {dim}" in err


@pytest.mark.parametrize(
    "payload,xi",
    [
        ({"dim": 0, "halfspaces": []}, "1"),
        ({"dim": 1, "halfspaces": []}, "1,1"),
        ({"dim": 2, "halfspaces": [{"normal": [1, 0], "offset": 1},
                                   {"normal": [-1, 0], "offset": 0}]}, "1"),
        ({"dim": 2, "halfspaces": [{"normal": [1, 0], "offset": 0}]}, "1"),
        ({"dim": 2, "halfspaces": [{"normal": [1, 0], "offset": 0}]}, "1,1,1"),
        ({"dim": 2, "generators": [[1, 0], [0, 1]]}, "1"),
    ],
)
def test_xi_of_the_wrong_length_exits_two(payload, xi, tmp_path, monkeypatch, capsys):
    from dhmeasure import lp

    calls = []
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: calls.append(a))
    path = write(tmp_path / "set.json", payload)
    assert cli.main(["cones", "--input", path, f"--xi={xi}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"--xi has {len(xi.split(','))} coordinates" in err
    assert f"dimension {payload['dim']}" in err
    assert calls == []


@pytest.mark.parametrize(
    "command,payload",
    [
        ("cones", {"dim": 2, "halfspaces": [{"normal": ["1/0", 0], "offset": 0}]}),
        ("abelian", {"dim": 1, "points": [{"image": ["2"], "weights": [["-1"]]},
                                          {"image": ["-2"], "weights": [["1/0"]]}]}),
        ("orbit", {"family": "AIII", "params": [2, 1], "lambda": ["3", "1/0", "-4"]}),
    ],
)
def test_zero_denominator_exits_two(command, payload, tmp_path, capsys):
    path = write(tmp_path / "zero.json", payload)
    rc = cli.main([command, "--input", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero denominator" in err
    assert len(err.strip().splitlines()) == 1


def test_orbit_run_builds_the_orbit_model_once(orbit_input, tmp_path, monkeypatch):
    built = []
    real = hermitian.orbit_model
    monkeypatch.setattr(hermitian, "orbit_model", lambda O: built.append(O) or real(O))
    rc = cli.main(["orbit", "--input", orbit_input, "--out", str(tmp_path / "o"),
                   "--measure", "both", "--grid=-6:6:3,-6:6:3"])
    assert rc == 0
    assert len(built) == 1


@pytest.mark.parametrize("command", ["abelian", "orbit"])
@pytest.mark.parametrize("grid", ["-inf:1:3", "0:inf:3", "0:1e400:2"])
def test_non_finite_grid_bound_exits_two(command, grid, sphere_input, orbit_input, tmp_path):
    path = sphere_input if command == "abelian" else orbit_input
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--input", path, "--out", str(out), f"--grid={grid}"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command,payload,reader",
    [
        ("abelian", {"dim": 2, "points": [{"image": "12", "weights": ["10", "01"]}]},
         localize.model_from_json),
        ("abelian", {"dim": 2, "points": [{"image": [1, 2], "weights": ["10", "01"]}]},
         localize.model_from_json),
        ("orbit", {"family": "CI", "params": [2], "lambda": "52"}, hermitian.orbit_from_json),
        ("cones", {"dim": 2, "generators": ["10", "01"]}, polycone.cone_from_json),
        ("cones", {"dim": 2, "halfspaces": [{"normal": "10", "offset": 0}]},
         polycone.polyhedron_from_json),
        (None, {"dim": 1, "terms": [{"sign": 1, "base": "0", "factors": [[1]]}]},
         conespline.spline_from_json),
    ],
)
def test_vector_given_as_a_string_is_refused(command, payload, reader, tmp_path, capsys):
    # its characters used to be read as coordinates, and the run exited 0
    with pytest.raises(ValueError, match="must be an array"):
        reader(payload)
    if command is not None:
        assert cli.main([command, "--input", write(tmp_path / "in.json", payload)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be an array" in err


@pytest.mark.parametrize(
    "command,payload,extra,value",
    [
        ("abelian", {"dim": 1, "points": [{"image": ["1e400"], "weights": [["-1"]]},
                                          {"image": ["-2"], "weights": [["1"]]}]},
         [], "1e+400"),
        ("abelian", {"dim": 1, "points": [{"image": ["2"], "weights": [["-1e400"]]},
                                          {"image": ["-2"], "weights": [["1"]]}]},
         [], "-1e+400"),
        ("abelian", {"dim": 1, "points": [{"image": ["2"], "weights": [["-1e-400"]]},
                                          {"image": ["-2"], "weights": [["1"]]}]},
         [], "-1e-400"),
        ("orbit", {"family": "CI", "params": [2], "lambda": ["5", "1e400"]},
         ["--measure", "k"], "1e+400"),
    ],
)
def test_coordinate_outside_the_float_range_exits_two(
    command, payload, extra, value, tmp_path, capsys
):
    # these ended in an OverflowError traceback (exit 1), or for 1e-400 in
    # a message about the tube direction
    rc = cli.main([command, "--input", write(tmp_path / "in.json", payload), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"coordinate {value} does not fit a float" in err


@pytest.mark.parametrize("name,chamber", [("bisphere_23", "1000,2"), ("plane_proj_5h", "-200,3")])
def test_tube_direction_stays_balanced_in_a_chamber_far_from_the_axes(
    name, chamber, tmp_path, capsys
):
    # the chamber point itself, taken as the tube direction, overflows Im
    # zeta here; the tube's interior point does not
    M = next(M for n, M, _ in verify.model_library() if n == name)
    path = write(tmp_path / "model.json", localize.model_to_json(M))
    assert cli.main(["abelian", "--input", path, f"--chamber={chamber}"]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["laplace_worst_rel"])


def test_reused_parser_keeps_no_xi_between_calls(cone_input, capsys):
    assert cli.main(["cones", "--input", cone_input, "--xi=1,1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["directions"]) == 1
    assert cli.main(["cones", "--input", cone_input]) == 0
    assert "directions" not in json.loads(capsys.readouterr().out)
    assert cli.build_parser() is cli.build_parser()


def test_wrong_schema_exits_two(tmp_path, capsys):
    bad = write(tmp_path / "weird.json", {"dim": 2, "halfspaces": [[1, 0]]})
    rc = cli.main(["cones", "--input", str(bad)])
    assert rc == 2


def test_verify_subcommand(capsys):
    rc = cli.main(["verify", "--suites", "circle", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "circle" in out
    assert "pass" in out


def _flip_first_term(S):
    """S with its first term's sign flipped: a planted defect."""
    first, *rest = S.terms
    flipped = conespline.spline_term(-first.sign, first.base, first.factors)
    return conespline.SignedConeSpline(S.dim, (flipped, *rest), S.poly)


def _failing(rates):
    return [r for r in rates if r > 1e-3]


def test_tolerance_failure_exit_code(sphere_input, tmp_path, monkeypatch):
    # a sign flipped in the synthesized spline must fail the transform check
    real = localize.dh_measure
    monkeypatch.setattr(localize, "dh_measure", lambda *a: _flip_first_term(real(*a)))
    out = tmp_path / "out"
    rc = cli.main(["abelian", "--input", sphere_input, "--out", str(out), "--zeta-samples", "2"])
    assert rc == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert _failing(s["rel_difference"] for s in rep["laplace_samples"])


def test_orbit_t_check_failure_exits_one(orbit_input, tmp_path, monkeypatch):
    real = hermitian.t_type_measure
    monkeypatch.setattr(hermitian, "t_type_measure", lambda *a: _flip_first_term(real(*a)))
    out = tmp_path / "out"
    rc = cli.main(["orbit", "--input", orbit_input, "--out", str(out), "--measure", "t",
                   "--zeta-samples", "2"])
    assert rc == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    t_rep = rep["t_measure"]
    assert _failing(s["rel_difference"] for s in t_rep["localization_samples"])
    assert t_rep["localization_worst_rel"] > rep["tol"]


def test_orbit_k_check_failure_exits_one(orbit_input, tmp_path, monkeypatch):
    real = hermitian.laplace_nu_symbolic
    monkeypatch.setattr(hermitian, "laplace_nu_symbolic", lambda *a: 1.01 * real(*a))
    out = tmp_path / "out"
    rc = cli.main(["orbit", "--input", orbit_input, "--out", str(out), "--measure", "k",
                   "--zeta-samples", "2"])
    assert rc == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    samples = rep["k_measure"]["symbolic_vs_numeric"]
    assert len(_failing(s["rel_difference"] for s in samples)) == 2


def test_orbit_k_check_honours_a_tolerance_below_1e_3(orbit_input, tmp_path, monkeypatch):
    # a 5e-4 relative defect in the symbolic transform, under --tol 1e-9
    real = hermitian.laplace_nu_symbolic
    monkeypatch.setattr(hermitian, "laplace_nu_symbolic", lambda *a: 1.0005 * real(*a))
    out = tmp_path / "out"
    rc = cli.main(["orbit", "--input", orbit_input, "--out", str(out), "--measure", "k",
                   "--zeta-samples", "2", "--tol", "1e-9"])
    assert rc == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    samples = rep["k_measure"]["symbolic_vs_numeric"]
    assert all(s["rel_difference"] > rep["tol"] for s in samples)
    assert len(samples) == 2


@pytest.mark.parametrize(
    "weights,message",
    [([["0"]], "zero weight"), ([["1", "2"]], "wrong dimension")],
)
def test_invalid_model_exits_two(weights, message, tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"dim": 1, "points": [
        {"image": ["2"], "weights": [["-1"]]},
        {"image": ["-2"], "weights": weights},
    ]})
    rc = cli.main(["abelian", "--input", bad])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


def test_verify_suite_failure_exits_one(tmp_path, monkeypatch, capsys):
    def planted():
        return verify._report("circle", 0, 1, [{"case": "planted"}], time.time())

    monkeypatch.setitem(verify.SUITES, "circle", planted)
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--suites", "circle", "--out", str(out)])
    assert rc == 1
    assert "circle       FAIL" in capsys.readouterr().out
    result = json.loads(out.read_text())
    assert result["passed"] is False
    assert result["suites"][0]["failures"] == [{"case": "planted"}]


def test_grid_points_are_exact(sphere_input, tmp_path, monkeypatch):
    seen = []
    real = conespline.spline_density
    monkeypatch.setattr(conespline, "spline_density",
                        lambda S, mu: seen.append(tuple(mu)) or real(S, mu))
    out = tmp_path / "out"
    assert cli.main(["abelian", "--input", sphere_input, "--out", str(out), "--grid=0:1:4"]) == 0
    assert seen == [(0,), (rat(1, 3),), (rat(2, 3),), (1,)]
    rows = (out / "density.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [repr(x) for x in (0.0, 1 / 3, 2 / 3, 1.0)]


import argparse


def test_parse_grid_and_vector():
    axes = cli.parse_grid("-1:1:5,0:2:3")
    assert axes == ((-1.0, 1.0, 5), (0.0, 2.0, 3))
    assert cli.parse_grid("0.1:1/3:2") == ((rat(1, 10), rat(1, 3), 2),)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_grid("-1:1")
    assert cli.parse_vector("3/2,-1") == (rat(3, 2), -1)


@pytest.mark.parametrize("command", ["abelian", "orbit"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0", "-inf"])
def test_tolerance_that_is_not_positive_and_finite_exits_two(
    command, tol, sphere_input, orbit_input, capsys
):
    # inf would pass every check vacuously, nan and -1 fail every one
    path = sphere_input if command == "abelian" else orbit_input
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--input", path, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "positive finite tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family,params",
    [
        ("AIII", [1.7, 1]),
        ("AIII", [True, 1]),
        ("AIII", [2, 0.5]),
        ("AIII", ["2", 1]),
        ("AIII", [3, 3]),
        ("CI", [4]),
        ("CI", [1, 1]),
        ("EVII", [3]),
    ],
)
def test_orbit_unsupported_params_exit_two(family, params, tmp_path, capsys):
    # AIII [1.7, 1] used to run as AIII(1, 1) and exit 0
    path = write(
        tmp_path / "params.json", {"family": family, "params": params, "lambda": ["2", "-1"]}
    )
    assert cli.main(["orbit", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
