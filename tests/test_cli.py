import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

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


# (generators, normals, {xi: (bounded_below, proper_projection)}), by hand
_HAND_CONES = [
    # the quadrant: <xi, .> is proper on it iff xi is strictly + or - on both axes
    ([[1, 0], [0, 1]], [[1, 0], [0, 1]],
     {"1,1": (True, True), "1,-1": (False, False), "1,0": (True, False),
      "-1,-2": (False, True)}),
    # the line through (1, 1): never bounded below unless xi vanishes on it
    ([[1, 1], [-1, -1]], [[1, -1], [-1, 1]],
     {"1,0": (False, True), "1,-1": (True, False)}),
    # the upper half-plane: its boundary line lies in every kernel it meets
    ([[1, 0], [-1, 0], [0, 1]], [[0, 1]],
     {"0,1": (True, False), "1,1": (False, False), "0,-1": (False, False)}),
]


@pytest.mark.parametrize("generators,normals,want", _HAND_CONES)
@pytest.mark.parametrize("form", ["generators", "both"])
def test_cones_reports_directions_for_cones(generators, normals, want, form, tmp_path, capsys):
    payload = {"dim": 2, "generators": generators}
    if form == "both":
        payload["halfspaces"] = [{"normal": n, "offset": 0} for n in normals]
    path = write(tmp_path / "cone.json", payload)
    assert cli.main(["cones", "--input", path, *(f"--xi={xi}" for xi in want)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "cone" and rep.get("representations_consistent", True)
    got = {",".join(d["xi"]): (d["bounded_below"], d["proper_projection"])
           for d in rep["directions"]}
    assert got == want


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


# the transform checks compare nothing when the reference value left the
# float range: e^{i<image, zeta>} overflows at images near 1e308 (the check
# used to exit 1 with NaN in its report and numpy RuntimeWarnings), and the
# orbit's transforms underflow to 0 at lambda of size 1e3 (both sides read
# [0.0, 0.0], and the check used to pass with rel_difference 0.0)
_HUGE_IMAGES = {"dim": 1, "points": [{"image": ["1e308"], "weights": [["-1"]]},
                                    {"image": ["-1e308"], "weights": [["1"]]}]}
_LARGE_LAMBDA = {"family": "AIII", "params": [2, 1], "lambda": [3000, 1000, -4000]}


@pytest.mark.parametrize(
    "payload,argv",
    [
        (_HUGE_IMAGES, ["abelian", "--grid=-1:1:3"]),
        (_LARGE_LAMBDA, ["orbit", "--grid=-1:1:3,-1:1:3", "--measure", "t"]),
        (_LARGE_LAMBDA, ["orbit", "--grid=-1:1:3,-1:1:3", "--measure", "k"]),
    ],
)
def test_a_zeta_check_with_no_finite_reference_exits_two(payload, argv, tmp_path, capsys):
    path = write(tmp_path / "input.json", payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main([*argv, "--input", path, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "compare nothing" in captured.err
    assert len([line for line in captured.err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


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


@pytest.mark.parametrize("number", ["1e-400", "-2.5E-330"])
def test_json_number_that_underflows_to_zero_exits_two(number, tmp_path, capsys):
    # read as the float 0.0, the image 1e-400 used to run and exit 0
    path = tmp_path / "tiny.json"
    path.write_text('{"dim": 1, "points": [{"image": [%s], "weights": [[-1]]},'
                    ' {"image": [-2], "weights": [[1]]}]}' % number)
    rc = cli.main(["abelian", "--input", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"number {number} in input JSON underflows" in err


def test_json_zero_literals_still_read(tmp_path, capsys):
    path = tmp_path / "zeros.json"
    path.write_text('{"dim": 2, "halfspaces": [{"normal": [1, 0.0], "offset": -0e-400},'
                    ' {"normal": [0, 1], "offset": 0.0E5}]}')
    assert cli.main(["cones", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"]


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
    "command,grid,dim", [("abelian", "0:1:3,0:1:3", 1), ("orbit", "0:1:3", 2)]
)
def test_grid_of_the_wrong_length_exits_two_before_any_work(
    command, grid, dim, sphere_input, orbit_input, tmp_path, monkeypatch, capsys
):
    # it used to fail only at the density grid, after the transform checks,
    # with "point/factor dimension mismatch" and the splines already written
    path = sphere_input if command == "abelian" else orbit_input
    calls = []
    monkeypatch.setattr(localize, "dh_measure", lambda *a: calls.append(a))
    monkeypatch.setattr(hermitian, "orbit_model", lambda *a: calls.append(a))
    out = tmp_path / "out"
    assert cli.main([command, "--input", path, "--out", str(out), f"--grid={grid}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"--grid has {len(grid.split(','))} axes" in err and f"dimension {dim}" in err
    assert calls == [] and not out.exists()


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


_SPHERE_POINTS = [{"image": ["2"], "weights": [["-1"]]}, {"image": ["-2"], "weights": [["1"]]}]


@pytest.mark.parametrize(
    "command,payload,reader",
    [
        ("cones", {"dim": -1, "halfspaces": []}, polycone.polyhedron_from_json),
        ("cones", {"dim": -2, "generators": []}, polycone.cone_from_json),
        ("cones", {"dim": 2.5, "halfspaces": [{"normal": [1, 0], "offset": 0}]},
         polycone.polyhedron_from_json),
        ("abelian", {"dim": 1.9, "points": _SPHERE_POINTS}, localize.model_from_json),
        ("abelian", {"dim": True, "points": _SPHERE_POINTS}, localize.model_from_json),
        ("abelian", {"dim": 1, "halfdim": 1.5, "points": _SPHERE_POINTS},
         localize.model_from_json),
        (None, {"dim": 1.5, "terms": [{"sign": 1, "base": [0], "factors": [[1]]}]},
         conespline.spline_from_json),
    ],
)
def test_dimension_that_is_not_a_count_exits_two(command, payload, reader, tmp_path, capsys):
    # int() used to truncate these, and the runs exited 0
    with pytest.raises(ValueError, match="is not a dimension"):
        reader(payload)
    if command is not None:
        assert cli.main([command, "--input", write(tmp_path / "in.json", payload)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not a dimension" in err


@pytest.mark.parametrize(
    "command,payload",
    [
        ("abelian", {"dim": 1, "points": [{"image": [True], "weights": [[-1]]},
                                          {"image": [-1], "weights": [[True]]}]}),
        ("cones", {"dim": 2, "halfspaces": [{"normal": [True, False], "offset": 0}]}),
        ("orbit", {"family": "AIII", "params": [1, 1], "lambda": [True, -1]}),
    ],
)
def test_boolean_coordinate_exits_two(command, payload, tmp_path, capsys):
    # JSON true read as 1 and false as 0, and the runs exited 0
    assert cli.main([command, "--input", write(tmp_path / "in.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "is a boolean, not a number" in err


def test_integral_float_dimension_reads_as_an_integer():
    assert polycone.cone_from_json({"dim": 2.0, "generators": [[1, 0]]}).dim == 2
    assert localize.model_from_json({"dim": 1.0, "halfdim": 1.0, "points": _SPHERE_POINTS}).dim == 1


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


@pytest.mark.parametrize(
    "command,payload,with_out,message",
    [
        # the default grid reaches about 2.5e308
        ("abelian", {"dim": 1, "points": [{"image": ["1e308"], "weights": [["-1"]]},
                                          {"image": ["-1e308"], "weights": [["1"]]}]},
         True, "default grid axis 1 leaves the float range"),
        # a density beyond the double range (the t-measure's, computed first)
        ("orbit", {"family": "CI", "params": [2], "lambda": ["1e308", "5e307"]},
         True, "density 1.08507e+612 does not fit a float"),
        # lambda fits, but the measured images B * lambda are +-2e308
        ("orbit", {"family": "AIII", "params": [1, 1], "lambda": ["1e308", "-1e308"]},
         False, "fixed-point image coordinate 2e+308 does not fit a float"),
    ],
    ids=["abelian-default-grid", "orbit-density", "orbit-images"],
)
def test_values_beyond_the_double_range_exit_two_and_write_nothing(
    command, payload, with_out, message, tmp_path, capsys
):
    # each ended in an OverflowError traceback (exit 1)
    out = tmp_path / "out"
    argv = [command, "--input", write(tmp_path / "in.json", payload)]
    assert cli.main(argv + ([f"--out={out}"] if with_out else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


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


def test_bad_input_error_reaches_stderr_once_from_a_process(tmp_path):
    # in a fresh process logging is configured by main itself, so a logged
    # copy of the error would reach stderr too
    bad = write(tmp_path / "plane2bad.json", {"dim": 2, "xi0": [1, 1], "points": [
        {"image": [0, 0], "weights": [[1, 0], [0, 1]]},
        {"image": [2, 0], "weights": [[-1, 0], [-1, 1]]},
        {"image": [0, 2], "weights": [[0, -1], [1, -1]]},
    ]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("DHK_LOG", None)
    proc = subprocess.run(
        [sys.executable, "-m", "dhmeasure", "abelian", "--input", bad, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: energy direction pairs to zero with some weight"
    ]
    assert not (tmp_path / "out").exists()


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
                        lambda S, mu: seen.append(mu) or real(S, mu))
    out = tmp_path / "out"
    assert cli.main(["abelian", "--input", sphere_input, "--out", str(out), "--grid=0:1:4"]) == 0
    # one call for the whole grid, on a lattice of Python ints at exact points
    [lattice] = seen
    assert isinstance(lattice, conespline.Lattice) and lattice.denominator == 3
    assert {type(x) for column in lattice.columns for x in column} == {int}
    points = [tuple(rat(x, lattice.denominator) for x in p) for p in zip(*lattice.columns)]
    assert points == [(0,), (rat(1, 3),), (rat(2, 3),), (1,)]
    rows = (out / "density.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [repr(x) for x in (0.0, 1 / 3, 2 / 3, 1.0)]


def test_csv_error_bound_bounds_the_written_density(tmp_path):
    # CP^2 on a line: the density takes the values 1/6, 1/4, 1/3, ...
    path = write(tmp_path / "cp2.json", {"dim": 1, "points": [
        {"image": ["0"], "weights": [["1"], ["3"]]},
        {"image": ["1"], "weights": [["-1"], ["2"]]},
        {"image": ["3"], "weights": [["-3"], ["-2"]]},
    ]})
    out = tmp_path / "out"
    assert cli.main(["abelian", "--input", path, "--out", str(out), "--grid=-1:4:11"]) == 0
    S = conespline.spline_from_json((out / "spline.json").read_text())
    # the grid -1:4:11, exact: -1, -1/2, ..., 4
    exact = [conespline.spline_density(S, (rat(k - 2, 2),)).value for k in range(11)]
    rows = [r.split(",") for r in (out / "density.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(exact) == 11
    dyadic = 0
    for (_mu, value, bound), want in zip(rows, exact):
        assert abs(Fraction(float(value)) - want) <= Fraction(float(bound))
        if Fraction(float(want)) == want:
            dyadic += 1
            assert float(bound) == 0.0
        else:
            assert float(bound) == math.ulp(float(value)) / 2 > 0
    assert 0 < dyadic < len(rows) and rat(1, 4) in exact


def test_rounding_bound_is_zero_only_for_a_double():
    # a power-of-two denominator is not enough: 2^53 + 1 needs 54 bits
    for value, want in ((rat(3, 4), (0.75, 0.0)), (rat(-5), (-5.0, 0.0)), (rat(0), (0.0, 0.0)),
                        (rat(1, 3), (1 / 3, math.ulp(1 / 3) / 2)),
                        (rat(2**53 + 1, 2**10), (2.0**43, math.ulp(2.0**43) / 2))):
        num, den = int(value.numerator), int(value.denominator)
        assert cli._rounded(num, den) == want
        # the same value over a denominator that is not in lowest terms
        for scale in (3, 2**60, 6 * 5**30):
            assert cli._rounded(num * scale, den * scale) == want


def test_default_grid_stays_within_its_point_budget():
    # rank 4 (AIII with p + q = 5) took 25 points per axis, 25^4 in all
    images = [(0, 0, 0, 0), (1, 2, 3, 4)]
    for dim, per_axis in ((1, 25), (2, 25), (3, 25), (4, 11)):
        axes = cli.default_grid([im[:dim] for im in images], dim)
        assert [count for _lo, _hi, count in axes] == [per_axis] * dim
        assert per_axis**dim <= cli.DEFAULT_GRID_POINTS == 25**3
    assert axes[0][:2] == (rat(-1, 4), rat(7, 4)) and axes[3][:2] == (-1, 7)


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
