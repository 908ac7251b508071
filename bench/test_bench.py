"""The benchmark's own tests: tracer coverage, negative controls, contract.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

Each negative control corrupts one result of a kind the benchmark checks
and asserts that the check reports a failure, so no check passes vacuously.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as w  # noqa: E402
from dhmeasure import cli, hermitian, rational, verify  # noqa: E402


def _run_case(runner_name, case, tmp_path):
    """Run one case untraced and return (result, case directory)."""
    d = tmp_path / "case"
    d.mkdir()
    if runner_name != "oracles":
        (d / "input.json").write_text(json.dumps(case["input"]))
    if runner_name == "cones":
        return [cli.main(w.run_cones(case, str(d)))], d
    if runner_name == "models":
        return [cli.main(argv) for argv in w.run_models(case, str(d))], d
    if runner_name == "orbits":
        return [cli.main(w.run_orbits(case, str(d)))], d
    return w.run_oracle(case), d


def _failures(checks):
    return dict(checks.failed)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_wraps_every_binding_and_restores_it():
    original = rational.rank
    with tracing.Tracer() as t:
        assert verify.exact_rank is not original
        assert rational.rank is verify.exact_rank
        t.open_case("c")
        verify.exact_rank([[1, 2], [2, 4]])
        t.close_case()
    assert rational.rank is original and verify.exact_rank is original
    names = [s[0] for s in t.spans]
    # rank calls rref: the nested call is recorded with rank as its parent
    assert names == ["rational.rank", "rational.rref"]
    assert t.spans[1][3] == 0


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, "c", None], ["b", 1.0, 4.0, 0, "c", None],
             ["b", 5.0, 6.0, 0, "c", None]]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]


def _small_round(workload):
    rng = w.round_rng(workload, 5, 0)
    if workload == "cones":
        return w.generate_cones(rng)
    if workload == "models":
        return w.generate_models(rng)[:4]
    if workload == "orbits":
        return [c for c in w.generate_orbits(rng) if c["kind"] in ("AIII(2,1)", "CI(2,)")][:2]
    return w.generate_oracles(rng)


def test_every_wrapped_function_records_a_span_on_its_workload(tmp_path):
    hit = {}
    for workload in w.WORKLOADS:
        runner = run.Runner(workload, w, cli, tmp_path / workload)
        with tracing.Tracer() as t:
            runner.run_batch(_small_round(workload), t, "r0")
        assert runner.checks.n_failed == 0, runner.checks.examples
        hit[workload] = {s[0] for s in t.spans}
    missing = [name for name, wl in tracing.EXPECTED_HITS.items() if name not in hit[wl]]
    assert not missing
    # cones is the workload the density, transform and oracle layers skip
    assert not any(n.startswith(("conespline.", "hermitian.", "oracle."))
                   for n in hit["cones"])


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer, _ = tracing.layer_metrics([], 1)
    emitted = set(layer) | set(run.TRACE_EXTRAS)
    assert emitted == {m["name"] for m in spec["per_layer"]}
    assert set(run.E2E_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert {m["name"] for m in spec["workloads"]} == set(w.WORKLOADS)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 41))
    value, pct, n = run.tail(values)
    assert (value, pct, n) == (30, 75.0, 40)
    assert sum(v > value for v in values) == 10
    assert run.tail(list(range(10)))[0] is None


def test_speed_scale_is_a_median_near_the_case():
    sampler = run.SpeedSampler()
    sampler.samples = [(0.0, 0.002), (1.0, 0.003), (2.0, 0.012), (3.0, 0.004)]
    # all samples: median (0.003 + 0.004) / 2; the 0.012 outlier has no weight
    assert abs(sampler.scale() - run.REF_NOMINAL_S / 0.0035) < 1e-12
    # a case from 2.8 to 3.1 s sees only the sample at 3.0 s
    assert abs(sampler.scale(2.8, 3.1) - run.REF_NOMINAL_S / 0.004) < 1e-12
    # a case that no sample is near falls back to all of them
    assert abs(sampler.scale(10.0, 11.0) - run.REF_NOMINAL_S / 0.0035) < 1e-12


def test_orbit_images_match_the_library():
    for family, params, lam in (("AIII", (3, 2), (7, 5, 1, 0, -1)), ("CI", (3,), (8, 7, 2)),
                                ("AIII", (2, 1), (6, 5, -4))):
        O = hermitian.orbit_spec(hermitian.build_pair(family, params), lam)
        lib = sorted(tuple(p.image) for p in hermitian.orbit_model(O).model.points)
        ours = sorted(tuple(x) for x in w.orbit_images(family, params, lam))
        assert lib == ours


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for workload in w.WORKLOADS:
        a = w.round_cases(workload, 3, 0)
        assert a == w.round_cases(workload, 3, 0)
        assert a != w.round_cases(workload, 4, 0)
        assert sorted(map(repr, a)) == sorted(map(repr, getattr(w, f"generate_{workload}")(
            w.round_rng(workload, 3, 0))))


# ---------------------------------------------------------------------------
# negative controls: corrupt one result per kind of check


def _box_case():
    return {"kind": "box", "xi": [[1, 0], [0, -1]],
            "input": {"dim": 2, "halfspaces": [
                {"normal": ["1", "0"], "offset": "0"}, {"normal": ["-1", "0"], "offset": "-2"},
                {"normal": ["0", "1"], "offset": "0"}, {"normal": ["0", "-1"], "offset": "-3"}]}}


def test_cones_negated_predicate_fails(tmp_path):
    case = _box_case()
    rcs, d = _run_case("cones", case, tmp_path)
    report = json.loads((d / "report.json").read_text())
    good = w.Checks()
    w.check_cones(case, rcs[0], report, good)
    assert good.n_failed == 0 and good.attempted >= 8
    for key in ("compact", "feasible", "proper"):
        bad = w.Checks()
        w.check_cones(case, rcs[0], {**report, key: not report[key]}, bad)
        assert bad.n_failed >= 1, key
    bad = w.Checks()
    dirs = [dict(report["directions"][0], bounded_below=False)] + report["directions"][1:]
    w.check_cones(case, rcs[0], {**report, "directions": dirs}, bad)
    assert "bounded_below" in _failures(bad)
    bad = w.Checks()
    w.check_cones(case, rcs[0], {**report, "feasible_point": ["5", "5"]}, bad)
    assert "witness" in _failures(bad)


def _sphere_case():
    return {
        "kind": "sphere2",
        "input": {"dim": 2, "points": [
            {"image": ["2", "3"], "weights": [["-1", "0"], ["0", "-1"]]},
            {"image": ["2", "-3"], "weights": [["-1", "0"], ["0", "1"]]},
            {"image": ["-2", "3"], "weights": [["1", "0"], ["0", "-1"]]},
            {"image": ["-2", "-3"], "weights": [["1", "0"], ["0", "1"]]}]},
        "grid": [(-3.3, 4.7, 5), (-4.1, 6.1, 5)],
        "chamber": [-1, 2],
    }


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_models_corruptions_fail(tmp_path):
    case = _sphere_case()
    rcs, d = _run_case("models", case, tmp_path)
    good = w.Checks()
    w.check_models(case, rcs, str(d), good)
    assert good.n_failed == 0 and good.attempted > 25

    def fresh(name):
        target = tmp_path / name
        shutil.copytree(d, target)
        return target

    # perturb a density value at a generic point: chamber independence fails
    bad_dir = fresh("density")
    _rewrite_csv(bad_dir / "b" / "density.csv",
                 lambda rows: rows[13].__setitem__(2, repr(float(rows[13][2]) + 0.5)))
    bad = w.Checks()
    w.check_models(case, rcs, str(bad_dir), bad)
    assert "chamber" in _failures(bad)

    # flip the sign of every term the quadrature points see: quadrature fails
    bad_dir = fresh("sign")
    spline = json.loads((bad_dir / "a" / "spline.json").read_text())
    for term in spline["terms"]:
        term["sign"] = -term["sign"]
    (bad_dir / "a" / "spline.json").write_text(json.dumps(spline))
    bad = w.Checks()
    w.check_models(case, rcs, str(bad_dir), bad)
    assert "quadrature" in _failures(bad)

    # drop a zeta from one report: the zeta count check fails
    bad_dir = fresh("zeta")
    report = json.loads((bad_dir / "a" / "report.json").read_text())
    report["laplace_samples"] = report["laplace_samples"][1:]
    (bad_dir / "a" / "report.json").write_text(json.dumps(report))
    bad = w.Checks()
    w.check_models(case, rcs, str(bad_dir), bad)
    assert "zeta_count" in _failures(bad)

    # an empty grid checks nothing, which is a failure, not a pass
    bad_dir = fresh("empty")
    for sub in ("a", "b"):
        _rewrite_csv(bad_dir / sub / "density.csv", lambda rows: rows.__delitem__(slice(1, None)))
    bad = w.Checks()
    w.check_models(case, rcs, str(bad_dir), bad)
    assert {"grid_size", "quadrature_points"} <= set(_failures(bad))


def test_wall_points_are_reported_as_known_defect(tmp_path):
    case = _sphere_case()
    case["grid"] = [(-2.0, 2.0, 3), (-3.0, 3.0, 3)]  # every point on a wall
    rcs, d = _run_case("models", case, tmp_path)
    checks = w.Checks()
    w.check_models(case, rcs, str(d), checks)
    assert checks.known.get("wall_mismatch", 0) >= 1


def test_orbits_corruptions_fail(tmp_path):
    rng = w.round_rng("orbits", 9, 0)
    case = next(c for c in w.generate_orbits(rng) if c["kind"] == "AIII(2,1)")
    rcs, d = _run_case("orbits", case, tmp_path)
    good = w.Checks()
    w.check_orbits(case, rcs[0], str(d), good)
    assert good.n_failed == 0 and good.failed == {}
    assert good.known.get("weyl_sign_mismatch") == 1

    def fresh(name):
        target = tmp_path / name
        shutil.copytree(d, target)
        return target

    bad_dir = fresh("t")
    _rewrite_csv(bad_dir / "out" / "t_density.csv",
                 lambda rows: rows[5].__setitem__(2, "-0.25"))
    bad = w.Checks()
    w.check_orbits(case, rcs[0], str(bad_dir), bad)
    assert "t_nonnegative" in _failures(bad)

    bad_dir = fresh("k")
    _rewrite_csv(bad_dir / "out" / "k_density.csv",
                 lambda rows: [row.__setitem__(2, repr(float(row[2]) + 0.125))
                               for row in rows[1:]])
    bad = w.Checks()
    w.check_orbits(case, rcs[0], str(bad_dir), bad)
    assert "weyl_invariance" in _failures(bad)

    bad_dir = fresh("zeta")
    report = json.loads((bad_dir / "out" / "report.json").read_text())
    report["k_measure"]["symbolic_vs_numeric"].pop()
    (bad_dir / "out" / "report.json").write_text(json.dumps(report))
    bad = w.Checks()
    w.check_orbits(case, rcs[0], str(bad_dir), bad)
    assert "zeta_count" in _failures(bad)


def _corrupt_oracle(kind, result):
    r = dict(result)
    if kind == "quadrature":
        r["engine"] = r["engine"] + 0.5
    elif kind == "lattice":
        r["counts"] = [r["counts"][0] * 2] + r["counts"][1:]
    elif kind in ("laplace_box", "laplace_mapped"):
        r["engine"] = r["engine"] * 1.01
    elif kind == "montecarlo":
        engine = list(r["engine"])
        i = max(range(len(engine)), key=lambda j: engine[j])
        engine[i] *= 1.5
        r["engine"] = engine
    elif kind == "circle":
        rep = copy.deepcopy(r["report"])
        rep["candidates"]["sign=+1,coeff=1/alpha"]["abs_diff"] = 1e-3
        r["report"] = rep
    return r


@pytest.mark.parametrize("kind", ["quadrature", "lattice", "laplace_box", "laplace_mapped",
                                  "montecarlo", "circle"])
def test_oracle_corruptions_fail(kind, tmp_path):
    cases = [c for c in w.generate_oracles(w.round_rng("oracles", 2, 0)) if c["kind"] == kind]
    case = cases[0]
    result, _ = _run_case("oracles", case, tmp_path)
    good = w.Checks()
    w.check_oracle(case, result, good)
    assert good.attempted == 1 and good.n_failed == 0
    bad = w.Checks()
    w.check_oracle(case, _corrupt_oracle(kind, result), bad)
    assert bad.n_failed == 1


def test_wall_geometry():
    spline = {"dim": 2, "terms": [{"sign": 1, "base": ["1", "0"],
                                   "factors": [["1", "0"], ["1", "1"]]}]}
    wl = w.walls(spline)
    assert w.on_wall(wl, [3.0, 2.0]) and w.on_wall(wl, [-4.0, 0.0])
    assert not w.on_wall(wl, [3.0, 1.0])
    assert abs(w.wall_distance(wl, [3.0, 1.0]) - 2 ** -0.5) < 1e-12
    assert Fraction(0.1) != Fraction(1, 10)  # grid floats are checked exactly


# ---------------------------------------------------------------------------
# the command contract


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cones", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_short_run_prints_the_contract_line():
    env = dict(os.environ)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cones", "--seed", "4",
                           "--seconds", "1", "--trace", "0"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0
    assert set(line["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in line["metrics"].values())
