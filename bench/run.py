"""dhmeasure benchmark: one workload per run, measured end to end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload cones --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads are `cones`, `models`, `orbits` and `oracles`; bench/workloads.py
says what each exercises and why. A run generates its inputs from --seed and
runs rounds of cases as a closed loop: one caller, and the next case starts
only when the previous case and its checks are done. The number of rounds
is --seconds over a fixed nominal round time (at least two), so the work
done depends on --seconds alone, never on the machine's speed. Every output
is checked outside the timed spans. The run prints its metrics one per line
with units, then a JSON summary as the last line of stdout.

Times are reported in reference seconds. Between cases (at most every
REF_BETWEEN_S), at the end of each batch, and inside long cases (at most
every REF_EVERY_S, between the library calls whose latency is reported),
the benchmark times a fixed exact elimination in stdlib Fractions (no
dhmeasure code). A case's wall time, less those samples, is scaled by
REF_NOMINAL_S over the median sample time within REF_WINDOW_S of the case:
the result is the case's time on a machine where the sample takes
REF_NOMINAL_S. On a shared virtual machine, where the speed of the same
code moves by a third from one minute to the next and by a tenth from one
second to the next, this cancels much of the machine's drift and keeps any
change in the program's own speed. Raw wall times and the speed factor are
kept in the result file.

--trace 0 reports the end-to-end metrics. --trace 1 runs the first round
twice, traced and then untraced, and reports per-layer counts and self
times from the traced pass plus the tracing overhead. Spans and a full
result file are written to bench/out/. BLAS and OpenMP threads are capped
at the number of usable cores before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
# about the reference sample's time on a 2-core x86 virtual machine, in seconds
REF_NOMINAL_S = 0.002
REF_EVERY_S = 0.5
REF_BETWEEN_S = 0.15  # between cases, sample at most this often
REF_WINDOW_S = 0.5  # a case is scaled by the samples this close to it

# End-to-end metrics. BENCHMARK.json gates E2E_UNITS only: a gated metric
# must exist on every workload and never be zero, and density and transform
# calls exist only on models and orbits while fail_ratio is zero on a
# healthy run. The others are printed and kept in the result file.
E2E_UNITS = {"setup_s": "s", "run_s": "s", "case_p50_ms": "ms",
             "case_tail_ms": "ms", "peak_rss_mb": "MB"}
# failures the benchmark reports by name instead of failing the run on them:
# check kind -> (per-layer count metric, what fails)
KNOWN_DEFECTS = {
    "wall_mismatch": ("models.wall_mismatches",
                      "grid points on a wall where the density depends on the chamber"),
    "weyl_sign_mismatch": ("orbits.weyl_sign_mismatches",
                           "lambda with two compact entries swapped, which"
                           " t_type_measure rejects although it is the same orbit"),
    "hull_volume": ("oracles.hull_volume_errors",
                    "heaviside_density off by up to 1e-3 relative on fibers of"
                    " dimension >= 2, where it measures a float convex hull"),
    "float_lp_false_infeasible": ("cones.float_lp_false_infeasible",
                                  "dhmeasure.verify float HiGHS re-derivations that"
                                  " call a set empty although the exact witness lies in it"),
}
# per-layer metrics that do not come from spans, with their units
TRACE_EXTRAS = {"fail_ratio": "ratio", "trace.overhead_ratio": "ratio",
                **{metric: "count" for metric, _ in KNOWN_DEFECTS.values()}}
# the calls whose latency a timed run reports, as `dhk` makes them
PROBED = {
    "conespline": ("spline_density", "spline_laplace"),
    "localize": ("localization_sum",),
    "hermitian": ("laplace_nu_symbolic",),
    "oracle": ("numeric_laplace_spline",),
}
# a zeta check is a closed or symbolic transform followed by its reference
TRANSFORM_PAIRS = {"conespline.spline_laplace": "localize.localization_sum",
                   "hermitian.laplace_nu_symbolic": "oracle.numeric_laplace_spline"}


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads():
    cores = usable_cores()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(cap)
    return int(os.environ[THREAD_VARS[0]])


def import_library():
    """Import dhmeasure from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dhmeasure" / "__init__.py").is_file():
        raise SystemExit(f"error: no dhmeasure sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import dhmeasure

    if Path(dhmeasure.__file__).resolve().parent != src / "dhmeasure":
        raise SystemExit(f"error: imported dhmeasure from {dhmeasure.__file__}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="cones, models, orbits, oracles or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(blas_cap):
    import numpy
    import scipy
    from dhmeasure import rational

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": "gmpy2" if rational._MPQ is not None else "fraction",
        "nproc": usable_cores(),
        "blas_threads": blas_cap,
        "machine": platform.machine(),
    }


def reference_seconds():
    """Time a fixed exact Gauss-Jordan elimination in stdlib Fractions (no
    dhmeasure code): work of the same kind as the library's exact LP and
    linear algebra, so that a slow spell of the machine slows both alike."""
    t0 = time.perf_counter()
    n = 7
    m = [[Fraction((7 * i + 13 * j) % 11 - 5, (i + j) % 5 + 1) + 3 * (i == j)
          for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - t0


class SpeedSampler:
    """Reference-loop samples taken between and inside cases, and the time
    the samples taken inside cases used."""

    def __init__(self):
        self.samples = []
        self.excluded = 0.0

    def sample(self):
        t0 = time.perf_counter()
        ref = reference_seconds()
        self.samples.append((t0, ref))
        return ref

    def due(self, every):
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= every

    def maybe_sample(self):
        """Sample from inside a case, at most every REF_EVERY_S."""
        if self.due(REF_EVERY_S):
            self.excluded += self.sample()

    def scale(self, start=None, end=None):
        """REF_NOMINAL_S over the median reference time of the samples taken
        from REF_WINDOW_S before `start` to REF_WINDOW_S after `end` (of all
        samples if no span is given, or if none falls in it). The machine's
        speed moves within a second, so the samples next to a case say
        more about its speed than those of the whole run; the median, since
        a preempted time slice can make one sample several times slower."""
        refs = [r for t, r in self.samples
                if start is None or start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        return REF_NOMINAL_S / statistics.median(refs or [r for _, r in self.samples])


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); value None below eleven samples."""
    n = len(values)
    if n < 11:
        return None, None, n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def latency_metrics(prefix, seconds, what):
    """{prefix_p50_ms, prefix_tail_ms} as (value, unit, note) entries."""
    if not seconds:
        note = f"n/a: no {what} on this workload"
        return {f"{prefix}_p50_ms": (None, "ms", note), f"{prefix}_tail_ms": (None, "ms", note)}
    value, pct, n = tail(seconds)
    tail_note = f"p{pct:.1f} of {n} samples" if value is not None else f"n/a: {n} samples"
    return {f"{prefix}_p50_ms": (1000 * statistics.median(seconds), "ms", f"{n} samples"),
            f"{prefix}_tail_ms": (None if value is None else 1000 * value, "ms", tail_note)}


class Runner:
    """Runs the cases of one workload, keeping their latencies and checks."""

    def __init__(self, name, workloads, cli, workdir):
        self.name = name
        self.w = workloads
        self.cli = cli
        self.workdir = workdir
        self.checks = workloads.Checks()
        self.latencies = []  # wall seconds per case
        self.scale = {}  # case id -> REF_NOMINAL_S / reference time near the case
        self.kinds = []
        self.sampler = SpeedSampler()

    def sample_speed(self):
        """Tracer hook: sample the machine's speed inside a long case."""
        self.sampler.maybe_sample()

    def run_batch(self, cases, tracer, tag):
        """Run cases in order; returns the batch's time in reference seconds."""
        ids = [f"{tag}.{i}" for i in range(len(cases))]
        runs = [self.run_case(case, tracer, case_id) for case, case_id in zip(cases, ids)]
        self.sampler.sample()
        total = 0.0
        for case_id, (lat, start, end) in zip(ids, runs):
            self.scale[case_id] = self.sampler.scale(start, end)
            self.latencies.append(lat)
            total += lat * self.scale[case_id]
        self.kinds += [case["kind"] for case in cases]
        return total

    def ref_latencies(self):
        """Case latencies in reference seconds, in run order."""
        return [lat * f for lat, f in zip(self.latencies, self.scale.values())]

    def run_case(self, case, tracer, case_id):
        d = self.workdir / case_id
        d.mkdir(parents=True)
        argvs = None
        if self.name != "oracles":
            (d / "input.json").write_text(json.dumps(case["input"]))
            if self.name == "models":
                argvs = self.w.run_models(case, str(d))
            else:
                argvs = [getattr(self.w, f"run_{self.name}")(case, str(d))]
        if self.sampler.due(REF_BETWEEN_S):
            self.sampler.sample()
        excluded = self.sampler.excluded
        tracer.open_case(case_id)
        t0 = time.perf_counter()
        try:
            if argvs is None:
                result = self.w.run_oracle(case)
            else:
                result = [self.cli.main(argv) for argv in argvs]
        except Exception as exc:  # a raised error is a failed check, not a crash
            result = exc
        finally:
            end = time.perf_counter()
            latency = end - t0 - (self.sampler.excluded - excluded)
            tracer.close_case()
        if self.sampler.due(REF_BETWEEN_S):
            self.sampler.sample()
        self.check(case, result, d)
        shutil.rmtree(d, ignore_errors=True)
        return latency, t0, end

    def check(self, case, result, d):
        c = self.checks
        try:
            if isinstance(result, Exception):
                raise result
            if self.name == "cones":
                path = d / "report.json"
                report = json.loads(path.read_text()) if path.is_file() else None
                self.w.check_cones(case, result[0], report, c)
            elif self.name == "models":
                self.w.check_models(case, result, str(d), c)
            elif self.name == "orbits":
                self.w.check_orbits(case, result[0], str(d), c)
            else:
                self.w.check_oracle(case, result, c)
        except Exception as exc:
            c.add("error", False, case=case["kind"],
                  error="".join(traceback.format_exception_only(exc)).strip())


def call_latencies(spans):
    """Density and zeta-check latencies from the probe's top-level spans."""
    density, transform = [], []
    pending = None
    for name, start, end, parent, _case, _tag in spans:
        if parent != -1:
            continue
        dur = end - start
        if name == "conespline.spline_density":
            density.append(dur)
        if pending is not None and TRANSFORM_PAIRS[pending[0]] == name:
            transform.append(pending[1] + dur)
            pending = None
        elif name in TRANSFORM_PAIRS:
            pending = (name, dur)
        else:
            pending = None
    return density, transform


def orbit_projection(spans, meta):
    """Computed cost of the default 25^d `dhk orbit --out` grid per family:
    median t-density plus median k-density call, times 25^d. Never run.
    `meta` maps a case id to its (family, dimension)."""
    per_case = {}
    for name, start, end, parent, case, _tag in spans:
        if parent == -1 and name == "conespline.spline_density":
            per_case.setdefault(case, []).append(end - start)
    families = {}
    for case, durs in per_case.items():
        kind, dim = meta[case]
        # dhk orbit evaluates the whole grid for t, then again for k
        half = len(durs) // 2
        fam = families.setdefault(kind, {"t": [], "k": [], "dim": dim})
        fam["t"] += durs[:half]
        fam["k"] += durs[half:]
    out = {}
    for kind, v in families.items():
        per_point = statistics.median(v["t"]) + statistics.median(v["k"])
        out[kind] = {"dim": v["dim"], "per_point_s": per_point,
                     "grid_points": 25 ** v["dim"],
                     "projected_s": per_point * 25 ** v["dim"]}
    return out


def setup_seconds(args):
    """Median time of fresh processes that start Python, import the library
    and generate this run's inputs: the time to the first case."""
    raw = []
    sampler = SpeedSampler()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for _ in range(SETUP_PROBES):
        for _ in range(5):
            sampler.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr[-500:]}")
    for _ in range(5):
        sampler.sample()
    return statistics.median(raw) * sampler.scale(), raw


def timed_run(args, rounds, runner, tracing):
    probe = tracing.Tracer(PROBED, on_call=runner.sample_speed)
    batch = []
    with probe:
        for r, cases in enumerate(rounds):
            batch.append(runner.run_batch(cases, probe, f"r{r}"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup, setup_raw = setup_seconds(args)
    case = latency_metrics("case", runner.ref_latencies(), "case")
    if case["case_tail_ms"][0] is None:
        raise SystemExit("error: fewer than 11 cases; raise --seconds")
    spans = [s[:2] + [s[1] + (s[2] - s[1]) * runner.scale[s[4]]] + s[3:]
             for s in probe.spans]
    density, transform = call_latencies(spans)
    e2e = {
        "setup_s": (setup, "s", f"median of {SETUP_PROBES} fresh processes"),
        "run_s": (statistics.median(batch), "s", f"median of {len(batch)} batches"),
        **case,
        **latency_metrics("density", density, "spline_density call"),
        **latency_metrics("transform", transform, "zeta check"),
        "peak_rss_mb": (rss_mb, "MB", "max resident set of the measuring process"),
    }
    by_kind = {}
    for kind, lat in zip(runner.kinds, runner.ref_latencies()):
        by_kind.setdefault(kind, []).append(lat)
    extra = {"setup_raw_s": setup_raw,
             "batch_ref_s": batch,
             "run_raw_s": sum(runner.latencies) / len(batch),
             "speed_factor": statistics.median(runner.scale.values()),
             "case_median_ms_by_kind": {k: 1000 * statistics.median(v)
                                        for k, v in by_kind.items()}}
    if args.workload == "orbits":
        meta = {f"r{r}.{i}": (c["kind"], len(c["grid"]))
                for r, cases in enumerate(rounds) for i, c in enumerate(cases)}
        extra["projected_default_grid"] = orbit_projection(spans, meta)
    return e2e, extra


def traced_run(args, cases, runner, tracing):
    """Traced pass, then the same cases untraced for the overhead ratio. The
    untraced pass runs second, so any cache the library keeps is warm for it;
    only the traced pass's checks count."""
    # no speed samples inside traced cases: they would land in span self times
    tracer = tracing.Tracer()
    with tracer:
        traced_s = runner.run_batch(cases, tracer, "traced")
    traced_checks = runner.checks
    runner.checks = type(traced_checks)()
    with tracing.Tracer(PROBED, on_call=runner.sample_speed) as probe:
        plain_s = runner.run_batch(cases, probe, "plain")
    plain_checks, runner.checks = runner.checks, traced_checks
    layer, counts = tracing.layer_metrics(tracer.spans, len(cases), runner.scale)
    c = traced_checks
    extras = {"fail_ratio": c.ratio, "trace.overhead_ratio": traced_s / plain_s}
    for kind, (metric, _) in KNOWN_DEFECTS.items():
        extras[metric] = c.known.get(kind, 0)
    metrics = dict(layer)
    metrics.update({k: (v, TRACE_EXTRAS[k]) for k, v in extras.items()})
    span_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_path)
    extra = {"traced_s": traced_s, "untraced_s": plain_s, "span_counts": counts,
             "spans": len(tracer.spans), "span_file": str(span_path.relative_to(ROOT)),
             "untraced_pass_failed": plain_checks.failed,
             "queue_wait": "none: the library is single-threaded, so no layer waits"}
    return metrics, extra


def run_one(args):
    blas_cap = cap_threads()
    import_library()
    import tracer as tracing
    import workloads
    from dhmeasure import cli

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    n_rounds = 1 if args.trace else workloads.rounds_for(args.workload, args.seconds)
    rounds = [workloads.round_cases(args.workload, args.seed, r) for r in range(n_rounds)]
    if args.setup_probe:
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    runner = Runner(args.workload, workloads, cli, workdir)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(blas_cap), "rounds": n_rounds,
              "cases": sum(len(r) for r in rounds) * (2 if args.trace else 1),
              "closed_loop": "one caller; each case starts after the previous one"
                             " and its checks"}
    try:
        if args.trace:
            metrics, extra = traced_run(args, rounds[0], runner, tracing)
        else:
            e2e, extra = timed_run(args, rounds, runner, tracing)
            e2e["fail_ratio"] = (runner.checks.ratio, "ratio", "failed checks incl. known"
                                 f" defects / {runner.checks.attempted} checks")
            result["e2e"] = {k: {"value": v, "unit": u, "note": n}
                             for k, (v, u, n) in e2e.items()}
            metrics = {k: e2e[k][:2] for k in E2E_UNITS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(extra)
    c = runner.checks
    result["checks"] = {"attempted": c.attempted, "failed": c.failed,
                        "known_defects": c.known, "fail_ratio": c.ratio,
                        "examples": c.examples}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, default=str) + "\n")
    print(json.dumps({"correct": c.attempted > 0 and c.n_failed == 0,
                      "attempted": c.attempted, "failed": c.n_failed,
                      "metrics": result["metrics"]}))
    return 0


def _fmt(value):
    return f"{value:14.6g}" if value is not None else f"{'n/a':>14s}"


def report(result):
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  rounds {result['rounds']}"
          f"  cases {result['cases']}  trace {result['trace']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if env["backend"] != "gmpy2":
        print("note: Fraction backend; never compare these numbers with gmpy2 runs")
    if "e2e" in result:
        for name, m in result["e2e"].items():
            print(f"  {name:36s} {_fmt(m['value'])} {m['unit']:5s}  {m['note']}")
    else:
        for name, m in result["metrics"].items():
            print(f"  {name:36s} {_fmt(m['value'])} {m['unit']}")
        print(f"  queue wait: {result['queue_wait']}")
    checks = result["checks"]
    for kind, n in sorted(checks["failed"].items()):
        print(f"  FAILED {kind}: {n} of {checks['attempted']} checks")
    for kind, n in sorted(checks["known_defects"].items()):
        metric, what = KNOWN_DEFECTS[kind]
        print(f"  KNOWN DEFECT {metric} = {n}: {what} (counted in fail_ratio)")
    for fam, p in result.get("projected_default_grid", {}).items():
        print(f"  computed, not run: dhk orbit --out on the default grid, {fam}:"
              f" 25^{p['dim']} points x {p['per_point_s']:.4g} s = {p['projected_s']:.4g} s")


def run_all(args):
    """Every workload in its own process, then one table of all metrics."""
    import_library()
    import workloads

    me = str(Path(__file__).resolve())
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, me, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        results[name] = json.loads(path.read_text())
    key = "e2e" if args.trace == 0 else "metrics"
    names = list(results)
    print(f"\n{'metric':38s}" + "".join(f"{n:>14s}" for n in names) + "  unit")
    for m in results[names[0]][key]:
        cells = "".join(_fmt(results[n][key][m]["value"]) for n in names)
        print(f"{m:38s}{cells}  {results[names[0]][key][m]['unit']}")
    for n in names:
        checks = results[n]["checks"]
        failed = ", ".join(f"{k}={v}" for k, v in sorted(checks["failed"].items())) or "none"
        known = ", ".join(f"{KNOWN_DEFECTS[k][0]}={v}"
                          for k, v in sorted(checks["known_defects"].items())) or "none"
        print(f"{n}: {checks['attempted']} checks; failed: {failed}; known defects: {known}")
    summary = {n: {"correct": not r["checks"]["failed"], "metrics": r["metrics"]}
               for n, r in results.items()}
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
