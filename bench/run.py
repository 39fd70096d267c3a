"""Benchmark of the bsblab command line, end to end and per layer.

    python3 bench/run.py --workload certify --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

The repository root is the parent of this file's directory; work files go
to its ``.bench_run/``. Each run starts fresh worker processes with BLAS pinned to one thread:
first a few that only import the package (``setup_s``), then one worker
that runs the workload's CLI jobs. Outputs are checked here, after the
worker has ended, by rules that any correct program passes; nothing is
compared against stored output. With ``--trace 0`` the last line of stdout
carries the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
one traced pass. See bench/README.md for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from worker import LAPACK

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_run")

# A nonzero seed shifts both junctions by one offset, which keeps the
# string length and hence the default time step (and every step count)
# unchanged, and scales each damping coefficient by its own factor, which
# keeps the damping case (zero stays zero).
JUNCTION_SHIFT = (-0.1, 0.1)
DAMPING_FACTOR = (0.8, 1.25)
CONFIG_KEYS = ("l0", "l1", "l2", "l3", "rho1", "rho2", "beta")

SETUP_PROBES = 5      # timed import-only processes, after one untimed warm-up
RUN_LIMIT_S = 170.0   # every process of one run ends within this
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Output-check tolerances. Eigenvalues of a skew-symmetric matrix are
# computed to a few ulps of its norm, so 1e-10 of the largest |mu| is far
# above rounding and far below any real damping. Resolvent values must
# be even in lambda and at least 1/dist(i lambda, spectrum); both hold
# exactly, so 1e-6 only absorbs the rounding of the SVD (or of an
# iterative solver run to a stated tolerance). An energy-exact scheme that
# loses 1e-3 of the energy of an undamped run is broken.
REAL_PART_TOL = 1e-10
RESOLVENT_TOL = 1e-6
DRIFT_LIMIT = 1e-3


def _job(kind: str, config: str, n: int, *extra: str) -> dict:
    args = [kind, "--config", config, "--n1", str(n), "--n2", str(n), "--n3", str(n), *extra]
    return {"kind": kind, "config": config, "n": n, "args": args}


MESH_RUNGS = (20, 40, 80, 160)

# Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "certify": lambda cfg: [_job("verify", cfg["ddd"], 40), _job("decay", cfg["udu"], 40)],
    "sweep": lambda cfg: [
        _job("resolvent", cfg["udu"], 40,
             "--lambda-min", "-50", "--lambda-max", "50", "--lambda-steps", "301"),
        _job("spectrum", cfg["udu"], 40),
    ],
    "refine": lambda cfg: [
        job for n in MESH_RUNGS
        for job in (_job("spectrum", cfg["conservative"], n),
                    _job("simulate", cfg["conservative"], n, "--t-final", "4"))
    ],
}


# --- configs ----------------------------------------------------------------

def read_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                values[key.strip()] = float(value)
    return values


def make_configs(seed: int, dest: str) -> dict:
    """Config paths by name: the shipped files for seed 0, else perturbed copies."""
    shipped = {name: os.path.join(ROOT, "configs", f"{name}.cfg")
               for name in ("ddd", "udu", "conservative")}
    if seed == 0:
        return shipped
    out = {}
    for name, path in shipped.items():
        rng = random.Random(f"{seed}:{name}")
        values = read_config(path)
        shift = rng.uniform(*JUNCTION_SHIFT)
        values["l1"] += shift
        values["l2"] += shift
        for key in ("rho1", "rho2", "beta"):
            values[key] *= rng.uniform(*DAMPING_FACTOR)
        out[name] = os.path.join(dest, f"{name}.cfg")
        with open(out[name], "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {values[key]!r}\n" for key in CONFIG_KEYS)
    return out


# --- output checks ----------------------------------------------------------

class CheckFailed(Exception):
    pass


def read_csv(path: str, header: str, rows: int | None = None) -> list:
    """Rows of floats; the header, the row count and finiteness must hold."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from exc
    if not lines or lines[0] != header:
        raise CheckFailed(f"{os.path.basename(path)}: header is not {header!r}")
    width = header.count(",") + 1
    table = []
    for line in lines[1:]:
        fields = line.split(",")
        try:
            row = [float(x) for x in fields]
        except ValueError as exc:
            raise CheckFailed(f"{os.path.basename(path)}: bad row {line!r}") from exc
        if len(row) != width or not all(math.isfinite(x) for x in row):
            raise CheckFailed(f"{os.path.basename(path)}: bad row {line!r}")
        table.append(row)
    if rows is not None and len(table) != rows:
        raise CheckFailed(f"{os.path.basename(path)}: {len(table)} rows, expected {rows}")
    return table


def read_json(path: str, finite_keys) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from exc
    for key in finite_keys:
        value = data.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckFailed(f"{os.path.basename(path)}: {key} = {value!r} is not finite")
    return data


def is_undamped(config: str) -> bool:
    values = read_config(config)
    return values["rho1"] == values["rho2"] == values["beta"] == 0.0


def spectrum_of(job: dict, out: str) -> list:
    n_positions = 5 * job["n"] - 1  # 2n + (n - 1) + 2n for n elements per member
    rows = read_csv(os.path.join(out, "spectrum.csv"), "re,im", 2 * n_positions)
    mu = [complex(re, im) for re, im in rows]
    if is_undamped(job["config"]):
        scale = max(abs(m) for m in mu)
        worst = max(abs(m.real) for m in mu)
        if worst > REAL_PART_TOL * scale:
            raise CheckFailed(f"undamped spectrum has |Re mu| = {worst:.3g}")
    return mu


def energy_drift(job: dict, out: str) -> float:
    """|E_end/E_0 - 1| of a simulate job, after checking its energy.csv."""
    rows = read_csv(os.path.join(out, "energy.csv"), "t,E,dissipation,F")
    t_final = float(job["args"][job["args"].index("--t-final") + 1])
    if len(rows) < 2 or rows[0][0] != 0.0:
        raise CheckFailed("energy.csv: no time steps")
    dt = rows[1][0]
    steps = max(1, round(t_final / dt))
    if len(rows) != steps + 1:
        raise CheckFailed(f"energy.csv: {len(rows)} rows, expected {steps + 1}")
    drift = abs(rows[-1][1] / rows[0][1] - 1.0)
    if is_undamped(job["config"]) and drift > DRIFT_LIMIT:
        raise CheckFailed(f"undamped energy drifted by {drift:.3g}")
    return drift


def check_resolvent(job: dict, out: str, mu: list) -> None:
    args = job["args"]
    lo, hi, steps = (float(args[args.index(flag) + 1])
                     for flag in ("--lambda-min", "--lambda-max", "--lambda-steps"))
    rows = read_csv(os.path.join(out, "resolvent.csv"), "lambda,norm", int(steps))
    if abs(rows[0][0] - lo) > 1e-12 * abs(lo) or abs(rows[-1][0] - hi) > 1e-12 * abs(hi):
        raise CheckFailed("resolvent.csv: grid does not span the requested range")
    for (lam, norm), (mirror_lam, mirror_norm) in zip(rows, reversed(rows)):
        if abs(lam + mirror_lam) <= 1e-9 * abs(hi - lo) and \
                abs(norm - mirror_norm) > RESOLVENT_TOL * max(norm, mirror_norm):
            raise CheckFailed(f"resolvent norm is not even at lambda = {lam}")
        dist = min(abs(1j * lam - m) for m in mu)
        if norm * dist < 1.0 - RESOLVENT_TOL:
            raise CheckFailed(f"resolvent norm below 1/dist(i lambda, spectrum) at {lam}")


def check_job(job: dict, sample: dict, spectra: dict) -> dict:
    """Check one job's outputs; returns facts for the metrics (e.g. the drift).

    ``spectra`` maps (config, n) to the eigenvalues that a spectrum job of
    the same run wrote; the resolvent check needs them.
    """
    if sample["rc"] != 0 and job["kind"] != "verify":
        raise CheckFailed(f"exit code {sample['rc']}")
    out, kind = sample["out"], job["kind"]
    if kind == "spectrum":
        spectra.setdefault((job["config"], job["n"]), spectrum_of(job, out))
    elif kind == "simulate":
        return {"energy_drift": energy_drift(job, out)}
    elif kind == "resolvent":
        mu = spectra.get((job["config"], job["n"]))
        if mu is None:
            raise CheckFailed("no spectrum of the same config to check against")
        check_resolvent(job, out, mu)
    elif kind == "decay":
        read_json(os.path.join(out, "decay.json"),
                  ("abscissa", "alpha_fit", "dt", "mode_re", "mode_im", "r_squared", "t_final"))
    elif kind == "verify":
        report = read_json(os.path.join(out, "report.json"), ("abscissa", "alpha_fit", "dt", "t_final"))
        if report.get("all_pass") is not (sample["rc"] == 0):
            raise CheckFailed(f"all_pass = {report.get('all_pass')!r} but exit code {sample['rc']}")
        if sample["rc"] != 0:
            raise CheckFailed(f"exit code {sample['rc']}")
    return {}


def same_files(a: str, b: str) -> bool:
    names = sorted(os.listdir(a)) if os.path.isdir(a) else None
    if names is None or not os.path.isdir(b) or names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def check_samples(jobs: list, samples: list):
    """Check every sample; returns (failure messages, facts by sample index).

    Spectrum jobs are checked first so a resolvent job can be checked
    against the spectrum of its own config. A traced sample must also
    reproduce its untraced twin byte for byte.
    """
    spectra: dict = {}
    failures, facts = [], {}
    order = sorted(range(len(samples)), key=lambda i: jobs[samples[i]["job"]]["kind"] != "spectrum")
    plain: dict = {}
    for sample in samples:
        if not sample["traced"]:
            plain.setdefault(sample["job"], sample)
    for i in order:
        sample = samples[i]
        job = jobs[sample["job"]]
        try:
            if sample["traced"]:
                if not same_files(plain[sample["job"]]["out"], sample["out"]):
                    raise CheckFailed("traced outputs differ from the untraced run")
            facts[i] = check_job(job, sample, spectra)
        except CheckFailed as exc:
            failures.append(f"{sample['tag']} job {sample['job']} ({job['kind']} n={job['n']}): {exc}")
    return failures, facts


# --- metrics ----------------------------------------------------------------

def end_to_end(jobs: list, samples: list, facts: dict, setup: list, rss_mb: float, failed: int) -> dict:
    """Every end-to-end metric, by name: (value, unit, sample count)."""
    walls: dict = {}
    for sample in samples:
        walls.setdefault(sample["job"], []).append(sample["wall_s"])
    medians = {j: statistics.median(w) for j, w in walls.items()}
    out = {"setup_s": (statistics.median(setup), "s", len(setup)),
           "pass_s": (sum(medians.values()), "s", min(len(w) for w in walls.values()))}
    for kind in ("verify", "decay", "resolvent", "spectrum", "simulate"):
        idx = [j for j in medians if jobs[j]["kind"] == kind]
        if idx:
            out[f"{kind}_s"] = (sum(medians[j] for j in idx), "s", min(len(walls[j]) for j in idx))
    drifts = [f["energy_drift"] for f in facts.values() if "energy_drift" in f]
    if drifts:
        out["energy_drift"] = (max(drifts), "1", len(drifts))
    out["peak_rss_mb"] = (rss_mb, "MB", 1)
    out["failed_ratio"] = (failed / len(samples), "1", len(samples))
    return out


def per_layer(spans: list, samples: list):
    """Per-layer metrics of one traced pass, (value, unit) by name.

    Also returns the self time of every layer and the wall time of the
    traced pass and of an untraced pass (the mean of the two).
    """
    child_s = [0.0] * len(spans)
    for job, name, parent, start, end, note in spans:
        if parent >= 0:
            child_s[parent] += end - start
    dur, self_s, calls = {}, {}, {}
    layer_self: dict = {}
    rung_s, rung_steps = {}, {}
    for i, (job, name, parent, start, end, note) in enumerate(spans):
        own = end - start - child_s[i]
        dur[name] = dur.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if name == "dynamics.simulate" and note is not None:
            rung = (note["n_positions"] + 1) / 5  # N = 5n - 1 on a uniform mesh
            rung_s[rung] = rung_s.get(rung, 0.0) + end - start
            rung_steps[rung] = rung_steps.get(rung, 0) + note["steps"]

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("fem.assemble_s", dur.get("fem.assemble_pencil", 0.0), "s")
    put("fem.assemble.calls", calls.get("fem.assemble_pencil", 0), "count")
    put("fem.element_matrices.calls", calls.get("fem.element_matrices", 0), "count")
    put("fem.interpolate_s", dur.get("fem.interpolate", 0.0), "s")

    put("dynamics.simulate_s", dur.get("dynamics.simulate", 0.0), "s")
    put("dynamics.simulate.self_s", self_s.get("dynamics.simulate", 0.0), "s")
    put("dynamics.steps", sum(rung_steps.values()), "count")
    put("dynamics.step_trapezoidal.calls", calls.get("dynamics.step_trapezoidal", 0), "count")
    for n in MESH_RUNGS:
        steps = rung_steps.get(n, 0)
        put(f"dynamics.step_us.n{n}", 1e6 * rung_s[n] / steps if steps else 0.0, "us")

    put("spectral.eigenvalues_s", dur.get("spectral.eigenvalues", 0.0), "s")
    put("spectral.eigenvalues.calls", calls.get("spectral.eigenvalues", 0), "count")
    put("spectral.slowest_mode_s", dur.get("spectral.slowest_mode", 0.0), "s")
    put("spectral.resolvent_sweep_s", dur.get("spectral.resolvent_sweep", 0.0), "s")
    sweeps = {i for i, s in enumerate(spans) if s[1] == "spectral.resolvent_sweep"}
    points = sorted(1e3 * (s[4] - s[3]) for s in spans if s[1] == "lapack.svdvals" and s[2] in sweeps)
    grid = sum(spans[i][5]["points"] for i in sweeps if spans[i][5] is not None)
    put("spectral.resolvent_point_ms.p50", statistics.median(points) if points else 0.0, "ms")
    put("spectral.resolvent_point_ms.p90",
        statistics.quantiles(points, n=10)[-1] if len(points) > 1 else 0.0, "ms")
    put("spectral.sweep_unique_ratio", len(points) / grid if grid else 0.0, "1")

    for fn in LAPACK:
        put(f"lapack.{fn}.calls", calls.get(f"lapack.{fn}", 0), "count")
        put(f"lapack.{fn}_s", dur.get(f"lapack.{fn}", 0.0), "s")

    put("analysis.cross_validate_s", dur.get("analysis.cross_validate", 0.0), "s")
    put("analysis.self_s", layer_self.get("analysis", 0.0), "s")
    put("cli.self_s", layer_self.get("cli", 0.0), "s")

    plain = sum(s["wall_s"] for s in samples if not s["traced"]) / 2  # two untraced passes
    traced = sum(s["wall_s"] for s in samples if s["traced"])
    put("trace.overhead_ratio", traced / plain, "1")
    return m, layer_self, plain, traced


# --- running ----------------------------------------------------------------

def spawn(args: list, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run bench/worker.py to completion with BLAS pinned; kill it at the deadline."""
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=dict(os.environ, **THREADS_ENV), cwd=ROOT, check=True,
                          timeout=max(1.0, deadline - time.monotonic()), **kwargs)


def measure_setup(deadline: float) -> list:
    """Import time of the package in fresh processes, after a warm-up one."""
    times = []
    for i in range(SETUP_PROBES + 1):
        out = spawn(["probe"], deadline, capture_output=True, text=True)
        if i:
            times.append(json.loads(out.stdout)["setup_s"])
    return times


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(WORK, "current")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = WORKLOADS[name](make_configs(seed, work))
    plan = {"src": os.path.join(ROOT, "src"), "jobs": jobs, "out_root": work,
            "mode": "trace" if trace else "measure", "seconds": seconds}
    plan_path, result_path = os.path.join(work, "plan.json"), os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    setup = [] if trace else measure_setup(deadline)
    spawn([plan_path, result_path], deadline)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    samples = result["samples"]
    failures, facts = check_samples(jobs, samples)
    report = {"workload": name, "seed": seed, "jobs": jobs, "failures": failures,
              "attempted": len(samples), "failed": len(failures), "env": result["env"]}
    if trace:
        report["metrics"], report["layer_self_s"], report["plain_s"], report["traced_s"] = \
            per_layer(result["spans"], samples)
    else:
        report["metrics"] = end_to_end(jobs, samples, facts, setup + [result["setup_s"]],
                                       result["peak_rss_mb"], len(failures))
    with open(os.path.join(WORK, f"last-{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def describe(report: dict) -> None:
    """Human-readable lines: environment, failures, every metric with its unit."""
    print(f"== {report['workload']} seed={report['seed']} env={json.dumps(report['env'])}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    for name, entry in report["metrics"].items():
        samples = f"  (n={entry[2]})" if len(entry) > 2 else ""
        print(f"{report['workload']:8s} {name:36s} {entry[0]:.6g} {entry[1]}{samples}")
    if "layer_self_s" in report:
        total = sum(report["layer_self_s"].values())
        parts = ", ".join(f"{k} {v:.3f}" for k, v in sorted(report["layer_self_s"].items()))
        print(f"{report['workload']:8s} self time by layer (s): {parts}; sum {total:.3f} "
              f"vs traced wall {report['traced_s']:.3f}, untraced wall {report['plain_s']:.3f}")


def result_line(reports: list, wanted: list) -> str:
    """The result object: one workload reports exactly the metrics in
    ``wanted``; several report all they measured, prefixed by workload."""
    metrics = {}
    for report in reports:
        names, prefix = (wanted, "") if len(reports) == 1 else (report["metrics"], report["workload"] + ".")
        for name in names:
            value, unit = report["metrics"][name][:2]
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in reports)
    return json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bsblab", "cli.py")):
        print(f"bench: no bsblab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        describe(reports[-1])
    print(result_line(reports, wanted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
