"""Tests of the benchmark's own output checks and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402


@pytest.fixture
def undamped(tmp_path):
    path = tmp_path / "conservative.cfg"
    path.write_text("l0 = 0\nl1 = 1\nl2 = 2\nl3 = 3\nrho1 = 0\nrho2 = 0\nbeta = 0\n")
    return str(path)


def _simulate_sample(tmp_path, config, rc=0, rows=2001):
    out = tmp_path / "out"
    out.mkdir()
    lines = ["t,E,dissipation,F"]
    lines += [f"{0.002 * i!r},4,0,0" for i in range(rows)]
    (out / "energy.csv").write_text("\n".join(lines) + "\n")
    job = run._job("simulate", config, 20, "--t-final", "4")
    return [job], [{"job": 0, "tag": "p0", "traced": False, "rc": rc, "wall_s": 1.0, "out": str(out)}]


def test_complete_output_passes(tmp_path, undamped):
    jobs, samples = _simulate_sample(tmp_path, undamped)
    failures, facts = run.check_samples(jobs, samples)
    assert failures == []
    assert facts[0]["energy_drift"] == 0.0


def test_truncated_csv_is_a_failure(tmp_path, undamped):
    jobs, samples = _simulate_sample(tmp_path, undamped, rows=1500)
    failures, _ = run.check_samples(jobs, samples)
    assert len(failures) == 1 and "rows" in failures[0]


def test_row_cut_mid_line_is_a_failure(tmp_path, undamped):
    jobs, samples = _simulate_sample(tmp_path, undamped)
    path = os.path.join(samples[0]["out"], "energy.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) - 5])
    failures, _ = run.check_samples(jobs, samples)
    assert len(failures) == 1


def test_exit_code_one_is_a_failure(tmp_path, undamped):
    jobs, samples = _simulate_sample(tmp_path, undamped, rc=1)
    failures, _ = run.check_samples(jobs, samples)
    assert failures == ["p0 job 0 (simulate n=20): exit code 1"]


def test_verify_exit_code_must_match_all_pass(tmp_path, undamped):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text(
        '{"abscissa": -0.5, "all_pass": true, "alpha_fit": 1.0, "dt": 0.001, "t_final": 7.0}')
    jobs = [run._job("verify", undamped, 40)]
    for rc, expected in ((0, 0), (1, 1)):
        sample = {"job": 0, "tag": "p0", "traced": False, "rc": rc, "wall_s": 1.0, "out": str(out)}
        failures, _ = run.check_samples(jobs, [sample])
        assert len(failures) == expected


def test_resolvent_below_the_spectral_bound_is_a_failure(tmp_path, undamped):
    spec_dir, res_dir = tmp_path / "spec", tmp_path / "res"
    spec_dir.mkdir()
    res_dir.mkdir()
    # n = 1 gives N = 4 positions and 8 eigenvalues, all at -1 +/- 2i
    (spec_dir / "spectrum.csv").write_text("re,im\n" + "-1,-2\n-1,2\n" * 4)
    jobs = [run._job("spectrum", undamped.replace("conservative", "damped"), 1),
            run._job("resolvent", undamped.replace("conservative", "damped"), 1,
                     "--lambda-min", "-2", "--lambda-max", "2", "--lambda-steps", "3")]
    (tmp_path / "damped.cfg").write_text(
        "l0 = 0\nl1 = 1\nl2 = 2\nl3 = 3\nrho1 = 0\nrho2 = 0\nbeta = 1\n")
    samples = [{"job": 0, "tag": "p0", "traced": False, "rc": 0, "wall_s": 1.0, "out": str(spec_dir)},
               {"job": 1, "tag": "p0", "traced": False, "rc": 0, "wall_s": 1.0, "out": str(res_dir)}]
    # dist(i lambda, spectrum) is 1 at lambda = +/-2 and sqrt(5) at 0
    (res_dir / "resolvent.csv").write_text("lambda,norm\n-2,1\n0,0.5\n2,1\n")
    assert run.check_samples(jobs, samples)[0] == []
    (res_dir / "resolvent.csv").write_text("lambda,norm\n-2,0.9\n0,0.5\n2,0.9\n")
    assert len(run.check_samples(jobs, samples)[0]) == 1


def test_tracer_leaves_identity_compared_functions_alone():
    worker.import_package(os.path.join(os.path.dirname(HERE), "src"))
    import bsblab
    import scipy.linalg

    plain = bsblab.fem.element_matrices("beam_mass", 0.25)
    original = scipy.linalg.cholesky
    tracer = worker.Tracer()
    tracer.install(bsblab, scipy.linalg)
    try:
        assert bsblab.fem.hermite_shapes is bsblab.fem._ELEMENT_KINDS["beam_mass"][0]
        assert (bsblab.fem.element_matrices("beam_mass", 0.25) == plain).all()
        scipy.linalg.cholesky(plain)
    finally:
        tracer.uninstall()
    assert scipy.linalg.cholesky is original
    assert [span[1] for span in tracer.spans] == ["fem.element_matrices", "lapack.cholesky"]
