import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import bsblab as bb
from bsblab import analysis, cli, dynamics, fem, model, spectral
from bsblab.cli import RunSpec, UsageError, parse_args, read_config

import oracles


def run_cli(*args, cwd=None):
    cmd = [sys.executable, "-m", "bsblab", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


CONFIG = """\
# fully damped unit geometry
l0 = 0.0
l1 = 1.0
l2 = 2.0
l3 = 3.0
rho1 = 1.0
rho2 = 1.0
beta = 1.0
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "structure.cfg"
    path.write_text(CONFIG)
    return str(path)


# --- config parsing ----------------------------------------------------------

def test_read_config_happy_path(config_file):
    cfg = read_config(config_file)
    assert (cfg.l0, cfg.l1, cfg.l2, cfg.l3) == (0.0, 1.0, 2.0, 3.0)
    assert (cfg.rho1, cfg.rho2, cfg.beta) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("l0 = 0\n", "missing keys"),
        (CONFIG + "l0 = 5\n", "duplicate key"),
        (CONFIG + "gamma = 2\n", "unknown key"),
        (CONFIG.replace("l2 = 2.0", "l2 = two"), "cannot parse number"),
        (CONFIG.replace("l2 = 2.0", "l2"), "expected 'key = value'"),
    ],
)
def test_read_config_rejects_malformed_files(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(UsageError, match=fragment):
        read_config(str(path))


def test_read_config_missing_file():
    with pytest.raises(UsageError, match="cannot read config file"):
        read_config("/no/such/file.cfg")


# --- argument parsing ----------------------------------------------------------

@pytest.mark.parametrize("command", ["simulate", "spectrum", "resolvent", "decay", "verify"])
def test_parse_args_defaults(config_file, command):
    """Every flag left out takes its RunSpec default, on every subcommand,
    including the fields the subcommand has no flag for."""
    spec = parse_args([command, "--config", config_file])
    assert isinstance(spec, RunSpec)
    assert spec == RunSpec(
        command=command, config_path=config_file,
        n1=40, n2=40, n3=40, out_dir=".",
        dt=None, t_final=None, snapshot_every=0,
        lambda_min=-50.0, lambda_max=50.0, lambda_steps=2001,
    )


def test_parse_args_rejections(config_file):
    """What argparse cannot use. Values it parses reach the package, which
    makes every range check (test_an_out_of_range_value_exits_1...)."""
    bad = [
        ["decay", "--config", config_file, "--dt", "abc"],
        ["resolvent", "--config", config_file, "--lambda-steps", "2.5"],
        ["simulate", "--config", config_file, "--n2", "two"],
        # no such flag: snapshots are written at the mesh nodes
        ["simulate", "--config", config_file, "--snapshot-points", "7"],
        ["verify", "--config", config_file, "--c4", "2"],  # no such flag
        ["decay", "--config", config_file, "--count", "5"],  # modes' flag is gone
        ["modes", "--config", config_file],  # and so is modes
        ["spectrum"],                       # --config is required
        ["frobnicate", "--config", config_file],
        [],
    ]
    for argv in bad:
        with pytest.raises(UsageError):
            parse_args(argv)


OVERFLOW = "the step count t_final/dt overflows: t_final = {}, dt = {}"
# a value argparse parses but the package refuses, and the package's message
OUT_OF_RANGE = [
    (["resolvent", "--lambda-steps", "0"], "steps must be an integer >= 2, got 0"),
    (["resolvent", "--lambda-steps", "1"], "steps must be an integer >= 2, got 1"),
    (["resolvent", "--lambda-min", "2", "--lambda-max", "-2"],
     "need lambda_min < lambda_max, got [2.0, -2.0]"),
    (["resolvent", "--lambda-max", "inf"], "need lambda_min < lambda_max, got [-50.0, inf]"),
    (["resolvent", "--lambda-min=-inf"], "need lambda_min < lambda_max, got [-inf, 50.0]"),
    (["simulate", "--dt", "0"], "dt must be finite and > 0, got 0.0"),
    (["simulate", "--dt", "inf"], "dt must be finite and > 0, got inf"),
    (["simulate", "--t-final", "inf"], "t_final must be finite and > 0, got inf"),
    (["decay", "--dt", "inf"], "dt must be finite and > 0, got inf"),
    (["decay", "--dt", "nan"], "dt must be finite and > 0, got nan"),
    (["verify", "--t-final", "nan"], "t_final must be finite and > 0, got nan"),
    (["verify", "--t-final", "-1"], "t_final must be finite and > 0, got -1.0"),
    # the step count t_final/dt overflows, the default t_final included
    (["simulate", "--dt", "1e-300", "--t-final", "1e300"], OVERFLOW.format("1e+300", "1e-300")),
    (["decay", "--dt", "1e-300", "--t-final", "1e300"], OVERFLOW.format("1e+300", "1e-300")),
    (["simulate", "--dt", "1e-320"], OVERFLOW.format("10.0", "1e-320")),
    (["decay", "--dt", "1e-320"], OVERFLOW.format("10.0", "1e-320")),
    (["verify", "--dt", "1e-320"], OVERFLOW.format("10.0", "1e-320")),
    (["simulate", "--snapshot-every", "-1"], "snapshot_every must be >= 0, got -1"),
    (["simulate", "--n2", "0"], "n2 must be an integer >= 1, got 0"),
    (["spectrum", "--n1", "0"], "n1 must be an integer >= 1, got 0"),
]


@pytest.mark.parametrize("argv,message", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_an_out_of_range_value_exits_1_with_the_package_message(tmp_path, capsys, argv,
                                                                 message):
    """parse_args keeps no range check: each value reaches the package,
    whose ModelError is one error line, exit 1, with no output file."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / "ddd.cfg")
    mesh = [arg for flag in ("--n1", "--n2", "--n3") if flag not in argv for arg in (flag, "4")]
    out = tmp_path / "out"
    assert cli.main([*argv, *mesh, "--config", config, "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists() or not any(out.iterdir())


def test_no_subcommand_lists_all_five():
    proc = run_cli()
    assert proc.returncode == 2
    for name in ("simulate", "spectrum", "resolvent", "decay", "verify"):
        assert name in proc.stderr
    assert "modes" not in proc.stderr


# --- subcommands end to end -------------------------------------------------------

def test_simulate_writes_energy_and_snapshots(tmp_path, config_file):
    out = tmp_path / "out"
    proc = run_cli(
        "simulate", "--config", config_file,
        "--n1", "4", "--n2", "4", "--n3", "4",
        "--dt", "0.002", "--t-final", "0.02",
        "--snapshot-every", "5",
        "--out-dir", str(out),
    )
    assert proc.returncode == 0, proc.stderr

    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[0] == "t,E,dissipation,F"
    assert len(lines) == 12  # header + 10 steps + initial row
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0 and last[0] == pytest.approx(0.02)
    assert last[1] < first[1]  # damped run loses energy

    snap = (out / "snapshots.csv").read_text().splitlines()
    assert snap[0] == "t,x,displacement,velocity"
    # snapshots at steps 0, 5, 10 with 4 + 4 + 4 + 1 mesh nodes each
    assert len(snap) == 1 + 3 * 13


def test_snapshot_rows_are_the_deflection_dofs_at_the_nodes(tmp_path):
    """Each snapshot lists every mesh node from l0 to l3 once, the two
    junctions included, with the state's deflection DOFs there, read off
    the DOF map node by node, and 0 at the clamped ends."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / "ddd.cfg")
    cfg = read_config(config)
    mesh, pencil = bb.discretize(cfg, 3, 4, 5)
    sim = bb.simulate(pencil, bb.interpolate(cfg, mesh),
                      0.002, 0.02, snapshot_every=4)
    assert cli.main(["simulate", "--config", config, "--n1", "3", "--n2", "4", "--n3", "5",
                     "--dt", "0.002", "--t-final", "0.02", "--snapshot-every", "4",
                     "--out-dir", str(tmp_path)]) == 0
    nodes = ([(x, mesh.beam1[j, 0]) for j, x in enumerate(mesh.nodes1)]
             + [(x, mesh.string[j]) for j, x in enumerate(mesh.nodes2) if 0 < j < mesh.n2]
             + [(x, mesh.beam2[j, 0]) for j, x in enumerate(mesh.nodes3)])
    lines = (tmp_path / "snapshots.csv").read_text().splitlines()
    assert lines[0] == "t,x,displacement,velocity"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == len(sim.snapshots) * 13 == 4 * 13  # steps 0, 4, 8 and 10
    for k, (t, state) in enumerate(sim.snapshots):
        block = rows[13 * k:13 * (k + 1)]
        xs = [x for _, x, _, _ in block]
        assert xs == sorted(set(xs)) and xs.count(cfg.l1) == xs.count(cfg.l2) == 1
        for (t_row, x, disp, vel), (node, dof) in zip(block, nodes):
            assert (t_row, x) == (t, node)
            want = (state.p[dof], state.q[dof]) if dof >= 0 else (0.0, 0.0)
            assert (disp, vel) == want
        assert block[0][2:] == block[-1][2:] == (0.0, 0.0)


def test_spectrum_csv_schema(tmp_path, config_file):
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--config", config_file,
                   "--n1", "3", "--n2", "3", "--n3", "3", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    # state dimension = 2 * (2*3 + 2 + 2*3) = 28
    assert len(lines) == 29
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert all(re < 0 for re, _ in rows)
    assert rows == sorted(rows)
    assert "abscissa" in proc.stdout


def test_spectrum_warns_when_a_dissipative_spectrum_has_re_above_zero(tmp_path, capsys):
    """Damping that dwarfs stiffness (rho1 = 1e150 at n = 4) leaves a slowest
    eigenvalue within eps max|mu| of 0, the test decay refuses with a
    ModelError. spectrum names its |mu| on stderr; stdout, the CSV and
    the exit code are as without the warning. A resolved spectrum prints no
    warning, even with roundoff Re > 0 (damping on the first beam alone)."""
    cases = (("rho1 = 1.0", "rho1 = 1.0", 4, "38 eigenvalues (DDD)", False),
             ("rho1 = 1.0", "rho1 = 1e150", 4, "38 eigenvalues (DDD)", True),
             ("rho2 = 1.0\nbeta = 1.0", "rho2 = 0.0\nbeta = 0.0", 20, "198 eigenvalues (Other)",
              False))
    for i, (old, new, n, head, warned) in enumerate(cases):
        path = tmp_path / f"case-{i}.cfg"
        path.write_text(CONFIG.replace(old, new))
        out = tmp_path / f"out-{i}"
        assert cli.main(["spectrum", "--config", str(path), "--n1", str(n), "--n2", str(n),
                         "--n3", str(n), "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"spectrum: {head}, abscissa = ")
        assert len(captured.out.splitlines()) == 2
        rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
        mu = rows[:, 0] + 1j * rows[:, 1]
        slowest = abs(mu[-1])
        assert (slowest <= np.finfo(float).eps * np.abs(mu).max()) == warned
        if not warned:
            assert captured.err == ""
            assert (rows[:, 0].max() > 0) == (i == 2)
            continue
        assert captured.err == (f"warning: the slowest eigenvalue has |mu| = {cli._fmt(slowest)}, "
                                "within eps max|mu| of 0; the spectrum is not resolved\n")


def test_resolvent_warns_as_spectrum_does_on_an_unresolved_spectrum(tmp_path, capsys):
    """rho1 = rho2 = beta = 1e150 at n = 4 leaves a slowest eigenvalue
    within eps max|mu| of 0, and the grid maximum is inf. resolvent prints
    spectrum's warning line on stderr; its stdout, resolvent.csv and exit
    code are those of a sweep without the warning."""
    path = tmp_path / "huge.cfg"
    path.write_text(re.sub(r"^(rho1|rho2|beta) = .*$", r"\1 = 1e150", CONFIG, flags=re.M))
    mesh = ["--config", str(path), "--n1", "4", "--n2", "4", "--n3", "4"]
    warning = ("warning: the slowest eigenvalue has |mu| = 1.2107579608134657e+136, "
               "within eps max|mu| of 0; the spectrum is not resolved\n")
    assert cli.main(["spectrum", *mesh, "--out-dir", str(tmp_path / "spectrum")]) == 0
    assert capsys.readouterr().err == warning
    out = tmp_path / "resolvent"
    assert cli.main(["resolvent", *mesh, "--lambda-steps", "5", "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert captured.out.splitlines() == [
        "resolvent: grid maximum over [-50, 50] (5 points, 3 distinct |lambda|, "
        "5 Lanczos iterations, at most 2 per point) = inf",
        "resolvent: first grid maximum at lambda = 0, abscissa = 1.2107579608134657e+136",
        f"wrote {out / 'resolvent.csv'}",
    ]
    rows = (out / "resolvent.csv").read_text().splitlines()
    assert rows[0] == "lambda,norm" and rows[3] == "0,inf"


def test_resolvent_row_count_and_sup(tmp_path, config_file):
    out = tmp_path / "out"
    proc = run_cli("resolvent", "--config", config_file,
                   "--n1", "3", "--n2", "3", "--n3", "3",
                   "--lambda-min", "-5", "--lambda-max", "5",
                   "--lambda-steps", "11", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "resolvent.csv").read_text().splitlines()
    assert lines[0] == "lambda,norm"
    assert len(lines) == 12
    norms = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(n > 0 for n in norms)
    # the largest norm on the grid, not the sup of the norm along the axis
    assert "resolvent: grid maximum over [-5, 5] (11 points," in proc.stdout
    assert "sup" not in proc.stdout


def test_resolvent_prints_the_lanczos_work_with_the_sup_last(tmp_path, capsys):
    config = str(Path(__file__).resolve().parents[1] / "configs" / "udu.cfg")
    assert cli.main(["resolvent", "--config", config, "--n1", "10", "--n2", "10", "--n3", "10",
                     "--lambda-min", "-50", "--lambda-max", "50", "--lambda-steps", "41",
                     "--out-dir", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    _, pencil = bb.discretize(read_config(config), 10, 10, 10)
    grid = spectral.axis_grid(-50.0, 50.0, 41)
    table = spectral.resolvent_sweep(spectral.eigenvalues(pencil), grid)
    # mirrored points share one Lanczos run, so each |lambda| counts once
    per_key = dict(zip(np.abs(table.lambdas).tolist(), table.iterations.tolist()))
    assert len(per_key) == 21
    assert f", {sum(per_key.values())} Lanczos iterations, " in line
    assert f"at most {table.iterations.max()} per point) = " in line
    assert line.endswith(f" = {cli._fmt(table.sup)}")


def test_resolvent_prints_the_udu_study_from_one_schur_form(tmp_path, monkeypatch, capsys):
    """README's udu study: at each mesh one dgees (2N = 98, 198), and a line
    after the sup with its first grid argmax and the spectrum's abscissa."""
    shapes = []
    dgees = scipy.linalg.lapack.dgees

    def counted(*args, **kwargs):
        if kwargs.get("lwork") != -1:
            shapes.append(next(x for x in args if isinstance(x, np.ndarray)).shape)
        return dgees(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgees", counted)
    config = str(Path(__file__).resolve().parents[1] / "configs" / "udu.cfg")
    for n, sup, argmax, abscissa in ((10, "7.813919", "-3.3333", "-4.738e-03"),
                                     (20, "7.757637", "-3.3333", "-1.511e-03")):
        shapes.clear()
        assert cli.main(["resolvent", "--config", config, "--n1", str(n), "--n2", str(n),
                         "--n3", str(n), "--lambda-steps", "301",
                         "--out-dir", str(tmp_path)]) == 0
        assert shapes == [(2 * (5 * n - 1),) * 2]
        lines = capsys.readouterr().out.splitlines()
        assert f"{float(lines[0].rsplit(' = ', 1)[1]):.6f}" == sup
        got = re.fullmatch(r"resolvent: first grid maximum at lambda = (\S+), "
                           r"abscissa = (\S+)", lines[1])
        assert (f"{float(got[1]):.4f}", f"{float(got[2]):.3e}") == (argmax, abscissa)
        assert lines[2].startswith("wrote ")


def test_decay_json_contract(tmp_path, config_file):
    out = tmp_path / "out"
    proc = run_cli("decay", "--config", config_file,
                   "--n1", "5", "--n2", "5", "--n3", "5", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    text = (out / "decay.json").read_text()
    payload = json.loads(text)
    assert set(payload) == {
        "abscissa", "alpha_bound", "alpha_fit", "alpha_scheme", "dt", "mode_im", "mode_re",
        "r_squared", "regime", "t_final", "verdict",
    }
    assert list(payload) == sorted(payload)  # written in sorted order
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
    for i, line in enumerate(lines[1:-1], 2):
        comma = "," if i < len(lines) - 1 else ""
        assert re.fullmatch(r'  "[a-z_]+": [^\s,]+' + comma, line), line
    assert payload["regime"] == "DDD"
    assert payload["verdict"] in {"two_sided_pass", "two_sided_fail", "not_applicable",
                                  "inconclusive"}
    assert 0.9 <= payload["alpha_fit"] / (2 * abs(payload["abscissa"])) <= 1.1


@pytest.mark.parametrize("name", ["ddd", "udu", "conservative"])
def test_decay_reports_the_spectrum_that_spectrum_writes(tmp_path, name):
    config = str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
    mesh = ["--n1", "40", "--n2", "40", "--n3", "40", "--out-dir", str(tmp_path)]
    assert cli.main(["spectrum", "--config", config, *mesh]) == 0
    assert cli.main(["decay", "--config", config, *mesh]) == 0
    last = (tmp_path / "spectrum.csv").read_text().splitlines()[-1]
    last_re, last_im = map(float, last.split(","))
    payload = json.loads((tmp_path / "decay.json").read_text())
    assert payload["abscissa"] == payload["mode_re"] == last_re
    assert payload["mode_im"] == last_im


@pytest.mark.parametrize("command", ["simulate", "spectrum", "decay"])
def test_undamped_default_paths_build_no_dense_pencil_matrix(tmp_path, monkeypatch, command):
    """simulate, spectrum and decay run on the stored bands alone: the
    package's one dense view of a band, fem._dense, raises here."""
    def dense(*args):
        raise AssertionError("an N x N pencil matrix was built")

    for module in (fem, spectral):
        monkeypatch.setattr(module, "_dense", dense)
    config = str(Path(__file__).resolve().parents[1] / "configs" / "conservative.cfg")
    assert cli.main([command, "--config", config, "--n1", "10", "--n2", "10", "--n3", "10",
                     "--out-dir", str(tmp_path)]) == 0


def test_verify_passes_and_is_reproducible(tmp_path, config_file):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    p1 = run_cli("verify", "--config", config_file,
                 "--n1", "6", "--n2", "6", "--n3", "6", "--out-dir", str(out1))
    p2 = run_cli("verify", "--config", config_file,
                 "--n1", "6", "--n2", "6", "--n3", "6", "--out-dir", str(out2))
    assert p1.returncode == 0, p1.stderr
    assert p2.returncode == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2
    # stdout mentions the out-dir, so compare everything except that line
    trim = lambda s: [ln for ln in s.splitlines() if "report.json" not in ln]
    assert trim(p1.stdout) == trim(p2.stdout)
    payload = json.loads(r1)
    assert list(payload) == [  # the exact keys, written in sorted order
        "abscissa", "all_pass", "alpha_bound", "alpha_fit", "alpha_scheme", "dt",
        "invariant_results", "mesh", "r_squared", "regime", "t_final", "verdict",
    ]
    # fully damped: the step balance and the spectrum gap
    assert [r["name"] for r in payload["invariant_results"]] == [
        "dynamics.step_energy_balance", "spectral.string_damping_spectrum_gap"]
    assert p1.stdout.count("PASS") == 2
    assert "FAIL" not in p1.stdout
    assert payload["all_pass"] is True


@pytest.mark.parametrize("name", ["ddd", "udu", "conservative"])
def test_verify_passes_on_the_shipped_configs_at_80_elements(tmp_path, name):
    """The step balance's roundoff grows with the mesh, and so does its
    derived bound: every shipped config passes at 80 elements per member.
    Each report lists the checks its config can fail: the spectrum gap
    on ddd and udu."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
    assert cli.main(["verify", "--config", config, "--n1", "80", "--n2", "80", "--n3", "80",
                     "--out-dir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["invariant_results"]
    assert [r["name"] for r in rows] == ["dynamics.step_energy_balance"] + (
        ["spectral.string_damping_spectrum_gap"] if name != "conservative" else [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["ddd", "udu", "conservative"])
@pytest.mark.parametrize("command", ["simulate", "spectrum", "resolvent", "decay", "verify"])
def test_every_command_runs_on_the_smallest_mesh(tmp_path, name, command):
    """One element per member gives N = 4 unknowns and half-bandwidth 2, so
    2b + 1 > N and the banded products run on zero-padded rows. Every
    command exits 0 there with warnings as errors."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
    _, pencil = bb.discretize(read_config(config), 1, 1, 1)
    assert (pencil.n_positions, pencil.bandwidth) == (4, 2)
    assert cli.main([command, "--config", config, "--n1", "1", "--n2", "1", "--n3", "1",
                     "--out-dir", str(tmp_path)]) == 0


def test_verify_fails_on_a_failed_decay_verdict(tmp_path, config_file, capsys):
    """At dt = 2 on ddd every invariant passes, but dt |mu| is far above 0.1:
    the dt does not resolve the mode, and the inconclusive verdict fails
    verify."""
    out = tmp_path / "out"
    rc = cli.main(["verify", "--config", config_file, "--n1", "8", "--n2", "8", "--n3", "8",
                   "--dt", "2", "--out-dir", str(out)])
    payload = json.loads((out / "report.json").read_text())
    assert payload["verdict"] == "inconclusive"
    assert all(r["passed"] for r in payload["invariant_results"])
    assert payload["all_pass"] is False
    assert rc == 1
    assert "CHECKS FAILED" in capsys.readouterr().out


def test_exit_code_for_model_errors(tmp_path):
    path = tmp_path / "disorder.cfg"
    path.write_text(CONFIG.replace("l1 = 1.0", "l1 = 2.5"))
    proc = run_cli("spectrum", "--config", str(path), "--n1", "2", "--n2", "2", "--n3", "2")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


@pytest.mark.parametrize("command,rho1", [("decay", "1e150"), ("verify", "1e300"),
                                          ("verify", "1.7e308")])
def test_overflow_is_a_model_error(tmp_path, command, rho1):
    # rho1 = 1e150 and 1e300 swamp the stiffness, so the slowest mode is
    # roundoff of the spectrum's scale; at 1.7e308 the band of D itself
    # overflows, which assembly refuses
    path = tmp_path / "stiff.cfg"
    path.write_text(CONFIG.replace("rho1 = 1.0", f"rho1 = {rho1}"))
    proc = run_cli(command, "--config", str(path), "--n1", "4", "--n2", "4", "--n3", "4",
                   "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,t_final", [("simulate", []), ("decay", ["--t-final", "1"])])
def test_a_step_count_whose_record_cannot_be_allocated_is_a_model_error(
        tmp_path, command, t_final):
    """t_final/dt = 1e301 and 1e300 are finite, so the step-count check
    passes them, but numpy refuses a record that long without allocating: one
    error line naming the step count, exit 1."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / "ddd.cfg")
    proc = run_cli(command, "--config", config, "--n1", "4", "--n2", "4", "--n3", "4",
                   "--dt", "1e-300", *t_final, "--out-dir", str(tmp_path))
    assert proc.returncode == 1
    steps = "1e+301" if command == "simulate" else "1e+300"
    assert proc.stderr == f"error: the energy record of {steps} steps does not fit in memory\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edits,message", [
    ({"l1": "1e-300", "l2": "1", "l3": "2"},
     "beam-1: the beam_bending matrix is not finite at element length 2.5e-301"),
    ({"l1": "1", "l2": "2", "l3": "1e300"},
     "beam-2: the beam_mass matrix is not finite at element length 2.5e+299"),
    ({"l0": "-1e200", "l1": "0", "l2": "1", "l3": "1e200"},
     "beam-1: the beam_mass matrix is not finite at element length 2.5e+199"),
    ({"l1": "1e-308", "l2": "1", "l3": "2"},
     "beam-1: the beam_bending matrix is not finite at element length 2.5e-309"),
    ({"rho1": "1e308"}, "beam-1: the damping band is not finite at rho1 = 1e+308"),
    ({"l1": "1e-323", "l2": "1", "l3": "2"},
     "beam-1: element length must be finite and > 0, got 0.0"),
], ids=["l1=1e-300", "l3=1e300", "l0=-1e200,l3=1e200", "l1=1e-308", "rho1=1e308", "l1=1e-323"])
def test_extreme_geometry_is_a_model_error(tmp_path, capsys, edits, message):
    """Valid geometry whose element lengths make a beam element matrix
    under- or overflow (bending scales as h^-3, mass down to h^3), or a
    damping coefficient that overflows the band of D, is refused by
    assembly, naming the member and the length or coefficient: one error
    line, exit 1 and no numpy warning, in every command that assembles a
    pencil. So is an element length that rounds to 0 (a beam 1e-323 long
    on four elements)."""
    text = CONFIG
    for key, value in edits.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    path = tmp_path / "extreme.cfg"
    path.write_text(text)
    for command in ("simulate", "spectrum", "resolvent", "decay", "verify"):
        assert cli.main([command, "--config", str(path), "--n1", "4", "--n2", "4", "--n3", "4",
                         "--out-dir", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


HUGE, INT64_MAX = "99999999999999999999", str(2**63 - 1)


@pytest.mark.parametrize("argv,what", [
    (["resolvent", "--lambda-steps", HUGE], "a grid of 1e+20 axis points"),
    (["resolvent", "--lambda-steps", INT64_MAX], "a grid of 9.22337e+18 axis points"),
    (["simulate", "--n2", HUGE], "a mesh of 1e+20 elements on n2"),
    (["verify", "--n2", INT64_MAX], "a mesh of 9.22337e+18 elements on n2"),
    (["spectrum", "--n1", HUGE], "a mesh of 1e+20 elements on n1"),
    (["spectrum", "--n1", INT64_MAX], "a mesh of 9.22337e+18 elements on n1"),
    (["decay", "--n3", INT64_MAX], "a mesh of 9.22337e+18 elements on n3"),
])
def test_a_count_whose_array_cannot_be_allocated_is_a_model_error(tmp_path, capsys, argv, what):
    """numpy refuses these lengths without allocating. np.arange and
    np.linspace raised deep inside on them or, at 2**63 - 1 points, returned
    an empty array; now each is one error line naming the count, exit 1."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / "ddd.cfg")
    mesh = [arg for flag in ("--n1", "--n2", "--n3") if flag not in argv for arg in (flag, "4")]
    assert cli.main([*argv, *mesh, "--config", config, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {what} does not fit in memory\n"


def test_exit_code_for_usage_errors(tmp_path, config_file):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG + "zeta = 9\n")
    proc = run_cli("spectrum", "--config", str(path))
    assert proc.returncode == 2
    assert "unknown key" in proc.stderr
    proc = run_cli("decay", "--config", config_file, "--dt", "abc")
    assert proc.returncode == 2
    assert "argument --dt: invalid float value: 'abc'" in proc.stderr


def test_an_unusable_out_dir_is_a_usage_error(tmp_path, config_file, capsys):
    """An out-dir that is a file, one below a file, and one holding a
    directory where the output file goes: one usage-error line naming the
    path, exit 2, no traceback."""
    taken = tmp_path / "taken"
    taken.mkdir()
    (taken / "spectrum.csv").mkdir()
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    for out_dir, lead in ((a_file, f"cannot create output directory {a_file}: "),
                          (a_file / "x", f"cannot create output directory {a_file / 'x'}: "),
                          (taken, f"cannot write output file {taken / 'spectrum.csv'}: ")):
        assert cli.main(["spectrum", "--config", config_file, "--n1", "2", "--n2", "2",
                         "--n3", "2", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {lead}") and err.count("\n") == 1, err
    assert a_file.read_text() == ""


def test_run_function_returns_exit_codes(tmp_path, config_file):
    spec = parse_args(["spectrum", "--config", config_file,
                       "--n1", "2", "--n2", "2", "--n3", "2",
                       "--out-dir", str(tmp_path / "x")])
    assert cli.run(spec) == 0
    spec = parse_args(["spectrum", "--config", "/no/such/file.cfg"])
    assert cli.run(spec) == 2


def test_only_module_errors_exit_with_status_one(tmp_path, config_file, monkeypatch):
    spec = parse_args(["spectrum", "--config", config_file,
                       "--n1", "2", "--n2", "2", "--n3", "2",
                       "--out-dir", str(tmp_path / "x")])

    def fail(exc):
        def raiser(*args, **kwargs):
            raise exc
        return raiser

    # a plain ValueError is a programming error, not a model error
    monkeypatch.setattr(cli, "eigenvalues", fail(ValueError("not a module error")))
    with pytest.raises(ValueError, match="not a module error"):
        cli.run(spec)
    for error in (bb.ModelError("bad"), bb.NumericalError("bad")):
        monkeypatch.setattr(cli, "eigenvalues", fail(error))
        assert cli.run(spec) == 1


def test_every_package_error_is_a_bsblab_error():
    """cli.run maps BsblabError to exit 1, and the package defines exactly
    two kinds of it: ModelError, a ValueError, and NumericalError, a
    RuntimeError."""
    errors = {obj for module in (model, fem, dynamics, spectral, analysis)
              for obj in vars(module).values()
              if isinstance(obj, type) and issubclass(obj, BaseException)
              and obj.__module__ == module.__name__}
    assert errors == {bb.BsblabError, bb.ModelError, bb.NumericalError}
    assert issubclass(bb.ModelError, bb.BsblabError)
    assert issubclass(bb.ModelError, ValueError)
    assert issubclass(bb.NumericalError, bb.BsblabError)
    assert issubclass(bb.NumericalError, RuntimeError)


def test_an_unresolved_dt_is_inconclusive(tmp_path, capsys):
    """On ddd.cfg at n = 10, dt = 1.01 * 0.1/|mu| does not resolve the slowest
    mode: decay exits 0 and writes inconclusive with the three fitted keys
    nan, and verify writes the same verdict, all_pass false, and exits 1."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / "ddd.cfg")
    _, pencil = bb.discretize(read_config(config), 10, 10, 10)
    dt = 1.01 * 0.1 / float(abs(spectral.eigenvalues(pencil).eigenvalues[-1]))
    args = ["--config", config, "--n1", "10", "--n2", "10", "--n3", "10", "--dt", repr(dt)]
    assert cli.main(["decay", *args, "--out-dir", str(tmp_path / "decay")]) == 0
    decay = json.loads((tmp_path / "decay" / "decay.json").read_text())
    assert decay["verdict"] == "inconclusive" and decay["dt"] == dt
    assert all(decay[k] == "nan" for k in ("alpha_fit", "alpha_bound", "r_squared"))
    assert cli.main(["verify", *args, "--out-dir", str(tmp_path / "verify")]) == 1
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    assert report["verdict"] == "inconclusive" and report["all_pass"] is False
    assert "CHECKS FAILED" in capsys.readouterr().out
