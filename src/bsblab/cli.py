"""Command line front end.

Five subcommands: simulate, spectrum, resolvent, decay, verify. All read
the structure from a key = value config file (keys l0, l1, l2, l3, rho1,
rho2, beta; anything else is rejected) and write CSV or JSON files into
--out-dir. Every float is written with 17 significant digits so the
files round-trip exactly, and nothing depends on time or environment:
repeating an invocation reproduces the outputs byte for byte. A flag left
out takes its RunSpec default. decay.json and report.json both come from
the analysis module's one JSON writer: decay writes the DecayCertificate,
verify the VerificationReport that holds it.

Exit codes: 0 success; 2 for a command line, config file or out-dir that
cannot be used; 1 for a failed verify and for the package's two errors: a
ModelError (a value out of range; the package makes every range check) or
a NumericalError (a factorization, solve or eigensolve broke down).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import spectral
from .analysis import certify_decay, cross_validate, render_decay, render_report
from .dynamics import DEFAULT_T_FINAL, default_dt, simulate
from .fem import discretize, interpolate, nodal_field
from .model import BsblabError, StructureConfig, classify_damping
from .spectral import axis_grid, eigenvalues, resolvent_sweep


class UsageError(Exception):
    """A command line, config file or out-dir that cannot be used; exit 2."""


_CONFIG_KEYS = ("l0", "l1", "l2", "l3", "rho1", "rho2", "beta")

def read_config(path: str) -> StructureConfig:
    """Parse the key = value config file into a StructureConfig.

    Blank lines and # comments are skipped; unknown, duplicate or missing
    keys and unparseable numbers raise UsageError; values the model
    refuses raise ModelError from StructureConfig.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(known keys: {', '.join(_CONFIG_KEYS)})"
            )
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(val)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: cannot parse number {val!r}") from exc
    missing = [k for k in _CONFIG_KEYS if k not in values]
    if missing:
        raise UsageError(f"{path}: missing keys: {', '.join(missing)}")
    return StructureConfig(**values)


@dataclass
class RunSpec:
    """Parsed invocation: subcommand plus every knob it may consume."""

    command: str
    config_path: str
    n1: int = 40
    n2: int = 40
    n3: int = 40
    out_dir: str = "."
    dt: float | None = None
    t_final: float | None = None
    snapshot_every: int = 0
    lambda_min: float = -50.0
    lambda_max: float = 50.0
    lambda_steps: int = 2001


class _Parser(argparse.ArgumentParser):
    # route every argparse failure through UsageError so exit codes stay
    # uniform whether the problem is an unknown flag or a bad value
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_args(argv) -> RunSpec:
    parser = _Parser(prog="bsblab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="{simulate,spectrum,resolvent,decay,verify}")

    def add(name, help_text):
        # no argparse defaults: a flag left out is absent from the namespace
        # and takes its RunSpec default, so each default is written once
        sub = subs.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sub.add_argument("--config", required=True, dest="config_path",
                         help="key = value structure file")
        sub.add_argument("--n1", type=int, help="elements on the first beam")
        sub.add_argument("--n2", type=int, help="elements on the string")
        sub.add_argument("--n3", type=int, help="elements on the second beam")
        sub.add_argument("--out-dir", help="output directory (created if missing)")
        return sub

    def add_run(name, help_text):
        sub = add(name, help_text)
        sub.add_argument("--dt", type=float)
        sub.add_argument("--t-final", type=float)
        return sub

    sim = add_run("simulate", "trapezoidal run from the canonical initial state")
    sim.add_argument("--snapshot-every", type=int,
                     help="write the nodal state every this many steps (0 disables)")

    add("spectrum", "all pencil eigenvalues")

    res = add("resolvent", "resolvent norms along the imaginary axis")
    res.add_argument("--lambda-min", type=float)
    res.add_argument("--lambda-max", type=float)
    res.add_argument("--lambda-steps", type=int)

    add_run("decay", "slowest-mode decay rate vs spectral abscissa")

    add_run("verify", "invariant sweep and decay verdict; exit 0 iff all pass")

    return RunSpec(**vars(parser.parse_args(argv)))


# --- output helpers ---------------------------------------------------------

def _fmt(x) -> str:
    # + 0.0 folds negative zero into plain zero
    return format(float(x) + 0.0, ".17g")


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    with _open_output(path) as fh:
        fh.write(text)


_ROWS_PER_WRITE = 4096  # no file is held whole


def _write_csv(path: str, header: str, blocks) -> None:
    """The header, then each block, a tuple of equal-length columns, as %.17g
    rows, stacked and formatted by one template _ROWS_PER_WRITE rows at a
    time; + 0.0 folds negative zero as _fmt does."""
    with _open_output(path) as fh:
        fh.write(header + "\n")
        for block in blocks:
            row = ",".join(["%.17g"] * len(block)) + "\n"
            for start in range(0, len(block[0]), _ROWS_PER_WRITE):
                chunk = np.column_stack([c[start:start + _ROWS_PER_WRITE] for c in block]) + 0.0
                fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _prepare(spec: RunSpec):
    cfg = read_config(spec.config_path)
    mesh, pencil = discretize(cfg, spec.n1, spec.n2, spec.n3)
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {spec.out_dir}: {exc}") from exc
    return cfg, mesh, pencil


def _warn_if_unresolved(report) -> None:
    """Warn on stderr of a spectrum decay refuses (spectral.slowest_mode_unresolved)."""
    if spectral.slowest_mode_unresolved(report):
        print(f"warning: the slowest eigenvalue has |mu| = {_fmt(abs(report.eigenvalues[-1]))}, "
              "within eps max|mu| of 0; the spectrum is not resolved", file=sys.stderr)


# --- subcommands ------------------------------------------------------------

def _cmd_simulate(spec: RunSpec) -> int:
    cfg, mesh, pencil = _prepare(spec)
    dt = spec.dt if spec.dt is not None else default_dt(cfg)
    t_final = spec.t_final if spec.t_final is not None else DEFAULT_T_FINAL
    y0 = interpolate(cfg, mesh)
    sim = simulate(pencil, y0, dt, t_final, snapshot_every=spec.snapshot_every)
    tr = sim.trace

    path = os.path.join(spec.out_dir, "energy.csv")
    _write_csv(path, "t,E,dissipation,F", [(tr.times, tr.energy, tr.dissipation, tr.cross)])
    written = [path]

    if spec.snapshot_every > 0:
        path = os.path.join(spec.out_dir, "snapshots.csv")
        nodes = mesh.n1 + mesh.n2 + mesh.n3 + 1
        _write_csv(path, "t,x,displacement,velocity",
                   ((np.full(nodes, t), *nodal_field(state, mesh)) for t, state in sim.snapshots))
        written.append(path)

    print(f"simulate: {len(tr.times) - 1} steps, dt = {_fmt(dt)}, "
          f"E(0) = {_fmt(tr.energy[0])}, E(end) = {_fmt(tr.energy[-1])}")
    for p in written:
        print(f"wrote {p}")
    return 0


def _cmd_spectrum(spec: RunSpec) -> int:
    cfg, mesh, pencil = _prepare(spec)
    report = eigenvalues(pencil)
    path = os.path.join(spec.out_dir, "spectrum.csv")
    _write_csv(path, "re,im", [(report.eigenvalues.real, report.eigenvalues.imag)])
    print(f"spectrum: {report.eigenvalues.size} eigenvalues ({classify_damping(cfg).value}), "
          f"abscissa = {_fmt(report.abscissa)}")
    print(f"wrote {path}")
    _warn_if_unresolved(report)
    return 0


def _cmd_resolvent(spec: RunSpec) -> int:
    cfg, mesh, pencil = _prepare(spec)
    grid = axis_grid(spec.lambda_min, spec.lambda_max, spec.lambda_steps)
    report = eigenvalues(pencil)
    table = resolvent_sweep(report, grid)
    path = os.path.join(spec.out_dir, "resolvent.csv")
    _write_csv(path, "lambda,norm", [(table.lambdas, table.norms)])
    print(f"resolvent: grid maximum over [{_fmt(spec.lambda_min)}, {_fmt(spec.lambda_max)}] "
          f"({spec.lambda_steps} points, {table.distinct_points} distinct |lambda|, "
          f"{table.total_iterations} Lanczos iterations, at most "
          f"{int(table.iterations.max())} per point) = {_fmt(table.sup)}")
    print(f"resolvent: first grid maximum at lambda = "
          f"{_fmt(table.lambdas[int(np.argmax(table.norms))])}, "
          f"abscissa = {_fmt(report.abscissa)}")
    print(f"wrote {path}")
    _warn_if_unresolved(report)
    return 0


def _verdict_line(cert) -> str:
    # the quantities the verdict compares: |alpha_fit - alpha_scheme| <= alpha_bound < alpha_fit
    return (f"alpha_fit = {_fmt(cert.alpha_fit)}, alpha_scheme = {_fmt(cert.alpha_scheme)}, "
            f"alpha_bound = {_fmt(cert.alpha_bound)}, verdict = {cert.verdict}")


def _cmd_decay(spec: RunSpec) -> int:
    cfg, mesh, pencil = _prepare(spec)
    cert = certify_decay(cfg, pencil, dt=spec.dt, t_final=spec.t_final)
    path = os.path.join(spec.out_dir, "decay.json")
    _write_text(path, render_decay(cert))
    print(f"decay: {_verdict_line(cert)}")
    print(f"wrote {path}")
    return 0


def _cmd_verify(spec: RunSpec) -> int:
    cfg, mesh, pencil = _prepare(spec)
    report = cross_validate(cfg, mesh, pencil, dt=spec.dt, t_final=spec.t_final)
    path = os.path.join(spec.out_dir, "report.json")
    _write_text(path, render_report(report))
    for r in report.invariant_results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} (residual = {_fmt(r.residual)})")
    outcome = "all checks passed" if report.all_pass else "CHECKS FAILED"
    print(f"verify: {outcome}; regime = {report.certificate.regime}, "
          f"{_verdict_line(report.certificate)}")
    print(f"wrote {path}")
    return 0 if report.all_pass else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "resolvent": _cmd_resolvent,
    "decay": _cmd_decay,
    "verify": _cmd_verify,
}


def run(spec: RunSpec) -> int:
    """Execute a parsed invocation; returns the process exit code."""
    try:
        return _COMMANDS[spec.command](spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BsblabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        spec = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(spec)
