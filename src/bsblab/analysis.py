"""Decay-rate fitting, decay certification, and the verification report.

The certification loop is: take the eigenpair with the largest real part,
propagate it with the energy-exact trapezoidal scheme, fit a line to
(t, log E), and compare the fitted rate alpha against twice the spectral
abscissa. For a clean single mode the trace is log-linear to roundoff and
the ratio sits at 1 up to the O((dt |mu|)^2) distortion of the scheme.

Alongside the decay run, cross_validate executes one named check per
invariant that depends on the run (config, mesh, spectrum, simulation);
invariants that hold whatever the run live in the unit tests. It returns
everything as a VerificationReport; the CLI turns that into report.json
and an exit status.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import dynamics, fem, spectral
from .dynamics import (
    EnergyTrace,
    SimOutput,
    default_dt,
    simulate,
    step_trapezoidal,
)
from .fem import DofMap, Mesh, StateVector, SystemPencil
from .model import DampingCase, StructureConfig, default_initial_data
from .spectral import eigenvalues


class NonpositiveEnergy(ValueError):
    """log E is undefined: the fit window contains E <= 0."""


class WindowTooSmall(ValueError):
    """Fewer than 10 trace samples fall inside the fit window."""


@dataclass
class DecayFit:
    """Least-squares line through (t, log E): E(t) ~ exp(log_c - alpha t)."""

    alpha: float
    log_c: float
    r_squared: float
    window: tuple
    n_samples: int


def fit_decay(trace: EnergyTrace, window: tuple | None = None) -> DecayFit:
    """Fit log E(t) over a time window, default [0.2, 0.9] * t_end.

    Plain normal equations; raises WindowTooSmall below 10 samples and
    NonpositiveEnergy when the window holds a nonpositive energy value.
    """
    t_end = float(trace.times[-1])
    if window is None:
        window = (0.2 * t_end, 0.9 * t_end)
    lo, hi = float(window[0]), float(window[1])
    mask = (trace.times >= lo) & (trace.times <= hi)
    n = int(np.count_nonzero(mask))
    if n < 10:
        raise WindowTooSmall(f"window [{lo}, {hi}] holds {n} samples, need >= 10")
    e = trace.energy[mask]
    if np.any(e <= 0):
        raise NonpositiveEnergy("window contains nonpositive energy values")
    t = trace.times[mask]
    y = np.log(e)
    tc = t - t.mean()
    yc = y - y.mean()
    slope = float((tc @ yc) / (tc @ tc))
    intercept = float(y.mean() - slope * t.mean())
    ss_res = float(np.sum((yc - slope * tc) ** 2))
    ss_tot = float(yc @ yc)
    if ss_tot > 0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res <= 1e-28 else 0.0
    return DecayFit(alpha=-slope, log_c=intercept, r_squared=r_squared,
                    window=(lo, hi), n_samples=n)


@dataclass
class InvariantResult:
    name: str
    passed: bool
    residual: float
    note: str = ""


@dataclass
class VerificationReport:
    regime: str
    abscissa: float
    min_axis_distance: float
    alpha_fit: float
    ratio: float
    r_squared: float
    ratio_check: str
    dt: float
    t_final: float
    mesh_counts: tuple
    invariant_results: list

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.invariant_results)


# ratio bounds per regime for the two-sided check; the one-sided fallback
# (used when the fit quality drops, e.g. a defective slowest mode) accepts
# alpha >= 1.8 |abscissa| (1 - 0.05).
_RATIO_BOUNDS = {
    DampingCase.DDD: (0.9, 1.1),
    DampingCase.UDU: (0.8, 1.2),
    DampingCase.OTHER: (0.9, 1.1),
}
_R2_THRESHOLD = 0.999


def _numerically_undamped(spect) -> bool:
    """Whether the abscissa is rounding-level relative to the spectrum.

    Damping confined to part of the structure can leave discrete modes
    with |Re| at eigensolver noise (1e-10 of the eigenvalue scale keeps
    two orders of margin against noise on one side and against the
    weakest genuinely damped case measured on the other). Fitting a rate
    against such an abscissa compares rounding with rounding, so rate
    certification is declared not applicable.
    """
    scale = max(1.0, float(np.abs(spect.eigenvalues).max()))
    return abs(spect.abscissa) <= 1e-10 * scale


def _ratio_check(regime: DampingCase, fit: DecayFit, spect, ratio: float) -> str:
    if fit.r_squared >= _R2_THRESHOLD:
        lo, hi = _RATIO_BOUNDS[regime]
        return "two_sided_pass" if lo <= ratio <= hi else "two_sided_fail"
    ok = fit.alpha >= 1.8 * abs(spect.abscissa) * 0.95
    return "one_sided_pass" if ok else "one_sided_fail"


@dataclass
class DecayCertificate:
    """Measured energy decay of the slowest mode against the spectrum.

    alpha_fit is the fitted energy rate, ratio its quotient by twice the
    spectral abscissa (nan when conservative), and ratio_check the verdict
    string (two_sided_pass and friends).
    """

    regime: str
    abscissa: float
    mode: complex
    alpha_fit: float
    ratio: float
    r_squared: float
    ratio_check: str
    dt: float
    t_final: float


def _certify(cfg: StructureConfig, pencil: SystemPencil,
             dt: float | None, t_final: float | None):
    """Slowest-mode run with a timestep that resolves the mode, fitted and judged.

    Returns the certificate, the spectrum report (its last eigenvalue is
    the mode), the complex unit-energy mode state and the run.

    The default dt is min(1e-3 slowest-string-period, 0.1/|mu|); the
    trapezoidal rate distortion is then at most (0.1)^2/4, a quarter of a
    percent. The default duration covers 25 e-foldings of the mode but is
    clamped to [200, 10000] steps. Explicit dt or t_final win over the
    defaults. When there is no decay to fit (conservative regime, or an
    abscissa at eigensolver noise) the ratio is nan and the verdict
    not_applicable.
    """
    spect = eigenvalues(pencil)
    mu = complex(spect.eigenvalues[-1])
    y0 = spectral._eigenmode(pencil, mu)
    if dt is None:
        dt = min(default_dt(cfg), 0.1 / max(abs(mu), 1e-12))
    if t_final is None:
        t_final = 10.0
        if mu.real != 0:
            t_final = min(t_final, 25.0 / (2.0 * abs(mu.real)))
        steps = min(10000, max(200, int(round(t_final / dt))))
        t_final = steps * dt
    sim = simulate(pencil, y0, dt, t_final)
    fit = fit_decay(sim.trace)
    regime = pencil.regime
    if regime is DampingCase.CONSERVATIVE or _numerically_undamped(spect):
        ratio, verdict = math.nan, "not_applicable"
    else:
        ratio = fit.alpha / (2.0 * abs(spect.abscissa))
        verdict = _ratio_check(regime, fit, spect, ratio)
    cert = DecayCertificate(
        regime=regime.value,
        abscissa=spect.abscissa,
        mode=mu,
        alpha_fit=fit.alpha,
        ratio=ratio,
        r_squared=fit.r_squared,
        ratio_check=verdict,
        dt=dt,
        t_final=t_final,
    )
    return cert, spect, y0, sim


def certify_decay(
    cfg: StructureConfig,
    pencil: SystemPencil,
    dt: float | None = None,
    t_final: float | None = None,
) -> DecayCertificate:
    """Run the slowest mode, fit its decay, compare with the abscissa.

    The lightweight sibling of cross_validate: same certificate, none of
    the invariant sweep.
    """
    return _certify(cfg, pencil, dt, t_final)[0]


@dataclass
class _Context:
    cfg: StructureConfig
    mesh: Mesh
    dofs: DofMap
    pencil: SystemPencil
    spect: spectral.SpectrumReport
    sim: SimOutput
    mode_state: StateVector
    dt: float


def _plateau_state(ctx: _Context) -> StateVector:
    return fem.interpolate(default_initial_data(ctx.cfg), ctx.mesh, ctx.dofs)


def _check_gram_matrices_spd(ctx):
    """S, M and D are exactly symmetric.

    Read off the general bands: A[j, j + k] sits in row b - k of column
    j + k and A[j + k, j] in row b + k of column j, so diagonal k of each
    band must equal diagonal -k. Definiteness needs no check of its own:
    _certify whitens before any check runs, and whitening Cholesky-factors
    S and M or raises FactorizationFailure. Symmetry of S is what makes
    Re(y^H K y) = -q^H D q hold by the block form of K, and symmetry of D
    what makes the dissipation a real quadratic form.
    """
    b, n = ctx.pencil.bandwidth, ctx.pencil.n_positions
    ok = all(np.array_equal(ab[b - k, k:], ab[b + k, :n - k])
             for ab in (ctx.pencil.s_band, ctx.pencil.m_band, ctx.pencil.d_band)
             for k in range(1, b + 1))
    return ok, 0.0 if ok else 1.0, "exact symmetry of S, M and D; definiteness by the whitening"


def _check_interpolation_nesting(ctx):
    data = default_initial_data(ctx.cfg)
    coarse = dynamics.energy(ctx.pencil, _plateau_state(ctx))
    mesh2, dofs2, pencil2 = fem.discretize(
        ctx.cfg, 2 * ctx.mesh.n1, 2 * ctx.mesh.n2, 2 * ctx.mesh.n3
    )
    fine = dynamics.energy(pencil2, fem.interpolate(data, mesh2, dofs2))
    resid = abs(fine - coarse) / max(abs(coarse), 1e-300)
    # the two interpolants are the same function, so the gap is pure
    # rounding; it grows like eps/h^3 through the bending entries and
    # reaches ~1e-8 around 100 elements per member, while a genuine
    # nesting bug shows up at 1e-3 or worse
    return resid <= 1e-6, resid, "plateau data on mesh and its refinement"


def _check_step_energy_balance(ctx):
    dt = ctx.dt
    sim = simulate(ctx.pencil, _plateau_state(ctx), dt, 50 * dt, snapshot_every=1)
    states = [y for _, y in sim.snapshots]
    worst = 0.0
    for y, y_next in zip(states, states[1:]):
        mid = StateVector(0.5 * (y.p + y_next.p), 0.5 * (y.q + y_next.q))
        e = dynamics.energy(ctx.pencil, y)
        resid = abs(
            dynamics.energy(ctx.pencil, y_next) - e - dt * dynamics.dissipation(ctx.pencil, mid)
        )
        worst = max(worst, resid / max(e, 1e-300))
    return worst <= 1e-9, worst, "50 trapezoidal steps, midpoint identity"


def _check_energy_monotone(ctx):
    e = ctx.sim.trace.energy
    if ctx.pencil.regime is DampingCase.CONSERVATIVE:
        resid = abs(float(e[-1]) / float(e[0]) - 1.0)
        return resid <= 1e-9, resid, "undamped: relative drift over the run"
    upticks = float(np.max(np.diff(e), initial=0.0))
    resid = max(0.0, upticks) / max(float(e[0]), 1e-300)
    return resid <= 1e-9, resid, "damped: largest uptick, relative"


def _check_time_reversal(ctx):
    cfg0 = dataclasses.replace(ctx.cfg, rho1=0.0, rho2=0.0, beta=0.0)
    pencil0 = fem.assemble_pencil(cfg0, ctx.mesh, ctx.dofs)
    y0 = _plateau_state(ctx)
    dt = default_dt(ctx.cfg)
    y1 = step_trapezoidal(pencil0, y0, dt)
    y2 = step_trapezoidal(pencil0, y1, -dt)
    resid = float(np.linalg.norm(y2.to_array() - y0.to_array())
                  / np.linalg.norm(y0.to_array()))
    return resid <= 1e-8, resid, "undamped twin, one step forward and back"


def _check_whitening_consistency(ctx):
    _, _, small = fem.discretize(ctx.cfg, 3, 3, 3)
    mu_w = eigenvalues(small).eigenvalues
    mu_g = scipy.linalg.eigvals(small.K, small.B)
    scale = max(1.0, float(np.max(np.abs(mu_g))))
    # both directions: every whitened value near a QZ value and vice versa,
    # so a spectrum collapsed onto a few QZ values cannot pass
    gaps = np.abs(mu_w[:, None] - mu_g[None, :])
    worst = max(float(gaps.min(axis=1).max()), float(gaps.min(axis=0).max())) / scale
    return worst <= 1e-8, worst, "whitened eigensolve vs QZ on a coarse twin"


def _check_string_damping_spectrum_gap(ctx):
    mu = ctx.spect.eigenvalues
    if ctx.pencil.regime is not DampingCase.UDU:
        return True, 0.0, "only meaningful when damping is confined to the string"
    band = mu[np.abs(mu.imag) <= 50.0]
    band_min = float(np.min(np.abs(band.real))) if band.size else math.nan
    note = (f"min|Re| = {ctx.spect.min_axis_distance:.6g} overall, "
            f"{band_min:.6g} on |Im| <= 50")
    return bool(np.all(mu.real < 0)), float(np.max(mu.real)), note


def _check_resolvent_lower_bound(ctx):
    mu = ctx.spect.eigenvalues
    lambdas = np.array([-31.4, -5.0, 0.0, 3.7, 11.3, 26.9, 50.0])
    norms, _ = spectral._axis_norms(ctx.pencil, lambdas, ctx.spect.schur)
    worst = 0.0
    for lam, norm in zip(lambdas.tolist(), norms.tolist()):
        dist = float(np.min(np.abs(1j * lam - mu)))
        if dist == 0.0:
            if not math.isinf(norm):
                worst = max(worst, 1.0)
            continue
        if math.isinf(norm):
            continue
        worst = max(worst, (1.0 / dist) / norm - 1.0)
    return worst <= 1e-9, max(0.0, worst), "norm >= 1/dist(i lambda, spectrum)"


def _check_abscissa_nonpositive(ctx):
    scale = max(1.0, float(np.max(np.abs(ctx.spect.eigenvalues))))
    ok = ctx.spect.abscissa <= 1e-8 * scale
    return ok, ctx.spect.abscissa, "dissipativity bound on the spectrum"


def _check_fit_timestep_invariance(ctx):
    if ctx.pencil.regime is DampingCase.CONSERVATIVE:
        return True, 0.0, "no decay to fit in the conservative regime"
    if _numerically_undamped(ctx.spect):
        return True, 0.0, "slowest mode is numerically undamped, nothing to fit"
    t_short = 1000 * ctx.dt
    tr = ctx.sim.trace
    if tr.times.size >= 1001:
        # ctx.sim is the mode run: same pencil, start and dt, so its first
        # 1000 steps are bitwise the run simulate(mode_state, dt, t_short)
        a = fit_decay(EnergyTrace(times=tr.times[:1001], energy=tr.energy[:1001],
                                  dissipation=tr.dissipation[:1001], cross=tr.cross[:1001]))
    else:
        a = fit_decay(simulate(ctx.pencil, ctx.mode_state, ctx.dt, t_short).trace)
    b = fit_decay(simulate(ctx.pencil, ctx.mode_state, ctx.dt / 2, t_short).trace)
    denom = max(abs(a.alpha), 2.0 * abs(ctx.spect.abscissa), 1e-9)
    resid = abs(b.alpha - a.alpha) / denom
    return resid <= 0.01, resid, "alpha of the mode run under dt -> dt/2"


def _check_window_convergence(ctx):
    if ctx.pencil.regime is DampingCase.CONSERVATIVE:
        return True, 0.0, "no decay to fit in the conservative regime"
    if _numerically_undamped(ctx.spect):
        return True, 0.0, "slowest mode is numerically undamped, nothing to fit"
    t_end = float(ctx.sim.trace.times[-1])
    denom = 2.0 * abs(ctx.spect.abscissa)
    offsets = []
    for start in (0.2, 0.4, 0.6):
        f = fit_decay(ctx.sim.trace, window=(start * t_end, 0.9 * t_end))
        offsets.append(abs(f.alpha / denom - 1.0))
    ok = offsets[2] <= offsets[0] + 1e-6
    return ok, offsets[2], "|ratio - 1| at window starts 0.2, 0.4, 0.6"


_REGISTRY = [
    ("fem.gram_matrices_spd", _check_gram_matrices_spd),
    ("fem.interpolation_nesting", _check_interpolation_nesting),
    ("dynamics.step_energy_balance", _check_step_energy_balance),
    ("dynamics.energy_monotone", _check_energy_monotone),
    ("dynamics.time_reversal", _check_time_reversal),
    ("spectral.whitening_consistency", _check_whitening_consistency),
    ("spectral.string_damping_spectrum_gap", _check_string_damping_spectrum_gap),
    ("spectral.resolvent_lower_bound", _check_resolvent_lower_bound),
    ("spectral.abscissa_nonpositive", _check_abscissa_nonpositive),
    ("analysis.fit_timestep_invariance", _check_fit_timestep_invariance),
    ("analysis.window_convergence", _check_window_convergence),
]


def cross_validate(
    cfg: StructureConfig,
    mesh: Mesh,
    dofs: DofMap,
    pencil: SystemPencil,
    dt: float | None = None,
    t_final: float | None = None,
) -> VerificationReport:
    """Decay certification plus the full invariant sweep.

    Takes the certificate of certify_decay (the same slowest-mode run, fit
    and verdict) and evaluates every named invariant check once. When
    there is no decay to fit (conservative regime, or partial damping
    that leaves the abscissa at eigensolver noise) alpha comes out near
    zero, the ratio is reported as nan and the ratio check as
    not_applicable.
    """
    cert, spect, y0, sim = _certify(cfg, pencil, dt, t_final)
    ctx = _Context(cfg=cfg, mesh=mesh, dofs=dofs, pencil=pencil, spect=spect,
                   sim=sim, mode_state=y0, dt=cert.dt)
    results = []
    for name, check in _REGISTRY:
        passed, residual, note = check(ctx)
        results.append(InvariantResult(name=name, passed=bool(passed),
                                       residual=float(residual), note=note))

    return VerificationReport(
        regime=cert.regime,
        abscissa=cert.abscissa,
        min_axis_distance=spect.min_axis_distance,
        alpha_fit=cert.alpha_fit,
        ratio=cert.ratio,
        r_squared=cert.r_squared,
        ratio_check=cert.ratio_check,
        dt=cert.dt,
        t_final=cert.t_final,
        mesh_counts=(mesh.n1, mesh.n2, mesh.n3),
        invariant_results=results,
    )


# --- deterministic report rendering ----------------------------------------

def _json_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x + 0.0, ".17g")
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot render {type(value)}")


def render_report(report: VerificationReport) -> str:
    """report.json text: flat keys in fixed order plus the invariant array.

    Floats are written with 17 significant digits and non-finite values as
    the strings "nan"/"inf"/"-inf"; nothing in the payload depends on time
    or environment, so repeat runs are byte-identical.
    """
    lines = ["{"]
    flat = [
        ("abscissa", report.abscissa),
        ("all_pass", report.all_pass),
        ("alpha_fit", report.alpha_fit),
        ("dt", report.dt),
    ]
    for key, value in flat:
        lines.append(f'  "{key}": {_json_scalar(value)},')
    lines.append('  "invariant_results": [')
    for i, r in enumerate(report.invariant_results):
        tail = "," if i + 1 < len(report.invariant_results) else ""
        lines.append(
            "    {"
            + f'"name": {_json_scalar(r.name)}, '
            + f'"passed": {_json_scalar(r.passed)}, '
            + f'"residual": {_json_scalar(r.residual)}, '
            + f'"note": {_json_scalar(r.note)}'
            + "}" + tail
        )
    lines.append("  ],")
    n1, n2, n3 = report.mesh_counts
    lines.append(f'  "mesh": [{int(n1)}, {int(n2)}, {int(n3)}],')
    for key, value in [
        ("min_axis_distance", report.min_axis_distance),
        ("r_squared", report.r_squared),
        ("ratio", report.ratio),
        ("ratio_check", report.ratio_check),
        ("regime", report.regime),
        ("t_final", report.t_final),
    ]:
        lines.append(f'  "{key}": {_json_scalar(value)},')
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}")
    return "\n".join(lines) + "\n"
