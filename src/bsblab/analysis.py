"""Decay-rate fitting, decay certification, and the verification report.

The certification loop is: take the eigenpair with the largest real part,
propagate it with the energy-exact trapezoidal scheme, fit a line to
(t, log E), and require the fitted rate alpha to equal the trapezoidal
rule's exact rate of the mode (_scheme_rate) within a derived roundoff
bound (_rate_bound), and to exceed it. A dt above _DT_RESOLUTION/|mu|,
the default dt's rule, does not resolve the mode: no run, inconclusive.

The certificate is one record, DecayCertificate: certify_decay returns
it, decay.json is its fields and its verdict field holds the judgement;
a spectrum with nothing to fit gets no run.
Alongside the certificate, cross_validate calls each check the run can
fail: the step energy balance of a 50-step plateau run on every config,
and the spectrum gap when only the string is damped (UDU); invariants
that hold whatever the run live in the unit tests. It returns a
VerificationReport that holds the certificate next to one result per
check; report.json is the certificate's fields plus those of the
report. One writer, _render_json, produces the text of both files, so a
field added to DecayCertificate appears in both.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, fem, spectral
from .dynamics import DEFAULT_T_FINAL, EnergyTrace, default_dt, simulate
from .fem import Mesh, StateVector, SystemPencil
from .model import DampingCase, ModelError, StructureConfig, classify_damping
from .spectral import eigenvalues


@dataclass
class DecayFit:
    """Least-squares line through (t, log E): E(t) ~ exp(log_c - alpha t)."""

    alpha: float
    log_c: float
    r_squared: float
    window: tuple
    n_samples: int


_FIT_WINDOW = (0.2, 0.9)  # the fit window, in units of t_end
_DT_RESOLUTION = 0.1  # a dt resolves the mode mu when dt |mu| is at most this


def _fit_window(times: np.ndarray):
    """The fit window [0.2, 0.9] * t_end of sample times, and its mask."""
    lo, hi = _FIT_WINDOW[0] * float(times[-1]), _FIT_WINDOW[1] * float(times[-1])
    return (lo, hi), (times >= lo) & (times <= hi)


def fit_decay(trace: EnergyTrace) -> DecayFit:
    """Fit log E(t) over the window [0.2, 0.9] * t_end.

    Plain normal equations; raises ModelError below 10 samples in the
    window, and when the window holds a nonpositive energy value, where
    log E is undefined.
    """
    (lo, hi), mask = _fit_window(trace.times)
    n = int(np.count_nonzero(mask))
    if n < 10:
        raise ModelError(f"window [{lo}, {hi}] holds {n} samples, need >= 10")
    e = trace.energy[mask]
    if np.any(e <= 0):
        raise ModelError("window contains nonpositive energy values")
    t = trace.times[mask]
    y = np.log(e)
    tc = t - t.mean()
    yc = y - y.mean()
    slope = float((tc @ yc) / (tc @ tc))
    intercept = float(y.mean() - slope * t.mean())
    ss_res = float(np.sum((yc - slope * tc) ** 2))
    ss_tot = float(yc @ yc)
    # ss_tot == 0 means yc == 0, so slope and ss_res are exactly 0 too
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
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
    """A decay certificate and the invariant sweep around the same run.

    certificate is the record certify_decay returns for the run, which
    holds the spectrum's abscissa; mesh_counts the elements per member and
    invariant_results one InvariantResult per check the run can fail.
    all_pass holds when every check passed and the certificate's verdict
    is two_sided_pass or not_applicable.
    """

    certificate: DecayCertificate
    mesh_counts: tuple
    invariant_results: list

    @property
    def all_pass(self) -> bool:
        return (all(r.passed for r in self.invariant_results)
                and self.certificate.verdict in ("two_sided_pass", "not_applicable"))


def _numerically_undamped(spect) -> bool:
    """Whether |abscissa| is at most 1e-10 of max(1, max|mu|): no rate is fitted.

    The conservative spectrum (real parts exactly 0) always is, and so is
    damping confined to one beam, whose modes keep |Re| at eigensolver
    noise. The threshold is not a noise bound: udu.cfg at 80 elements per
    member (abscissa -2.99e-5, about 1e6 eps times the scale, its fit well
    within its bound) falls under it (3.26e-5) too. Certifying the slowest
    mode of the band the mesh resolves instead is the alternative inside
    ROADMAP item 3; meshes on which the UDU decay stays uniform (the
    matched-mesh rule) are item 1.
    """
    scale = max(1.0, float(np.abs(spect.eigenvalues).max()))
    return abs(spect.abscissa) <= 1e-10 * scale


def _scheme_rate(mu: complex, dt: float) -> float:
    """-2 log|R(mu)|/dt, R = (1 + z)/(1 - z), z = dt mu/2: the exact energy
    rate of a trapezoidal mode, to a few ulps. |R|^2 - 1 = 4 Re z/|1 - z|^2
    goes through log1p, as |R| is within dt |mu| of 1, unless |R|^2 < 1/2."""
    x, y = 0.5 * dt * mu.real, 0.5 * dt * mu.imag
    w = 4.0 * x / ((1.0 - x) ** 2 + y * y)
    if w > -0.5:
        return -math.log1p(w) / dt
    return -math.log(((1.0 + x) ** 2 + y * y) / ((1.0 - x) ** 2 + y * y)) / dt


def _gamma(pencil: SystemPencil) -> float:
    """gamma_{2b+1} = (2b + 1) u/(1 - (2b + 1) u), u = eps/2: the relative
    error bound of a banded dot product (Higham, 2nd ed., 3.1)."""
    k = 2 * pencil.bandwidth + 1
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _term_size(pencil: SystemPencil):
    """Return y -> T = (|p|^T |S| |p| + |q|^T |M| |q|)/2, the size of the
    terms E(y) sums, with the bands |S| and |M| formed once."""
    abs_s, abs_m = (dynamics._band_product(np.abs(ab), np.float64)
                    for ab in (pencil.s_band, pencil.m_band))

    def size(y: StateVector) -> float:
        p, q = np.abs(y.p), np.abs(y.q)
        return 0.5 * (p @ abs_s(p) + q @ abs_m(q))

    return size


def _rate_bound(pencil: SystemPencil, y0: StateVector, times: np.ndarray) -> float:
    """Roundoff bound on |alpha_fit - _scheme_rate| for a mode run from y0.

    Along the exact mode E_k = |R|^(2k) E_0, so the fit returns the scheme
    rate exactly. A step perturbs E by at most gamma_{2b+1} T, with
    T = (|p|^T |S| |p| + |q|^T |M| |q|)/2 (Higham, 2nd ed., 3.5) and T/E
    constant along the mode, so a K-step sample's log E is off by at most
    delta = K gamma_{2b+1} T/E, which moves the least-squares slope over
    the fitted t_i by at most delta sum|tc_i| / sum(tc_i^2), tc = t - mean(t).
    """
    fitted = times[_fit_window(times)[1]]
    tc = fitted - fitted.mean()
    delta = (len(times) - 1) * _gamma(pencil) * _term_size(pencil)(y0) / dynamics.energy(pencil, y0)
    return float(delta * np.abs(tc).sum() / (tc @ tc))


@dataclass
class DecayCertificate:
    """Measured energy decay of the slowest mode against the spectrum.

    alpha_fit is the fitted energy rate, with r_squared its fit's, alpha_scheme
    the trapezoidal rule's exact rate of the mode and alpha_bound the roundoff
    bound on their gap. verdict is two_sided_pass when the gap is within
    alpha_bound and alpha_fit exceeds it, else two_sided_fail;
    not_applicable when there is nothing to fit and inconclusive when dt
    does not resolve the mode: then nothing is run, and alpha_fit,
    alpha_bound and r_squared are nan.
    """

    regime: str
    abscissa: float
    mode: complex
    alpha_fit: float
    alpha_scheme: float
    alpha_bound: float
    r_squared: float
    verdict: str
    dt: float
    t_final: float


def _certify(cfg: StructureConfig, pencil: SystemPencil,
             dt: float | None, t_final: float | None):
    """Slowest-mode run with a timestep that resolves the mode, fitted and judged.

    Returns the certificate and the spectrum report (its last eigenvalue is
    the mode).

    A dt resolves the mode when dt |mu| <= _DT_RESOLUTION, and then its rate
    distortion |alpha_scheme / (2 |Re mu|) - 1| is at most _DT_RESOLUTION^2/4.
    The default dt is the largest such dt up to 1e-3 slowest-string-period,
    and the default duration covers 25 e-foldings of the mode, clamped to
    [200, 10000] steps; explicit dt or t_final win. Nothing is formed or run
    for a numerically undamped spectrum (not_applicable, the conservative
    regime included) or a dt that does not resolve the mode (inconclusive).
    A mode the spectrum does not resolve (spectral.slowest_mode_unresolved,
    where damping dwarfs stiffness) raises ModelError, with no verdict.
    """
    spect = eigenvalues(pencil)
    mu = complex(spect.eigenvalues[-1])
    if spectral.slowest_mode_unresolved(spect):
        raise ModelError(f"slowest mode {mu} is roundoff of the spectrum's scale")
    resolving_dt = _DT_RESOLUTION / max(abs(mu), 1e-12)
    if dt is None:
        dt = min(default_dt(cfg), resolving_dt)
    if t_final is None:
        t_final = DEFAULT_T_FINAL
        if mu.real != 0:
            t_final = min(t_final, 25.0 / (2.0 * abs(mu.real)))
        steps = min(10000, max(200, int(round(t_final / dt))))
        t_final = steps * dt
    cert = DecayCertificate(
        regime=classify_damping(cfg).value,
        abscissa=spect.abscissa,
        mode=mu,
        alpha_fit=math.nan,
        alpha_scheme=_scheme_rate(mu, dt),
        alpha_bound=math.nan,
        r_squared=math.nan,
        verdict="not_applicable",
        dt=dt,
        t_final=t_final,
    )
    if _numerically_undamped(spect):
        return cert, spect
    if dt > resolving_dt:
        return dataclasses.replace(cert, verdict="inconclusive"), spect
    y0 = spectral.eigenmode(pencil, mu)
    trace = simulate(pencil, y0, dt, t_final, energy_only=True).trace
    fit = fit_decay(trace)
    alpha_bound = _rate_bound(pencil, y0, trace.times)
    ok = abs(fit.alpha - cert.alpha_scheme) <= alpha_bound < fit.alpha
    return dataclasses.replace(
        cert, alpha_fit=fit.alpha, alpha_bound=alpha_bound, r_squared=fit.r_squared,
        verdict="two_sided_pass" if ok else "two_sided_fail",
    ), spect


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


def _check_step_energy_balance(pencil: SystemPencil, y0: StateVector, dt: float) -> InvariantResult:
    """E_{k+1} - E_k = dt * dissipation(midpoint) over 50 steps from y0.

    E_k is the run's own energy record; the midpoint dissipation comes
    from the stored states. The residual is the worst ratio of a step's
    gap to its roundoff bound gamma_{2b+1} (T_k + T_{k+1} + dt |qm|^T |D| |qm|),
    with T = _term_size: the sizes of the terms the three sums add up.
    |S|, |M| and |D| are formed once per check.
    """
    sim = simulate(pencil, y0, dt, 50 * dt, snapshot_every=1, energy_only=True)
    e = sim.trace.energy
    states = [y for _, y in sim.snapshots]
    sizes = list(map(_term_size(pencil), states))
    d_size = dynamics._band_product(np.abs(pencil.d_band), np.float64)
    worst = 0.0
    for k, (y, y_next) in enumerate(zip(states, states[1:])):
        mid = StateVector(0.5 * (y.p + y_next.p), 0.5 * (y.q + y_next.q))
        resid = abs(e[k + 1] - e[k] - dt * dynamics.dissipation(pencil, mid))
        qm = np.abs(mid.q)
        bound = _gamma(pencil) * (sizes[k] + sizes[k + 1] + dt * (qm @ d_size(qm)))
        worst = max(worst, resid / max(bound, 1e-300))
    return InvariantResult("dynamics.step_energy_balance", bool(worst <= 1.0), float(worst),
                           "50 trapezoidal steps, midpoint identity")


def _check_string_damping_spectrum_gap(spect: spectral.SpectrumReport) -> InvariantResult:
    """Every eigenvalue strictly left of the axis, the condition the paper's
    frequency-domain proof of UDU decay needs; the residual is the abscissa."""
    mu = spect.eigenvalues
    band = mu[np.abs(mu.imag) <= 50.0]
    band_min = float(np.min(np.abs(band.real))) if band.size else math.nan
    note = f"min|Re| = {band_min:.6g} on |Im| <= 50"
    return InvariantResult("spectral.string_damping_spectrum_gap", spect.abscissa < 0,
                           spect.abscissa, note)


def cross_validate(
    cfg: StructureConfig,
    mesh: Mesh,
    pencil: SystemPencil,
    dt: float | None = None,
    t_final: float | None = None,
) -> VerificationReport:
    """Decay certification plus every invariant check the run can fail.

    Takes the certificate of certify_decay (the same slowest-mode run, fit
    and verdict), runs the step balance from the plateau initial state,
    laid out by the mesh's own DOF numbering, at the certificate's dt,
    and, when only the string is damped, the spectrum-gap check on the
    certificate's spectrum. pencil must be assembled on mesh.
    """
    cert, spect = _certify(cfg, pencil, dt, t_final)
    y0 = fem.interpolate(cfg, mesh)
    results = [_check_step_energy_balance(pencil, y0, cert.dt)]
    if classify_damping(cfg) is DampingCase.UDU:
        results.append(_check_string_damping_spectrum_gap(spect))
    return VerificationReport(
        certificate=cert,
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


def _render_json(fields: dict) -> str:
    """JSON text of one flat record: sorted keys, two-space indent.

    Scalars go through _json_scalar (floats with 17 significant digits,
    non-finite values as the strings "nan"/"inf"/"-inf"), a tuple (the
    mesh counts) is written inline, and a list (the invariant results)
    holds one dataclass per line with its fields in declaration order.
    Nothing depends on time or environment, so reruns are byte-identical.
    """
    def value(v):
        if isinstance(v, tuple):
            return "[" + ", ".join(map(_json_scalar, v)) + "]"
        if isinstance(v, list):
            rows = ("    {" + ", ".join(f'"{f.name}": {_json_scalar(getattr(r, f.name))}'
                                        for f in dataclasses.fields(r)) + "}" for r in v)
            return "[\n" + ",\n".join(rows) + "\n  ]"
        return _json_scalar(v)

    body = ",\n".join(f'  "{key}": {value(fields[key])}' for key in sorted(fields))
    return "{\n" + body + "\n}\n"


def _certificate_fields(cert: DecayCertificate) -> dict:
    # every field but the complex mode, which JSON has no number for
    return {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert) if f.name != "mode"}


def render_decay(cert: DecayCertificate) -> str:
    """decay.json text: the certificate, its mode split into mode_re and mode_im."""
    return _render_json({**_certificate_fields(cert),
                         "mode_re": cert.mode.real, "mode_im": cert.mode.imag})


def render_report(report: VerificationReport) -> str:
    """report.json text: the certificate without its mode, plus the report."""
    return _render_json({
        **_certificate_fields(report.certificate),
        "all_pass": report.all_pass,
        "invariant_results": report.invariant_results,
        "mesh": report.mesh_counts,
    })
