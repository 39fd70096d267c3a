import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import bsblab as bb
from bsblab import analysis, dynamics, fem, spectral
from bsblab.cli import read_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def synthetic_trace(alpha=3.0, c=7.0, t_end=2.0, n=401):
    times = np.linspace(0.0, t_end, n)
    energy = c * np.exp(-alpha * times)
    zeros = np.zeros_like(times)
    return dynamics.EnergyTrace(times=times, energy=energy,
                                dissipation=zeros, cross=zeros)


def test_fit_recovers_an_exact_exponential():
    fit = bb.fit_decay(synthetic_trace())
    assert fit.alpha == pytest.approx(3.0, abs=1e-10)
    assert fit.log_c == pytest.approx(math.log(7.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_samples >= 10


def test_fit_default_window_is_the_interior():
    tr = synthetic_trace(t_end=10.0)
    default = bb.fit_decay(tr)
    explicit = bb.fit_decay(tr, window=(2.0, 9.0))
    assert default.window == explicit.window
    assert default.alpha == explicit.alpha


def test_fit_on_constant_energy():
    fit = bb.fit_decay(synthetic_trace(alpha=0.0, c=2.5))
    assert fit.alpha == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_r_squared_drops_on_non_exponential_data():
    tr = synthetic_trace(t_end=4.0)
    bent = dynamics.EnergyTrace(
        times=tr.times,
        energy=tr.energy + 0.5 * np.abs(np.sin(3.0 * tr.times)) + 0.1,
        dissipation=tr.dissipation, cross=tr.cross,
    )
    fit = bb.fit_decay(bent)
    assert fit.r_squared < 0.999


def test_fit_window_validation():
    tr = synthetic_trace(n=401)
    with pytest.raises(analysis.WindowTooSmall):
        bb.fit_decay(tr, window=(0.0, 0.01))  # fewer than 10 samples
    dead = dynamics.EnergyTrace(
        times=tr.times, energy=np.zeros_like(tr.energy),
        dissipation=tr.dissipation, cross=tr.cross,
    )
    with pytest.raises(analysis.NonpositiveEnergy):
        bb.fit_decay(dead)


def test_cross_validate_certifies_the_fully_damped_case(ddd_system):
    cfg, mesh, dofs, pencil = ddd_system
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    cert = rep.certificate
    assert cert.regime == "DDD"
    assert cert.abscissa < 0.0
    assert 0.9 <= cert.ratio <= 1.1
    assert cert.ratio_check == "two_sided_pass"
    assert cert.r_squared >= 0.999
    assert rep.all_pass
    assert rep.mesh_counts == (10, 10, 10)
    assert [r.name for r in rep.invariant_results] == [
        "dynamics.step_energy_balance",
        "dynamics.energy_monotone",
        "spectral.string_damping_spectrum_gap",
        "spectral.resolvent_lower_bound",
        "spectral.abscissa_nonpositive",
        "analysis.fit_timestep_invariance",
        "analysis.window_convergence",
    ]


def test_cross_validate_on_the_conservative_twin(cons_system):
    cfg, mesh, dofs, pencil = cons_system
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    assert rep.certificate.regime == "Conservative"
    assert math.isnan(rep.certificate.ratio)
    assert rep.certificate.ratio_check == "not_applicable"
    assert rep.all_pass


def test_cross_validate_with_partial_damping_declines_to_certify():
    cfg = bb.validate_config(
        bb.StructureConfig(0.0, 1.0, 2.0, 3.0, 1.0, 0.0, 0.0)
    )
    mesh, dofs, pencil = bb.discretize(cfg, 8, 8, 8)
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    assert rep.certificate.regime == "Other"
    # damping confined to one beam leaves modes at eigensolver noise, so
    # no rate claim is made, and that is not a failure
    assert math.isnan(rep.certificate.ratio)
    assert rep.certificate.ratio_check == "not_applicable"
    assert rep.all_pass


def test_certify_decay_agrees_with_cross_validate(ddd_system):
    cfg, mesh, dofs, pencil = ddd_system
    cert = bb.certify_decay(cfg, pencil)
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    # same deterministic pipeline underneath, so the same record
    assert cert == rep.certificate
    assert cert.mode.real == pytest.approx(cert.abscissa, rel=1e-12)


def discrete_mode_rate(mu, dt):
    """-2 log|R(mu)| / dt for the trapezoidal factor R = (1 + z)/(1 - z),
    z = dt mu / 2: the exact energy rate of a discrete trapezoidal mode.
    |1 +- z|^2 = 1 +- 2 Re z + |z|^2 goes through log1p, which keeps the
    rate accurate to a few ulps although |R| is within dt |mu| of 1."""
    x, y = (dt * mu / 2).real, (dt * mu / 2).imag
    return -(math.log1p(2 * x + x * x + y * y) - math.log1p(-2 * x + x * x + y * y)) / dt


def oracle_bound(pencil, y0, times):
    """Roundoff bound on |alpha_fit - discrete_mode_rate| for a mode run.

    Along the exact discrete mode y_k = R^k y0, E_k = |R|^(2k) E_0, so
    log E is linear in t and the fit returns the rate exactly. Each step
    perturbs the energy by at most gamma_{2b+1} T relative, where
    T = (|p|^T |S| |p| + |q|^T |M| |q|)/2 is the size of the terms the
    energy sums (every row of a banded product sums 2b + 1 of them; Higham,
    2nd ed., 3.5), and T/E is constant along the mode. So a sample of a
    K-step run carries a log-energy error of at most
    delta = K gamma_{2b+1} T/E, and the least-squares slope over the fitted
    samples t_i moves by sum(tc_i eps_i) / sum(tc_i^2) <= delta
    sum|tc_i| / sum(tc_i^2), tc_i = t_i - mean(t).
    """
    u = np.finfo(float).eps / 2
    k = 2 * pencil.bandwidth + 1
    p, q = np.abs(y0.p), np.abs(y0.q)
    t_over_e = 0.5 * (p @ np.abs(pencil.S) @ p + q @ np.abs(pencil.M) @ q) / bb.energy(pencil, y0)
    fitted = times[(times >= 0.2 * times[-1]) & (times <= 0.9 * times[-1])]
    tc = fitted - fitted.mean()
    delta = (len(times) - 1) * (k * u / (1 - k * u)) * t_over_e
    return delta * np.abs(tc).sum() / (tc @ tc)


@pytest.mark.parametrize("n", [10, 20])
def test_ddd_mode_run_decays_at_the_discrete_rate(n):
    """On ddd.cfg the fitted rate of the slowest-mode run is the exact
    energy rate of the trapezoidal map on that mode, to within the roundoff
    bound of oracle_bound. UDU is left out: its slowest mode's real part is
    set at roundoff, so its fit is too."""
    cfg = bb.validate_config(read_config(str(CONFIGS / "ddd.cfg")))
    _, _, pencil = bb.discretize(cfg, n, n, n)
    cert, _, y0, sim = analysis._certify(cfg, pencil, None, None)
    assert cert == bb.certify_decay(cfg, pencil)
    want = discrete_mode_rate(cert.mode, cert.dt)
    assert abs(cert.alpha_fit - want) <= oracle_bound(pencil, y0, sim.trace.times)


def test_explicit_dt_and_t_final_are_respected(ddd_system):
    cfg, mesh, dofs, pencil = ddd_system
    cert = bb.certify_decay(cfg, pencil, dt=1e-3, t_final=2.0)
    assert cert.dt == 1e-3
    assert cert.t_final == 2.0


def test_fit_timestep_invariance_reuses_the_mode_run(ddd_system, monkeypatch):
    """The dt fit over the first 1000 steps of the mode run gives exactly the
    residual of two fresh runs; a mode run shorter than that is not reused."""
    cfg, _, _, pencil = ddd_system
    cert, spect, y0, sim = analysis._certify(cfg, pencil, None, None)
    dt = cert.dt
    assert sim.trace.times.size > 1001
    a = bb.fit_decay(bb.simulate(pencil, y0, dt, 1000 * dt).trace)
    b = bb.fit_decay(bb.simulate(pencil, y0, dt / 2, 1000 * dt).trace)
    want = abs(b.alpha - a.alpha) / max(abs(a.alpha), 2.0 * abs(spect.abscissa), 1e-9)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return bb.simulate(*args, **kwargs)

    monkeypatch.setattr(analysis, "simulate", counted)
    for run, runs in ((sim, [dt / 2]), (bb.simulate(pencil, y0, dt, 500 * dt), [dt, dt / 2])):
        calls.clear()
        ctx = analysis._Context(cfg=cfg, mesh=None, dofs=None, pencil=pencil, spect=spect,
                                sim=run, mode_state=y0, certificate=cert)
        passed, residual, _ = analysis._check_fit_timestep_invariance(ctx)
        assert passed and residual == want
        assert calls == runs


@pytest.mark.parametrize("system", ["ddd_system", "udu_system", "cons_system"])
def test_verify_builds_no_second_pencil(request, system, monkeypatch):
    """verify checks the pencil it is given: it discretizes and assembles
    nothing and runs no QZ. It whitens that pencil once and computes one
    real Schur factor of C, which the spectrum (when damped) and the
    resolvent check share."""
    cfg, mesh, dofs, pencil = request.getfixturevalue(system)
    size = 2 * pencil.n_positions
    whitened, factored, forbidden = [], [], []

    def counted_whiten(p):
        whitened.append(p.n_positions)
        return whiten(p)

    def counted(name, routine):
        def call(*args, **kwargs):
            a = next(x for x in args if isinstance(x, np.ndarray))
            if a.shape == (size, size) and kwargs.get("lwork") != -1:
                factored.append(name)
            return routine(*args, **kwargs)
        return call

    def refused(name, routine):
        def call(*args, **kwargs):
            forbidden.append(name)
            return routine(*args, **kwargs)
        return call

    whiten = spectral._whiten
    monkeypatch.setattr(spectral, "_whiten", counted_whiten)
    for module, name in ((scipy.linalg.lapack, "dgees"), (scipy.linalg.lapack, "zgees"),
                         (scipy.linalg, "eig")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for module, name in ((fem, "discretize"), (fem, "assemble_pencil"),
                         (scipy.linalg, "eigvals")):
        monkeypatch.setattr(module, name, refused(name, getattr(module, name)))
    assert bb.cross_validate(cfg, mesh, dofs, pencil).all_pass
    assert forbidden == []
    assert whitened == [pencil.n_positions]
    assert factored == ["dgees"]


def test_report_rendering_is_byte_stable_and_valid_json(ddd_system):
    cfg, mesh, dofs, pencil = ddd_system
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    text1 = bb.render_report(rep)
    text2 = bb.render_report(bb.cross_validate(cfg, mesh, dofs, pencil))
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["regime"] == "DDD"
    assert payload["all_pass"] is True
    assert payload["mesh"] == [10, 10, 10]
    assert isinstance(payload["invariant_results"], list)
    assert {"name", "passed", "residual", "note"} <= set(payload["invariant_results"][0])
    assert text1.endswith("\n")
    # each invariant on a line of its own, fields in declaration order
    rows = [ln.rstrip(",") for ln in text1.splitlines() if ln.startswith('    {"name": ')]
    assert [json.loads(row) for row in rows] == payload["invariant_results"]
    assert all(list(json.loads(row)) == ["name", "passed", "residual", "note"] for row in rows)


def test_a_certificate_field_reaches_both_files():
    """decay.json and report.json read the certificate's keys off the
    dataclass, so a field added to it is written to both with no other edit."""
    @dataclasses.dataclass
    class Extended(analysis.DecayCertificate):
        extra: float = 0.25

    cert = Extended(regime="DDD", abscissa=-0.5, mode=complex(-0.5, 3.0), alpha_fit=1.0,
                    ratio=1.0, r_squared=1.0, ratio_check="two_sided_pass", dt=1e-3,
                    t_final=1.0)
    report = analysis.VerificationReport(certificate=cert, min_axis_distance=0.5,
                                         mesh_counts=(2, 2, 2), invariant_results=[])
    decay = json.loads(analysis.render_decay(cert))
    assert decay["extra"] == json.loads(bb.render_report(report))["extra"] == 0.25
    assert (decay["mode_re"], decay["mode_im"]) == (-0.5, 3.0)


def test_report_encodes_nonfinite_ratio_as_string(cons_system):
    cfg, mesh, dofs, pencil = cons_system
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    payload = json.loads(bb.render_report(rep))
    assert payload["ratio"] == "nan"
    assert payload["ratio_check"] == "not_applicable"

