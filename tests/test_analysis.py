import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import bsblab as bb
from bsblab import analysis, cli, dynamics, fem, spectral
from bsblab.cli import read_config

import oracles

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
    with pytest.raises(bb.ModelError, match=r"\] holds 7 samples, need >= 10$"):
        bb.fit_decay(synthetic_trace(n=12))  # 7 samples in [0.2, 0.9] * t_end
    tr = synthetic_trace(n=401)
    dead = dynamics.EnergyTrace(
        times=tr.times, energy=np.zeros_like(tr.energy),
        dissipation=tr.dissipation, cross=tr.cross,
    )
    with pytest.raises(bb.ModelError, match="^window contains nonpositive energy values$"):
        bb.fit_decay(dead)


def test_cross_validate_certifies_the_fully_damped_case(ddd_system):
    cfg, mesh, pencil = ddd_system
    rep = bb.cross_validate(cfg, mesh, pencil)
    cert = rep.certificate
    assert cert.regime == "DDD"
    assert cert.abscissa < 0.0
    assert 0.9 <= cert.alpha_fit / (2 * abs(cert.abscissa)) <= 1.1
    assert cert.verdict == "two_sided_pass"
    assert cert.r_squared >= 0.999
    assert rep.all_pass
    assert rep.mesh_counts == (10, 10, 10)
    assert [r.name for r in rep.invariant_results] == ["dynamics.step_energy_balance"]


def test_cross_validate_on_the_conservative_twin(cons_system):
    cfg, mesh, pencil = cons_system
    rep = bb.cross_validate(cfg, mesh, pencil)
    assert rep.certificate.regime == "Conservative"
    assert math.isnan(rep.certificate.alpha_fit)
    assert rep.certificate.verdict == "not_applicable"
    assert rep.all_pass


def partial_damping_system():
    """Damping on the first beam only, on 8 elements per member."""
    cfg = bb.validate_config(
        bb.StructureConfig(0.0, 1.0, 2.0, 3.0, 1.0, 0.0, 0.0)
    )
    return (cfg, *bb.discretize(cfg, 8, 8, 8))


def test_cross_validate_with_partial_damping_declines_to_certify():
    cfg, mesh, pencil = partial_damping_system()
    rep = bb.cross_validate(cfg, mesh, pencil)
    assert rep.certificate.regime == "Other"
    # damping confined to one beam leaves modes at eigensolver noise, so
    # no rate claim is made, and that is not a failure
    assert math.isnan(rep.certificate.alpha_fit)
    assert rep.certificate.verdict == "not_applicable"
    assert rep.all_pass


def test_cross_validate_reports_the_checks_each_regime_can_fail(udu_system, cons_system):
    """The step balance on every config, the spectrum gap only when damping
    is confined to the string: off UDU it could not fail."""
    balance, gap = "dynamics.step_energy_balance", "spectral.string_damping_spectrum_gap"
    rep = bb.cross_validate(*udu_system)
    assert [r.name for r in rep.invariant_results] == [balance, gap]
    assert rep.invariant_results[1].residual == rep.certificate.abscissa < 0
    for system in (cons_system, partial_damping_system()):
        assert [r.name for r in bb.cross_validate(*system).invariant_results] == [balance]


@pytest.mark.parametrize("n", [10, 40])
def test_only_the_gap_row_sees_a_udu_pencil_without_damping(udu_cfg, n):
    """A UDU config whose pencil lost its D band has its spectrum on the
    axis. The certificate has nothing to fit and the step balance holds,
    so the spectrum-gap row alone fails verify."""
    mesh, pencil = bb.discretize(udu_cfg, n, n, n)
    undamped = dataclasses.replace(pencil, d_band=np.zeros_like(pencil.d_band))
    rep = bb.cross_validate(udu_cfg, mesh, undamped)
    assert rep.certificate.verdict == "not_applicable"
    balance, gap = rep.invariant_results
    assert balance.name == "dynamics.step_energy_balance" and balance.passed
    assert gap.name == "spectral.string_damping_spectrum_gap"
    assert not gap.passed and gap.residual == 0.0
    assert not rep.all_pass


def test_an_unstable_pencil_fails_the_verdict(ddd_system):
    """Negative damping, D = -0.05 M, moves the spectrum into Re mu > 0; the
    mode run then grows, its fitted rate is negative, and verify fails."""
    cfg, mesh, pencil = ddd_system
    unstable = dataclasses.replace(pencil, d_band=-0.05 * pencil.m_band)
    rep = bb.cross_validate(cfg, mesh, unstable)
    assert rep.certificate.abscissa > 0
    assert rep.certificate.alpha_fit / (2 * abs(rep.certificate.abscissa)) < 0
    assert rep.certificate.verdict == "two_sided_fail"
    assert not rep.all_pass


def test_a_mode_at_the_spectrums_roundoff_gets_no_verdict(ddd_cfg):
    """Damping that dwarfs stiffness (rho1 = 1e10 at n = 4) leaves a slowest
    mode below eps max|mu|, which the spectrum does not resolve; it gets no
    certificate, not_applicable or other."""
    cfg = bb.validate_config(dataclasses.replace(ddd_cfg, rho1=1e10))
    _, pencil = bb.discretize(cfg, 4, 4, 4)
    with pytest.raises(bb.ModelError, match="is roundoff of the spectrum's scale$"):
        bb.certify_decay(cfg, pencil)


def mode_run_times(cert):
    """The sample times of the certificate's mode run, as simulate makes them."""
    return cert.dt * np.arange(max(1, round(cert.t_final / cert.dt)) + 1)


def test_certify_decay_agrees_with_cross_validate(ddd_system):
    cfg, mesh, pencil = ddd_system
    cert = bb.certify_decay(cfg, pencil)
    rep = bb.cross_validate(cfg, mesh, pencil)
    # same deterministic pipeline underneath, so the same record
    assert cert == rep.certificate
    assert cert.mode.real == pytest.approx(cert.abscissa, rel=1e-12)


def oracle_bound(pencil, y0, times):
    """Dense reference implementation of analysis._rate_bound: the same
    roundoff bound on |alpha_fit - _scheme_rate| for a mode run, with T
    summed on the dense |S| and |M|."""
    u = np.finfo(float).eps / 2
    k = 2 * pencil.bandwidth + 1
    p, q = np.abs(y0.p), np.abs(y0.q)
    S, M, _ = oracles.matrices(pencil)
    t_over_e = 0.5 * (p @ np.abs(S) @ p + q @ np.abs(M) @ q) / bb.energy(pencil, y0)
    fitted = times[(times >= 0.2 * times[-1]) & (times <= 0.9 * times[-1])]
    tc = fitted - fitted.mean()
    delta = (len(times) - 1) * (k * u / (1 - k * u)) * t_over_e
    return delta * np.abs(tc).sum() / (tc @ tc)


@pytest.mark.parametrize("n", [10, 20])
def test_ddd_mode_run_decays_at_the_discrete_rate(n):
    """On ddd.cfg and udu.cfg the fitted rate of the slowest-mode run is the
    exact energy rate of the trapezoidal map on that mode, to within the
    roundoff bound of oracle_bound."""
    for name in ("ddd", "udu"):
        cfg = bb.validate_config(read_config(str(CONFIGS / f"{name}.cfg")))
        _, pencil = bb.discretize(cfg, n, n, n)
        cert, _ = analysis._certify(cfg, pencil, None, None)
        assert cert == bb.certify_decay(cfg, pencil)
        bound = oracle_bound(pencil, spectral.eigenmode(pencil, cert.mode), mode_run_times(cert))
        assert cert.alpha_scheme == analysis._scheme_rate(cert.mode, cert.dt)
        assert abs(cert.alpha_fit - cert.alpha_scheme) <= bound
        assert cert.verdict == "two_sided_pass"


@pytest.mark.parametrize("mu, dt", [
    (complex(-0.5014269473109882, 138.24485939110647), 7.233494442888472e-4),  # ddd, n = 40
    (complex(-3.0e-5, 4000.0), 2.5e-5),  # udu-like: Re z = -3.75e-10
    (complex(-0.57602491712939308, 2.1), 2.0),  # dt = 2
    (complex(-3.0, 0.0), 0.1),  # real mu
    (complex(-3.0, 0.0), 0.6),  # real mu with |R|^2 < 1/2
])
def test_scheme_rate_matches_mpmath(mu, dt):
    """_scheme_rate is -2 log|R(mu)|/dt to 1e-15 relative, against a
    60-digit value on the same binary inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        z = mpmath.mpf(dt) * mpmath.mpc(mu.real, mu.imag) / 2
        want = -mpmath.log(abs(1 + z) ** 2 / abs(1 - z) ** 2) / mpmath.mpf(dt)
        assert abs((analysis._scheme_rate(mu, dt) - want) / want) <= 1e-15


@pytest.mark.parametrize("system", ["ddd_system", "udu_system", "cons_system"])
def test_rate_bound_matches_the_dense_reference(request, system):
    """_rate_bound sums T on the bands; oracle_bound on the dense |S|, |M|.
    The conservative certificate runs no mode and has no bound, so there
    the test calls _rate_bound on the times its mode run would have."""
    cfg, _, pencil = request.getfixturevalue(system)
    cert = bb.certify_decay(cfg, pencil)
    y0, times = spectral.eigenmode(pencil, cert.mode), mode_run_times(cert)
    bound = analysis._rate_bound(pencil, y0, times)
    assert bound == pytest.approx(oracle_bound(pencil, y0, times), rel=1e-12)
    if system == "cons_system":
        assert math.isnan(cert.alpha_bound)
    else:
        assert cert.alpha_bound == bound


def test_explicit_dt_and_t_final_are_respected(ddd_system):
    cfg, mesh, pencil = ddd_system
    cert = bb.certify_decay(cfg, pencil, dt=1e-3, t_final=2.0)
    assert cert.dt == 1e-3
    assert cert.t_final == 2.0


def test_a_resolving_dt_distorts_the_rate_by_at_most_a_quarter_percent():
    """At dt = 0.1/|mu|, the largest dt the rule accepts, the scheme rate of
    any decaying mode mu = r e^{i theta} is within 0.1^2/4 of 2 |Re mu|, for r
    over 1e-6..1e8 and theta over (pi/2, pi], down to 1e-12 from the axis."""
    assert analysis._DT_RESOLUTION == 0.1
    worst = 0.0
    for r in np.logspace(-6, 8, 29):
        for theta in np.pi / 2 + np.pi / 2 * np.logspace(-12, 0, 49):
            mu = complex(r * np.cos(theta), r * np.sin(theta))
            distortion = analysis._scheme_rate(mu, 0.1 / r) / (2 * abs(mu.real)) - 1
            worst = max(worst, abs(distortion))
    assert 2.49e-3 <= worst <= 0.1**2 / 4


def test_cross_validate_simulates_the_mode_run_and_the_plateau_run(
        ddd_system, cons_system, monkeypatch):
    """verify runs two simulations on a damped spectrum: the slowest-mode run
    its verdict fits and the 50-step plateau run of the energy-balance check.
    Both record the energy only, and so does certify_decay's mode run.
    With nothing to fit (conservative, damping on one beam only) or a dt that
    does not resolve the mode (1.01 * 0.1/|mu| on ddd) it runs the plateau
    alone, and certify_decay forms no mode and runs nothing."""
    calls, energy_only = [], []

    def counted(pencil, y0, dt, t_final, **kwargs):
        calls.append(round(t_final / dt))
        energy_only.append(kwargs.get("energy_only", False))
        return bb.simulate(pencil, y0, dt, t_final, **kwargs)

    monkeypatch.setattr(analysis, "simulate", counted)
    cfg, mesh, pencil = ddd_system
    rep = bb.cross_validate(cfg, mesh, pencil)
    assert calls == [round(rep.certificate.t_final / rep.certificate.dt), 50]
    assert energy_only == [True, True]
    calls.clear()
    energy_only.clear()
    cert = bb.certify_decay(cfg, pencil)
    assert calls == [round(cert.t_final / cert.dt)] and energy_only == [True]
    for cfg, mesh, pencil in (cons_system, partial_damping_system()):
        calls.clear()
        rep = bb.cross_validate(cfg, mesh, pencil)
        assert rep.certificate.verdict == "not_applicable"
        assert calls == [50]

    def refused(*args, **kwargs):
        raise AssertionError("a not_applicable or inconclusive certificate runs nothing")

    monkeypatch.setattr(spectral, "eigenmode", refused)
    cfg, mesh, pencil = ddd_system
    unresolved = 1.01 * 0.1 / abs(bb.eigenvalues(pencil).eigenvalues[-1])
    calls.clear()
    rep = bb.cross_validate(cfg, mesh, pencil, dt=unresolved)
    assert rep.certificate.verdict == "inconclusive"
    assert all(r.passed for r in rep.invariant_results) and not rep.all_pass
    assert calls == [50]

    monkeypatch.setattr(analysis, "simulate", refused)
    for (cfg, _, pencil), dt, verdict in ((cons_system, None, "not_applicable"),
                                          (ddd_system, unresolved, "inconclusive")):
        cert = bb.certify_decay(cfg, pencil, dt=dt)
        assert cert.verdict == verdict
        assert all(math.isnan(x) for x in (cert.alpha_fit, cert.alpha_bound, cert.r_squared))


def count_factorizations(monkeypatch, pencil):
    """Record each _whiten call (by its N) and each dgees, zgees or eig on
    a 2N x 2N matrix (workspace queries aside) made from here on."""
    size = 2 * pencil.n_positions
    whitened, factored = [], []
    whiten = spectral._whiten

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

    monkeypatch.setattr(spectral, "_whiten", counted_whiten)
    for module, name in ((scipy.linalg.lapack, "dgees"), (scipy.linalg.lapack, "zgees"),
                         (scipy.linalg, "eig")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return whitened, factored


@pytest.mark.parametrize("system", ["ddd_system", "udu_system", "cons_system"])
def test_verify_builds_no_second_pencil(request, system, monkeypatch):
    """verify checks the pencil it is given: it discretizes and assembles
    nothing, runs no QZ and sweeps no resolvent (no ztrtrs). A damped
    pencil is whitened once and its C Schur-factored once, for the
    spectrum; an undamped one is neither whitened nor Schur-factored."""
    cfg, mesh, pencil = request.getfixturevalue(system)
    forbidden = []

    def refused(name, routine):
        def call(*args, **kwargs):
            forbidden.append(name)
            return routine(*args, **kwargs)
        return call

    whitened, factored = count_factorizations(monkeypatch, pencil)
    for module, name in ((fem, "discretize"), (fem, "assemble_pencil"),
                         (scipy.linalg, "eigvals"), (scipy.linalg.lapack, "ztrtrs")):
        monkeypatch.setattr(module, name, refused(name, getattr(module, name)))
    assert bb.cross_validate(cfg, mesh, pencil).all_pass
    assert forbidden == []
    damped = bool(pencil.d_band.any())
    assert whitened == ([pencil.n_positions] if damped else [])
    assert factored == (["dgees"] if damped else [])


@pytest.mark.parametrize("system", ["ddd_system", "udu_system", "cons_system"])
def test_resolvent_sweep_on_a_report_factors_nothing(request, system, monkeypatch):
    """resolvent_sweep reads its Schur form off the spectrum report: it
    whitens and factors nothing, damped or not. Undamped, it reads the
    norms off the eigenvalues: no triangular solve, no Lanczos iteration."""
    pencil = request.getfixturevalue(system)[2]
    spect = spectral.eigenvalues(pencil)
    whitened, factored = count_factorizations(monkeypatch, pencil)
    solves = []
    ztrtrs = scipy.linalg.lapack.ztrtrs

    def counted_ztrtrs(*args, **kwargs):
        solves.append(1)
        return ztrtrs(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "ztrtrs", counted_ztrtrs)
    table = spectral.resolvent_sweep(spect, spectral.axis_grid(-50.0, 50.0, 21))
    assert whitened == [] and factored == []
    if system == "cons_system":
        assert solves == [] and not table.iterations.any()


@pytest.mark.parametrize("system", ["ddd_system", "udu_system", "cons_system"])
def test_resolvent_sweep_factors_the_pencil_at_most_once(request, system, monkeypatch, tmp_path):
    """The resolvent job whitens a damped pencil once and runs one dgees on
    C, for the spectrum its sweep reads; an undamped one it neither whitens
    nor Schur-factors."""
    pencil = request.getfixturevalue(system)[2]
    name = {"ddd_system": "ddd", "udu_system": "udu", "cons_system": "conservative"}[system]
    whitened, factored = count_factorizations(monkeypatch, pencil)
    assert cli.main(["resolvent", "--config", str(CONFIGS / f"{name}.cfg"),
                     "--n1", "10", "--n2", "10", "--n3", "10", "--lambda-steps", "21",
                     "--out-dir", str(tmp_path)]) == 0
    damped = bool(pencil.d_band.any())
    assert whitened == ([pencil.n_positions] if damped else [])
    assert factored == (["dgees"] if damped else [])


def test_report_rendering_is_byte_stable_and_valid_json(ddd_system):
    cfg, mesh, pencil = ddd_system
    rep = bb.cross_validate(cfg, mesh, pencil)
    text1 = bb.render_report(rep)
    text2 = bb.render_report(bb.cross_validate(cfg, mesh, pencil))
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
                    alpha_scheme=1.0, alpha_bound=1e-12, r_squared=1.0,
                    verdict="two_sided_pass", dt=1e-3, t_final=1.0)
    report = analysis.VerificationReport(certificate=cert, mesh_counts=(2, 2, 2),
                                         invariant_results=[])
    decay = json.loads(analysis.render_decay(cert))
    assert decay["extra"] == json.loads(bb.render_report(report))["extra"] == 0.25
    assert (decay["mode_re"], decay["mode_im"]) == (-0.5, 3.0)


def test_report_encodes_nonfinite_ratio_as_string(cons_system):
    """A rate with no mode run behind it, alpha_fit here, is the string "nan"."""
    cfg, mesh, pencil = cons_system
    rep = bb.cross_validate(cfg, mesh, pencil)
    payload = json.loads(bb.render_report(rep))
    assert payload["alpha_fit"] == "nan"
    assert payload["verdict"] == "not_applicable"

