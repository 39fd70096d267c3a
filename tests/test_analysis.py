import dataclasses
import json
import math
import types

import numpy as np
import pytest
import scipy.linalg

import bsblab as bb
from bsblab import analysis, dynamics, fem, spectral


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
    assert rep.regime == "DDD"
    assert rep.abscissa < 0.0
    assert 0.9 <= rep.ratio <= 1.1
    assert rep.ratio_check == "two_sided_pass"
    assert rep.r_squared >= 0.999
    assert rep.all_pass
    assert rep.mesh_counts == (10, 10, 10)
    assert [r.name for r in rep.invariant_results] == [
        "fem.gram_matrices_spd",
        "fem.interpolation_nesting",
        "dynamics.step_energy_balance",
        "dynamics.energy_monotone",
        "dynamics.time_reversal",
        "spectral.whitening_consistency",
        "spectral.string_damping_spectrum_gap",
        "spectral.resolvent_lower_bound",
        "spectral.abscissa_nonpositive",
        "analysis.fit_timestep_invariance",
        "analysis.window_convergence",
    ]


def test_gram_check_catches_an_asymmetric_damping_matrix(ddd_system):
    """One off-diagonal entry of D moved by one ulp fails the symmetry check."""
    _, _, _, pencil = ddd_system
    ctx = types.SimpleNamespace(pencil=pencil)
    assert analysis._check_gram_matrices_spd(ctx)[0]
    d = pencil.D.copy()
    d[0, 1] = np.nextafter(d[0, 1], np.inf)
    asymmetric = fem.SystemPencil.from_dense(pencil.S, pencil.M, d, pencil.regime)
    ctx = types.SimpleNamespace(pencil=asymmetric)
    passed, residual, _ = analysis._check_gram_matrices_spd(ctx)
    assert not passed and residual == 1.0


def test_whitening_check_rejects_a_collapsed_spectrum(ddd_cfg, monkeypatch):
    """Every whitened value sitting on one QZ value fails: the match is two-sided."""
    ctx = types.SimpleNamespace(cfg=ddd_cfg)
    assert analysis._check_whitening_consistency(ctx)[0]
    _, _, small = fem.discretize(ddd_cfg, 3, 3, 3)
    one = scipy.linalg.eigvals(small.K, small.B)[0]
    collapsed = types.SimpleNamespace(eigenvalues=np.full(2 * small.n_positions, one))
    monkeypatch.setattr(analysis, "eigenvalues", lambda pencil: collapsed)
    passed, residual, _ = analysis._check_whitening_consistency(ctx)
    assert not passed and residual > 1e-8


def test_cross_validate_on_the_conservative_twin(cons_system):
    cfg, mesh, dofs, pencil = cons_system
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    assert rep.regime == "Conservative"
    assert math.isnan(rep.ratio)
    assert rep.ratio_check == "not_applicable"
    assert rep.all_pass


def test_cross_validate_with_partial_damping_declines_to_certify():
    cfg = bb.validate_config(
        bb.StructureConfig(0.0, 1.0, 2.0, 3.0, 1.0, 0.0, 0.0)
    )
    mesh, dofs, pencil = bb.discretize(cfg, 8, 8, 8)
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    assert rep.regime == "Other"
    # damping confined to one beam leaves modes at eigensolver noise, so
    # no rate claim is made, and that is not a failure
    assert math.isnan(rep.ratio)
    assert rep.ratio_check == "not_applicable"
    assert rep.all_pass


def test_certify_decay_agrees_with_cross_validate(ddd_system):
    cfg, mesh, dofs, pencil = ddd_system
    cert = bb.certify_decay(cfg, pencil)
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    # same deterministic pipeline underneath, so exact equality
    assert cert.alpha_fit == rep.alpha_fit
    assert cert.ratio == rep.ratio
    assert cert.dt == rep.dt
    assert cert.t_final == rep.t_final
    assert cert.mode.real == pytest.approx(rep.abscissa, rel=1e-12)


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
                                sim=run, mode_state=y0, dt=dt)
        passed, residual, _ = analysis._check_fit_timestep_invariance(ctx)
        assert passed and residual == want
        assert calls == runs


def test_damped_verify_whitens_and_factors_the_pencil_once(ddd_system, monkeypatch):
    """The spectrum and the resolvent check read one real Schur factor of C."""
    cfg, mesh, dofs, pencil = ddd_system
    size = 2 * pencil.n_positions
    whitened, factored = [], []

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

    whiten = spectral._whiten
    monkeypatch.setattr(spectral, "_whiten", counted_whiten)
    for module, name in ((scipy.linalg.lapack, "dgees"), (scipy.linalg.lapack, "zgees"),
                         (scipy.linalg, "eigvals"), (scipy.linalg, "eig")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert bb.cross_validate(cfg, mesh, dofs, pencil).all_pass
    assert whitened.count(pencil.n_positions) == 1
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


def test_report_encodes_nonfinite_ratio_as_string(cons_system):
    cfg, mesh, dofs, pencil = cons_system
    rep = bb.cross_validate(cfg, mesh, dofs, pencil)
    payload = json.loads(bb.render_report(rep))
    assert payload["ratio"] == "nan"
    assert payload["ratio_check"] == "not_applicable"


def test_gram_check_reads_symmetry_off_every_band_diagonal(ddd_system):
    """One upper-band entry of S, M or D moved by one ulp fails the check, on
    each of the b superdiagonals: it compares diagonal k with diagonal -k."""
    _, _, _, pencil = ddd_system
    b = pencil.bandwidth
    assert b == 3 and analysis._check_gram_matrices_spd(types.SimpleNamespace(pencil=pencil))[0]
    for name in ("s_band", "m_band", "d_band"):
        for k in range(1, b + 1):
            band = getattr(pencil, name).copy(order="F")
            band[b - k, k + 4] = np.nextafter(band[b - k, k + 4], np.inf)
            broken = dataclasses.replace(pencil, **{name: band})
            passed, residual, _ = analysis._check_gram_matrices_spd(
                types.SimpleNamespace(pencil=broken))
            assert not passed and residual == 1.0, (name, k)
