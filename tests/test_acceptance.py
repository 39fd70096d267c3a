"""Acceptance gate for the whole laboratory.

Ten end-to-end checks, one per release criterion, each printing a single
PASS/FAIL line with the measured number so a `pytest -s tests/test_acceptance.py`
run reads as a report. Everything here goes through the public API, except
the dense first-order blocks, the isolated member pencils, the string's
closed-form modes and the exclusion determinant, which are test oracles
(tests/oracles.py).
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import bsblab as bb

import oracles

UNIT_GEOMETRY = (0.0, 1.0, 2.0, 3.0)

REGIMES = {
    "DDD": (1.0, 1.0, 1.0),
    "UDU": (0.0, 0.0, 0.5),
    "Conservative": (0.0, 0.0, 0.0),
    "Other": (1.0, 0.0, 0.0),
}


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def systems():
    built = {}
    for name, (rho1, rho2, beta) in REGIMES.items():
        cfg = bb.StructureConfig(*UNIT_GEOMETRY, rho1=rho1, rho2=rho2, beta=beta)
        mesh, dofs, pencil = bb.discretize(cfg, 20, 20, 20)
        built[name] = (cfg, mesh, dofs, pencil)
    return built


def _plateau(system):
    cfg, mesh, dofs, _ = system
    return bb.interpolate(cfg, mesh, dofs)


def test_01_dissipativity_identity_all_regimes(systems):
    """Re(y*Ky) equals the negative damping quadratic for every state."""
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for name, (_, _, _, pencil) in systems.items():
        _, K = oracles.first_order(pencil)
        D = oracles.matrices(pencil)[2]
        dim = K.shape[0]
        half = pencil.n_positions
        for _ in range(100):
            y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            quad = y.conj() @ (K @ y)
            q = y[half:]
            damp = float(np.real(q.conj() @ (D @ q)))
            resid = abs(quad.real + damp) / (abs(quad) + damp + 1.0)
            worst = max(worst, resid)
    ok = worst <= 1e-12
    _report(1, ok, f"dissipativity residual {worst:.3e} over 4 regimes x 100 states (tol 1e-12)")
    assert ok


def test_02_trapezoidal_balance_500_steps(systems):
    """E(y+) - E(y) = dt * dissipation(midpoint) across a long damped run."""
    system = systems["DDD"]
    _, _, _, pencil = system
    dt = 1e-3
    sim = bb.simulate(pencil, _plateau(system), dt, 500 * dt, snapshot_every=1)
    states = [y for _, y in sim.snapshots]
    assert len(states) == 501
    worst = 0.0
    for y, y_next in zip(states, states[1:]):
        mid = bb.StateVector(0.5 * (y.p + y_next.p), 0.5 * (y.q + y_next.q))
        gap = (bb.energy(pencil, y_next) - bb.energy(pencil, y)
               - dt * bb.dissipation(pencil, mid))
        worst = max(worst, abs(gap) / bb.energy(pencil, y))
    ok = worst <= 1e-9
    _report(2, ok, f"per-step balance residual {worst:.3e} over 500 steps (tol 1e-9)")
    assert ok


def test_03_undamped_run_conserves_energy(systems):
    system = systems["Conservative"]
    _, _, _, pencil = system
    sim = bb.simulate(pencil, _plateau(system), 1e-3, 1.0)
    e = sim.trace.energy
    assert len(e) == 1001
    drift = abs(e[-1] / e[0] - 1.0)
    ok = drift <= 1e-9
    _report(3, ok, f"energy drift {drift:.3e} after 1000 undamped steps (tol 1e-9)")
    assert ok


def test_04_damped_string_modes_match_quadratic_formula():
    pencil = oracles.assemble_string_pencil(math.pi, 1.0, 200)
    computed = bb.eigenvalues(pencil).eigenvalues
    plus, minus = oracles.string_modes_closed_form(1.0, math.pi, 1)
    worst = 0.0
    for root in (plus, minus):
        nearest = computed[np.argmin(np.abs(computed - root))]
        worst = max(worst, abs(nearest - root))
    ok = worst <= 1e-2
    _report(4, ok, f"fundamental string pair off by {worst:.3e} from {plus:.4f} (tol 1e-2)")
    assert ok


def test_05_clamped_free_beam_fundamental_frequency():
    # independent root of 1 + cos(k) cosh(k) = 0 by bisection
    lo, hi = 1.0, 2.5
    f = lambda k: 1.0 + math.cos(k) * math.cosh(k)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    kappa1 = 0.5 * (lo + hi)
    target = kappa1 ** 2

    pencil = oracles.assemble_beam_pencil(1.0, 100)
    eigs = bb.eigenvalues(pencil).eigenvalues
    omega1 = eigs.imag[eigs.imag > 0.0].min()
    rel = abs(omega1 - target) / target
    ok = rel <= 1e-3
    _report(5, ok, f"beam fundamental {omega1:.6f} vs oracle {target:.6f}, rel err {rel:.2e} (tol 1e-3)")
    assert ok


def test_06_fully_damped_decay_rate_matches_spectrum(systems):
    cfg, _, _, pencil = systems["DDD"]
    cert = bb.certify_decay(cfg, pencil)
    ratio = cert.alpha_fit / (2 * abs(cert.abscissa))
    ok = (cert.abscissa < 0.0 and 0.9 <= ratio <= 1.1
          and cert.verdict == "two_sided_pass")
    _report(6, ok,
            f"abscissa {cert.abscissa:.6f}, fitted-rate ratio {ratio:.4f}, "
            f"verdict {cert.verdict} (need abscissa < 0, ratio in [0.9, 1.1] "
            f"and two_sided_pass)")
    assert ok


def test_07_string_only_damping_stable_with_bounded_resolvent(systems):
    cfg, _, _, pencil = systems["UDU"]
    spect = bb.eigenvalues(pencil)
    re = spect.eigenvalues.real
    all_left = bool((re < 0.0).all())
    gap = float(np.abs(re).min())

    grid = bb.axis_grid(-50.0, 50.0, 2001)
    sup20 = float(bb.resolvent_sweep(spect, grid).norms.max())
    _, _, fine = bb.discretize(cfg, 40, 40, 40)
    sup40 = float(bb.resolvent_sweep(bb.eigenvalues(fine), grid).norms.max())
    factor = max(sup20, sup40) / min(sup20, sup40)

    ok = (all_left and gap > 0.0
          and np.isfinite(sup20) and np.isfinite(sup40) and factor <= 2.0)
    _report(7, ok,
            f"all Re < 0, spectral gap {gap:.3e}, axis sup {sup20:.4g} -> {sup40:.4g} "
            f"under refinement (factor {factor:.3f}, tol 2.0)")
    assert ok


def test_08_undamped_resolvent_blows_up_on_an_eigenfrequency(systems):
    _, _, _, pencil = systems["Conservative"]
    spect = bb.eigenvalues(pencil)
    freqs = spect.eigenvalues.imag
    omega = float(freqs[freqs > 1.0].min())
    table = bb.resolvent_sweep(spect, bb.axis_grid(omega - 1.0, omega + 1.0, 3))
    assert abs(table.lambdas[1] - omega) <= 1e-6
    sup = float(table.norms.max())
    ok = sup >= 1e5
    _report(8, ok, f"axis norm {sup:.3e} at eigenfrequency {omega:.6f} (need >= 1e5)")
    assert ok


def test_09_exclusion_determinant_stays_above_one():
    grid = np.geomspace(1e-6, 400.0, 10000)
    vals = np.array([oracles.eigenvalue_exclusion_determinant(a) for a in grid])
    low = float(vals.min())
    ok = low > 1.0
    _report(9, ok, f"min of cosh(sqrt a) + cos(sqrt a) on (1e-6, 400] is {low:.12f} (need > 1)")
    assert ok


def test_10_verify_report_is_deterministic(tmp_path):
    config = tmp_path / "structure.cfg"
    config.write_text(
        "l0 = 0.0\nl1 = 1.0\nl2 = 2.0\nl3 = 3.0\n"
        "rho1 = 1.0\nrho2 = 1.0\nbeta = 1.0\n"
    )
    reports = []
    codes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "bsblab", "verify",
             "--config", str(config),
             "--n1", "10", "--n2", "10", "--n3", "10",
             "--out-dir", str(out)],
            capture_output=True, text=True,
        )
        codes.append(proc.returncode)
        reports.append((out / "report.json").read_bytes())
    identical = reports[0] == reports[1]
    payload = json.loads(reports[0])
    ok = codes == [0, 0] and identical and payload["all_pass"] is True
    _report(10, ok,
            f"verify exit codes {codes}, reports byte-identical: {identical}, "
            f"all invariants pass: {payload['all_pass']}")
    assert ok
