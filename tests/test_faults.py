"""What the checks see: faults injected into the trapezoidal step or the
whitening by monkeypatch, or into the pencil, and for each shipped config
and mesh the cross_validate rows that fail under each fault, next to the
verdict. The expected sets are measurements, kept as data; a fault a
check misses is an entry too, its set without that check. A change that
widens or narrows what a check sees edits this table."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import bsblab as bb
from bsblab import dynamics, spectral
from bsblab.cli import read_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STEP = dynamics._trapezoidal_step
WHITEN = spectral._whiten
BALANCE = "dynamics.step_energy_balance"
GAP = "spectral.string_damping_spectrum_gap"


def damping_fault(pencil, dt, dtype):
    """D (1 + 1e-6) in the step matrix M + dt/2 D + dt^2/4 S."""
    return STEP(dataclasses.replace(pencil, d_band=pencil.d_band * (1 + 1e-6)), dt, dtype)


def step_size_fault(pencil, dt, dtype):
    """dt/2 (1 + 1e-6) in the right-hand side M q - dt/2 S p."""
    step = STEP(pencil, dt, dtype)

    def faulty(y, sp, mq):
        step(y, sp * (1 + 1e-6), mq)

    return faulty


def flipped_whitening(pencil):
    """The whitened damping -Lm^{-1} D Lm^{-T}, the block c[n:, n:] of C,
    with its sign flipped: the spectrum's real parts change sign."""
    c = WHITEN(pencil)
    n = pencil.n_positions
    c[n:, n:] = -c[n:, n:]
    return c


def in_step(fault):
    """Inject fault as the trapezoidal step factory."""
    def inject(pencil, monkeypatch):
        monkeypatch.setattr(dynamics, "_trapezoidal_step", fault)
        return pencil
    return inject


def zeroed_damping(pencil, monkeypatch):
    """The pencil's D band zeroed, so every stage sees it undamped."""
    return dataclasses.replace(pencil, d_band=np.zeros_like(pencil.d_band))


def flipped_damping(pencil, monkeypatch):
    monkeypatch.setattr(spectral, "_whiten", flipped_whitening)
    return pencil


FAULTS = {"none": in_step(STEP), "D": in_step(damping_fault), "dt": in_step(step_size_fault),
          "D-zeroed": zeroed_damping, "sign-flipped": flipped_damping}

# (config, n elements per member, fault): (failing rows, verdict)
TABLE = {
    ("ddd", 10, "none"): (set(), "two_sided_pass"),
    ("ddd", 10, "D"): ({BALANCE}, "two_sided_fail"),  # balance 595, gap/bound 1.9e5
    ("ddd", 10, "dt"): ({BALANCE}, "two_sided_fail"),
    ("ddd", 10, "D-zeroed"): ({GAP}, "not_applicable"),  # abscissa exactly 0
    ("ddd", 10, "sign-flipped"): ({GAP}, "two_sided_fail"),
    ("ddd", 40, "none"): (set(), "two_sided_pass"),
    ("ddd", 40, "D"): ({BALANCE}, "two_sided_fail"),  # balance 1.73 against 0.009 clean
    ("ddd", 40, "dt"): ({BALANCE}, "two_sided_fail"),
    ("ddd", 40, "D-zeroed"): ({GAP}, "not_applicable"),
    ("ddd", 40, "sign-flipped"): ({GAP}, "two_sided_fail"),
    ("udu", 10, "none"): (set(), "two_sided_pass"),
    ("udu", 10, "D"): (set(), "two_sided_fail"),  # balance 0.018, gap/bound 15
    ("udu", 10, "dt"): ({BALANCE}, "two_sided_fail"),
    ("udu", 10, "D-zeroed"): ({GAP}, "not_applicable"),  # the balance holds: 0.017
    ("udu", 10, "sign-flipped"): ({GAP}, "two_sided_fail"),
    ("udu", 40, "none"): (set(), "two_sided_pass"),
    ("udu", 40, "D"): (set(), "two_sided_pass"),  # unseen: gap/bound 0.034
    ("udu", 40, "dt"): (set(), "two_sided_fail"),  # balance 0.043
    ("udu", 40, "D-zeroed"): ({GAP}, "not_applicable"),
    ("udu", 40, "sign-flipped"): ({GAP}, "two_sided_fail"),
    # D = 0, so the D faults change nothing, nothing is fitted, and the
    # undamped spectrum never whitens
    ("conservative", 10, "none"): (set(), "not_applicable"),
    ("conservative", 10, "D"): (set(), "not_applicable"),
    ("conservative", 10, "dt"): ({BALANCE}, "not_applicable"),
    ("conservative", 10, "D-zeroed"): (set(), "not_applicable"),
    ("conservative", 10, "sign-flipped"): (set(), "not_applicable"),
    ("conservative", 40, "none"): (set(), "not_applicable"),
    ("conservative", 40, "D"): (set(), "not_applicable"),
    ("conservative", 40, "dt"): (set(), "not_applicable"),  # unseen: balance 0.041
    ("conservative", 40, "D-zeroed"): (set(), "not_applicable"),
    ("conservative", 40, "sign-flipped"): (set(), "not_applicable"),
}


@pytest.mark.parametrize("config,n,fault", list(TABLE))
def test_fault_table(config, n, fault, monkeypatch):
    cfg = read_config(str(CONFIGS / f"{config}.cfg"))
    mesh, pencil = bb.discretize(cfg, n, n, n)
    report = bb.cross_validate(cfg, mesh, FAULTS[fault](pencil, monkeypatch))
    failed = {r.name for r in report.invariant_results if not r.passed}
    assert (failed, report.certificate.verdict) == TABLE[config, n, fault]
