import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    em_H1_envelope,
    epsilon1,
    g1,
    golden_points,
    h1,
    lattice_closed,
    lattice_direct,
    mp_lattice,
)
from mobsum.quad import _EPS1_PEAK
from mobsum.special import H2_ENVELOPE
from mobsum.weights import G1_ENVELOPE, H1_ENVELOPE


def test_g1_is_a_unit_mass_density():
    # integral_0^1 4y(1-y^2) dy = 1, computed from the antiderivative
    assert g1(0.0) == 0.0
    assert g1(1.0) == 0.0
    assert g1(0.5) == pytest.approx(4 * 0.5 * (1 - 0.25))
    # Simpson on the cubic is exact with two panels
    s = (g1(0) + 4 * g1(0.25) + 2 * g1(0.5) + 4 * g1(0.75) + g1(1)) / 12
    assert s == pytest.approx(1.0, abs=1e-15)


def test_h1_has_zero_mass():
    # integral_0^1 (2/3)(1-y^2)(8y-3) dy = 0; exact for the cubic via Simpson
    s = (h1(0) + 4 * h1(0.25) + 2 * h1(0.5) + 4 * h1(0.75) + h1(1)) / 12
    assert s == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("t", golden_points(40, 1.0, 5000.0) + [1.0, 2.0, 2.5, 10.0])
def test_eval_G_closed_form_agrees_with_direct_sum(t):
    fast = lattice_closed("g1", t)
    direct = lattice_direct("g1", t)
    assert fast == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("t", golden_points(40, 1.0, 5000.0, seed_index=7) + [1.0, 3.0])
def test_eval_H_closed_form_agrees_with_direct_sum(t):
    fast = lattice_closed("h1", t)
    direct = lattice_direct("h1", t)
    assert fast == pytest.approx(direct, abs=1e-12)


def test_closed_forms_match_a_40_digit_reference():
    # the fractional-part forms cancel nothing: the absolute error stays at
    # the final rounding to binary64 (the power-sum form lost ~9 digits of
    # H1 near t = 1e5, 1.8e-14)
    rng = random.Random(1)
    with mp.workdps(40):
        for _ in range(3000):
            t = 10.0 ** (5.0 * rng.random())
            for name in ("g1", "h1"):
                err = abs(lattice_closed(name, t) - mp_lattice(name, mp.mpf(t)))
                assert err <= 1e-16, (name, t)


def test_envelope_bounds_sampled():
    for t in golden_points(2000, 1.0, 1e5):
        G = lattice_closed("g1", t)
        H = lattice_closed("h1", t)
        assert -1e-12 <= G <= G1_ENVELOPE / (t * t) + 1e-12
        assert -1e-12 <= H <= H1_ENVELOPE / t + 1e-12
        approx, err = em_H1_envelope(t)
        assert abs(H - approx) <= err + 1e-12


def test_epsilon1_properties():
    assert epsilon1(1.0) == pytest.approx(0.0, abs=1e-15)
    # epsilon1 -> 1/3 and is within 1/(3t) + O(1/t^2) of the limit
    assert epsilon1(1e9) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_epsilon1_is_antiderivative_of_G(tables_small):
    # finite differences of epsilon1 match G1 between lattice points
    for t in (1.3, 2.7, 5.5, 42.2):
        h = 1e-6
        deriv = (epsilon1(t + h) - epsilon1(t - h)) / (2 * h)
        assert deriv == pytest.approx(lattice_closed("g1", t), abs=1e-7)


def test_epsilon1_oscillation_peaks_at_the_tail_constant():
    # t^2 (eps1(t) - 1/3 + 1/(3t)) = (4/3) a({t}) - b({t})/(3t) with
    # |a| <= _EPS1_PEAK, attained at {t} = 1/2 -+ 1/(2 sqrt 3), where
    # b = 1/36; sampled on [N, N + 1]
    N = 1000
    peak = max(abs(t * t * (epsilon1(t) - 1.0 / 3.0 + 1.0 / (3.0 * t)))
               for t in (N + k / 4096 for k in range(4097)))
    assert (4.0 / 3.0) * _EPS1_PEAK < peak <= (4.0 / 3.0) * _EPS1_PEAK + 1.0 / (48.0 * N)


def test_h2_envelope_frozen_parameters():
    assert H2_ENVELOPE.sup_norm == 22527.5
    assert H2_ENVELOPE.l1_mellin2 == pytest.approx((math.pi**2 / 6) / 4345)
    assert H2_ENVELOPE.K == 100882
    assert H2_ENVELOPE.sum_c == 6
    assert H2_ENVELOPE.max_r == 5e13


@given(st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_eval_G_envelope_property(t):
    G = lattice_closed("g1", t)
    assert -1e-10 <= G <= G1_ENVELOPE / (t * t) + 1e-10


@given(st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_eval_H_euler_maclaurin_property(t):
    H = lattice_closed("h1", t)
    approx, err = em_H1_envelope(t)
    assert abs(H - approx) <= err + 1e-10
