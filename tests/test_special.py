import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from mobsum.errors import DomainError
from mobsum.special import (
    _EULER_GAMMA,
    h2_integral_bound,
    mellin_G1_closed,
    mellin_G1check_closed,
    mellin_H1_closed,
    zeta_prime_zero,
    zeta_real,
)

# frozen 30-digit oracles (independent arbitrary-precision evaluations)
ORACLES = {
    ("G1", 1.0): 0.172784335098467139393487909918,    # 3/4 - gamma
    ("G1", 0.5): 0.225302108662227421,
    ("H1", 0.0): 0.439900711368432137,                # 2 zeta'(0) + 41/18
    ("H1", 0.5): 0.293935050025625520,                # 2 + (368/315) zeta(1/2)
    ("H1", 1.0): 0.0931322571724656,                  # 67/54 - 2 log(2 pi)/3... frozen numeric
    ("G1check", 0.5): 1.225302108662227421,
    ("G1check", 1.0): 1.172784335098467139,
}


def test_euler_gamma_30_digits():
    assert abs(_EULER_GAMMA - 0.5772156649015328606) < 1e-16


def test_zeta_prime_zero():
    # zeta'(0) = -log(2 pi)/2
    assert zeta_prime_zero().value == pytest.approx(-math.log(2 * math.pi) / 2, abs=1e-15)


def test_zeta_against_mpmath_sample():
    # deterministic low-discrepancy sample, >= 0.01 away from the pole
    g = (math.sqrt(5) - 1) / 2
    pts = [-0.9 + 30.9 * ((i * g) % 1.0) for i in range(1, 101)]
    pts = [s for s in pts if abs(s - 1.0) >= 0.01]
    with mp.workdps(30):
        for s in pts:
            ref = float(mp.zeta(s))
            sv = zeta_real(s)
            assert abs(sv.value - ref) <= max(sv.abs_error, 1e-12 * max(1.0, abs(ref)))


def test_zeta_known_values():
    assert zeta_real(2.0).value == pytest.approx(math.pi**2 / 6, rel=1e-14)
    assert zeta_real(0.0).value == pytest.approx(-0.5, rel=1e-14)
    assert zeta_real(-0.5).value == pytest.approx(-0.2078862249773546, rel=1e-12)
    assert zeta_real(0.5).value == pytest.approx(-1.4603545088095868, rel=1e-12)


def test_zeta_domain_errors():
    for s in (1.0, 1.0 + 1e-10, -1.0, 31.0):
        with pytest.raises(DomainError):
            zeta_real(s)


@given(st.floats(min_value=-0.9, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_zeta_error_bound_is_certified(s):
    if abs(s - 1.0) < 0.01:
        return
    sv = zeta_real(s)
    with mp.workdps(30):
        ref = float(mp.zeta(s))
    assert abs(sv.value - ref) <= sv.abs_error + 1e-15 * abs(ref)


@pytest.mark.parametrize("name,s", [k for k in ORACLES if k[0] != "H1" or k[1] != 1.0])
def test_mellin_closed_forms(name, s):
    fn = {"G1": mellin_G1_closed, "H1": mellin_H1_closed,
          "G1check": mellin_G1check_closed}[name]
    sv = fn(s)
    assert sv.value == pytest.approx(ORACLES[(name, s)], abs=1e-12)
    assert sv.abs_error <= 1e-12


def test_g1check_is_one_plus_g1():
    for s in (-0.5, 0.3, 0.5, 1.0, 2.0):
        a = mellin_G1check_closed(s).value
        b = mellin_G1_closed(s).value
        assert a == pytest.approx(1.0 + b, rel=1e-13)


@pytest.mark.parametrize("fn,s0", [
    (mellin_G1_closed, 1.0),
    (mellin_G1check_closed, 1.0),
    (mellin_H1_closed, 1.0),
    (mellin_H1_closed, 0.0),
])
def test_removable_singularity_series_branch_is_continuous(fn, s0):
    center = fn(s0).value
    for eps in (1e-7, -1e-7, 9e-7, -9e-7):
        v = fn(s0 + eps)
        # first-order series: O(|eps|) drift, certified error stays O(eps^2)
        assert abs(v.value - center) < 1e-5
        assert v.abs_error <= 5e-12
    # continuity across the branch switch at |s - s0| = 1e-6: the jump is
    # bounded by slope * step plus the certified errors of both branches
    a = fn(s0 + 0.99e-6)
    b = fn(s0 + 1.01e-6)
    slope = abs(fn(s0 + 9e-7).value - fn(s0 + 1e-7).value) / 8e-7
    assert abs(a.value - b.value) <= slope * 2.1e-8 + a.abs_error + b.abs_error


def test_h2_integral_bound_table():
    # printed table rows are upper bounds, rounded *up* at the last digit:
    # the computed value must lie in (printed - ulp, printed]
    assert h2_integral_bound(0.5) == pytest.approx(8.26, abs=0.01)
    for delta, printed, ulp in [(0.1, 0.0032, 1e-4), (0.05, 0.00114, 1e-5),
                                (0.01, 0.000479, 1e-6), (0.001, 0.000389, 1e-6)]:
        v = h2_integral_bound(delta)
        assert printed - ulp < v <= printed, (delta, v)
    # the delta -> 0 limit is an infimum, printed rounded down
    limit = (math.pi**2 / 6.0) / 4345.0
    assert 0.000378 <= limit < 0.000379


def test_h2_integral_bound_proof_constants():
    assert 1.0 / h2_integral_bound(1.0 / math.log(8.2e25)) == pytest.approx(1796.57, rel=5e-5)
    assert 1.0 / h2_integral_bound(2.0 / 18900.0) == pytest.approx(2633.6, rel=5e-5)


def test_h2_integral_bound_domain():
    for d in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(DomainError):
            h2_integral_bound(d)


@given(st.floats(min_value=1e-6, max_value=0.2))
@settings(max_examples=50, deadline=None)
def test_h2_integral_bound_exceeds_its_limit(delta):
    # C_delta decreases toward the delta -> 0 limit l1_mellin2
    limit = (math.pi**2 / 6.0) / 4345.0
    assert h2_integral_bound(delta) >= limit * (1 - 1e-12)
