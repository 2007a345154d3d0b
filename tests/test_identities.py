import dataclasses
import math

import mpmath as mp
import pytest

from conftest import g1, golden_points, h1, h1_remainder, mp_lattice, mp_panel_quad
from mobsum import identities
from mobsum.errors import InvalidArgumentError
from mobsum.identities import (
    g1_boundary_over_y,
    g1_head_integral,
    h1_head_integral,
    residual_bal2,
    residual_mchliss,
    residual_thm1_G,
    residual_thm1_H,
)
from mobsum.quad import identity_kernel_integral


def test_closed_form_boundary_integrals_match_quadrature():
    for x in (2.0, 7.3, 50.0):
        a = 1 / mp.mpf(x)
        num = mp_panel_quad(lambda y: g1(y) / y, [a, 1]) / x
        assert g1_boundary_over_y(x) == pytest.approx(float(num), abs=1e-12)
        num = mp_panel_quad(g1, [0, a])
        assert g1_head_integral(x) == pytest.approx(float(num), abs=1e-12)
        num = mp_panel_quad(h1, [0, a])
        assert h1_head_integral(x) == pytest.approx(float(num), abs=1e-12)


@pytest.mark.parametrize("x", [1.0, 1.7, 2.0, 7.0, 33.3, 500.9, 4999.5])
def test_thm1_both_families(tables_small, x):
    rg = residual_thm1_G(tables_small, x)
    rh = residual_thm1_H(tables_small, x)
    assert rg.passed and abs(rg.residual) < 1e-9
    assert rh.passed and abs(rh.residual) < 1e-9


@pytest.mark.parametrize("x", [1.0, 2.5, 7.0, 100.0, 1234.5])
def test_bal2_and_mchliss(tables_small, x):
    rb = residual_bal2(tables_small, x)
    rm = residual_mchliss(tables_small, x)
    assert rb.passed and abs(rb.residual) < 1e-9
    assert rm.passed and abs(rm.residual) < 1e-9


@pytest.mark.parametrize("x", [1.0, 7.3, 4999.5])
def test_bal2_reports_what_thm1_G_reports(tables_small, x):
    # bal2's boundary 8/(3x) - (4/x^2)(1 - 1/(3x^2)) is thm1-G's, typed out
    rb = residual_bal2(tables_small, x)
    assert rb.name == "bal2"
    assert dataclasses.replace(rb, name="thm1-G") == residual_thm1_G(tables_small, x)


def test_identities_at_quasi_random_points(tables_small):
    for x in golden_points(10, 1.0, 10000.0):
        for fn in (residual_thm1_G, residual_thm1_H, residual_bal2, residual_mchliss):
            rep = fn(tables_small, x)
            assert rep.passed, (fn.__name__, x, rep.residual)


def test_residuals_call_the_kernel_hook_once_each(tables_small, monkeypatch):
    # the traced benchmark times the kernel by wrapping this module global
    kernel, forms = identities.identity_kernel_integral, []

    def counting(tables, x, form):
        forms.append(form)
        return kernel(tables, x, form)

    monkeypatch.setattr(identities, "identity_kernel_integral", counting)
    for fn, form in ((residual_thm1_G, "M-kernel"), (residual_thm1_H, "m-kernel"),
                     (residual_bal2, "M-kernel"), (residual_mchliss, "m1-kernel")):
        forms.clear()
        assert fn(tables_small, 123.4).passed
        assert forms == [form], fn.__name__


def test_step_weighted_integral_matches_quadrature(tables_small):
    # exact M kernel x * integral_1^x M(x/t) G1(t)/x dt vs per-panel quadrature
    mert = tables_small.mu.mertens
    for x in (7.0, 50.3, 200.0):
        exact = x * identity_kernel_integral(tables_small, x, "M-kernel")
        xm = mp.mpf(x)
        edges = sorted({mp.mpf(n) for n in range(1, math.floor(x) + 1)}
                       | {xm / k for k in range(1, math.floor(x) + 1)} | {xm})
        num = mp_panel_quad(lambda t: int(mert[int(mp.floor(xm / t))]) * mp_lattice("g1", t),
                            edges)
        assert exact == pytest.approx(float(num), abs=1e-9)


def test_h1_remainder_function():
    assert h1_remainder(1.0) == pytest.approx(2 - 8 / 3 - 2 / 3 + 4 / 3)
    # increasing, nonnegative after its zero, limit 2
    vals = [h1_remainder(x) for x in (1.0, 2.0, 5.0, 100.0, 1e6)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(2.0, abs=1e-5)
    # |integral_0^{1/x} h1| = F(x)/x <= 2/x
    for x in (1.5, 4.0, 77.0):
        assert abs(h1_head_integral(x)) <= 2.0 / x


def test_x_below_one_rejected(tables_small):
    for fn in (residual_thm1_G, residual_thm1_H, residual_bal2, residual_mchliss):
        with pytest.raises(InvalidArgumentError):
            fn(tables_small, 0.5)
