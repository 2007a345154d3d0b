import dataclasses
import math

import mpmath as mp
import pytest

from conftest import (
    g1, golden_points, h1, h1_remainder, mp_lattice, mp_panel_quad, table_array,
)
from mobsum import identities
from mobsum.errors import InvalidArgumentError, RangeError
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
from mobsum.tables import Tables


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
    mert = table_array(tables_small, "M")
    for x in (7.0, 50.3, 200.0):
        exact = x * identity_kernel_integral(tables_small, x, "M-kernel")[0]
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


def test_kernel_takes_every_x_its_tables_cover(tables_small):
    # the kernel reads M and m at n <= floor(x): as evaluate does, it takes
    # every x below limit + 1 and raises RangeError from there on
    x = tables_small.limit + 0.5
    for fn in (residual_thm1_G, residual_thm1_H, residual_bal2, residual_mchliss):
        assert fn(tables_small, x).passed
    for form in ("M-kernel", "m-kernel", "m1-kernel"):
        with pytest.raises(RangeError, match="outside table range"):
            identity_kernel_integral(tables_small, tables_small.limit + 1.0, form)


def test_x_below_one_rejected(tables_small):
    for fn in (residual_thm1_G, residual_thm1_H, residual_bal2, residual_mchliss):
        with pytest.raises(InvalidArgumentError):
            fn(tables_small, 0.5)
    # an unknown kernel form is refused at every x, below 1 too
    for x in (0.5, 5.5):
        with pytest.raises(InvalidArgumentError, match="unknown form 'bogus'"):
            identity_kernel_integral(tables_small, x, "bogus")


def test_a_shifted_m_value_fails_its_budget(tables_small, monkeypatch):
    # m(1) read 1e-6 too high: the m- and m1-kernels read it on (x/2, x],
    # evaluate (which reads m(123) here) does not, so the residual moves by
    # about 3e-11, far inside a free 1e-8 and far outside the budget
    read = Tables.read

    def shifted(self, name, a, b):
        values = read(self, name, a, b)
        if name == "m" and a == 1:
            values = values.copy()
            values[0] += 1e-6
        return values

    monkeypatch.setattr(Tables, "read", shifted)
    for fn in (residual_thm1_H, residual_mchliss):
        rep = fn(tables_small, 123.4)
        assert rep.budget < abs(rep.residual) < 1e-8 and not rep.passed, rep
    assert residual_thm1_G(tables_small, 123.4).passed  # the M-kernel reads no m


def test_budgets_charge_only_the_radii_their_left_side_reads(tables_small):
    # thm1-G, thm1-H and bal2 read m1 = m - M/x on the left, so ell's
    # radius reaches none of their budgets; mchliss reads mcheck too, and
    # its budget grows with ell's radius
    ell = tables_small.series.ell
    wide_ell = dataclasses.replace(ell, error_radius=ell.error_radius * 1e3)
    wide = Tables(tables_small.mu, dataclasses.replace(tables_small.series, ell=wide_ell))
    for x in (31.7, 3170.5, 19999.5):
        for fn in (residual_thm1_G, residual_thm1_H, residual_bal2):
            assert fn(wide, x) == fn(tables_small, x), (fn, x)
        base, grown = residual_mchliss(tables_small, x), residual_mchliss(wide, x)
        assert grown.residual == base.residual
        assert grown.budget > base.budget + 100 * ell.radius(math.floor(x))


# float.hex of (rhs, residual) on a 1e5 table, taken when math.fsum still
# added the kernel's panel terms: the exact sum keeps each bit
RESIDUAL_BITS = {
    (residual_thm1_G, 31.7): ("0x1.03e3f88d73e6bp-4", "-0x1.8000000000000p-55"),
    (residual_thm1_H, 31.7): ("0x1.03e3f88d73e6cp-4", "-0x1.0000000000000p-54"),
    (residual_bal2, 31.7): ("0x1.03e3f88d73e6bp-4", "-0x1.8000000000000p-55"),
    (residual_mchliss, 31.7): ("-0x1.015885ae4d67ep-4", "0x1.8000000000000p-54"),
    (residual_thm1_G, 3170.5): ("0x1.63e7d697d5a24p-12", "0x1.5c00000000000p-56"),
    (residual_thm1_H, 3170.5): ("0x1.63e7d697d5d03p-12", "-0x1.8300000000000p-56"),
    (residual_bal2, 3170.5): ("0x1.63e7d697d5a24p-12", "0x1.5c00000000000p-56"),
    (residual_mchliss, 3170.5): ("-0x1.50a6b8df1bd31p-11", "0x1.b880000000000p-54"),
    (residual_thm1_G, 31234.5): ("0x1.f0b8ae290e08ap-15", "0x1.76c0000000000p-56"),
    (residual_thm1_H, 31234.5): ("0x1.f0b8ae290e9e0p-15", "0x1.3000000000000p-58"),
    (residual_bal2, 31234.5): ("0x1.f0b8ae290e08ap-15", "0x1.76c0000000000p-56"),
    (residual_mchliss, 31234.5): ("-0x1.222189c688fe1p-14", "-0x1.8fc0000000000p-56"),
}


@pytest.mark.parametrize("residual, x", list(RESIDUAL_BITS),
                         ids=[f"{f.__name__}-{x}" for f, x in RESIDUAL_BITS])
def test_residual_bits_are_pinned(tables_1e5, residual, x):
    rep = residual(tables_1e5, x)
    assert (rep.rhs.hex(), rep.residual.hex()) == RESIDUAL_BITS[residual, x]
