import functools
import math
import types
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from conftest import mp_lattice
from mobsum import quad
from mobsum.errors import DomainError, InvalidArgumentError, ResourceError
from mobsum.quad import (
    MellinBracket,
    _exact_sum,
    check_kernel_panels,
    identity_kernel_integral,
    mellin_finite_part,
    mellin_numeric,
)
from mobsum.special import mellin_G1_closed, mellin_H1_closed
from mobsum.weights import G1_SPEC, H1_SPEC


def test_bracket_basics():
    b = MellinBracket(lo=1.0, hi=2.0, tail_bound_used="t")
    assert b.width == 1.0
    assert b.contains(1.5) and not b.contains(2.5)


S_GRID = (-0.5, 0.0, 0.5, 1.0, 2.0)


@functools.lru_cache(maxsize=None)
def mellin_reference(X):
    """{(weight, s): Mellin finite part on [1, X]} at 50 digits, panel by panel.

    Each panel [N, min(N+1, X)] gets mpmath's Gauss-Legendre rule (the one
    mpmath.quad uses), 24 nodes for N < 4 and 12 beyond, shared by all ten
    integrands G1 t^-s and H1 t^-(s+1); adaptive mpmath.quad costs ~1.3 s
    per integrand at X = 1000.5.  The integrands' one singularity is t = 0,
    so they are analytic and below 2e3 inside the Bernstein ellipse rho = 4
    of a panel with N < 4 and below 1e2 inside rho = 12 of one with N >= 4:
    the rule errs by < 1e-25 per panel (Trefethen, Approximation Theory and
    Approximation Practice, Thm 19.3).
    """
    with mp.workdps(50):
        rule = GaussLegendre(mp.mp)
        nodes = {d: rule.calc_nodes(d, mp.mp.prec) for d in (3, 4)}
        powers = [-mp.mpf(s) for s in S_GRID]
        sums = {(w, s): [] for w in ("g1", "h1") for s in S_GRID}
        edges = [*range(1, math.ceil(X)), X]
        for a, b in zip(edges, edges[1:]):
            half, mid = (mp.mpf(b) - a) / 2, (mp.mpf(b) + a) / 2
            for x, w in nodes[4 if a < 4 else 3]:
                t = mid + half * x
                wg = w * half * mp_lattice("g1", t)
                wh = w * half * mp_lattice("h1", t) / t
                for s, p in zip(S_GRID, powers):
                    ts = t ** p
                    sums["g1", s].append(wg * ts)
                    sums["h1", s].append(wh * ts)
        return {key: mp.fsum(terms) for key, terms in sums.items()}


@pytest.mark.parametrize("X", [50, 1000.5])
@pytest.mark.parametrize("s", S_GRID)
@pytest.mark.parametrize("weight", [G1_SPEC, H1_SPEC], ids=["g1", "h1"])
def test_mellin_finite_part_within_rounding_bound(weight, s, X):
    value, half = mellin_finite_part(weight, s, X)
    assert 0 < half < 1e-6
    assert abs(mp.mpf(value) - mellin_reference(X)[weight.name, s]) <= half


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 1.0, 2.0])
def test_mellin_bracket_contains_closed_form_G1(s):
    closed = mellin_G1_closed(s)
    b = mellin_numeric(G1_SPEC, s, 2000)
    assert b.contains(closed.value)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_mellin_bracket_contains_closed_form_H1(s):
    closed = mellin_H1_closed(s)
    b = mellin_numeric(H1_SPEC, s, 2000)
    assert b.contains(closed.value)


@pytest.mark.parametrize("weight,s", [(G1_SPEC, 0.5), (H1_SPEC, 0.5)])
def test_simple_envelope_is_one_sided_and_wider(weight, s):
    # a non-integer cutoff takes the one-sided envelope: the tail adds
    # nothing to the lower end
    sharp = mellin_numeric(weight, s, 1000)
    simple = mellin_numeric(weight, s, 1000.5)
    closed = (mellin_G1_closed if weight is G1_SPEC else mellin_H1_closed)(s)
    value, half = mellin_finite_part(weight, s, 1000.5)
    assert simple.lo == value - half
    assert simple.tail_bound_used.startswith("simple:")
    assert simple.contains(closed.value)
    assert simple.width >= sharp.width


def test_sharp_envelope_needs_integer_cutoff():
    # the cutoff alone picks the tail: sharp at an integer X, one-sided else
    assert mellin_numeric(G1_SPEC, 0.5, 1000).tail_bound_used == "sharp:parts-of-eps1"
    assert mellin_numeric(H1_SPEC, 0.5, 1000).tail_bound_used == "sharp:euler-maclaurin"
    b = mellin_numeric(G1_SPEC, 0.5, 1000.5)
    assert b.tail_bound_used == "simple:G1<=1/t^2"
    assert b.contains(mellin_G1_closed(0.5).value)
    assert b.width == pytest.approx(2.1e-5, rel=0.01)
    assert mellin_numeric(H1_SPEC, 0.5, 1000.5).tail_bound_used == "simple:H1<=2.1/t"


@pytest.mark.parametrize("s, X", [(0.5, math.inf), (0.5, math.nan), (math.inf, 100),
                                  (math.nan, 100), (0.5, -math.inf)])
def test_mellin_rejects_non_finite_inputs(s, X):
    with pytest.raises(InvalidArgumentError, match="finite"):
        mellin_numeric(G1_SPEC, s, X)


def test_mellin_tail_divergence_guard():
    with pytest.raises(DomainError):
        mellin_numeric(G1_SPEC, -1.5, 100)


def test_mellin_deterministic():
    a = mellin_numeric(G1_SPEC, 0.5, 500)
    b = mellin_numeric(G1_SPEC, 0.5, 500)
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_bracket_narrows_with_cutoff():
    widths = [mellin_numeric(G1_SPEC, 0.5, X).width for X in (10, 100, 1000)]
    assert widths[0] > widths[1] > widths[2]


@given(st.floats(min_value=-0.9, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_mellin_bracket_property(s):
    if abs(s - 1.0) < 1e-3:
        return
    closed = mellin_G1_closed(s)
    b = mellin_numeric(G1_SPEC, s, 500)
    assert b.lo - 1e-15 <= closed.value <= b.hi + 1e-15


# float.hex of mellin_finite_part's (value, half_width) at X = 1e5, taken
# when math.fsum still added the panel terms: the exact sum keeps each bit
MELLIN_BITS = {
    ("g1", 0.5): ("0x1.cd6b3031efe37p-3", "0x1.3b4848afb6880p-37"),
    ("g1", 1.0): ("0x1.61dcc0e37fe02p-3", "0x1.74444c677cb66p-43"),
    ("h1", 0.5): ("0x1.2cfd4eab0ff24p-2", "0x1.06bf15dd7fa9ep-36"),
}


@pytest.mark.parametrize("name, s", list(MELLIN_BITS))
def test_mellin_finite_part_bits_are_pinned(name, s, monkeypatch):
    def no_fsum(x):
        raise AssertionError("a panel sum fell back to math.fsum")

    monkeypatch.setattr(math, "fsum", no_fsum)
    value, half = mellin_finite_part(G1_SPEC if name == "g1" else H1_SPEC, s, 1e5)
    assert (value.hex(), half.hex()) == MELLIN_BITS[name, s]


def _sum_or_error(add, x):
    """add(x) as float.hex (zero sign included), or the error it raises."""
    try:
        return add(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


@given(st.lists(st.floats(), max_size=40))
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_fsum_on_any_floats(xs):
    # hypothesis floats reach subnormals, 2^1023, infinities and nan
    assert _sum_or_error(_exact_sum, np.array(xs)) == _sum_or_error(math.fsum, xs)


SUM_CHUNK = 2**14


@given(st.one_of(st.integers(0, 3 * SUM_CHUNK + 1),
                 st.sampled_from([SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1, 3 * SUM_CHUNK + 1])),
       st.integers(-1074, 1023), st.integers(-1074, 36),
       st.sampled_from(["spread", "cancel", "zero"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_sum_is_fsum_across_chunks(n, e1, e2, kind, seed):
    # magnitudes 2^e for e between e1 and e2: below 2^37 the digits take
    # the sum, at or above it math.fsum does; "cancel" pairs each y with -y
    rng = np.random.default_rng(seed)
    lo, hi = sorted((e1, e2))
    if kind == "zero":
        x = rng.choice([0.0, -0.0], n) if seed % 2 else np.full(n, -0.0)
    else:
        x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi + 1, n))
        if kind == "cancel":
            x = rng.permutation(np.concatenate([x[:n // 2], -x[:n // 2]]))
    assert _sum_or_error(_exact_sum, x) == _sum_or_error(math.fsum, x.tolist())


def test_identity_kernel_refuses_its_panel_count_from_x_alone():
    # at most 2 floor(x) - 1 panels: the refusal comes before any panel
    # array, so a table that holds only its limit is never read
    table = types.SimpleNamespace(limit=10**7)
    for x in (5000001.0, 5000001.5, 6e6):
        with pytest.raises(ResourceError, match=f"panel count {2 * int(x) - 1} exceeds"):
            identity_kernel_integral(table, x, "M-kernel")
    check_kernel_panels(5000000.99)  # 9999999 panels at most


_FIX = 192  # bits of the fixed point of `_kernel_reference`: about 58 digits


def _kernel_reference(tables, x):
    """The M-, m- and m1-kernel integrals at x, at 50 digits or more, of
    the same float coefficients M(n)/x and m(n) over the same panels as
    `identity_kernel_integral` (its edges, and n and N at its rounded
    midpoints), each weight from the integer power sums of N as in
    conftest.mp_lattice.  Every power integral is exact in fixed point at
    2^-_FIX but log(hi/lo), which mpmath gives at 60 digits."""
    def fix(v):
        a, b = v.as_integer_ratio()
        return (a << _FIX) // b

    k = np.arange(1, math.floor(x) + 1, dtype=np.float64)
    edges = np.unique(np.concatenate([k, x / k, [x]]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    ns, Ns = np.floor(x / mid).astype(np.int64), np.floor(mid).astype(np.int64)
    Mx = (tables.read("M", 1, int(ns[0]) + 1) / x).tolist()
    m = tables.read("m", 1, int(ns[0]) + 1).tolist()
    sums = [0, 0, 0]
    with mp.workdps(60):
        for lo, hi, n, N in zip(edges[:-1].tolist(), edges[1:].tolist(), ns.tolist(),
                                Ns.tolist()):
            D = [fix(hi) - fix(lo), int(mp.ldexp(mp.log(mp.mpf(hi) / lo), _FIX))]
            inv_lo, inv_hi = (1 << 2 * _FIX) // fix(lo), (1 << 2 * _FIX) // fix(hi)
            p_lo = p_hi = 1 << _FIX
            for p in range(2, 6):  # D[p] = integral of t^-p over [lo, hi]
                p_lo, p_hi = p_lo * inv_lo >> _FIX, p_hi * inv_hi >> _FIX
                D.append((p_lo - p_hi) // (p - 1))
            S1 = N * (N + 1) // 2
            S2 = N * (N + 1) * (2 * N + 1) // 6
            S3 = S1 * S1
            g = D[0] - 4 * S1 * D[2] + 4 * S3 * D[4]  # G1 dt
            g_t = D[1] - 4 * S1 * D[3] + 4 * S3 * D[5]  # G1 dt/t
            h = ((3 + 6 * N) * D[2] - 16 * S1 * D[3] - 6 * S2 * D[4] + 16 * S3 * D[5]) // 3
            M_n, m_n = fix(Mx[n - 1]), fix(m[n - 1])
            sums[0] += M_n * g
            sums[1] += m_n * h
            sums[2] += m_n * g_t - M_n * g
    return [Fraction(v, 1 << 2 * _FIX) for v in sums]


# a fractional x; one ulp above 15015 = 3*5*7*11*13, so a jump x/k falls
# next to the integer 15015/k for each divisor k; and one below limit + 1
@pytest.mark.parametrize("x", [777.3, math.nextafter(15015.0, math.inf), 19999.5])
def test_kernel_half_width_covers_its_error(tables_small, x):
    for form, ref in zip(("M-kernel", "m-kernel", "m1-kernel"),
                         _kernel_reference(tables_small, x)):
        value, half = identity_kernel_integral(tables_small, x, form)
        assert 0 < half < 1e-13
        assert abs(Fraction(value) - ref) <= half, form


def _kernel_bits(tables):
    """float.hex of the Mellin finite parts and kernel integrals that the
    slice test compares; 1000.5 ends on a partial panel."""
    parts = [mellin_finite_part(w, s, X) for w in (G1_SPEC, H1_SPEC)
             for s in (-0.5, 0.5, 1.0) for X in (1000.5, 1e4)]
    kernels = [identity_kernel_integral(tables, x, form) for x in (31.7, 3170.5, 31234.5)
               for form in ("M-kernel", "m-kernel", "m1-kernel")]
    return [v.hex() for pair in parts + kernels for v in pair]


@pytest.mark.parametrize("size", [1, 7, 4097])
def test_slice_size_never_moves_a_bit(tables_1e5, size, monkeypatch):
    # the term matrix is whole and every term elementwise, so a slice of
    # one panel, an odd slice and one past the default give the same bits
    want = _kernel_bits(tables_1e5)
    monkeypatch.setattr(quad, "_SLICE", size)
    assert _kernel_bits(tables_1e5) == want
