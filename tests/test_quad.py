import functools
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from conftest import mp_lattice
from mobsum.errors import DomainError, InvalidArgumentError
from mobsum.quad import MellinBracket, mellin_finite_part, mellin_numeric
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
