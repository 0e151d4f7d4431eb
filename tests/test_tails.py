"""Symbolic tail calculus: exact evaluation, asymptotic keys, certified
series bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcalc import tails
from wcalc.tails import (
    FactorialPower,
    PowerIndex,
    RootPowerDualTail,
    SteppedTail,
    Tail,
    geometric_mean,
    root_gap_limit,
    tail_from_json,
)

_s = st.floats(min_value=0.1, max_value=5.0)
_a = st.floats(min_value=0.25, max_value=4.0)


def test_factorial_power_values():
    t = FactorialPower(2.0, 3.0)
    # M_5 = 5!^2 * 3^5
    assert t.log_value(5) == pytest.approx(2 * math.log(120) + 5 * math.log(3))
    assert t.log_value(5) - t.log_value(4) == pytest.approx(math.log(3 * 5 ** 2))


def test_root_asymptote_log_family():
    t = FactorialPower(1.5, 2.0)
    kind, alpha, beta = t.asymptote()
    assert kind == "log" and alpha == 1.5
    # root(p) - alpha*log(p) -> beta
    p = 1e8
    assert t.root(p) - alpha * math.log(p) == pytest.approx(beta, abs=1e-6)


def test_power_index_asymptote():
    kind, gamma, kappa = PowerIndex(0.5, 3.0).asymptote()
    assert kind == "poly" and gamma == 2.0 and kappa == 0.5
    kind, alpha, beta = PowerIndex(2.0, 1.0).asymptote()
    assert kind == "log" and alpha == 0.0 and beta == 2.0


@given(_s, _a)
@settings(max_examples=50, deadline=None)
def test_reciprocal_mu_bracket_contains_truth(s, a):
    t = FactorialPower(1.0 + s, a)
    P = 50
    bounds = t.reciprocal_mu_tail_bounds(P)
    assert bounds is not None
    lo, hi = bounds
    # brute-force partial sum of 1/mu_p = 1/(a p^(1+s)) plus an integral
    # bracket for the truncated remainder
    cut = 200000
    ps = np.arange(P + 1, cut)
    partial = np.sum(1.0 / (a * ps ** (1.0 + s)))
    rem_lo = cut ** (-s) / (a * s)
    rem_hi = (cut - 1.0) ** (-s) / (a * s)
    assert lo <= (partial + rem_hi) * (1 + 1e-9)
    assert partial + rem_lo <= hi * (1 + 1e-9)


@given(_s)
@settings(max_examples=30, deadline=None)
def test_root_sum_upper_is_an_upper_bound(s):
    t = FactorialPower(1.0 + s, 1.0)
    X = 40
    cert = t.root_sum_tail_upper(X)
    ps = np.arange(X + 1, 20000)
    partial = np.sum(np.exp(-t.log_values(ps) / ps))
    assert partial <= cert * (1 + 1e-9)


def test_root_sum_upper_unavailable_at_divergence():
    assert FactorialPower(1.0, 1.0).root_sum_tail_upper(10.0) is None
    assert FactorialPower(0.5, 2.0).reciprocal_mu_tail_bounds(10) is None


def test_root_gap_limit_cases():
    g2, g3 = FactorialPower(2.0), FactorialPower(3.0)
    assert root_gap_limit(g2, g3) == -math.inf
    assert root_gap_limit(g3, g2) == math.inf
    # same s, different a: finite gap log(a1/a2)
    t1, t2 = FactorialPower(2.0, 4.0), FactorialPower(2.0, 1.0)
    assert root_gap_limit(t1, t2) == pytest.approx(math.log(4.0))
    # poly beats log always
    assert root_gap_limit(PowerIndex(1.0, 2.0), FactorialPower(5.0)) == math.inf
    assert root_gap_limit(None, g2) is None
    assert root_gap_limit(PowerIndex(1.0, 2.0), PowerIndex(1.0, 2.0)) == 0.0
    assert root_gap_limit(PowerIndex(1.0, 3.0), PowerIndex(9.0, 2.0)) == math.inf


def test_stepped_tail_integer_step_matches_subsequence():
    parent = FactorialPower(2.0)
    vals = parent.log_values(np.arange(0, 101))
    t = SteppedTail(vals, parent, 2.0)
    for j in (3, 10, 50, 200):
        assert t.log_value(j) == pytest.approx(parent.log_value(2 * j) / 2.0)


def test_stepped_tail_asymptote_shift():
    parent = FactorialPower(2.0)
    t = SteppedTail(parent.log_values(np.arange(0, 50)), parent, 3.0)
    kind, alpha, beta = t.asymptote()
    _, pa, pb = parent.asymptote()
    assert kind == "log" and alpha == pa
    assert beta == pytest.approx(pb + pa * math.log(3.0))


def test_root_power_dual_flat_then_growing():
    t = RootPowerDualTail(0.5, 1.0, 1.0)
    assert t.log_value(0.3) == 0.0  # below threshold c*a
    assert t.log_value(100.0) > 0.0
    kind, alpha, _ = t.asymptote()
    assert kind == "log" and alpha == pytest.approx(2.0)


@given(_s, _s, _a, _a)
@settings(max_examples=50, deadline=None)
def test_geometric_mean_is_pointwise(s1, s2, a1, a2):
    t1, t2 = FactorialPower(s1, a1), FactorialPower(s2, a2)
    g = geometric_mean(t1, t2)
    for p in (1.0, 7.0, 40.0):
        assert g.log_value(p) == pytest.approx(
            0.5 * (t1.log_value(p) + t2.log_value(p)), abs=1e-9
        )


def test_geometric_mean_unavailable_across_families():
    assert geometric_mean(FactorialPower(2.0), PowerIndex(1.0, 2.0)) is None


def test_json_round_trip():
    for t in (
        FactorialPower(2.0),
        FactorialPower(1.5, 2.0),
        PowerIndex(1.0, 2.0),
        RootPowerDualTail(0.5, 1.0, 2.0),
    ):
        back = tail_from_json(t.to_json())
        assert back.log_value(17.0) == pytest.approx(t.log_value(17.0))


# -- vector evaluation ---------------------------------------------------

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _scalar_log_value(t, p):
    """Each family's closed form as scalar Python arithmetic, written
    independently of the vector hooks."""
    if isinstance(t, FactorialPower):
        return t.s * math.lgamma(p + 1.0) + p * math.log(t.a)
    if isinstance(t, PowerIndex):
        return t.kappa * p ** t.beta
    if isinstance(t, SteppedTail):
        x = t.l * p
        last = len(t.parent_log_values) - 1
        if x <= last:
            parent = float(np.interp(x, np.arange(last + 1), t.parent_log_values))
        elif t.parent_tail is None:
            raise ValueError("parent prefix exhausted and no parent tail")
        else:
            parent = _scalar_log_value(t.parent_tail, x)
        return parent / t.l
    if isinstance(t, RootPowerDualTail):
        x = t.l * p
        th = t.c * t.a
        if x <= th:
            return 0.0
        val = (x / t.a) * math.log(x / th) - x / t.a + t.c
        return val / t.l
    raise TypeError(type(t).__name__)


def _scalar_values(t, ps):
    return np.array([_scalar_log_value(t, float(p)) for p in ps])


_P = 16000
_GEVREY_PREFIX = FactorialPower(2.0).log_values(np.arange(0, 4001))


@pytest.mark.parametrize("t", [
    FactorialPower(1.0),
    FactorialPower(2.5),
    FactorialPower(1.5, 3.0),
    FactorialPower(3.0, 0.4),
    PowerIndex(0.5, 1.0),
    PowerIndex(0.25, 1.5),
    PowerIndex(1.0, 2.0),
    PowerIndex(2.0, 3.0),
    RootPowerDualTail(0.5, 1.0, 2.0),
    RootPowerDualTail(2.0, 1.0, 0.5),
    *(SteppedTail(_GEVREY_PREFIX, FactorialPower(2.0), l) for l in (0.5, 2.0, 3.0)),
], ids=repr)
def test_log_values_bit_identical_to_scalar_loop(t):
    # with a parent tail the stepped rows run past the stored prefix
    ps = np.arange(0, _P + 1)
    assert _same_bits(t.log_values(ps), _scalar_values(t, ps))
    odd = np.array([0.0, 0.5, 7.25, 1e3 / 3.0, 12345.5])
    assert _same_bits(t.log_values(odd), _scalar_values(t, odd))
    assert _same_bits(t.log_values(17), _scalar_values(t, [17]))


@pytest.mark.parametrize("l", [0.5, 2.0, 3.0])
def test_stepped_log_values_without_parent_tail(l):
    t = SteppedTail(_GEVREY_PREFIX, None, l)
    inside = np.arange(0, int(4000 / l) + 1)
    assert _same_bits(t.log_values(inside), _scalar_values(t, inside))
    beyond = np.arange(0, int(4000 / l) + 2)
    with pytest.raises(ValueError, match="no parent tail"):
        t.log_values(beyond)
    with pytest.raises(ValueError, match="no parent tail"):
        _scalar_values(t, beyond)


def test_every_family_goes_through_base_log_values():
    # Tail.log_values is the one entry point a wrapper on the base class
    # sees; families override the _log_values hook instead
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    families = list(subclasses(Tail))
    assert {FactorialPower, PowerIndex, SteppedTail, RootPowerDualTail} <= set(families)
    for cls in families:
        assert "log_values" not in cls.__dict__, cls.__name__


def test_each_family_writes_its_closed_form_once():
    # the scalar log_value is the base class's one-point evaluation of the
    # family's vector hook, so a family cannot carry a second formula
    for cls in (FactorialPower, PowerIndex, SteppedTail, RootPowerDualTail):
        assert "log_value" not in cls.__dict__, cls.__name__
        assert "_log_values" in cls.__dict__, cls.__name__
    with pytest.raises(NotImplementedError):
        Tail().log_value(1.0)


def test_root_power_hook_overflows_quietly():
    # a tiny exponent a overflows x / a far out: inf, then inf - inf = nan,
    # as the scalar formula gives, and numpy prints no warning
    t = RootPowerDualTail(1e-300, 1.0, 1.0)
    ps = np.array([0.0, 10.0, 1e6, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = t.log_values(ps)
        one = t.log_value(1e6)
    want = _scalar_values(t, ps)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isinf(got[2]) and np.isnan(got[3]) and one == got[2]


# -- the shared log-factorial table --------------------------------------

def _requests():
    """Point sets a row or a sample asks a FactorialPower for."""
    contiguous = st.tuples(st.integers(0, 3000), st.integers(0, 3000)).map(
        lambda r: np.arange(r[0], r[0] + r[1], dtype=float)
    )
    sparse = st.lists(st.integers(0, 4_000_000), max_size=40).map(
        lambda v: np.array(v, dtype=float)
    )
    fractional = st.lists(
        st.floats(0.0, 5000.0).filter(lambda x: x != math.floor(x)), max_size=40
    ).map(lambda v: np.array(v, dtype=float))
    mixed = st.tuples(contiguous, sparse, fractional).map(np.concatenate)
    return st.one_of(contiguous, sparse, fractional, mixed, st.just(np.empty(0)))


@given(_s, _a, st.lists(_requests(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_log_factorial_table_is_bit_identical_cold_and_warm(s, a, requests):
    saved = tails._LOG_FACTORIALS
    cold = np.empty(0)
    cold.flags.writeable = False
    tails._LOG_FACTORIALS = cold
    try:
        t = FactorialPower(s, a)
        for ps in requests:
            before = tails._LOG_FACTORIALS.size
            assert _same_bits(t.log_values(ps), _scalar_values(t, ps))
            # growth never costs more than twice the request's own points
            assert tails._LOG_FACTORIALS.size - before <= 2 * ps.size
        table = tails._LOG_FACTORIALS
        assert not table.flags.writeable
        assert _same_bits(table, [math.lgamma(p + 1.0) for p in range(table.size)])
    finally:
        tails._LOG_FACTORIALS = saved


def test_sparse_huge_points_do_not_grow_the_table():
    FactorialPower(2.0).log_values(np.arange(0, 101))
    size = tails._LOG_FACTORIALS.size
    assert size >= 101
    t = FactorialPower(1.5, 2.0)
    for ps in ([1e6], [size + 10.0, 4e6], [1e300]):
        assert _same_bits(t.log_values(ps), _scalar_values(t, ps))
        assert tails._LOG_FACTORIALS.size == size


# -- the asymptotic scale against direct evaluation -------------------------

def _catalogue_tails():
    base = st.one_of(
        st.builds(FactorialPower, st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
                  st.sampled_from((1.0, 2.0))),
        st.builds(PowerIndex, st.sampled_from((0.5, 1.0, 2.0)),
                  st.sampled_from((1.0, 1.5, 2.0, 2.5))),
        st.builds(RootPowerDualTail, st.sampled_from((0.5, 1.0, 2.0)),
                  st.sampled_from((1.0, 2.0)), st.sampled_from((1.0, 2.0))),
    )

    def stepped(t, l):
        return SteppedTail(t.log_values(np.arange(11)), t, l)

    return st.one_of(base, st.builds(stepped, base, st.sampled_from((0.5, 2.0))))


@given(_catalogue_tails(), _catalogue_tails())
@settings(max_examples=200, deadline=None)
def test_scale_answers_match_the_tails_at_1e6_and_1e7(x, y):
    # the closed forms are evaluated by _scalar_log_value, whose math.lgamma
    # leaves the shared log-factorial table as it is
    def L(t, p):
        return _scalar_log_value(t, p)

    def mu_log(t, p):
        return L(t, p) - L(t, p - 1)

    def growth(f):
        return f(1e7) - f(1e6)

    sx, sy = x.asymptote(), y.asymptote()
    assert sx.root_diverges == (growth(lambda p: L(x, p) / p) > 1e-3)
    # mu_p = p**(alpha + o(1)): the decade's change of log mu_p is alpha log 10
    assert sx.series_converges == (growth(lambda p: mu_log(x, p)) > (1 + 1e-3) * math.log(10.0))
    # (M.2) and its mixed form along the diagonal j = k = p
    assert sx.moderate_growth == (growth(lambda p: (L(x, 2 * p) - 2 * L(x, p)) / (2 * p)) < 1e-3)
    assert sx.mixed_moderate_growth(sy) == (
        growth(lambda p: (L(x, 2 * p) - 2 * L(y, p)) / (2 * p)) < 1e-3
    )

    g = sx.gap_limit(sy)
    gap = growth(lambda p: L(x, p) / p - L(y, p) / p)
    if math.isfinite(g):
        assert abs(L(x, 1e7) / 1e7 - L(y, 1e7) / 1e7 - g) < 1e-3
        shift = growth(lambda p: (L(x, p + 1) - L(y, p)) / (p + 1))
        assert sx.shift_defect_unbounded == (shift > 1e-3)
    else:
        assert abs(gap) > 1e-3 and (gap > 0) == (g > 0)

    # omega_M(mu_p) = p log mu_p - L_p, against log t = log mu_p
    def omega(p):
        return p * mu_log(x, p) - L(x, p)

    cls = sx.omega_class()
    if cls is None:
        assert omega(1e7) < 1.0
    elif cls[0] == "power":             # log omega ~ e log t
        e = growth(lambda p: math.log(omega(p))) / growth(lambda p: mu_log(x, p))
        assert e == pytest.approx(cls[1], rel=1e-3)
    else:                               # log omega ~ e log log t
        e = growth(lambda p: math.log(omega(p))) / growth(lambda p: math.log(mu_log(x, p)))
        assert e == pytest.approx(cls[1], rel=1e-3)
