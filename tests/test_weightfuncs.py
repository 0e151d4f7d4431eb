"""Associated weight functions, their conjugates and condition battery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcalc.errors import DomainExceeded, NotNormalized
from wcalc.sequences import LogWeightSequence, kept, lc_minorant
from wcalc.weightfuncs import (
    associated_function,
    check_lemma_assofunc,
    check_omega_conditions,
    check_relation_comparison,
    make_power_log_weight,
    make_root_power_weight,
    omega_ratio_range,
    relation_omega,
    sequence_from_weight,
)


def test_omega_of_factorial_at_e():
    # sup_p (p - log p!) is attained near p = e; classic value 2 - log 2
    g1 = LogWeightSequence.gevrey(1.0, 100)
    w = associated_function(g1)
    assert w.omega(math.e) == pytest.approx(2.0 - math.log(2.0), abs=1e-12)


def test_omega_vanishes_below_one():
    w = associated_function(LogWeightSequence.gevrey(2.0, 50))
    assert w.omega(0.5) == 0.0
    assert w.omega(1.0) == 0.0


def test_associated_function_requires_normalized():
    bad = LogWeightSequence((0.0, -0.5, 0.2, 1.5), None, 0, "bad")
    with pytest.raises(NotNormalized):
        associated_function(bad)


def _kept_conjugate(w):
    """phi* of w's envelope, as its row keeps it for check_lemma53_i."""
    return kept(w.source[1], "_conjugate", w.phi_pl.conjugate)


def test_phi_star_recovers_log_sequence_at_integers():
    # phi*(p) = L_p on the hull: duality is exact at integer slopes
    g = LogWeightSequence.gevrey(2.0, 80)
    star = _kept_conjugate(associated_function(g))
    for p in (0, 1, 5, 20, 60, 80):
        assert star(float(p)) == pytest.approx(g.L[p], abs=1e-9)


def test_phi_star_properties():
    star = _kept_conjugate(associated_function(LogWeightSequence.gevrey(1.5, 60)))
    assert star(0.0) == pytest.approx(0.0)
    xs = np.linspace(0.5, 60.0, 200)
    vals = np.array([star(x) / x for x in xs])
    assert np.all(np.diff(vals) >= -1e-12)    # phi*(x)/x non-decreasing


def _crossing_index_eval(seq, t):
    """omega_M(t) = p_t log t - L_{p_t} where mu_{p_t} <= t < mu_{p_t + 1},
    on the hull quotients: an oracle independent of the envelope of lines."""
    hull = lc_minorant(seq)
    mu_log = np.diff(hull.L)
    s = np.log(np.maximum(np.asarray(t, dtype=float), 1.0))
    p_t = np.searchsorted(mu_log, s, side="right")
    return p_t * s - hull.L[p_t]


def test_crossing_index_matches_envelope():
    rng = np.random.default_rng(7)
    g = LogWeightSequence.gevrey(2.0, 120)
    w = associated_function(g)
    t = np.exp(rng.uniform(0.0, w.valid_to, size=10 ** 4))
    direct = w.omega(t)
    crossing = _crossing_index_eval(g, t)
    assert np.max(np.abs(direct - crossing)) <= 1e-10


def test_envelope_antitone_in_sequence():
    # bigger sequence -> smaller omega
    w1 = associated_function(LogWeightSequence.gevrey(1.0, 80))
    w2 = associated_function(LogWeightSequence.gevrey(2.0, 80))
    t = np.geomspace(2.0, 1e4, 64)
    assert np.all(w2.omega(t) <= w1.omega(t) + 1e-12)


# The rows of the two symbolic families spell phi* in closed form:
# L_j = (1/l) phi*(l j), with phi*(x) = sup_{y >= 0} (x y - phi(y)).

def test_power_log_closed_form_conjugate():
    w = make_power_log_weight(2.0)
    # phi(y) = y^2  ->  phi*(x) = x^2/4, so L_j = l j^2 / 4
    ys = np.linspace(0, 100, 200001)
    for l in (0.5, 1.0, 2.0):
        row = sequence_from_weight(w, l, 20)
        for j in (1, 2, 3, 5, 20):
            assert row.L[j] == pytest.approx(l * j * j / 4.0)
        # numeric sup cross-check
        for j in (1, 3):
            x = l * j
            assert row.L[j] == pytest.approx(np.max(x * ys - ys ** 2) / l, abs=1e-6)


def test_root_power_conjugate_against_numeric_sup():
    w = make_root_power_weight(0.5, 1.0)
    ys = np.linspace(0, 40, 400001)
    phi = 1.0 * (np.exp(0.5 * ys) - 1.0)
    for l in (0.5, 1.0, 2.0):
        row = sequence_from_weight(w, l, 7)
        # l j = 0.5 sits at the threshold c a, below which phi* is 0
        for j in (0, 1, 2, 4, 7):
            x = l * j
            assert row.L[j] == pytest.approx(np.max(x * ys - phi) / l, abs=1e-4)


def test_growth_classes():
    assert make_power_log_weight(2.0).growth_class() == ("logpower", 2.0)
    assert make_root_power_weight(0.5).growth_class() == ("power", 0.5)
    w = associated_function(LogWeightSequence.gevrey(2.0, 60))
    kind, alpha = w.growth_class()
    assert kind == "power" and alpha == pytest.approx(0.5)


def test_sequence_from_weight_powerlog_row():
    w = make_power_log_weight(2.0)
    row = sequence_from_weight(w, 1.0, 50)
    # phi*(j) = j^2/4 exactly
    assert row.L[10] == pytest.approx(25.0)
    assert row.tail is not None


def test_sequence_from_weight_stepped_identity():
    g = LogWeightSequence.gevrey(2.0, 100)
    w = associated_function(g)
    row = sequence_from_weight(w, 2.0, 50)
    # integer step: row_j = L_{2j}/2 on the hull
    for j in (1, 5, 20, 50):
        assert row.L[j] == pytest.approx(g.L[2 * j] / 2.0, abs=1e-9)


def test_sequence_from_weight_domain_guard():
    g = LogWeightSequence.gevrey(2.0, 100)
    w = associated_function(g)
    with pytest.raises(DomainExceeded):
        sequence_from_weight(w, 3.0, 50)


@pytest.mark.parametrize("sigma, l", [(1.0000000001, 0.5), (1.0000000001, 2.0), (1.01, 1e3)])
def test_power_log_row_outside_the_float_range_is_refused(sigma, l):
    # kappa = (sigma - 1) l**(beta - 1) sigma**(-beta) underflows to 0 for
    # sigma near 1 and l < 1 and overflows for l > 1; a finite kappa can
    # still take log M_pmax past the float range
    with pytest.raises(DomainExceeded):
        sequence_from_weight(make_power_log_weight(sigma), l, 200)


def test_omega_condition_table_powerlog():
    out = check_omega_conditions(make_power_log_weight(2.0))
    expected = {
        "omega0": "holds", "omega1": "holds", "omega2": "holds",
        "omega3": "holds", "omega4": "holds", "omega5": "holds",
        "omega6": "fails", "omega7": "holds", "omega_nq": "holds",
    }
    assert {k: v.status.value for k, v in out.items()} == expected


def test_omega_condition_table_rootpower():
    out = check_omega_conditions(make_root_power_weight(0.5))
    assert out["omega6"].holds
    assert out["omega7"].fails
    assert out["omega5"].holds and out["omega_nq"].holds
    strong = check_omega_conditions(make_root_power_weight(2.0))
    assert strong["omega5"].fails and strong["omega_nq"].fails


def test_omega_conditions_without_class_are_inconclusive():
    seq = LogWeightSequence.gevrey(2.0, 60)
    bare = LogWeightSequence(seq.log_values, None, 0, "prefix")
    out = check_omega_conditions(associated_function(bare))
    assert out["omega6"].inconclusive


def test_relation_omega_orientation():
    # bigger sequence class <-> slower weight; powerlog sigma smaller = bigger class
    w_fast = make_root_power_weight(1.0)
    w_slow = make_power_log_weight(2.0)
    assert relation_omega(w_fast, w_slow, "preceq").holds
    assert relation_omega(w_fast, w_slow, "triangle").holds
    assert relation_omega(w_slow, w_fast, "preceq").fails
    assert relation_omega(w_slow, w_slow, "sim").holds
    assert relation_omega(
        make_power_log_weight(2.0), make_power_log_weight(3.0), "sim"
    ).fails


def test_ratio_range_sanity():
    w = make_power_log_weight(2.0)
    lo, hi = omega_ratio_range(w, w, math.e, 1e6)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)


def test_lemma_assofunc_on_gevrey():
    for s in (1.0, 2.0, 3.0):
        v = check_lemma_assofunc(LogWeightSequence.gevrey(s, 120))
        assert v.holds, s


def test_relation_comparison_consistency():
    g1 = LogWeightSequence.gevrey(1.0, 120)
    g2 = LogWeightSequence.gevrey(2.0, 120)
    assert check_relation_comparison(g1, g2).holds
    assert check_relation_comparison(g2, g1).holds   # vacuous direction


@given(
    st.floats(min_value=1.1, max_value=5.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.sampled_from((0.5, 1.0, 2.0)),
    st.integers(0, 6),
)
@settings(max_examples=50, deadline=None)
def test_closed_form_conjugates_are_convex_duals(sigma, a, c, l, j):
    # Fenchel-Young with equality at the maximizer, exact for both families
    x = l * j
    row = sequence_from_weight(make_power_log_weight(sigma), l, 6)
    y_star = (x / sigma) ** (1.0 / (sigma - 1.0))
    ys = np.linspace(0.0, 4.0 * y_star + 1.0, 200001)
    sup = np.max(x * ys - ys ** sigma)
    assert row.L[j] == pytest.approx(sup / l, rel=1e-5, abs=1e-7)
    row = sequence_from_weight(make_root_power_weight(a, c), l, 6)
    y_star = math.log(max(x, c * a) / (c * a)) / a
    ys = np.linspace(0.0, 4.0 * y_star + 1.0, 200001)
    sup = np.max(x * ys - c * (np.exp(a * ys) - 1.0))
    assert row.L[j] == pytest.approx(sup / l, rel=1e-5, abs=1e-7)


def test_lc_minorant_of_convex_row_shares_its_envelope(monkeypatch):
    from wcalc import catalogue, weightfuncs

    seq = catalogue.gevrey(2.0, 4000)
    assert lc_minorant(seq) is seq
    w = associated_function(seq)
    calls = []
    real = weightfuncs.upper_envelope_of_lines

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weightfuncs, "upper_envelope_of_lines", counted)
    assert associated_function(lc_minorant(seq)).phi_pl is w.phi_pl
    assert calls == []
