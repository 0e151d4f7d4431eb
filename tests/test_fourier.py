"""Spectra, spectral derivatives, weighted norms and the membership harness."""

import collections
import gc
import math
import tracemalloc
import types
import warnings
import weakref

import functools
import itertools

import mpmath as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcalc.errors import (
    DerivativeOrderUnreliable,
    DomainExceeded,
    HypothesisNotCertified,
    TailDominates,
    WidthBudgetExceeded,
)
from wcalc import fourier, matrices, quasi, verdicts
from wcalc.catalogue import gevrey
from wcalc.convex import ConvexPL
from wcalc.fourier import (
    K_MAX,
    MASK_REL,
    CompactBox,
    SampledFunction,
    _trend_classify,
    bump_builder,
    check_lemma53_i,
    check_lemma53_ii,
    compute_spectrum,
    decay_exponent_fit,
    fourier_norm,
    indicator_control,
    reference_spectrum_standard_bump,
    seminorm_derivative,
    spectral_derivative,
    standard_bump,
    theorem51_harness,
)
from wcalc.matrices import WeightMatrix, build_gevrey_matrix
from wcalc.sequences import KEPT, LogWeightSequence, kept, lc_minorant, row_serial
from wcalc.tails import FactorialPower
from wcalc.weightfuncs import associated_function, sequence_from_weight


def test_support_function_box():
    K = CompactBox(((-2.0, 3.0),))
    assert K.volume == 5.0


def test_sampled_function_validates_support():
    n = 256
    vals = np.ones(n)
    with pytest.raises(ValueError):
        SampledFunction(-4.0, 8.0 / n, tuple(vals), CompactBox(((-1.0, 1.0),)))


def test_parseval():
    f = standard_bump()
    spec = compute_spectrum(f)
    lhs = np.sum(f.values ** 2) * f.dx
    rhs = np.sum(spec.modulus ** 2) * spec.weight / (2 * np.pi)
    assert abs(lhs - rhs) / lhs <= 1e-8


def test_spectrum_matches_analytic_transform_of_gaussian_like():
    # indicator transform is a sinc: check at a few frequencies.  Its band
    # is truncated, so its Spectrum keeps no modulus; the reference does
    xi, mod = _reference_spectrum(indicator_control())
    sel = (np.abs(xi) > 0.1) & (np.abs(xi) < 20.0)
    want = 2.0 * np.sin(np.abs(xi[sel])) / np.abs(xi[sel])
    assert np.max(np.abs(mod[sel] - np.abs(want))) <= 1e-3


def test_spectral_derivative_linearity_and_homogeneity():
    f = standard_bump()
    g = SampledFunction(f.x0, f.dx, 3.0 * f.values, f.support)
    d1 = spectral_derivative(f, 2)
    d3 = spectral_derivative(g, 2)
    assert np.max(np.abs(d3 - 3.0 * d1)) <= 1e-10 * np.max(np.abs(d1))


def test_spectral_derivative_matches_finite_difference():
    f = standard_bump()
    d1 = spectral_derivative(f, 1)
    v = np.asarray(f.values)
    fd = np.gradient(v, f.dx)
    inner = np.abs(f.xs) < 0.8
    assert np.max(np.abs(d1[inner] - fd[inner])) <= 1e-3


def test_derivative_refusal_on_indicator():
    f = indicator_control()
    with pytest.raises(DerivativeOrderUnreliable):
        spectral_derivative(f, 2)


def test_bump_builder_respects_derivative_budget():
    seq = LogWeightSequence.gevrey(2.0, 100)
    K = CompactBox(((-1.0, 1.0),))
    f = bump_builder(K, seq, 20)
    assert np.max(np.abs(np.asarray(f.values))) <= 1.0 + 1e-9
    # certified bound |f^(k)| <= (2h)^k mu_1..mu_k with the recorded scale;
    # verify a weaker consequence spectrally for small k
    d2 = spectral_derivative(f, 2)
    assert np.isfinite(np.max(np.abs(d2)))


def test_bump_builder_width_budget():
    seq = LogWeightSequence.gevrey(2.0, 100)
    tiny = CompactBox(((-1e-9, 1e-9),))
    # a refused construction is kept nowhere and refused again alike
    messages = []
    for _ in range(2):
        with pytest.raises(WidthBudgetExceeded) as exc:
            bump_builder(tiny, seq, 30)
        messages.append(str(exc.value))
        assert (tiny.intervals, 30) not in seq.__dict__.get("_bump", {})
    assert messages[0] == messages[1]


def test_rows_keep_their_latest_bumps():
    seq = LogWeightSequence(gevrey(2.0, 100).L, FactorialPower(2.0, 1.0), 0, "bumps")
    K = CompactBox(((-1.0, 1.0),))
    bound = KEPT["_bump"]
    first = bump_builder(K, seq, 1)
    for depth in range(1, bound + 3):
        bump_builder(K, seq, depth)
    assert list(seq.__dict__["_bump"]) == [(K.intervals, d) for d in range(3, bound + 3)]
    # an evicted construction is built again, equal to the first
    assert bump_builder(K, seq, 1) is first


def test_fourier_norm_homogeneity():
    f = standard_bump()
    g2 = LogWeightSequence.gevrey(2.0, 400)
    lo, hi = fourier_norm(f, g2, 0.05)
    f3 = SampledFunction(f.x0, f.dx, 3.0 * f.values, f.support)
    lo3, hi3 = fourier_norm(f3, g2, 0.05)
    assert lo3 == pytest.approx(3.0 * lo, rel=1e-10)
    assert hi3 == pytest.approx(3.0 * hi, rel=1e-10)


def test_fourier_norm_bracket_orders():
    f = standard_bump()
    g2 = LogWeightSequence.gevrey(2.0, 400)
    lo, hi = fourier_norm(f, g2, 0.1)
    assert 0.0 < lo <= hi
    assert (hi - lo) / hi <= 0.1


def test_fourier_norm_refuses_slow_decay():
    f = indicator_control()
    g2 = LogWeightSequence.gevrey(2.0, 400)
    with pytest.raises(TailDominates):
        fourier_norm(f, g2, 0.1)


def test_zero_function_norm():
    n = 256
    z = SampledFunction(
        -4.0, 8.0 / n, tuple(np.zeros(n)), CompactBox(((-1.0, 1.0),))
    )
    assert fourier_norm(z, LogWeightSequence.gevrey(2.0, 50), 0.1) == (0.0, 0.0)


def test_seminorm_attains_at_low_order_for_bump():
    g2 = LogWeightSequence.gevrey(2.0, 200)
    f = bump_builder(CompactBox(((-1.0, 1.0),)), g2, 20)
    res = seminorm_derivative(f, g2, 4.0)
    assert res.value >= max(res.per_order) - 1e-12
    assert len(res.per_order) == K_MAX + 1


def test_decay_oracle_and_exponent_fit():
    xis = np.geomspace(1e2, 1e4, 7)
    mods = reference_spectrum_standard_bump(xis, dps=80)
    assert np.all(np.diff(np.log(mods)) < 0)
    slope = decay_exponent_fit(xis, mods)
    assert 0.4 <= slope <= 0.6


def test_reference_spectrum_agrees_with_fft_in_resolved_band():
    f = standard_bump()
    spec = compute_spectrum(f)
    xi = _band_xi(f)
    # compare at exact FFT bin frequencies; the modulus oscillates, so an
    # off-bin comparison would land near transform zeros
    idx = [int(np.argmin(np.abs(xi - x))) for x in (5.0, 20.0, 60.0)]
    bins = [xi[i] for i in idx]
    ref = reference_spectrum_standard_bump(bins, dps=40)
    for i, r in zip(idx, ref):
        assert spec.modulus[i] == pytest.approx(r, rel=1e-6, abs=1e-12)


def test_lemma53_i_gevrey2():
    f = standard_bump()
    g2 = LogWeightSequence.gevrey(2.0, 1200)
    v = check_lemma53_i(f, g2, 0.1)
    assert v.holds
    assert v.witness["tightest_ratio"] <= 1.0


def test_lemma53_i_domain_guard():
    f = standard_bump()
    g2 = LogWeightSequence.gevrey(2.0, 50)
    with pytest.raises(DomainExceeded):
        check_lemma53_i(f, g2, 0.1)


def test_lemma53_ii_decay_transfer(monkeypatch):
    G = build_gevrey_matrix((1.0, 2.0), 200)
    bump, control = standard_bump(), indicator_control()
    count = _FFTCounter(monkeypatch)
    assert check_lemma53_ii(bump, G, 0.1).holds
    assert check_lemma53_ii(control, G, 0.1).fails
    # the premise integral and the decay test read one cached spectrum
    assert count.forward <= 2


def test_harness_full_agreement():
    G = build_gevrey_matrix((1.0, 2.0), 200)
    rep = theorem51_harness(G)
    assert rep["status"] == "holds"
    assert rep["disagreements"] == []
    for r in rep["functions"].values():
        assert r["agreement"]
    assert rep["functions"]["control:indicator"]["fourier_side"] == "negative"


def test_harness_hypothesis_gate():
    # a single p! row has no absorbing partner row: the L condition fails
    from wcalc.catalogue import gevrey, matrix_from_rows

    M = matrix_from_rows((gevrey(1.0, 200),), (1.0,))
    with pytest.raises(HypothesisNotCertified):
        theorem51_harness(M)


# -- the three membership sides against the indicators they replaced --------

def _derivative_indicator(f, M: WeightMatrix, h_grid) -> str:
    for row in M.rows:
        for h in h_grid:
            try:
                res = seminorm_derivative(f, row, h)
            except DerivativeOrderUnreliable:
                # failing already at low order with spectral mass at the band
                # edge means the function is certified non-smooth at grid scale
                return "negative" if compute_spectrum(f).truncated else "open"
            if _trend_classify(res.per_order) == "finite":
                return "positive"
    return "negative"


def _weightfn_indicator(f, M: WeightMatrix, l_grid, derived_row) -> str:
    for i in range(len(M.rows)):
        for l in l_grid:
            try:
                res = seminorm_derivative(f, derived_row(i, l), 1.0)
            except DerivativeOrderUnreliable:
                return "negative"
            if _trend_classify(res.per_order) == "finite":
                return "positive"
    return "negative"


def _fourier_indicator(f, M: WeightMatrix, h_grid) -> str:
    for row in M.rows:
        for h in h_grid:
            try:
                fourier_norm(f, row, h)
                return "positive"
            except TailDominates:
                continue
    return "negative"


def _indicator_sides(M: WeightMatrix, bump_depth: int) -> dict:
    """The harness's three sides per battery function, by the indicators."""
    battery = {f"bump:{lbl:g}": bump_builder(fourier._UNIT, row, bump_depth)
               for lbl, row in zip(M.labels, M.rows)}
    battery["control:indicator"] = indicator_control()
    battery["control:single-mollify"] = bump_builder(fourier._UNIT, M.rows[0], 1)

    def derived_row(i: int, l: float) -> LogWeightSequence:
        return sequence_from_weight(associated_function(M.rows[i]), l, K_MAX)

    return {name: {
        "derivative_side": _derivative_indicator(f, M, H_SEMI),
        "weightfn_side": _weightfn_indicator(f, M, (1.0, 2.0, 4.0), derived_row),
        "fourier_side": _fourier_indicator(f, M, H_SMALL),
    } for name, f in battery.items()}


def test_harness_sides_equal_the_indicators():
    seen, statuses = set(), []
    for depth in (2, 5, 30):
        for r in (1, 2):
            for labels in itertools.combinations((0.1, 0.5, 1.0, 1.5, 4.0), r):
                M = build_gevrey_matrix(labels, 200)
                # cold: every function is built afresh with an empty memo;
                # warm: every answer is read from the memo
                fourier._function_of.cache_clear()
                cold = theorem51_harness(M, depth)
                warm = theorem51_harness(M, depth)
                want = _indicator_sides(M, depth)
                for name, sides in want.items():
                    for rep in (cold, warm):
                        got = rep["functions"][name]
                        assert {k: got[k] for k in sides} == sides, (labels, depth, name)
                    seen.add(sides["derivative_side"])
                assert warm == cold
                statuses.append(cold["status"])
    # every answer of the derivative side, and failing statuses, are met
    assert seen == {"positive", "negative", "open"}
    assert len(statuses) == 45 and "fails" in statuses


# -- per-function tables against the uncached computation ------------------

def _reference_derivative(f, k):
    """Spectral derivative from a fresh FFT, as computed before the cache."""
    v = np.asarray(f.values)
    F = np.fft.fft(v)
    xi = 2 * np.pi * np.fft.fftfreq(f.n, d=f.dx)
    floor = MASK_REL * np.max(np.abs(F))
    kept = np.abs(F) > floor
    if k > 0:
        if not np.any(kept):
            raise DerivativeOrderUnreliable("empty resolved band")
        if np.max(np.abs(xi[kept])) >= 0.99 * np.max(np.abs(xi)):
            raise DerivativeOrderUnreliable(
                f"order {k}: spectrum unresolved at the grid edge"
            )
        grown = np.where(kept, np.abs(F) * np.abs(xi) ** k, 0.0)
        edge = np.max(np.abs(xi[kept]))
        peak_xi = abs(xi[int(np.argmax(grown))])
        if peak_xi >= edge * (1 - 1e-9):
            raise DerivativeOrderUnreliable(
                f"order {k}: integrand peaks at the mask boundary"
            )
    mult = np.where(kept, (1j * xi) ** k, 0.0)
    return np.real(np.fft.ifft(mult * F))


def _reference_seminorm(f, seq, h):
    """The uncached loop: one derivative per order on f's support,
    normalised per call.

    Returns (result, None) or (None, (order, type, message)) on refusal."""
    (a, b), = f.support.intervals
    sel = (f.xs >= a) & (f.xs <= b)
    best, bk, bx = -math.inf, 0, a
    per = []
    for k in range(K_MAX + 1):
        try:
            d = _reference_derivative(f, k)[sel]
        except DerivativeOrderUnreliable as e:
            return None, (k, type(e), str(e))
        i = int(np.argmax(np.abs(d)))
        val = np.abs(d[i]) * math.exp(-k * math.log(h) - seq.log_at(k))
        per.append(float(val))
        if val > best:
            best, bk, bx = float(val), k, float(f.xs[sel][i])
    return (best, bk, bx, tuple(per)), None


def _table_seminorm(f, seq, h):
    try:
        r = seminorm_derivative(f, seq, h)
    except DerivativeOrderUnreliable as e:
        return None, (type(e), str(e))
    return (r.value, r.attained_k, r.attained_x, r.per_order), None


H_SEMI = (1.0, 2.0, 4.0, 8.0)       # theorem51_harness's seminorm h grid
H_SMALL = (0.02, 0.05, 0.1)         # and its Fourier-norm h grid


def _algebraic_decay():
    """exp(-r) (1 + r + 2r^2/5 + r^3/15), r = 50|x|: spectrum ~ |xi|^-8.

    The decay reaches the noise floor inside the grid, so low orders and
    the Fourier norm are certified while order 9 peaks at the mask edge."""
    n = 2 ** 14
    xs = -4.0 + 8.0 / n * np.arange(n)
    r = 50.0 * np.abs(xs)
    v = (1 + r + 2 * r ** 2 / 5 + r ** 3 / 15) * np.exp(-r)
    v[np.abs(xs) > 1.0] = 0.0
    return SampledFunction(-4.0, 8.0 / n, v, CompactBox(((-1.0, 1.0),)))


def _equivalence_battery():
    G = build_gevrey_matrix((1.0, 2.0, 3.0), 200)
    K = CompactBox(((-1.0, 1.0),))
    return G.rows[1], {
        "bump": lambda: bump_builder(K, G.rows[1], 20),
        "indicator": indicator_control,
        "single-mollify": lambda: bump_builder(K, G.rows[0], 1),
        "algebraic-decay": _algebraic_decay,
        # about 15 % of the bins resolved
        "gevrey1-bump": lambda: bump_builder(K, G.rows[0], 20),
        # resolved up to the grid edge: every order past 0 is refused
        "gevrey3-bump": lambda: bump_builder(K, G.rows[2], 20),
    }


@pytest.mark.parametrize(
    "name", ["bump", "indicator", "single-mollify", "algebraic-decay",
             "gevrey1-bump", "gevrey3-bump"]
)
def test_seminorm_table_matches_uncached_loop(name):
    row, builders = _equivalence_battery()
    build = builders[name]
    g = build()
    ref = {h: _reference_seminorm(g, row, h) for h in H_SEMI}
    f = build()
    # fill the table at the largest h, then read it descending and
    # ascending twice
    for hs in (H_SEMI[::-1], H_SEMI, H_SEMI):
        for h in hs:
            got, refused = _table_seminorm(f, row, h)
            want, want_refused = ref[h]
            if want_refused is None:
                assert refused is None
                assert got == want          # bit for bit, attained x included
            else:
                # the lowest refused order, as the per-order loop meets it
                _, kind, msg = want_refused
                assert got is None and refused == (kind, msg)
    for h in H_SMALL:
        first = _bracket_or_refusal(f, row, h)
        assert _bracket_or_refusal(f, row, h) == first
        assert _bracket_or_refusal(build(), row, h) == first


def _bracket_or_refusal(f, row, h):
    try:
        return fourier_norm(f, row, h)
    except TailDominates as e:
        return (type(e), str(e))


class _FFTCounter:
    def __init__(self, monkeypatch):
        self.forward = self.inverse = 0
        fft, ifft = np.fft.fft, np.fft.ifft

        def forward(*args, **kwargs):
            self.forward += 1
            return fft(*args, **kwargs)

        def inverse(*args, **kwargs):
            self.inverse += 1
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", forward)
        monkeypatch.setattr(np.fft, "ifft", inverse)


def test_harness_fft_count(monkeypatch):
    G = build_gevrey_matrix((1.0, 1.5, 2.0, 2.5, 3.0), 200)
    count = _FFTCounter(monkeypatch)
    assert theorem51_harness(G)["status"] == "holds"
    # one forward FFT per battery function (5 bumps, 2 controls); one
    # batched inverse per function fills its whole derivative table, and
    # each of the 6 built bumps takes one more
    assert count.forward <= 7
    assert count.inverse <= 13


def test_lemma53_i_fft_count(monkeypatch):
    f = standard_bump()
    count = _FFTCounter(monkeypatch)
    assert check_lemma53_i(f, gevrey(2.0, 1200), 0.1).holds
    assert count.forward <= 1
    assert count.inverse <= 1


def test_harness_memory_peak():
    # the battery's functions are the memoised ones, band-sized spectra
    # are kept, and refusals are cached without their tracebacks
    G = build_gevrey_matrix((1.0, 1.5, 2.0, 2.5, 3.0), 200)
    tracemalloc.start()
    try:
        theorem51_harness(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2 ** 20


def _horner_reference_spectrum(xis, n=2 ** 14, dps=80):
    """The direct complex trapezoid sum over all n samples, by Horner."""
    with mp.workdps(dps):
        span = mp.mpf(4)
        dx = span / n
        xs = [-span / 2 + dx * k for k in range(n)]
        fs = []
        for x in xs:
            if abs(x) < 1:
                fs.append(mp.e ** (-1 / (1 - x * x)))
            else:
                fs.append(mp.mpf(0))
        out = []
        for xi in xis:
            xi = mp.mpf(xi)
            w = mp.e ** (-1j * xi * dx)
            acc = mp.mpc(0)
            # Horner evaluation of sum f_k w^k
            for fk in reversed(fs):
                acc = acc * w + fk
            acc = acc * mp.e ** (-1j * xi * xs[0]) * dx
            out.append(float(mp.fabs(acc)))
    return np.array(out)


def test_reference_spectrum_bit_identical_to_horner_sum():
    # the frequencies of criterion 12 and of the benchmark, plus its warm-up
    xis = [*np.geomspace(1e2, 1e4, 7), 100.0]
    got = reference_spectrum_standard_bump(xis, dps=80)
    want = _horner_reference_spectrum(xis, dps=80)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_reference_spectrum_agrees_with_horner_sum_at_fft_bins():
    xi = _band_xi(standard_bump())
    idx = [int(np.argmin(np.abs(xi - x))) for x in (5.0, 20.0, 60.0)]
    xis = [float(xi[i]) for i in idx] + [0.5]
    got = reference_spectrum_standard_bump(xis, dps=40)
    want = _horner_reference_spectrum(xis, dps=40)
    # far below one ulp: the floats must coincide
    assert np.all(np.abs(got - want) <= 1e-25 * np.abs(want))


def test_reference_spectrum_cache_is_keyed_on_precision():
    assert fourier._bump_half_samples.cache_info().maxsize == 2
    xis = [100.0, 1e4]

    def fresh(dps):
        fourier._bump_half_samples.cache_clear()
        return reference_spectrum_standard_bump(xis, dps=dps)

    want = {40: fresh(40), 80: fresh(80)}
    # at 1e4 the modulus is below what 40 digits resolve, so the two differ
    assert want[40][1] != want[80][1]
    fourier._bump_half_samples.cache_clear()
    for dps in (40, 80, 40):
        got = reference_spectrum_standard_bump(xis, dps=dps)
        assert got.tobytes() == want[dps].tobytes(), dps
    assert fourier._bump_half_samples.cache_info().hits == 1


@functools.cache
def _mp_half_samples(dps):
    with mp.workdps(dps):
        dx = mp.mpf(4) / 2 ** 14
        return dx, [mp.e ** (-1 / (1 - (dx * j) ** 2)) for j in range(2 ** 12)]


def _mp_clenshaw_reference_spectrum(xis, dps=80):
    """The half-grid Clenshaw cosine sum in mpmath arithmetic throughout."""
    dx, fs = _mp_half_samples(dps)
    out = []
    with mp.workdps(dps):
        for xi in xis:
            c = mp.cos(mp.mpf(xi) * dx)
            c2 = 2 * c
            b1 = b2 = mp.mpf(0)
            for fj in reversed(fs[1:]):
                b1, b2 = fj + c2 * b1 - b2, b1
            out.append(float(mp.fabs(dx * (fs[0] + 2 * (b1 * c - b2)))))
    return out


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e2, max_value=1e4))
def test_fixed_point_reference_equals_mpmath_clenshaw(xi):
    got = reference_spectrum_standard_bump([xi], dps=80)
    assert float(got[0]).hex() == _mp_clenshaw_reference_spectrum([xi])[0].hex()


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=1e2))
def test_low_frequency_reference_equals_mpmath_clenshaw(xi):
    got = reference_spectrum_standard_bump([xi], dps=80)
    assert float(got[0]).hex() == _mp_clenshaw_reference_spectrum([xi])[0].hex()


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_reference_spectrum_refuses_a_non_finite_frequency(xi):
    with pytest.raises(ValueError, match=f"finite frequency, got xi = {xi}"):
        reference_spectrum_standard_bump([100.0, xi])


@pytest.mark.parametrize("dps", [40, 80])
def test_residue_modulus_exceeds_twice_the_certified_bound(dps):
    t = fourier._bump_half_samples(dps)
    S = t.S
    # g_0 = F_0 and g_j = 2 F_j with F_j = round(f_j 2^S) <= f_j 2^S + 1/2;
    # the margin covers the samples' own error at dps digits
    dx, fs = _mp_half_samples(dps)
    with mp.workdps(dps + 20):
        sum_f = (2 * mp.fsum(fs) - fs[0]) * (1 + mp.mpf(10) ** (5 - dps))
        sum_g = int(mp.ceil(mp.ldexp(sum_f, S))) + len(fs)
    assert t.M > 2 * (sum_g << (2 * S + 1))
    # the bound's premise: every rotation point has c^2 + s^2 < 2^(2S+1)
    P, A, B = t.samples.shape
    with mp.workdps(dps):
        for xi in (0.1, 100.0, 1e4, 3e4):
            w = mp.mpf(xi) * dx
            for angle in (w, -B * w):
                c, s = (int(mp.nint(mp.ldexp(v, S))) for v in mp.cos_sin(angle))
                pts = fourier._rotation_points(c, s, S, A)
                assert all(x * x + y * y < 1 << (2 * S + 1)
                           for x, y in zip(pts[:A], pts[A:]))


@pytest.mark.parametrize("dps", [40, 80])
def test_residue_constants_keep_float64_sums_below_2_53(dps):
    t = fourier._bump_half_samples(dps)
    assert (fourier._PRIME_BITS, fourier._BLOCK, fourier._LIMB_BITS) == (23, 64, 16)
    primes = t.primes.astype(np.int64).tolist()
    assert len(set(primes)) == len(primes)
    assert all(2 ** 22 < p < 2 ** 23 for p in primes)
    P, A, B = t.samples.shape
    L = t.limb_residues.shape[1]
    assert (P, B) == (len(primes), 64)
    # a limb holds 16 bits, the signed top one included, of any |x| < 2^(S+1)
    assert 16 * L - 1 >= t.S + 1
    p_max = max(primes)
    r_max = (p_max + 1) // 2
    assert np.all(np.abs(t.samples) <= r_max)
    assert np.all((t.limb_residues >= 0) & (t.limb_residues < t.primes[:, None]))
    # the longest sums: the outer one over 2 A products of two residues, the
    # inner one over B, and a residue's L limbs times 2^(16 k) mod p; _mod
    # takes |x| < 2^52 and forms q p below 2^53
    assert max(2 * A, B) * r_max ** 2 < 2 ** 52
    assert L * 2 ** 16 * p_max < 2 ** 52


@pytest.mark.parametrize("dps", [40, 80])
def test_signed_lift_returns_a_negative_integer(dps):
    t = fourier._bump_half_samples(dps)
    x = -(3 ** int(t.S / math.log2(3)))
    for y in (x, -1, 0, 1 - 2 ** t.S):
        rs = fourier._residues([y], t.primes, t.limb_residues)[:, 0].astype(np.int64).tolist()
        assert fourier._signed_lift(rs, t) == y
    edge = 1 - (t.M + 1) // 2
    primes = t.primes.astype(np.int64).tolist()
    assert fourier._signed_lift([edge % p for p in primes], t) == edge


def test_lemma53_i_conjugates_each_envelope_once(monkeypatch):
    calls = []
    conjugate = ConvexPL.conjugate

    def counting(self, *args, **kwargs):
        calls.append(self)
        return conjugate(self, *args, **kwargs)

    monkeypatch.setattr(ConvexPL, "conjugate", counting)
    f = standard_bump()
    g2 = gevrey(2.0, 1200)
    first = check_lemma53_i(f, g2, 0.1)
    assert len(calls) <= 2
    second = check_lemma53_i(f, g2, 0.1)
    assert len(calls) <= 4
    assert first.witness == second.witness
    # the row keeps the conjugate check_lemma53_i read: a new associated
    # function of it reads that one, which gives the uncached values bit
    # for bit
    before = len(calls)
    w = associated_function(lc_minorant(g2))
    star = kept(lc_minorant(g2), "_conjugate", w.phi_pl.conjugate)
    xs = np.arange(11) / 0.1
    cached = np.array([star(x) for x in xs])
    assert len(calls) == before
    uncached = np.asarray(conjugate(w.phi_pl)(xs), dtype=float)
    assert cached.tobytes() == uncached.tobytes()


# -- the half-spectrum bump and the band-only derivative -------------------

def _reference_bump(K, seq, depth, n=2 ** 14):
    """bump_builder as a full-grid complex product, one grid per call."""
    (a, b), = K.intervals
    width = b - a
    mus = [math.exp(seq.log_at(p) - seq.log_at(p - 1)) for p in range(1, depth + 1)]
    h = 1.0
    while h <= 2.0 ** 20 and sum(1.0 / (h * mu) for mu in mus) >= width / 4:
        h *= 2.0
    widths = [1.0 / (h * mu) for mu in mus]
    if sum(widths) >= width / 2:
        raise WidthBudgetExceeded(
            f"mollifier widths {sum(widths):.3g} exceed half the box {width / 2:.3g}"
        )
    margin = 0.05 * width
    core_lo = a + sum(widths) / 2 + margin
    core_hi = b - sum(widths) / 2 - margin
    center = 0.5 * (a + b)
    span = 4.0 * width
    x0 = center - span / 2
    dx = span / n
    xi = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        F = np.where(
            xi == 0,
            core_hi - core_lo,
            (np.exp(-1j * xi * core_lo) - np.exp(-1j * xi * core_hi)) / (1j * xi),
        )
    for wd in widths:
        F = F * np.sinc(xi * wd / (2 * np.pi))
    vals = np.real(np.fft.ifft(F * np.exp(1j * xi * x0))) / dx
    xs = x0 + dx * np.arange(n)
    vals[(xs < a) | (xs > b)] = 0.0
    vals[np.abs(vals) < 1e-16] = 0.0
    return SampledFunction(x0, dx, vals, K)


def _reference_spectrum(f):
    """compute_spectrum from a fresh FFT, phase and argsort: the increasing
    angular frequencies and the continuous transform's modulus at them."""
    xi = 2 * np.pi * np.fft.fftfreq(f.n, d=f.dx)
    F = f.dx * np.fft.fft(np.asarray(f.values)) * np.exp(-1j * xi * f.x0)
    order = np.argsort(xi)
    return xi[order], np.abs(F[order])


def _band_xi(f):
    """The increasing angular frequencies on f's resolved band."""
    return fourier._grid(f.n, f.dx, f.x0).xi_sorted[compute_spectrum(f).kept]


def _assert_modulus_is_the_reference(f, ref):
    """f's grid and its Spectrum's modulus are the reference's, bit for bit
    (a truncated band keeps no modulus)."""
    xi, mod = _reference_spectrum(ref)
    assert fourier._grid(f.n, f.dx, f.x0).xi_sorted.tobytes() == xi.tobytes()
    spec = compute_spectrum(f)
    if not spec.truncated:
        assert spec.modulus.tobytes() == mod[spec.kept].tobytes()


def _parent_spectrum(f):
    """compute_spectrum as it was when each function kept a full-grid
    spectrum of its own, from a fresh FFT: the fields that the Fourier-norm
    readers took from it, with the band as indices in fft order."""
    g = fourier._grid(f.n, f.dx, f.x0)
    F = np.fft.fft(f.values)
    absF = np.abs(F)
    mask = absF > MASK_REL * np.max(absF)
    band = np.flatnonzero(mask)
    band_absxi = np.abs(g.xi[band])
    edge = float(np.max(band_absxi)) if band.size else math.nan
    truncated = bool(edge >= 0.99 * np.max(np.abs(g.xi)))
    m = np.abs((f.dx * F * g.phase_in)[g.order])
    kept = mask[g.order]
    xi_edge = m_edge = c_decay = math.nan
    if band.size and not truncated:
        xi = np.abs(g.xi_sorted)
        pos = kept & (g.xi_sorted > 0)
        xi_edge = float(np.max(xi[pos]))
        oct_sel = pos & (xi >= xi_edge / 2)
        A = np.vstack([np.ones(np.sum(oct_sel)), xi[oct_sel]]).T
        coef, *_ = np.linalg.lstsq(A, np.log(m[oct_sel]), rcond=None)
        m_edge = m[pos][np.argmax(xi[pos])]
        c_decay = -float(coef[1])
    return types.SimpleNamespace(
        band=band, edge=edge, truncated=truncated, xi=g.xi_sorted, modulus=m,
        weight=2 * np.pi / (f.n * f.dx), kept=kept,
        xi_edge=xi_edge, m_edge=m_edge, c_decay=c_decay,
    )


def _derivative_or_refusal(derivative, f, k):
    try:
        return derivative(f, k).tobytes()
    except DerivativeOrderUnreliable as e:
        return (type(e), str(e))


GEVREY_ROWS = (1.0, 1.5, 2.0, 2.5, 3.0)


# off the centred support the grid offset x0 is not a multiple of the
# period, so the phase's operand order shows in the last bits
@pytest.mark.parametrize("support", [(-1.0, 1.0), (-0.7, 1.3), (0.1, 0.9), (-3.0, 2.0)])
def test_half_spectrum_bump_is_bit_identical(support):
    K = CompactBox((support,))
    for s in GEVREY_ROWS:
        row = gevrey(s, 200)
        for depth in (1, 10, 20, 30):
            want = _reference_bump(K, row, depth)
            got = bump_builder(K, row, depth)
            assert (got.x0, got.dx) == (want.x0, want.dx)
            assert got.values.tobytes() == want.values.tobytes(), (s, depth)
            _assert_modulus_is_the_reference(got, want)
            for k in range(11):
                assert _derivative_or_refusal(spectral_derivative, got, k) == \
                    _derivative_or_refusal(_reference_derivative, want, k), (s, depth, k)


@pytest.mark.parametrize("build", [standard_bump, indicator_control, _algebraic_decay])
def test_band_derivative_is_bit_identical(build):
    f = build()
    _assert_modulus_is_the_reference(f, f)
    for k in range(11):
        assert _derivative_or_refusal(spectral_derivative, f, k) == \
            _derivative_or_refusal(_reference_derivative, f, k), k


def test_grid_cache_is_bounded_and_read_only():
    assert fourier._grid.cache_info().maxsize is not None
    assert fourier._grid.cache_info().maxsize <= 8
    f, g = standard_bump(), bump_builder(CompactBox(((-1.0, 1.0),)), gevrey(2.0, 200), 10)
    grid = fourier._grid(f.n, f.dx, f.x0)
    # every function on one grid shares its arrays
    assert f.xs is g.xs is grid.xs
    assert fourier._grid(g.n, g.dx, g.x0) is grid
    t = compute_spectrum(f)
    for a in (*grid, t.band, t.transform, t.modulus, t.kept, f.values):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def _modulus_band(f):
    """The noise-floor decision taken a second time, on the modulus of the
    continuous transform in increasing-xi order: (mask, truncated)."""
    xi, mod = _reference_spectrum(f)
    kept = mod > MASK_REL * np.max(mod)
    truncated = bool(kept.any()) and np.max(np.abs(xi[kept])) >= 0.99 * np.max(np.abs(xi))
    return kept, truncated


def _mask_battery():
    for support in ((-1.0, 1.0), (-0.7, 1.3), (0.1, 0.9), (-3.0, 2.0)):
        K = CompactBox((support,))
        for s in GEVREY_ROWS:
            for depth in (1, 10, 20, 30):
                yield (support, s, depth), lambda K=K, s=s, depth=depth: \
                    bump_builder(K, gevrey(s, 200), depth)
    for build in (standard_bump, indicator_control, _algebraic_decay):
        yield build.__name__, build


def test_one_mask_equals_the_modulus_mask():
    # the floor decided on |F| in fft order, viewed in increasing xi, is the
    # floor decided on the continuous transform's modulus |dx F e^{-i xi x0}|
    truncated_seen = set()
    for case, build in _mask_battery():
        f = build()
        spec = compute_spectrum(f)
        kept, truncated = _modulus_band(f)
        order = fourier._grid(f.n, f.dx, f.x0).order
        assert np.array_equal(spec.band[order], kept), case
        assert spec.truncated == truncated, case
        assert np.count_nonzero(spec.band) == np.count_nonzero(kept), case
        truncated_seen.add(truncated)
    assert truncated_seen == {False, True}


# -- the derivative table from one batched inverse FFT ---------------------

def _reference_sups(f):
    """The sup table from the per-order 1-D reference on f's support, as
    float.hex strings, or the lowest refusal's (type, message)."""
    (a, b), = f.support.intervals
    sel = (f.xs >= a) & (f.xs <= b)
    out = []
    for k in range(K_MAX + 1):
        try:
            d = np.abs(_reference_derivative(f, k))
        except DerivativeOrderUnreliable as e:
            return (type(e), str(e))
        i = int(np.argmax(d[sel]))
        out.append(tuple(float(v).hex() for v in (d[sel][i], f.xs[sel][i], np.max(d))))
    return out


def _table_sups(f):
    try:
        return [tuple(v.hex() for v in entry) for entry in fourier._sups(f)]
    except DerivativeOrderUnreliable as e:
        return (type(e), str(e))


def test_batched_table_is_bit_identical():
    refused_seen = set()
    for case, build in _mask_battery():
        f = build()
        want = _reference_sups(f)
        assert _table_sups(f) == want, case
        refused = isinstance(want, tuple)
        # f keeps all K_MAX + 1 orders, or the lowest refusal alone
        [table] = f.__dict__["_sups"].values()
        if refused:
            assert table == want[1], case
        else:
            assert len(table) == K_MAX + 1, case
        refused_seen.add(refused)
    assert refused_seen == {False, True}


def test_batch_rows_do_not_depend_on_their_position():
    f = standard_bump()
    want = {k: _reference_derivative(f, k).tobytes() for k in range(K_MAX + 1)}
    for length in range(1, K_MAX + 2):
        for start in (0, 3, 7):
            orders = tuple((start + i) % (K_MAX + 1) for i in range(length))
            rows = spectral_derivative(f, orders)
            assert rows.shape == (length, f.n)
            for k, row in zip(orders, rows):
                assert row.tobytes() == want[k], (orders, k)


# -- refusals before transforms, and one synthesis per distinct bump -------

def test_refusal_is_raised_before_any_inverse_fft(monkeypatch):
    # a table with a refused order keeps the lowest refusal alone, decided
    # on the band, so no sup is transformed; functions built directly have
    # empty memos, so their tables are filled here
    f, g, b = _algebraic_decay(), _fresh_indicator(), _fresh_standard_bump()
    row = gevrey(2.0, 200)
    want = _reference_sups(b)
    count = _FFTCounter(monkeypatch)
    with pytest.raises(DerivativeOrderUnreliable) as exc:
        check_lemma53_i(f, row, 0.1)
    assert str(exc.value) == "order 9: integrand peaks at the mask boundary"
    with pytest.raises(DerivativeOrderUnreliable) as exc:
        seminorm_derivative(g, row, 1.0)
    assert str(exc.value) == "order 1: spectrum unresolved at the grid edge"
    assert (count.forward, count.inverse) == (2, 0)
    # an accepted table takes every order from one batched inverse FFT
    assert _table_sups(b) == want
    seminorm_derivative(b, row, 1.0)
    assert (count.forward, count.inverse) == (3, 1)


def test_truncated_band_builds_no_norm_row():
    f = indicator_control()
    assert compute_spectrum(f).truncated
    with pytest.raises(TailDominates):
        fourier_norm(f, gevrey(2.0, 200), 0.1)
    assert "_norm_rows" not in f.__dict__


def test_bump_memo_hit_equals_fresh_synthesis():
    for case, build in _mask_battery():
        if not isinstance(case, tuple):
            continue
        support, s, depth = case
        K = CompactBox((support,))
        first = build()
        misses = fourier._function_of.cache_info().misses
        # a new row object with the same values finds the same function
        hit = bump_builder(K, gevrey(s, 200), depth)
        assert fourier._function_of.cache_info().misses == misses, case
        assert hit is first
        fresh = _reference_bump(K, gevrey(s, 200), depth)
        assert (hit.x0, hit.dx) == (fresh.x0, fresh.dx)
        assert hit.values.tobytes() == fresh.values.tobytes(), case
        assert _table_sups(hit) == _table_sups(fresh), case
        assert _table_seminorm(hit, gevrey(s, 200), 1.0) == \
            _table_seminorm(fresh, gevrey(s, 200), 1.0), case
    # every Gevrey row has log M_0 = log M_1 = 0: one depth-1 control
    K = CompactBox(((-1.0, 1.0),))
    assert bump_builder(K, gevrey(1.0, 200), 1) is bump_builder(K, gevrey(3.0, 200), 1)


def test_bump_memo_is_bounded_and_read_only():
    info = fourier._function_of.cache_info()
    assert info.maxsize is not None and info.maxsize <= 32
    K, row = CompactBox(((-0.7, 1.3),)), gevrey(2.0, 200)
    f = bump_builder(K, row, 10)
    assert fourier._function_of(f.construction) is f
    # the values outside the box are exactly zero
    outside = (f.xs < -0.7) | (f.xs > 1.3)
    assert np.any(f.values) and not np.any(f.values[outside])
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[0] = 0


def test_bump_record_is_its_construction():
    resolved = 0
    for case, build in _mask_battery():
        if not isinstance(case, tuple):
            continue
        support, s, depth = case
        f = build()
        c = f.construction
        width = support[1] - support[0]
        assert c.box == (support,) and c.logs == tuple(gevrey(s, 200).log_at(p)
                                                       for p in range(depth + 1))
        mus = [math.exp(c.logs[p] - c.logs[p - 1]) for p in range(1, depth + 1)]
        # h is the smallest power of two with sum 1/(h mu_p) < width/4
        assert c.h == 2.0 ** round(math.log2(c.h)) >= 1.0, case
        assert sum(1.0 / (c.h * mu) for mu in mus) < width / 4, case
        assert c.h == 1.0 or sum(1.0 / (c.h / 2 * mu) for mu in mus) >= width / 4, case
        assert c.widths == tuple(1.0 / (c.h * mu) for mu in mus)
        # the spectrum is the core's indicator times one sinc per width
        spec = compute_spectrum(f)
        if spec.truncated:
            continue
        xi = _band_xi(f)
        lo, hi = c.core
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(xi == 0, hi - lo, np.abs(2 * np.sin(xi * (hi - lo) / 2) / xi))
        for w in c.widths:
            want = want * np.abs(np.sinc(xi * w / (2 * np.pi)))
        err = np.max(np.abs(want - spec.modulus))
        assert err <= 1e-12 * np.max(spec.modulus), (case, err)
        resolved += 1
    assert resolved >= 40


def test_second_harness_reuses_every_bump(monkeypatch):
    G = build_gevrey_matrix(GEVREY_ROWS, 200)
    first = theorem51_harness(G)
    count = _FFTCounter(monkeypatch)
    minorants = []
    monkeypatch.setattr(fourier, "lc_minorant",
                        lambda seq: minorants.append(seq) or lc_minorant(seq))
    # no transform at all: every battery function (5 bumps, 2 controls)
    # finds its sup table and spectral record in the memo, and the
    # indicator refuses order 1
    assert theorem51_harness(G) == first
    assert (count.forward, count.inverse) == (0, 0)
    # rows built afresh, as every CLI call builds them, come from the row
    # memo, so they hit the same entries and the same norm rows
    assert theorem51_harness(build_gevrey_matrix(GEVREY_ROWS, 200)) == first
    assert (count.forward, count.inverse) == (0, 0)
    assert minorants == []


def test_warm_harness_keeps_its_per_row_work(monkeypatch):
    first = theorem51_harness(build_gevrey_matrix(GEVREY_ROWS, 200))
    count = _FFTCounter(monkeypatch)
    calls = collections.Counter()

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(quasi, "increasing_root_minorant")
    counted(quasi, "check_nq")
    counted(matrices, "min_plus_self")
    counted(LogWeightSequence, "log_at")
    for name in ("seminorm_derivative", "fourier_norm", "sequence_from_weight", "_bump"):
        counted(fourier, name)
    # rows built afresh hit the NQ routes and mg prefix sups kept on the
    # memoised rows, each function's side answers per row and each row's
    # bump constructions: no seminorm, norm, derived row or bump is asked for
    assert theorem51_harness(build_gevrey_matrix(GEVREY_ROWS, 200)) == first
    assert (count.forward, count.inverse) == (0, 0)
    assert calls == {}


def _ref_trend_classify(per_order):
    # the classifier on a numpy array, as before it read Python floats
    a = np.asarray(per_order)
    if len(a) < 4:
        return "open"
    tail = a[len(a) // 2 :]
    if np.all(np.diff(tail) <= 1e-12 * np.maximum(tail[:-1], 1e-300)):
        return "finite"
    if tail[-1] > 4.0 * tail[0] and np.all(np.diff(tail) > 0):
        return "growing"
    if a[-1] <= np.max(a[: len(a) // 2]):
        return "finite"
    return "open"


# few distinct values, so that ties and monotone runs are common
_TREND_VALUES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-12,
    1.0, 1.0 + 2.0 ** -52, 4.0, 5.0, 1e308, math.inf, -math.inf, math.nan,
])
_TREND_TUPLES = st.one_of(
    st.lists(_TREND_VALUES, max_size=12),
    st.lists(st.one_of(_TREND_VALUES, st.floats()), max_size=12),
    st.lists(st.floats(0.0, 10.0), max_size=12).map(sorted),
    st.lists(st.floats(0.0, 10.0), max_size=12).map(lambda v: sorted(v, reverse=True)),
).map(tuple)


@given(_TREND_TUPLES)
@settings(max_examples=600, deadline=None)
def test_trend_classify_equals_the_array_version(per_order):
    with np.errstate(all="ignore"):
        want = _ref_trend_classify(per_order)
    assert fourier._trend_classify(per_order) == want


def test_trend_classify_nan_anywhere_in_the_head():
    # np.max is NaN when any term is; Python's max depends on where it sits
    for i in range(5):
        per = [1.0, 0.5, 0.25, 0.125, 4.0, 2.0, 1.5, 1.0, 3.0, 2.0]
        per[i] = math.nan
        with np.errstate(all="ignore"):
            assert fourier._trend_classify(tuple(per)) == _ref_trend_classify(per) == "open"


# -- the band-sized spectral record against the full-grid readers ----------

def _reference_fourier_norm(f, seq, h):
    """fourier_norm over the whole grid, as before the spectral record:
    the bracket as float.hex strings, or the refusal's (type, message)."""
    spec = _parent_spectrum(f)
    m = spec.modulus
    if np.max(m) == 0.0:
        return ((0.0).hex(), (0.0).hex())
    if spec.truncated:
        return (TailDominates, "resolved band truncated by the grid, not by decay")
    w = associated_function(lc_minorant(seq))
    om = w.omega(np.maximum(np.abs(spec.xi), 1.0))
    xi_edge = spec.xi_edge
    om_slope = float((w.omega(xi_edge * 1.01) - w.omega(xi_edge)) / (0.01 * xi_edge))
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = np.where(spec.kept, m * np.exp(h * om), 0.0)
    inner = float(np.sum(integrand) * spec.weight)
    c_eff = spec.c_decay - h * om_slope
    if c_eff <= 0:
        return (TailDominates,
                f"decay {spec.c_decay:.3g} per unit xi cannot beat weight growth "
                f"{h * om_slope:.3g} at the band edge")
    edge_val = float(spec.m_edge * math.exp(h * w.omega(xi_edge)))
    tail = 2.0 * edge_val / c_eff
    hi = inner + tail
    if tail > 0.1 * hi:
        return (TailDominates, "tail bound exceeds 10% of the bracket")
    return (inner.hex(), hi.hex())


def _record_fourier_norm(f, seq, h):
    try:
        return tuple(v.hex() for v in fourier_norm(f, seq, h))
    except TailDominates as e:
        return (type(e), str(e))


def _reference_lemma53_ii(f, M, h):
    """check_lemma53_ii over the whole grid, as before the spectral record."""
    spec = _parent_spectrum(f)
    m = spec.modulus
    if np.max(m) == 0.0:
        return verdicts.holds(trivial=True)
    kept = spec.kept & (spec.xi > 0)
    xi, mod = spec.xi[kept], m[kept]
    C = x_used = None
    for lbl, row in zip(M.labels, M.rows):
        bracket = _reference_fourier_norm(f, row, h)
        if isinstance(bracket[0], str):
            C, x_used = float.fromhex(bracket[1]), lbl
            break
    if C is None:
        return verdicts.fails(reason="no finite premise integral on any row")
    all_unbounded = True
    for lbl, row in zip(M.labels, M.rows):
        om = associated_function(row).omega(np.maximum(xi, 1.0))
        for kpow in range(16):
            Lc = 2.0 ** kpow
            needed = np.log(mod) + (h / Lc) * om
            i = int(np.argmax(needed))
            if xi[i] < 0.9 * xi[-1]:
                all_unbounded = False
                D = math.exp(float(needed[i])) / (f.support.volume * C / (2 * math.pi))
                if D <= 2.0 ** 20:
                    return verdicts.holds(x=x_used, y=lbl, L=Lc, D=max(D, 1.0))
    if all_unbounded:
        return verdicts.fails(reason="required constant climbs at every row/L")
    return verdicts.inconclusive("no witness on the constant grid")


def test_fourier_norm_record_is_bit_identical_to_full_grid():
    rows = [gevrey(s, 200) for s in (1.0, 2.0, 3.0)]
    seen = set()
    for case, build in _mask_battery():
        want = {(i, h): _reference_fourier_norm(build(), row, h)
                for i, row in enumerate(rows) for h in (0.02, 0.05, 0.1, 1.0)}
        # twice: the record is filled by the first build and read by the second
        for f in (build(), build()):
            for (i, h), w in want.items():
                assert _record_fourier_norm(f, rows[i], h) == w, (case, i, h)
                seen.add(w[1].split()[0] if w[0] is TailDominates else "bracket")
    # brackets and all three refusals
    assert seen == {"bracket", "resolved", "decay", "tail"}


def test_lemma53_ii_record_is_bit_identical_to_full_grid():
    M = build_gevrey_matrix((1.0, 2.0), 200)
    seen = set()
    for case, build in _mask_battery():
        for h in (0.05, 0.1):
            want = _reference_lemma53_ii(build(), M, h)
            assert repr(check_lemma53_ii(build(), M, h)) == repr(want), (case, h)
            seen.add(want.status.value)
    assert seen == {"holds", "fails"}


def test_tail_refusal_comes_before_the_integrand():
    # at h = 1 the integrand overflows; the decay test, which reads only the
    # tail fit and the norm row, refuses first
    for s in (0.5, 1.0):
        for depth in (10, 30):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(TailDominates, match="cannot beat weight growth"):
                    fourier_norm(bump_builder(fourier._UNIT, gevrey(s, 200), depth),
                                 gevrey(s, 200), 1.0)


def _fresh_standard_bump():
    """standard_bump built from scratch, with a memo of its own."""
    xs = -4.0 + 8.0 / 2 ** 14 * np.arange(2 ** 14)
    vals = np.zeros(2 ** 14)
    inside = np.abs(xs) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - xs[inside] ** 2))
    return SampledFunction(-4.0, 8.0 / 2 ** 14, vals, CompactBox(((-1.0, 1.0),)))


def _fresh_indicator():
    xs = -4.0 + 8.0 / 2 ** 14 * np.arange(2 ** 14)
    vals = np.where(np.abs(xs) <= 1.0, 1.0, 0.0)
    return SampledFunction(-4.0, 8.0 / 2 ** 14, vals, CompactBox(((-1.0, 1.0),)))


def test_direct_build_has_a_memo_of_its_own():
    f, g, fixed = _fresh_standard_bump(), _fresh_standard_bump(), standard_bump()
    assert f.construction is g.construction is None
    assert fixed.construction == "standard_bump"
    for h in (f, g, fixed):
        compute_spectrum(h)
    spectra = [h.__dict__["_spectrum"] for h in (f, g, fixed)]
    assert spectra[0] is not spectra[1]
    assert spectra[0] is not spectra[2] and spectra[1] is not spectra[2]
    fourier_norm(f, gevrey(2.0, 1200), 0.1)
    assert len(f.__dict__["_norm_rows"]) == 1 and "_norm_rows" not in g.__dict__


@pytest.mark.parametrize("build, fresh_build", [
    (standard_bump, _fresh_standard_bump), (indicator_control, _fresh_indicator)])
def test_fixed_function_memo_hit_equals_fresh_build(monkeypatch, build, fresh_build):
    first, hit, fresh = build(), build(), fresh_build()
    assert hit is first
    assert (hit.x0, hit.dx, hit.support) == (fresh.x0, fresh.dx, fresh.support)
    assert hit.values.tobytes() == fresh.values.tobytes()
    rows = [gevrey(s, 1200) for s in (1.5, 2.0)]
    want = (
        _table_sups(fresh),
        [_table_seminorm(fresh, row, h) for row in rows for h in H_SEMI],
        [_record_fourier_norm(fresh, row, h) for row in rows for h in H_SMALL],
    )
    for f in (first, hit, build()):
        got = (
            _table_sups(f),
            [_table_seminorm(f, row, h) for row in rows for h in H_SEMI],
            [_record_fourier_norm(f, row, h) for row in rows for h in H_SMALL],
        )
        assert got == want
    # once the memo is full, a warm build reads it without a transform
    count = _FFTCounter(monkeypatch)
    f = build()
    assert _table_sups(f) == want[0]
    assert [_record_fourier_norm(f, row, h) for row in rows for h in H_SMALL] == want[2]
    assert (count.forward, count.inverse) == (0, 0)


def test_spectral_record_is_band_sized_and_read_only():
    truncated_seen = set()
    for case, build in _mask_battery():
        spec = compute_spectrum(build())
        arrays = [v for v in spec if isinstance(v, np.ndarray)]
        if spec.truncated:
            # such a band may span the grid, and every reader refuses it
            # first: the mask alone is kept
            assert [a is spec.band for a in arrays] == [True], case
            assert spec.band.nbytes == 2 ** 14, case
        else:
            # the transform and the modulus on the band, and two masks over
            # the grid: the band in fft order and on increasing xi
            assert sum(a.nbytes for a in arrays) <= \
                (16 + 8) * np.count_nonzero(spec.kept) + 2 * 2 ** 14, case
        for a in arrays:
            assert not a.flags.writeable
        truncated_seen.add(spec.truncated)
    assert truncated_seen == {False, True}


def test_spectrum_equals_the_parent_computation():
    truncated_seen = set()
    for case, build in _mask_battery():
        f = build()
        spec, want = compute_spectrum(f), _parent_spectrum(f)
        assert np.flatnonzero(spec.band).tobytes() == want.band.tobytes(), case
        assert (spec.zero, spec.truncated) == (bool(np.max(want.modulus) == 0.0),
                                               want.truncated), case
        got_floats = [spec.edge, spec.weight, spec.xi_edge, spec.m_edge, spec.c_decay]
        want_floats = [want.edge, want.weight, want.xi_edge, want.m_edge, want.c_decay]
        assert [float(v).hex() for v in got_floats] == \
            [float(v).hex() for v in want_floats], case
        if spec.truncated:
            assert spec.kept is spec.modulus is None, case
        else:
            assert spec.kept.tobytes() == want.kept.tobytes(), case
            assert spec.modulus.tobytes() == want.modulus[want.kept].tobytes(), case
        truncated_seen.add(spec.truncated)
    assert truncated_seen == {False, True}


def test_one_spectrum_per_construction(monkeypatch):
    K, row = CompactBox(((-0.7, 1.3),)), gevrey(2.0, 200)
    first = bump_builder(K, row, 10)
    spec = compute_spectrum(first)
    assert compute_spectrum(bump_builder(K, row, 10)) is spec
    with pytest.raises(AttributeError):
        spec.zero = True
    for a in (spec.band, spec.transform, spec.kept, spec.modulus):
        with pytest.raises(ValueError):
            a[0] = 0
    # a function built directly gets its own
    f, g = _fresh_standard_bump(), _fresh_standard_bump()
    assert compute_spectrum(f) is not compute_spectrum(g)
    assert compute_spectrum(f) is not compute_spectrum(standard_bump())
    # a warm build whose table is full never takes a transform
    table = _table_sups(first)
    count = _FFTCounter(monkeypatch)
    warm = bump_builder(K, row, 10)
    assert _table_sups(warm) == table
    seminorm_derivative(warm, row, 1.0)
    assert compute_spectrum(warm) is spec
    assert (count.forward, count.inverse) == (0, 0)


def test_warm_builders_return_the_one_function(monkeypatch):
    K, row = CompactBox(((-0.7, 1.3),)), gevrey(2.0, 200)
    builds = [lambda: bump_builder(K, row, 10), standard_bump, indicator_control]
    firsts = [build() for build in builds]
    for f in firsts:
        compute_spectrum(f)
    made = []
    post_init = SampledFunction.__post_init__
    monkeypatch.setattr(SampledFunction, "__post_init__",
                        lambda self: made.append(self) or post_init(self))
    count = _FFTCounter(monkeypatch)
    # a warm call is a cache hit: no new function, no check, no transform
    for build, first in zip(builds, firsts):
        f = build()
        assert f is first
        assert compute_spectrum(f) is first.__dict__["_spectrum"][None]
    assert made == []
    assert (count.forward, count.inverse) == (0, 0)


def test_function_memos_hold_no_row():
    # a function's memo is keyed on row serials and keeps no WeightFunction,
    # so a row built outside the row memo dies with its last user, with no
    # help from the garbage collector
    G = build_gevrey_matrix(GEVREY_ROWS, 200)
    gc.disable()
    try:
        row = LogWeightSequence(gevrey(2.0, 1200).L, FactorialPower(2.0, 1.0), 0, "outside")
        fourier_norm(standard_bump(), row, 0.1)
        assert check_lemma53_i(standard_bump(), row, 0.1).holds
        rows = tuple(LogWeightSequence(r.L, r.tail, 0, r.label) for r in G.rows)
        M = WeightMatrix(G.labels, rows, G.extender, "outside")
        assert theorem51_harness(M)["status"] == "holds"
        assert theorem51_harness(M, 10)["status"] == "holds"
        refs = [weakref.ref(r) for r in (row, *rows)]
        del row, rows, M
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_norm_rows_keep_the_sixteen_latest():
    f = _fresh_standard_bump()
    rows = [gevrey(1.5 + 0.1 * i, 1200) for i in range(20)]
    first = fourier_norm(f, rows[0], 0.1)
    for row in rows:
        fourier_norm(f, row, 0.1)
    n = KEPT["_norm_rows"]
    assert list(f.__dict__["_norm_rows"]) == [row_serial(r) for r in rows[-n:]]
    again = fourier_norm(f, rows[0], 0.1)
    assert [x.hex() for x in again] == [x.hex() for x in first]
    assert list(f.__dict__["_norm_rows"]) == [
        row_serial(r) for r in rows[1 - n:] + rows[:1]]
