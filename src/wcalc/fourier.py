"""Desk-scale Fourier verification in dimension one.

Compactly supported functions are carried on uniform grids, their spectra
via FFT with the continuous-transform normalization f^(xi) = int f e^{-i xi x}.
Derivatives are spectral, with an explicit noise-floor policy: modes below
the floor are masked and an order whose integrand peaks at the mask edge is
refused rather than returned.  They take one path: _sup_table is the one
place that refuses an order or takes a derivative, and every reader of a
derivative reads its table.

Spectral derivatives depend on neither the weight row nor h; only the
normalization exp(-k log h - L_k) does (spectral differentiation as in
Trefethen, *Spectral Methods in MATLAB*, SIAM 2000).  So the work is done
once where it can be, and every seminorm or Fourier-norm probe is arithmetic
on the results: a seminorm reads each order's sup from the sup table and
log M_0..log M_K_MAX as one slice of the row's stored prefix (log_at only
past it), with log h taken once.  Two process-wide caches share it:

* _grid, a small bounded cache of the read-only arrays of one grid
  (n, dx, x0), shared by every function sampled on it: the abscissae, the
  angular frequencies in fft order and in increasing order with the
  argsort between them, and the grid-offset phases exp(-i xi x0) and
  exp(i xi x0);
* _function_of, one bounded process-wide cache of functions keyed on their
  construction (a Bump record or the name of a fixed test function): the
  builders return the one function it holds, synthesised once per process.

Every function, built there or directly, keeps what is read, as these
sequences.KEPT entries:
  - _spectrum, the Spectrum that compute_spectrum builds from its one
    forward FFT: the noise-floor mask |F| > MASK_REL max |F| decided once,
    its edge, whether the transform is zero and whether the grid truncates
    the band, the transform on the band, the band on increasing xi with
    the continuous transform's modulus on it alone, the quadrature weight,
    and the exponential fit to the last resolved octave that bounds the
    tail beyond the band.  It is band-sized (a truncated band keeps its
    mask alone);
  - _sups, the sup table, orders 0..K_MAX: one (sup of |f^(k)| on the
    function's support, sup over the grid) per order, two columns,
    from one batched inverse FFT of a (K_MAX + 1, n) array whose rows numpy
    transforms bit for bit as it would one at a time, with the multiplier
    (i xi)^k on the band only, or the message of the lowest refused order.
    The refusal is decided on the band alone, before any inverse FFT, and
    every reader of the table raises it;
  - _norm_rows, fourier_norm's data by row_serial(row): omega(|xi|) on
    the band, for the associated function of the row's log-convex
    minorant, and omega's slope and value at the band edge;
  - _answers, theorem51_harness's answer by (side, row_serial(row)).
Keyed on serials, what a function keeps holds no row.  A function that
keeps all four needs no transform at all.  A harness over Gevrey rows
meets few distinct bumps: every row with log M_0 = log M_1 = 0 gives the
same depth-1 control.  The rows keep what is theirs: the Bump of each
(box, depth) bump_builder was asked for, and the derived rows
sequence_from_weight(omega, l, K_MAX), so every function of a harness,
and every later harness over the same memoised rows, shares them.  A warm
harness is then one lookup per (function, side, row).

A bump is synthesised from its spectrum on the bins 0..n/2, the others
filled with the conjugate mirror.  This gives the full-grid product bit
for bit: fftfreq's negative bins are exact negations of the positive
ones, sinc and cos are even and sin is odd, and numpy multiplies complex
by real as by (s + 0j), which is what the separate real and imaginary
products compute.  The grid-offset phase is then applied on the full grid
as the *left* operand, phase * F.  numpy's SIMD complex multiply is not
commutative bit for bit, and the reference product F * np.exp(1j xi x0)
elides its temporary, so numpy computes it as exp(...) * F; F * phase
changes the last bits of every bump whose support is not centred at 0.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import verdicts
from .errors import (
    DerivativeOrderUnreliable,
    DomainExceeded,
    HypothesisNotCertified,
    TailDominates,
    WidthBudgetExceeded,
)
from .matrices import WeightMatrix, check_matrix_condition
from .quasi import matrix_nq_verdict
from .sequences import LogWeightSequence, kept, lc_minorant, row_serial
from .verdicts import Verdict
from .weightfuncs import associated_function, sequence_from_weight

MASK_REL = 1e-13
GRID_N = 2 ** 14        # samples per grid
K_MAX = 10              # highest derivative order probed


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CompactBox:
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for a, b in self.intervals:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError("need finite a < b per axis")

    @property
    def volume(self) -> float:
        return math.prod(b - a for a, b in self.intervals)


class _Grid(NamedTuple):
    """The read-only arrays of one grid x0 + dx * arange(n)."""
    xs: np.ndarray           # abscissae
    xi: np.ndarray           # angular frequency of each bin, fft order
    order: np.ndarray        # argsort(xi): fft order to increasing xi
    xi_sorted: np.ndarray    # xi[order]
    phase_in: np.ndarray     # exp(-1j xi x0), into the continuous transform
    phase_out: np.ndarray    # exp(1j xi x0), back onto the grid


@functools.lru_cache(maxsize=4)
def _grid(n: int, dx: float, x0: float) -> _Grid:
    xi = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    order = np.argsort(xi)
    return _Grid(
        _frozen(x0 + dx * np.arange(n)),
        _frozen(xi),
        _frozen(order),
        _frozen(xi[order]),
        _frozen(np.exp(-1j * xi * x0)),
        _frozen(np.exp(1j * xi * x0)),
    )


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Samples on the grid x0 + dx * arange(n); values become read-only float64.

    construction is how the builders made the values: a Bump, or the name
    of a fixed test function; a function built directly has construction
    None.  The builders return the one function that _function_of keeps
    per construction, so the checks below run once per distinct function.
    Every function keeps what is read of it (see the module docstring),
    and the grid's arrays come from the shared per-grid cache.
    """
    x0: float
    dx: float
    values: np.ndarray
    support: CompactBox
    construction: Bump | str | None = None

    def __post_init__(self):
        v = _frozen(np.array(self.values, dtype=np.float64))
        object.__setattr__(self, "values", v)
        n = len(v)
        if n & (n - 1):
            raise ValueError("grid length must be a power of two")
        (a, b), = self.support.intervals
        if a < self.x0 + 10 * self.dx or b > self.x0 + (n - 1) * self.dx - 10 * self.dx:
            raise ValueError("support must sit inside the grid with margin")
        xs = self.xs
        outside = (xs < a) | (xs > b)
        vmax = np.max(np.abs(v)) or 1.0
        if np.any(np.abs(v[outside]) > 1e-14 * vmax):
            raise ValueError("values do not vanish outside the declared support")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def xs(self) -> np.ndarray:
        return _grid(self.n, self.dx, self.x0).xs


class Spectrum(NamedTuple):
    """What one forward FFT tells about a function, band-sized; read-only.

    A truncated band keeps its mask alone: every reader refuses it first,
    and such a band may span the grid.
    """
    zero: bool                   # the transform is identically zero
    truncated: bool              # the band reaches the grid edge, not the floor
    band: np.ndarray             # the bins above the noise floor, a mask in fft order
    edge: float                  # largest resolved |xi| (nan when nothing is)
    transform: np.ndarray | None  # the unnormalized DFT on band, in fft order
    kept: np.ndarray | None      # the band as a mask on increasing xi
    modulus: np.ndarray | None   # |continuous transform| on kept, in order
    weight: float                # uniform quadrature weight d xi
    # exponential decay fitted on the last resolved octave, for the tail
    # beyond the band (nan when the band is empty or truncated)
    xi_edge: float               # last resolved positive frequency
    m_edge: float                # the modulus there
    c_decay: float               # decay rate per unit xi


def compute_spectrum(f: SampledFunction) -> Spectrum:
    """f's Spectrum, from f's one forward FFT on first use, kept on f.

    The noise-floor mask |F| > MASK_REL max |F| is decided here once; the
    derivatives, the weighted norms and the decay test all read it."""
    return kept(f, "_spectrum", lambda: _spectrum(f))


def _spectrum(f: SampledFunction) -> Spectrum:
    """compute_spectrum's build: f's one forward FFT."""
    g = _grid(f.n, f.dx, f.x0)
    F = np.fft.fft(f.values)
    absF = np.abs(F)
    band = _frozen(absF > MASK_REL * np.max(absF))
    absxi = np.abs(g.xi[band])
    edge = float(np.max(absxi)) if absxi.size else math.nan
    truncated = bool(edge >= 0.99 * np.max(np.abs(g.xi)))
    # continuous transform at xi_j needs the grid-offset phase
    m = np.abs((f.dx * F * g.phase_in)[g.order])
    transform = kept = modulus = None
    xi_edge = m_edge = c_decay = math.nan
    if not truncated:
        transform = _frozen(F[band])
        kept = _frozen(band[g.order])
        modulus = _frozen(m[kept])
    if absxi.size and not truncated:
        # tail beyond the resolved edge: fit exponential decay on the last
        # resolved octave (fourier_norm bounds the rest by a geometric integral)
        xi = np.abs(g.xi_sorted)
        pos = kept & (g.xi_sorted > 0)
        xi_edge = float(np.max(xi[pos]))
        oct_sel = pos & (xi >= xi_edge / 2)
        A = np.vstack([np.ones(np.sum(oct_sel)), xi[oct_sel]]).T
        coef, *_ = np.linalg.lstsq(A, np.log(m[oct_sel]), rcond=None)
        m_edge = m[pos][np.argmax(xi[pos])]
        c_decay = -float(coef[1])
    return Spectrum(
        bool(np.max(m) == 0.0), truncated, band, edge, transform, kept, modulus,
        2 * np.pi / (f.n * f.dx), xi_edge, m_edge, c_decay,
    )


def spectral_derivative(f: SampledFunction, orders: tuple[int, ...]) -> np.ndarray:
    """f's derivatives of the given orders on the grid, one row per order,
    from one batched inverse FFT of a (len(orders), n) array.  numpy
    transforms each row of it exactly as the one-row ifft, bit for bit.

    _sup_table calls it once the band has passed every order, so the band
    is resolved and its Spectrum keeps the transform."""
    s = compute_spectrum(f)
    ixi = 1j * _grid(f.n, f.dx, f.x0).xi[s.band]
    # masked bins stay zero: the multiplier is evaluated on the band only
    D = np.zeros((len(orders), f.n), dtype=complex)
    for row, k in zip(D, orders):
        row[s.band] = ixi ** k * s.transform
    np.fft.ifft(D, axis=-1, out=D)
    return D.real


def _sups(f: SampledFunction) -> list[tuple[float, float]]:
    """(sup over the support of |f^(k)|, sup over the grid) for
    k = 0..K_MAX, tabled on f, or the lowest refusal raised.

    The refusal test is monotone in k (an edge bin that maximises
    |F||xi|^k also maximises |F||xi|^(k+1)), so the table is refused at
    the order where a per-order loop would have stopped.
    """
    table = kept(f, "_sups", lambda: _sup_table(f))
    if isinstance(table, str):
        raise DerivativeOrderUnreliable(table)
    return table


def _sup_table(f: SampledFunction) -> list[tuple[float, float]] | str:
    """_sups' build: the table, or the lowest refused order's message.

    The one place that refuses an order or takes a derivative.  Order 0
    is never refused; orders 1..K_MAX are decided on the band alone,
    with |F| and |xi| on it read once, before any inverse FFT."""
    s = compute_spectrum(f)
    if math.isnan(s.edge):
        return "empty resolved band"
    if s.truncated:
        # never saw the spectrum reach the floor: the grid derivative
        # would describe the band-limited interpolant, not the function
        return "order 1: spectrum unresolved at the grid edge"
    absF = np.abs(s.transform)
    absxi = np.abs(_grid(f.n, f.dx, f.x0).xi[s.band])
    for k in range(1, K_MAX + 1):
        if absxi[int(np.argmax(absF * absxi ** k))] >= s.edge * (1 - 1e-9):
            return f"order {k}: integrand peaks at the mask boundary"
    d = spectral_derivative(f, tuple(range(K_MAX + 1)))
    np.abs(d, out=d)
    # the grid is increasing, so the support is one slice of it
    (a, b), = f.support.intervals
    lo = int(np.searchsorted(f.xs, a, "left"))
    hi = int(np.searchsorted(f.xs, b, "right"))
    return [(float(np.max(row[lo:hi])), float(np.max(row))) for row in d]


def _log_prefix(seq: LogWeightSequence, k: int) -> list[float]:
    """log M_0..log M_k as floats: the stored prefix, then seq.log_at
    beyond it, which reads the tail or raises IndexError."""
    logs = seq.L[: k + 1].tolist()
    logs += [seq.log_at(p) for p in range(len(logs), k + 1)]
    return logs


def seminorm_derivative(
    f: SampledFunction, seq: LogWeightSequence, h: float
) -> tuple[float, ...]:
    """sup over f's support of |f^(k)| / (h^k M_k), for k = 0..K_MAX."""
    table = _sups(f)
    logs = _log_prefix(seq, K_MAX)
    lh = math.log(h)
    return tuple(sup * math.exp(-k * lh - logs[k]) for k, (sup, _) in enumerate(table))


class _NormRow(NamedTuple):
    """What fourier_norm needs of one (function, row), whatever h is."""
    om: np.ndarray           # omega(max(|xi|, 1)) on the band, increasing xi
    om_slope: float          # slope of omega just past the band edge
    om_edge: float           # omega at the band edge


def _norm_row(f: SampledFunction, seq: LogWeightSequence) -> _NormRow:
    """fourier_norm's row data, kept on f as the KEPT entry _norm_rows
    under row_serial(seq).  The band must not be truncated."""

    def build():
        spec = compute_spectrum(f)
        w = associated_function(lc_minorant(seq))
        xi_edge = spec.xi_edge
        xi = _grid(f.n, f.dx, f.x0).xi_sorted[spec.kept]
        om = _frozen(w.omega(np.maximum(np.abs(xi), 1.0)))
        om_slope = float(
            (w.omega(xi_edge * 1.01) - w.omega(xi_edge)) / (0.01 * xi_edge)
        )
        return _NormRow(om, om_slope, w.omega(xi_edge))

    return kept(f, "_norm_rows", build, row_serial(seq))


def fourier_norm(
    f: SampledFunction, seq: LogWeightSequence, h: float
) -> tuple[float, float]:
    """Bracket for int |f^(xi)| exp(h omega(|xi|)) d xi."""
    spec = compute_spectrum(f)
    if spec.zero:
        return (0.0, 0.0)
    if spec.truncated:
        # decay was never observed down to the noise floor, so no
        # extrapolation beyond the grid can be certified
        raise TailDominates("resolved band truncated by the grid, not by decay")
    row = _norm_row(f, seq)
    c_eff = spec.c_decay - h * row.om_slope
    if c_eff <= 0:
        raise TailDominates(
            f"decay {spec.c_decay:.3g} per unit xi cannot beat weight growth "
            f"{h * row.om_slope:.3g} at the band edge"
        )
    # numpy's pairwise sum groups the terms by position, so the band is
    # summed in place on a zero grid, as the integrand over the whole grid
    integrand = np.zeros(f.n)
    integrand[spec.kept] = spec.modulus * np.exp(h * row.om)
    inner = float(np.sum(integrand) * spec.weight)
    edge_val = float(spec.m_edge * math.exp(h * row.om_edge))
    tail = 2.0 * edge_val / c_eff          # both signs of xi
    hi = inner + tail
    if tail > 0.1 * hi:
        raise TailDominates("tail bound exceeds 10% of the bracket")
    return (inner, hi)


def check_lemma53_i(f: SampledFunction, seq: LogWeightSequence, h: float) -> Verdict:
    """Derivative bounds from the weighted spectral integral."""
    hull = lc_minorant(seq)
    if K_MAX / h > hull.P:
        raise DomainExceeded(
            f"conjugate needed at {K_MAX / h:g} but slopes end at {hull.P}"
        )
    _, hi = fourier_norm(f, seq, h)
    if hi == 0.0:
        return verdicts.holds(trivial=True, C=0.0)
    table = _sups(f)
    # the row keeps its envelope's conjugate for every associated function
    star = kept(hull, "_conjugate", associated_function(hull).phi_pl.conjugate)
    worst = 0.0
    for k, (_, sup) in enumerate(table):
        bound = hi / (2 * math.pi) * math.exp(h * star(k / h))
        worst = max(worst, sup / bound)
    if worst <= 1.0 + 1e-9:
        return verdicts.holds(tightest_ratio=worst, C=hi)
    return verdicts.fails(ratio=worst, C=hi)


def check_lemma53_ii(
    f: SampledFunction, M: WeightMatrix, h: float
) -> Verdict:
    """Spectral decay against some row, with constants from the premise."""
    Lv = check_matrix_condition(M, "L_roumieu")
    if not Lv.holds:
        raise HypothesisNotCertified("matrix lacks the L condition")
    spec = compute_spectrum(f)
    if spec.zero:
        return verdicts.holds(trivial=True)
    lamK = f.support.volume
    C = None
    x_used = None
    for lbl, row in zip(M.labels, M.rows):
        try:
            _, C = fourier_norm(f, row, h)
            x_used = lbl
            break
        except TailDominates:
            continue
    if C is None:
        # no row admits a finite weighted integral: the function decays too
        # slowly for this matrix, so the claimed bound fails for every row
        return verdicts.fails(reason="no finite premise integral on any row")
    # a row gave a bracket, so the band is resolved
    xi = _grid(f.n, f.dx, f.x0).xi_sorted[spec.kept]
    pos = xi > 0
    xi, mod = xi[pos], spec.modulus[pos]
    all_unbounded = True
    for lbl, row in zip(M.labels, M.rows):
        w = associated_function(row)
        om = w.omega(np.maximum(xi, 1.0))
        for kpow in range(0, 16):
            Lc = 2.0 ** kpow
            needed = np.log(mod) + (h / Lc) * om
            # the required constant is the sup of this; a witness exists when
            # it is attained in the interior, not climbing at the band edge
            i = int(np.argmax(needed))
            if xi[i] < 0.9 * xi[-1]:
                all_unbounded = False
                D = math.exp(float(needed[i])) / (lamK * C / (2 * math.pi))
                if D <= 2.0 ** 20:
                    return verdicts.holds(x=x_used, y=lbl, L=Lc, D=max(D, 1.0))
    if all_unbounded:
        return verdicts.fails(reason="required constant climbs at every row/L")
    return verdicts.inconclusive("no witness on the constant grid")


# -- synthesis ----------------------------------------------------------

class Bump(NamedTuple):
    """How bump_builder built a function: the indicator of core convolved
    with box kernels of the given widths, on the box."""
    box: tuple[tuple[float, float], ...]
    logs: tuple[float, ...]          # log M_0..log M_depth of the row
    h: float                         # the dilation
    widths: tuple[float, ...]        # 1/(h mu_p), p = 1..depth
    core: tuple[float, float]        # the interval convolved


# the two fixed test functions live on [-1, 1]
_UNIT = CompactBox(((-1.0, 1.0),))


@functools.lru_cache(maxsize=32)
def _function_of(c: Bump | str) -> SampledFunction:
    """The function built as c, once per process, on the grid spanning
    four times the box: x0 = centre - 2 width, dx = 4 width / GRID_N.
    Its values are exactly 0.0 outside the box."""
    K = CompactBox(c.box) if isinstance(c, Bump) else _UNIT
    (a, b), = K.intervals
    span = 4.0 * (b - a)
    x0, dx = 0.5 * (a + b) - span / 2, span / GRID_N
    g = _grid(GRID_N, dx, x0)
    if c == "standard_bump":
        vals = np.zeros(GRID_N)
        inside = np.abs(g.xs) < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - g.xs[inside] ** 2))
    elif c == "indicator_control":
        vals = np.where(np.abs(g.xs) <= 1.0, 1.0, 0.0)
    else:
        # the spectrum is real-symmetric: build it on the bins 0..n//2 and
        # mirror the rest (exact; see the module docstring)
        n, m = GRID_N, GRID_N // 2 + 1
        xi = g.xi[:m]
        core_lo, core_hi = c.core
        # indicator of the core interval
        with np.errstate(divide="ignore", invalid="ignore"):
            half = np.where(
                xi == 0,
                core_hi - core_lo,
                (np.exp(-1j * xi * core_lo) - np.exp(-1j * xi * core_hi)) / (1j * xi),
            )
        re, im = half.real.copy(), half.imag.copy()
        for wd in c.widths:
            s = np.sinc(xi * wd / (2 * np.pi))
            re *= s
            im *= s
        F = np.empty(n, dtype=complex)
        F.real[:m], F.imag[:m] = re, im
        F.real[m:] = re[n - m : 0 : -1]
        F.imag[m:] = -im[n - m : 0 : -1]
        # phase on the left: complex multiply is not commutative bit for bit
        vals = np.real(np.fft.ifft(g.phase_out * F)) / dx
        vals[np.abs(vals) < 1e-16] = 0.0
    # the grid is increasing, so the box is one slice of it
    vals[: np.searchsorted(g.xs, a, "left")] = 0.0
    vals[np.searchsorted(g.xs, b, "right") :] = 0.0
    return SampledFunction(x0, dx, vals, K, c)


def bump_builder(K: CompactBox, seq: LogWeightSequence, depth: int) -> SampledFunction:
    """The indicator of a core interval convolved with depth box kernels
    of widths 1/(h mu_p).

    The dilation h is the smallest power of two that fits the widths into
    a quarter of the box; |f^{(k)}| <= (2h)^k mu_1...mu_k for k <= depth
    then keeps f in the class of the row.  h, the widths and the core are
    read from f.construction.  seq keeps it as the KEPT entry _bump under
    (K.intervals, depth), so a warm call is two lookups.  The construction
    is done in the frequency domain (product of sinc factors) on a grid
    spanning four times the support, then transformed back, once per
    process for each distinct construction.
    """
    c = kept(seq, "_bump", lambda: _bump(K, seq, depth), (K.intervals, depth))
    return _function_of(c)


def _bump(K: CompactBox, seq: LogWeightSequence, depth: int) -> Bump:
    """bump_builder's construction: a Bump holds only numbers, so the row
    that keeps it keeps no function."""
    (a, b), = K.intervals
    width = b - a
    logs = tuple(_log_prefix(seq, depth))
    try:
        mus = [math.exp(logs[p] - logs[p - 1]) for p in range(1, depth + 1)]
    except OverflowError:
        # 1/mu_p is below every float, let alone the grid step
        raise WidthBudgetExceeded(
            f"mollifier width 1/mu_p underflows: log mu_p reaches {max(np.diff(logs)):.3g}"
        ) from None
    h = 1.0
    while h <= 2.0 ** 20 and sum(1.0 / (h * mu) for mu in mus) >= width / 4:
        h *= 2.0
    widths = tuple(1.0 / (h * mu) for mu in mus)
    if sum(widths) >= width / 2:
        raise WidthBudgetExceeded(
            f"mollifier widths {sum(widths):.3g} exceed half the box {width / 2:.3g}"
        )
    margin = 0.05 * width
    core = (a + sum(widths) / 2 + margin, b - sum(widths) / 2 - margin)
    return Bump(K.intervals, logs, h, widths, core)


def standard_bump() -> SampledFunction:
    """exp(-1/(1 - x^2)) on [-1, 1]."""
    return _function_of("standard_bump")


def indicator_control() -> SampledFunction:
    """Sharp indicator; the canonical non-member of every smooth class."""
    return _function_of("indicator_control")


# The reference sum is one exact integer, computed modulo primes below 2^23
# in float64.  Residues are kept signed, |r| <= (p + 1) / 2 <= 2^22, so a
# product of two is at most 2^44, and the longest sum of products, over the
# 2 A = 130 outer terms of the reference (A = 65 blocks of _BLOCK samples),
# stays below 2^52, where float64 holds every integer exactly.  A big integer
# enters as signed _LIMB_BITS-bit limbs, each times its residue 2^(16 k) mod p.
_PRIME_BITS = 23
_BLOCK = 64
_LIMB_BITS = 16


class _HalfSamples(NamedTuple):
    """The standard bump's half-grid samples at one precision, as residues."""

    S: int                     # every integer below is a multiple of 2^-S
    primes: np.ndarray         # (P,) float64
    limb_residues: np.ndarray  # (P, L): 2^(16 k) mod p for the L limbs, k < L
    samples: np.ndarray        # (P, A, _BLOCK): g_{a B + b}, -B/2 <= b < B/2
    M: int                     # the product of the primes
    crt: tuple[int, ...]       # (M / p) ((M / p)^-1 mod p) per prime


def _mod(x: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """A residue of x modulo p, in place, for float64 integers |x| < 2^52,
    p broadcast: x - p rint(x / p), of modulus at most (p + 1) / 2.

    |x / p| < 2^30, so the float quotient is within 2^-23 of x / p, and q p
    and x - q p are integers below 2^53, computed exactly."""
    q = x / primes
    np.rint(q, out=q)
    q *= primes
    x -= q
    return x


def _residues(ints: list[int], primes: np.ndarray, limb_residues: np.ndarray) -> np.ndarray:
    """(P, len(ints)) float64: each |x| < 2^(16 L - 1) modulo each prime; the
    top one of x's L limbs is signed."""
    L = limb_residues.shape[1]
    buf = b"".join([x.to_bytes(2 * L, "little", signed=True) for x in ints])
    limbs = np.frombuffer(buf, dtype="<u2").reshape(-1, L).astype(np.float64)
    limbs[:, -1] -= 65536.0 * (limbs[:, -1] >= 32768.0)
    return _mod(limb_residues @ limbs.T, primes[:, None])


def _signed_lift(rs: list[int], t: _HalfSamples) -> int:
    """The integer x, |x| < M / 2, with the residues rs (the Chinese remainder
    theorem as in Knuth, *TAOCP* vol. 2, 4.3.2)."""
    x = sum(map(int.__mul__, rs, t.crt)) % t.M
    return x - t.M if 2 * x > t.M else x


def _primes_below(bound: int) -> list[int]:
    """The largest primes below 2^_PRIME_BITS, as many as make their
    product > bound."""
    out, prod, n = [], 1, (1 << _PRIME_BITS) - 1
    while prod <= bound:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            out.append(n)
            prod *= n
        n -= 2
    return out


@functools.lru_cache(maxsize=2)
def _bump_half_samples(dps: int) -> _HalfSamples:
    """The standard bump's nonzero samples f(j dx), x = j dx >= 0 on the
    GRID_N-point grid over [-2, 2), computed at dps digits and rounded to
    the integers F_j = round(f(j dx) 2^S), S = 3.33 dps + 64 bits, kept as
    the residues of g_0 = F_0, g_j = 2 F_j (g_j = 0 for j < 0 and past the
    support) with the tables of the lift.

    Every rotation point (c, s) of reference_spectrum_standard_bump has
    c^2 + s^2 < 2^(2S+1): it starts within one unit of radius 2^S, and each
    of its at most 64 steps moves it by a few units.  So each term
    g_j (c_a c_b + s_a s_b) is below g_j 2^(2S+1), and the primes are as
    many as make M > 2 sum g_j 2^(2S+1): the sum's integer is the signed
    lift of its residues.
    """
    import mpmath as mp

    n, S = GRID_N, int(3.33 * dps) + 64
    with mp.workdps(dps):
        dx = mp.mpf(4) / n
        fs = []
        for j in range(n // 2):
            x = dx * j
            if abs(x) >= 1:
                break
            fs.append(int(mp.nint(mp.ldexp(mp.e ** (-1 / (1 - x * x)), S))))
    gs = [fs[0]] + [2 * f for f in fs[1:]]
    primes = _primes_below(2 * (sum(gs) << (2 * S + 1)))
    M = math.prod(primes)
    L = (S + 2 + _LIMB_BITS - 1) // _LIMB_BITS   # |x| < 2^(S+1) <= 2^(16 L - 1)
    ps = _frozen(np.array(primes, dtype=np.float64))
    table = _frozen(np.array([[pow(2, _LIMB_BITS * k, p) for k in range(L)]
                              for p in primes], dtype=np.float64))
    half = _BLOCK // 2
    A = (len(gs) + half + _BLOCK - 1) // _BLOCK
    padded = [0] * half + gs + [0] * (A * _BLOCK - half - len(gs))
    samples = _frozen(_residues(padded, ps, table).reshape(len(primes), A, _BLOCK))
    return _HalfSamples(S, ps, table, samples, M,
                        tuple((M // p) * pow(M // p, -1, p) for p in primes))


def _rotation_points(c: int, s: int, S: int, n: int) -> list[int]:
    """2^S cos(k t) for k < n, then 2^S sin(k t): each point is the last one
    rotated by (c, s) = 2^S (cos t, sin t), each product floored onto 2^-S.

    With m = c (x + y), m - y (c + s) = c x - s y and m + x (s - c) =
    s x + c y: three multiplications in place of four, the same integers."""
    x, y = 1 << S, 0
    cs, ss = [x], [y]
    c_plus_s, s_minus_c = c + s, s - c
    for _ in range(n - 1):
        m = c * (x + y)
        x, y = (m - y * c_plus_s) >> S, (m + x * s_minus_c) >> S
        cs.append(x)
        ss.append(y)
    return cs + ss


def reference_spectrum_standard_bump(xis, dps: int = 80):
    """High-precision |f^| of the standard bump at the given frequencies.

    Plain double-precision FFT bottoms out near 1e-16 while the true
    transform falls to 8.2e-47 at xi = 1e4 (the smallest of the moduli at
    geomspace(1e2, 1e4, 7)), so the reference values are computed as an
    extended-precision direct transform of exact samples (trapezoid sums
    converge spectrally for this function; the grid spans [-2, 2] so the
    nearest aliasing image stays negligible).

    The bump is even and vanishes at the unpaired grid point x = -2, so the
    trapezoid sum over the grid x_k = -2 + k dx is, up to a phase of modulus
    one, the half-grid cosine sum (Trefethen, *Spectral Methods in MATLAB*)

        |f^(xi)| = |dx (f_0 + 2 sum_{j=1}^{m} f_j cos(j xi dx))|,

    f_j = f(j dx), m = 4095 nonzero terms at n = 2^14.  With g_0 = f_0,
    g_j = 2 f_j, t = xi dx and j = a B + b, B = 64, -B/2 <= b < B/2,
    0 <= a < A = 65, the sum is

        sum_a (cos(-aBt) sum_b g_{aB+b} cos(bt) + sin(-aBt) sum_b g_{aB+b} sin(bt)),

    and it is evaluated as one exact integer.  Each factor is an integer
    multiple of 2^-S, S = 3.33 dps + 64 bits: the samples rounded once;
    cos/sin(bt) for 0 <= b <= B/2 (cos is even and sin odd) and
    cos/sin(-aBt) by rotations from mpmath's cos/sin of t and -Bt at dps
    digits, each product floored back onto that grid.  The integer is
    computed modulo about 44 primes below 2^23 (at dps = 80) as float64
    matrix products in which every partial sum is an integer below 2^53, so
    it is exact in any summation order and on any number of BLAS threads
    (exact integer linear algebra modulo word-size primes on floating-point
    BLAS: Dumas, Giorgi, Pernet, *ACM TOMS* 35(3), 2008), and it is lifted
    by the Chinese remainder theorem (Knuth, *TAOCP* vol. 2, 4.3.2).

    Forward error.  The integer sum is exact, so the error comes only from
    its factors: each sample, 10^-dps relative at dps digits and then its
    rounding, 2^-S / 2; cos and sin of t and Bt rounded at dps digits,
    which put the k-th rotation point within about k 10^-dps of its place;
    and the rotation floors, at most one 2^-S per step, so at most
    (A + B/2) 2^-S per cos(jt), about (A + B) 2^-S.  That bounds the error
    near sum |f_j| (A + B) 2^-S = 909 * 129 * 2^-330, about 2^-312 at
    dps = 80, with the samples' sum |f_j| 10^-dps and the angles'
    sum |f_j| (A + B) 10^-dps = 1.2e-75 beside it (sum |f_j| = 909).  Against
    |f_0 + 2 sum| >= 3.4e-43 at these frequencies that is a relative error
    near 1e-32.  Rounded to float, the moduli are therefore those of the
    direct complex sum over all n samples unless the exact value lies that
    close to a rounding boundary.  dx = 2^-12 is a power of two, so the
    last scaling is exact.  The samples and their residue tables are kept
    for the two most recent precisions.
    """
    import mpmath as mp

    xis = list(xis)
    for xi in xis:
        if not math.isfinite(xi):
            raise ValueError(f"the reference spectrum needs a finite frequency, got xi = {xi}")
    t = _bump_half_samples(dps)
    S = t.S
    P, A, B = t.samples.shape
    half = B // 2
    dx = 4.0 / GRID_N
    ints = []
    with mp.workdps(dps):
        for xi in xis:
            w = mp.mpf(xi) * dx
            for angle, n in ((w, half + 1), (-B * w, A)):
                c, s = (int(mp.nint(mp.ldexp(v, S))) for v in mp.cos_sin(angle))
                ints += _rotation_points(c, s, S, n)
    r = _residues(ints, t.primes, t.limb_residues).reshape(P, len(xis), 2 * (half + 1 + A))
    # cos(bt) and sin(bt) for -B/2 <= b < B/2 from the points at |b|
    b = np.arange(-half, half)
    inner = r[:, :, np.concatenate([abs(b), half + 1 + abs(b)])]
    inner[:, :, B:] *= np.sign(b)
    # sums[p, xi] = (sum_b g_{aB+b} cos(bt), a < A, then the same with sin)
    sums = inner.reshape(P, -1, B) @ t.samples.transpose(0, 2, 1)
    sums = _mod(sums, t.primes[:, None, None]).reshape(P, len(xis), 2 * A)
    sums *= r[:, :, 2 * (half + 1) :]
    total = _mod(sums.sum(axis=2), t.primes[:, None])
    return np.array([abs(_signed_lift(rs, t)) / (1 << 3 * S) * dx
                     for rs in total.T.astype(np.int64).tolist()])


def decay_exponent_fit(xis, moduli) -> float:
    """Slope of log(-log |f^|) against log xi (0.5 for root-exponential)."""
    x = np.log(np.asarray(xis, dtype=float))
    y = np.log(-np.log(np.asarray(moduli, dtype=float)))
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[1])


# -- the three-way membership harness -----------------------------------

def _trend_classify(per_order: tuple[float, ...]) -> str:
    """decided 'finite' / 'growing' / 'open' from the normalized sups.

    Python floats compare and subtract as numpy's float64 does, and
    max(t, 1e-300) keeps a NaN t as np.maximum does; only the head's max
    needs care, since np.max is NaN when any term is and Python's max
    depends on where the NaN sits."""
    n = len(per_order)
    if n < 4:
        return "open"
    tail = per_order[n // 2 :]
    steps = [v - u for u, v in zip(tail, tail[1:])]
    if all(d <= 1e-12 * max(u, 1e-300) for d, u in zip(steps, tail)):
        return "finite"
    if tail[-1] > 4.0 * tail[0] and all(d > 0 for d in steps):
        return "growing"
    head = per_order[: n // 2]
    if not any(map(math.isnan, head)) and per_order[-1] <= max(head):
        return "finite"
    return "open"


def _seminorm_answer(f, row, h, refused):
    try:
        per_order = seminorm_derivative(f, row, h)
    except DerivativeOrderUnreliable:
        return refused
    return "positive" if _trend_classify(per_order) == "finite" else None


def _weightfn_answer(f, row, l, refused):
    derived = sequence_from_weight(associated_function(row), l, K_MAX)
    return _seminorm_answer(f, derived, 1.0, refused)


def _fourier_answer(f, row, h, refused):
    try:
        fourier_norm(f, row, h)
    except TailDominates:
        return refused
    return "positive"


# theorem51_harness's membership sides: each one's answer and the grid it
# walks within a row
_SIDES = {
    "derivative_side": (_seminorm_answer, (1.0, 2.0, 4.0, 8.0)),
    "weightfn_side": (_weightfn_answer, (1.0, 2.0, 4.0)),
    "fourier_side": (_fourier_answer, (0.02, 0.05, 0.1)),
}


def _side(f, name: str, rows, refused) -> str:
    """The membership side name of f, by the rule of theorem51_harness.

    Each row's answer, the first of its grid walk that is not None or None,
    is kept on f as the KEPT entry _answers under (name, row_serial(row));
    refused is a function of f, so the key determines it."""
    answer, grid = _SIDES[name]

    def walk(row):
        for x in grid:
            a = answer(f, row, x, refused)
            if a is not None:
                return a
        return None

    for row in rows:
        a = kept(f, "_answers", lambda row=row: walk(row), (name, row_serial(row)))
        if a is not None:
            return a
    return "negative"


def theorem51_harness(M: WeightMatrix, bump_depth: int = 30) -> dict:
    """Battery equality check of the three membership routes.

    Each side walks the rows in order and, within each row, its grid in
    order, asking its answer (_side): the first answer that is not None
    decides, and an exhausted walk reads "negative".  A refused sup table
    answers "negative" on a truncated band and "open" otherwise on the
    derivative side, and "negative" on the weight-function side; a Fourier
    norm whose tail dominates answers None, and the walk goes on.

    Each row's answer on each side is kept on the function under
    (side name, row_serial(row)), and each bump's construction on its row
    under (box, depth), so a harness over rows it has met asks no answer
    again.  The hypothesis gates run on every call."""
    for cond in ("L_roumieu", "mg_roumieu"):
        if not check_matrix_condition(M, cond).holds:
            raise HypothesisNotCertified(cond)
    if not matrix_nq_verdict(M, "roumieu").holds:
        raise HypothesisNotCertified("matrix generates a quasianalytic class")

    battery = {f"bump:{lbl:g}": bump_builder(_UNIT, row, bump_depth)
               for lbl, row in zip(M.labels, M.rows)}
    battery["control:indicator"] = indicator_control()
    battery["control:single-mollify"] = bump_builder(_UNIT, M.rows[0], 1)

    report: dict = {"functions": {}, "disagreements": []}
    for name, f in battery.items():
        # refused with mass at the band edge: non-smooth at grid scale
        refused = "negative" if compute_spectrum(f).truncated else "open"
        sides = {
            "derivative_side": _side(f, "derivative_side", M.rows, refused),
            "weightfn_side": _side(f, "weightfn_side", M.rows, "negative"),
            "fourier_side": _side(f, "fourier_side", M.rows, None),
        }
        agree = len(set(sides.values()) - {"open"}) <= 1
        report["functions"][name] = {**sides, "agreement": agree}
        if not agree:
            report["disagreements"].append(name)
    report["status"] = "holds" if not report["disagreements"] else "fails"
    return report
