"""Desk-scale Fourier verification in dimension one.

Compactly supported functions are carried on uniform grids, their spectra
via FFT with the continuous-transform normalization f^(xi) = int f e^{-i xi x}.
Derivatives are spectral, with an explicit noise-floor policy: modes below
the floor are masked and an order whose integrand peaks at the mask edge is
refused rather than returned.

Spectral derivatives depend on neither the weight row nor h; only the
normalization exp(-k log h - L_k) does (spectral differentiation as in
Trefethen, *Spectral Methods in MATLAB*, SIAM 2000).  So the work is done
once where it can be, and every seminorm or Fourier-norm probe is arithmetic
on the results.  Three caches keep it:

* _grid, a small bounded cache of the read-only arrays of one grid
  (n, dx, x0), shared by every function sampled on it: the abscissae, the
  angular frequencies in fft order and in increasing order with the
  argsort between them, and the grid-offset phases exp(-i xi x0) and
  exp(i xi x0);
* _spectrum, the SpectralData that compute_spectrum builds on first use
  from one forward FFT and keeps on the SampledFunction: the noise-floor
  mask |F| > MASK_REL max |F| decided once, with the band, |F| and |xi| on
  it, its edge and whether the grid truncates it; the increasing-xi view
  of the continuous transform; and the exponential fit to the last
  resolved octave that bounds the tail beyond the band.  It keeps the
  full-grid F, so it dies with its function;
* the memo.  Every function carries its construction: a Bump record, the
  name of a fixed test function, or None when it was built directly.  One
  bounded process-wide cache keyed on the construction holds what every
  copy shares (a function built directly has a memo of its own):
  - the samples on the support, synthesised once per process;
  - the spectral record: whether the transform is zero and whether the
    band is truncated, the band as a mask on increasing xi with the
    modulus on it alone, the quadrature weight and the tail fit.  It is
    band-sized (a truncated band keeps no arrays);
  - the derivative-sup table: for each box K and order k <= K_MAX the sup
    over K of |f^(k)|, where it is attained and the sup over the grid, or
    the refusal's message.  The band-only peak test refuses orders first,
    and a reader of orders 0..k raises the lowest refused one before it
    reads any sup.  The accepted orders then share one batched inverse FFT
    of a (orders, n) array, whose rows numpy transforms bit for bit as it
    would one at a time, with the multiplier (i xi)^k on the band only;
  - the Fourier-norm rows, keyed on the row's content: the associated
    function of its log-convex minorant and omega(|xi|) on the band.
  A copy whose memo is full needs no transform at all.  A harness over
  Gevrey rows meets few distinct bumps: every row with log M_0 = log M_1 =
  0 gives the same depth-1 control.  Each harness call also shares its
  derived rows sequence_from_weight(omega, l, K_MAX) across its battery.

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
from dataclasses import dataclass, field
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
from .sequences import LogWeightSequence, lc_minorant
from .verdicts import Verdict
from .weightfuncs import WeightFunction, associated_function, sequence_from_weight

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
        out = 1.0
        for a, b in self.intervals:
            out *= b - a
        return out


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


class _Refusal(NamedTuple):
    """A derivative order refused once, raised again on every lookup.

    Only the message is kept: an exception object would pin its traceback's
    frames and arrays for as long as the function lives.
    """
    message: str


class _Memo:
    """What every copy of one function shares: its samples from index lo
    on of the grid x0 + dx * arange(GRID_N) (None for a function built
    directly); its derivative-sup table, (k, a, b) -> _derivative_sup
    entry, a _Refusal or None while pending; its _SpectralRecord once
    read; and its Fourier-norm rows, row -> _NormRow."""
    __slots__ = ("x0", "dx", "lo", "samples", "sups", "record", "rows")

    def __init__(self, x0=math.nan, dx=math.nan, lo=0, samples=None):
        self.x0, self.dx, self.lo, self.samples = x0, dx, lo, samples
        self.sups: dict = {}
        self.record: _SpectralRecord | None = None
        self.rows: dict = {}


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Samples on the grid x0 + dx * arange(n); values become read-only float64.

    construction is how the builders made the values: a Bump, or the name
    of a fixed test function.  Every function with one construction shares
    its memo (see _memo_of); a function built directly has construction
    None and a memo of its own.  The spectrum is built on first use and
    kept on the instance, and the grid's arrays come from the shared
    per-grid cache.
    """
    x0: float
    dx: float
    values: np.ndarray
    support: CompactBox
    construction: Bump | str | None = None
    _spectrum: "SpectralData | None" = field(default=None, init=False, repr=False)
    _memo: _Memo = field(init=False, repr=False)

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
        c = self.construction
        object.__setattr__(self, "_memo", _Memo() if c is None else _memo_of(c))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def xs(self) -> np.ndarray:
        return _grid(self.n, self.dx, self.x0).xs


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Everything that one forward FFT tells about a function; read-only."""
    F: np.ndarray            # unnormalized DFT, fft order
    band: np.ndarray         # increasing indices of the bins above the noise floor
    band_absF: np.ndarray    # |F| on the band (empty when truncated)
    band_absxi: np.ndarray   # |xi| on the band (empty when truncated)
    edge: float              # largest resolved |xi| (nan when nothing is)
    truncated: bool          # the band reaches the grid edge, not the floor
    xi: np.ndarray           # increasing angular frequencies, shared by the grid
    modulus: np.ndarray      # |continuous transform| at xi
    weight: float            # uniform quadrature weight d xi
    kept: np.ndarray         # the band as a mask on xi
    # exponential decay fitted on the last resolved octave, for the tail
    # beyond the band (nan when the band is empty or truncated)
    xi_edge: float           # last resolved positive frequency
    m_edge: float            # the modulus there
    c_decay: float           # decay rate per unit xi


def compute_spectrum(f: SampledFunction) -> SpectralData:
    """f's spectrum, built from one forward FFT on first use and kept on f.

    The noise-floor mask |F| > MASK_REL max |F| is decided here once; the
    derivatives, the weighted norms and the decay test all read it."""
    if f._spectrum is not None:
        return f._spectrum
    g = _grid(f.n, f.dx, f.x0)
    F = _frozen(np.fft.fft(f.values))
    absF = np.abs(F)
    mask = absF > MASK_REL * np.max(absF)
    band = _frozen(np.flatnonzero(mask))
    band_absxi = np.abs(g.xi[band])
    edge = float(np.max(band_absxi)) if band.size else math.nan
    truncated = bool(edge >= 0.99 * np.max(np.abs(g.xi)))
    if truncated:
        # _refusal refuses a truncated band before it reads these, and such
        # a band may span the grid
        band_absF = band_absxi = _frozen(np.empty(0))
    else:
        band_absF, band_absxi = _frozen(absF[band]), _frozen(band_absxi)
    # continuous transform at xi_j needs the grid-offset phase
    m = _frozen(np.abs((f.dx * F * g.phase_in)[g.order]))
    kept = _frozen(mask[g.order])
    xi_edge = m_edge = c_decay = math.nan
    if band.size and not truncated:
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
    spec = SpectralData(
        F, band, band_absF, band_absxi, edge, truncated, g.xi_sorted, m,
        2 * np.pi / (f.n * f.dx), kept, xi_edge, m_edge, c_decay,
    )
    object.__setattr__(f, "_spectrum", spec)
    return spec


class _SpectralRecord(NamedTuple):
    """What the Fourier-norm readers take from a SpectralData; read-only.

    Band-sized, so that it can be kept in a function's memo for the life of
    the process: a truncated band keeps no arrays, since every reader
    refuses it first, and a resolved one keeps the modulus on the band only.
    """
    zero: bool                   # the transform is identically zero
    truncated: bool              # the band reaches the grid edge, not the floor
    kept: np.ndarray | None      # the band as a mask on increasing xi
    modulus: np.ndarray | None   # |continuous transform| on kept, in order
    weight: float                # uniform quadrature weight d xi
    xi_edge: float               # the tail fit of SpectralData
    m_edge: float
    c_decay: float


def _spectral_record(f: SampledFunction) -> _SpectralRecord:
    """f's spectral record, taken from compute_spectrum on first use and kept
    in f's memo, where every copy of f reads it without a transform."""
    rec = f._memo.record
    if rec is None:
        s = compute_spectrum(f)
        kept = modulus = None
        if not s.truncated:
            kept, modulus = s.kept, _frozen(s.modulus[s.kept])
        rec = _SpectralRecord(
            bool(np.max(s.modulus) == 0.0), s.truncated, kept, modulus,
            s.weight, s.xi_edge, s.m_edge, s.c_decay,
        )
        f._memo.record = rec
    return rec


def _refusal(f: SampledFunction, k: int) -> str | None:
    """Why order k of f is past the noise floor, or None when it is not.

    Band-only and cheap: the inverse FFT is never needed to decide."""
    if k == 0:
        return None
    s = compute_spectrum(f)
    if not s.band.size:
        return "empty resolved band"
    if s.truncated:
        # never saw the spectrum reach the floor: the grid derivative
        # would describe the band-limited interpolant, not the function
        return f"order {k}: spectrum unresolved at the grid edge"
    grown = s.band_absF * s.band_absxi ** k
    if s.band_absxi[int(np.argmax(grown))] >= s.edge * (1 - 1e-9):
        return f"order {k}: integrand peaks at the mask boundary"
    return None


def spectral_derivative(f: SampledFunction, k) -> np.ndarray:
    """k-th derivative on the grid, refusing orders past the noise floor.

    k may also be a tuple of orders that _refusal has already passed, as
    _derivative_sup does; the result then has one row per order, all from
    one batched inverse FFT of a (len(k), n) array.  numpy transforms each
    row of it exactly as the one-row ifft, bit for bit.
    """
    single = np.ndim(k) == 0
    if single and (why := _refusal(f, k)) is not None:
        raise DerivativeOrderUnreliable(why)
    orders = (k,) if single else tuple(k)
    s = compute_spectrum(f)
    band = s.band
    ixi = 1j * _grid(f.n, f.dx, f.x0).xi[band]
    F = s.F[band]
    # masked bins stay zero: the multiplier is evaluated on the band only
    D = np.zeros((len(orders), f.n), dtype=complex)
    for row, j in zip(D, orders):
        row[band] = ixi ** j * F
    np.fft.ifft(D, axis=-1, out=D)
    return D[0].real if single else D.real


def _table_orders(f: SampledFunction, k: int, K: CompactBox) -> tuple[float, float]:
    """Enter every order up to max(k, K_MAX) of f on K in its sup table.

    Band-only: each order is tabled as its refusal, or as None, the sup
    still to be computed.  Orders are entered from 0 up, so the box's top
    order being present means all are.  Returns K's ends (a, b).
    """
    (a, b), = K.intervals
    top = max(k, K_MAX)
    sups = f._memo.sups
    if (top, a, b) not in sups:
        for j in range(top + 1):
            if (j, a, b) not in sups:
                why = _refusal(f, j)
                sups[(j, a, b)] = None if why is None else _Refusal(why)
    return a, b


def _first_refusal(f: SampledFunction, k_max: int, K: CompactBox) -> str | None:
    """The refusal of the lowest refused order k <= k_max of f on K, if any.

    Readers of a whole range of orders raise it before reading any sup, so
    no inverse FFT runs for orders whose sups would be discarded."""
    a, b = _table_orders(f, k_max, K)
    for k in range(k_max + 1):
        entry = f._memo.sups[(k, a, b)]
        if isinstance(entry, _Refusal):
            return entry.message
    return None


def _derivative_sup(f: SampledFunction, k: int, K: CompactBox) -> tuple[float, float, float]:
    """(sup over K of |f^(k)|, its x, sup over the grid), tabled on f.

    The first lookup on K tables every order up to max(k, K_MAX) as its
    refusal or as pending.  The first read of an accepted order computes
    every pending order of K from one batched spectral_derivative.  The
    refusal test is monotone in k (an edge bin that maximises |F||xi|^k
    also maximises |F||xi|^(k+1)), so the batch holds the orders a
    per-order loop would have transformed, and no more.
    """
    a, b = _table_orders(f, k, K)
    sups = f._memo.sups
    entry = sups[(k, a, b)]
    if entry is None:
        pending = []
        j = 0
        while (j, a, b) in sups:
            if sups[(j, a, b)] is None:
                pending.append(j)
            j += 1
        d = spectral_derivative(f, tuple(pending))
        np.abs(d, out=d)
        # the grid is increasing, so K is one slice of it
        xs = f.xs
        lo = int(np.searchsorted(xs, a, "left"))
        hi = int(np.searchsorted(xs, b, "right"))
        for j, row in zip(pending, d):
            i = lo + int(np.argmax(row[lo:hi]))
            sups[(j, a, b)] = (float(row[i]), float(xs[i]), float(np.max(row)))
        entry = sups[(k, a, b)]
    if isinstance(entry, _Refusal):
        raise DerivativeOrderUnreliable(entry.message)
    return entry


@dataclass(frozen=True)
class SeminormResult:
    value: float
    attained_k: int
    attained_x: float
    per_order: tuple[float, ...]    # sup_K |f^{(k)}| / (h^k M_k) for each k


def seminorm_derivative(
    f: SampledFunction, seq: LogWeightSequence, K: CompactBox, h: float, k_max: int
) -> SeminormResult:
    if (why := _first_refusal(f, k_max, K)) is not None:
        raise DerivativeOrderUnreliable(why)
    (a, _), = K.intervals
    best, bk, bx = -math.inf, 0, a
    per = []
    for k in range(k_max + 1):
        sup, x, _ = _derivative_sup(f, k, K)
        val = sup * math.exp(-k * math.log(h) - seq.log_at(k))
        per.append(val)
        if val > best:
            best, bk, bx = val, k, x
    return SeminormResult(best, bk, bx, tuple(per))


class _NormRow(NamedTuple):
    """What fourier_norm needs of one (function, row), whatever h is."""
    w: WeightFunction
    om: np.ndarray           # omega(max(|xi|, 1)) on the band, increasing xi
    om_slope: float          # slope of omega just past the band edge
    om_edge: float           # omega at the band edge


def _norm_row(f: SampledFunction, seq: LogWeightSequence) -> _NormRow:
    """fourier_norm's row data, kept in f's memo under the row itself: a
    frozen LogWeightSequence, equal to every row with the same content.
    The band must not be truncated."""
    row = f._memo.rows.get(seq)
    if row is None:
        rec = _spectral_record(f)
        w = associated_function(lc_minorant(seq))
        xi_edge = rec.xi_edge
        xi = _grid(f.n, f.dx, f.x0).xi_sorted[rec.kept]
        om = _frozen(w.omega(np.maximum(np.abs(xi), 1.0)))
        om_slope = float(
            (w.omega(xi_edge * 1.01) - w.omega(xi_edge)) / (0.01 * xi_edge)
        )
        row = f._memo.rows[seq] = _NormRow(w, om, om_slope, w.omega(xi_edge))
    return row


def fourier_norm(
    f: SampledFunction, seq: LogWeightSequence, h: float
) -> tuple[float, float]:
    """Bracket for int |f^(xi)| exp(h omega(|xi|)) d xi."""
    rec = _spectral_record(f)
    if rec.zero:
        return (0.0, 0.0)
    if rec.truncated:
        # decay was never observed down to the noise floor, so no
        # extrapolation beyond the grid can be certified
        raise TailDominates("resolved band truncated by the grid, not by decay")
    row = _norm_row(f, seq)
    c_eff = rec.c_decay - h * row.om_slope
    if c_eff <= 0:
        raise TailDominates(
            f"decay {rec.c_decay:.3g} per unit xi cannot beat weight growth "
            f"{h * row.om_slope:.3g} at the band edge"
        )
    # numpy's pairwise sum groups the terms by position, so the band is
    # summed in place on a zero grid, as the integrand over the whole grid
    integrand = np.zeros(f.n)
    integrand[rec.kept] = rec.modulus * np.exp(h * row.om)
    inner = float(np.sum(integrand) * rec.weight)
    edge_val = float(rec.m_edge * math.exp(h * row.om_edge))
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
    if (why := _first_refusal(f, K_MAX, f.support)) is not None:
        raise DerivativeOrderUnreliable(why)
    w = _norm_row(f, seq).w
    worst = 0.0
    for k in range(K_MAX + 1):
        _, _, sup = _derivative_sup(f, k, f.support)
        bound = hi / (2 * math.pi) * math.exp(h * w.phi_star(k / h))
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
    rec = _spectral_record(f)
    if rec.zero:
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
    xi = _grid(f.n, f.dx, f.x0).xi_sorted[rec.kept]
    pos = xi > 0
    xi, mod = xi[pos], rec.modulus[pos]
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
def _memo_of(c: Bump | str) -> _Memo:
    """The memo that every function built as c shares, holding its samples.

    They are computed once per process, on the grid spanning four times
    the box: x0 = centre - 2 width, dx = 4 width / GRID_N.
    """
    (a, b), = c.box if isinstance(c, Bump) else _UNIT.intervals
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
    # the grid is increasing, so the support is one slice of it
    lo = int(np.searchsorted(g.xs, a, "left"))
    hi = int(np.searchsorted(g.xs, b, "right"))
    return _Memo(x0, dx, lo, _frozen(vals[lo:hi].copy()))


def _sampled(c: Bump | str, K: CompactBox) -> SampledFunction:
    """A new function built as c on K, from the samples in its memo."""
    m = _memo_of(c)
    vals = np.zeros(GRID_N)
    vals[m.lo : m.lo + m.samples.size] = m.samples
    return SampledFunction(m.x0, m.dx, vals, K, c)


def bump_builder(K: CompactBox, seq: LogWeightSequence, depth: int) -> SampledFunction:
    """The indicator of a core interval convolved with depth box kernels
    of widths 1/(h mu_p).

    The dilation h is the smallest power of two that fits the widths into
    a quarter of the box; |f^{(k)}| <= (2h)^k mu_1...mu_k for k <= depth
    then keeps f in the class of the row.  h, the widths and the core are
    read from f.construction.  The construction is done in the frequency
    domain (product of sinc factors) on a grid spanning four times the
    support, then transformed back, once per process for each distinct
    construction.
    """
    (a, b), = K.intervals
    width = b - a
    logs = tuple(seq.log_at(p) for p in range(depth + 1))
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
    return _sampled(Bump(K.intervals, logs, h, widths, core), K)


def standard_bump() -> SampledFunction:
    """exp(-1/(1 - x^2)) on [-1, 1]."""
    return _sampled("standard_bump", _UNIT)


def indicator_control() -> SampledFunction:
    """Sharp indicator; the canonical non-member of every smooth class."""
    return _sampled("indicator_control", _UNIT)


@functools.lru_cache(maxsize=2)
def _bump_half_samples(dps: int) -> tuple[int, tuple[int, ...]]:
    """(S, samples): the standard bump's nonzero samples f(j dx), x = j dx
    >= 0 on the GRID_N-point grid over [-2, 2), computed at dps digits and
    kept as the integers round(f(j dx) 2^S), S = 3.33 dps + 64 bits.
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
    return S, tuple(fs)


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

    f_j = f(j dx), m = 4095 nonzero terms at n = 2^14.  It is evaluated by
    Clenshaw's recurrence (MTAC 9, 1955), b_j = f_j + 2 cos(t) b_{j+1} -
    b_{j+2}, sum = b_1 cos(t) - b_2, t = xi dx, in fixed point: every
    quantity is an integer multiple of 2^-S, S = 3.33 dps + 64 bits, and
    each product is floored back onto that grid.  Only the samples and
    cos(t) come from mpmath, at dps digits.

    Forward error.  Each of the m steps adds one floor (at most 2^-S) and
    the sample's rounding (2^-S / 2); cos(t), rounded at dps digits and
    then onto the 2^-S grid, makes the recurrence run at a frequency t'
    with |cos t' - cos t| <= 10^-dps.  A unit error at step j reaches the
    sum multiplied by a Chebyshev U_j(cos t), |U_j| <= m + 1, so the floors
    cost at most 1.5 (m+1)^2 2^-S = 2.5e7 2^-330, about 1e-92 at dps = 80;
    the samples' own error, 10^-dps relative, and the shift to t' cost
    about m^2 10^-dps sum |f_j| = 1.5e-70 with sum |f_j| = 909.
    Against |f_0 + 2 sum| >= 3.4e-43 at these frequencies that is a relative
    error near 1e-27.  Rounded to float, the moduli are therefore those of
    the direct complex sum over all n samples unless the exact value lies
    that close to a rounding boundary.  dx = 2^-12 is a power of two, so
    the last scaling is exact.  The samples are kept for the two most
    recent precisions.
    """
    import mpmath as mp

    S, fs = _bump_half_samples(dps)
    dx = 4.0 / GRID_N
    out = []
    with mp.workdps(dps):
        for xi in xis:
            c = int(mp.nint(mp.ldexp(mp.cos(mp.mpf(xi) * dx), S)))
            c2 = 2 * c
            b1 = b2 = 0
            for fj in reversed(fs[1:]):
                b1, b2 = fj + ((c2 * b1) >> S) - b2, b1
            total = fs[0] + 2 * (((b1 * c) >> S) - b2)
            out.append(math.ldexp(float(abs(total)), -S) * dx)
    return np.array(out)


def decay_exponent_fit(xis, moduli) -> float:
    """Slope of log(-log |f^|) against log xi (0.5 for root-exponential)."""
    x = np.log(np.asarray(xis, dtype=float))
    y = np.log(-np.log(np.asarray(moduli, dtype=float)))
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[1])


# -- the three-way membership harness -----------------------------------

def _trend_classify(per_order: tuple[float, ...]) -> str:
    """decided 'finite' / 'growing' / 'open' from the normalized sups."""
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


def _derivative_indicator(f, M: WeightMatrix, h_grid) -> str:
    for row in M.rows:
        for h in h_grid:
            try:
                res = seminorm_derivative(f, row, f.support, h, K_MAX)
            except DerivativeOrderUnreliable:
                # failing already at low order with spectral mass at the band
                # edge means the function is certified non-smooth at grid scale
                return "negative" if _spectral_record(f).truncated else "open"
            if _trend_classify(res.per_order) == "finite":
                return "positive"
    return "negative"


def _weightfn_indicator(f, M: WeightMatrix, l_grid, derived_row) -> str:
    for i in range(len(M.rows)):
        for l in l_grid:
            try:
                res = seminorm_derivative(f, derived_row(i, l), f.support, 1.0, K_MAX)
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


def theorem51_harness(M: WeightMatrix, bump_depth: int = 30) -> dict:
    """Battery equality check of the three membership routes."""
    for cond in ("L_roumieu", "mg_roumieu"):
        if not check_matrix_condition(M, cond).holds:
            raise HypothesisNotCertified(cond)
    from .quasi import matrix_nq_verdict

    if not matrix_nq_verdict(M, "roumieu").holds:
        raise HypothesisNotCertified("matrix generates a quasianalytic class")

    # each function is built just before it is probed, so only one
    # function's spectral caches are alive at a time
    battery: dict = {}
    for lbl, row in zip(M.labels, M.rows):
        battery[f"bump:{lbl:g}"] = functools.partial(bump_builder, _UNIT, row, bump_depth)
    battery["control:indicator"] = indicator_control
    battery["control:single-mollify"] = functools.partial(bump_builder, _UNIT, M.rows[0], 1)

    # derived rows depend on the matrix only, so every function shares them
    @functools.cache
    def derived_row(i: int, l: float) -> LogWeightSequence:
        return sequence_from_weight(associated_function(M.rows[i]), l, K_MAX)

    h_small = (0.02, 0.05, 0.1)
    h_semi = (1.0, 2.0, 4.0, 8.0)
    l_grid = (1.0, 2.0, 4.0)
    report: dict = {"functions": {}, "disagreements": []}
    for name, build in battery.items():
        f = build()
        deriv = _derivative_indicator(f, M, h_semi)
        weight = _weightfn_indicator(f, M, l_grid, derived_row)
        four = _fourier_indicator(f, M, h_small)
        del f
        decided = [v for v in (deriv, weight, four) if v != "open"]
        agree = len(set(decided)) <= 1
        report["functions"][name] = {
            "derivative_side": deriv,
            "weightfn_side": weight,
            "fourier_side": four,
            "agreement": agree,
        }
        if not agree:
            report["disagreements"].append(name)
    report["status"] = "holds" if not report["disagreements"] else "fails"
    return report
