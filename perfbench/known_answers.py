"""Known answers for the benchmark's correctness check.

Every expectation here follows from the closed form of a family, never
from running wcalc:

* ``gevrey:s`` is M_p = p!**s, ``factorial_power:s,a`` is p!**s * a**p and
  ``perturbed_gevrey:s[,amp]`` changes finitely many Gevrey terms.  Their
  root sequence is s*log p + log a - s + o(1), so the class is
  non-quasianalytic iff sum 1/mu_p = sum p**-s / a converges, i.e. iff
  s > 1; moderate growth holds (L_{j+k} - L_j - L_k = O(j+k)); and the
  sequence lies in LC for s > 0, a >= 1 (normalized, log-convex, roots
  diverge).
* ``power_index:kappa,beta`` is log M_p = kappa*p**beta.  Its root is
  kappa*p**(beta-1), so for beta > 1 the class is non-quasianalytic, the
  sequence lies in LC, and moderate growth fails
  ((L_{2p} - 2 L_p)/(2p) = kappa*(2**beta - 2)*p**(beta-1)/2 diverges).
* Pairwise relations follow from the limit of the root gap
  root_M(p) - root_N(p): M precsim N iff the limit is below +inf,
  M strictly below N iff it is -inf, equivalence iff both directions hold.
* ``powerlog:sigma`` is omega(t) = (log t)**sigma.  For sigma > 1 every
  listed condition holds except (omega6): 2*omega(t) <= omega(H t) + H
  would need 2*(log t)**sigma <= (log t + log H)**sigma + H for all t.
* A Gevrey weight matrix has rows p!**(s+1), each with moderate growth, so
  the mixed conditions hold with y = x.
* The Fourier harness on Gevrey bumps and the two negative controls agrees
  on all three routes, Lemma 5.3(i) holds, and the spectrum of the
  standard bump exp(-1/(1-x**2)) decays like exp(-c*sqrt(xi)), so the
  log(-log) slope is 1/2 (accepted in [0.4, 0.6]).

A check is ``["status", dotted_path, "holds"|"fails"]`` or
``["range", dotted_path, lo, hi]``.  Paths are the flattened report keys
that ``--format csv`` prints.
"""
from __future__ import annotations

import math

BUMPY_CSV = ".bench_work/bumpy_prefix.csv"
MISSING_JSON = ".bench_work/missing.json"

POWERLOG_HOLDS = ("omega0", "omega1", "omega2", "omega3", "omega4",
                  "omega5", "omega7", "omega_nq")


def _family(desc: str) -> tuple[str, list[float]]:
    head, _, rest = desc.partition(":")
    return head, [float(t) for t in rest.split(",") if t] if head != "file" else []


def growth_key(desc: str):
    """Closed-form asymptote of the root sequence, or None when a finite
    prefix is all there is.  ("log", alpha, beta): alpha*log p + beta;
    ("poly", gamma, kappa): kappa*p**gamma."""
    fam, par = _family(desc)
    if fam in ("gevrey", "perturbed_gevrey"):
        return ("log", par[0], -par[0])
    if fam == "factorial_power":
        return ("log", par[0], math.log(par[1]) - par[0])
    if fam == "power_index":
        kappa, beta = par
        return ("log", 0.0, kappa) if beta == 1.0 else ("poly", beta - 1.0, kappa)
    return None


def gap_limit(a: str, b: str):
    """lim root_a(p) - root_b(p); None when either side has no closed form."""
    ka, kb = growth_key(a), growth_key(b)
    if ka is None or kb is None:
        return None
    if ka[0] != kb[0]:
        return math.inf if ka[0] == "poly" else -math.inf
    if ka[1] != kb[1]:
        return math.inf if ka[1] > kb[1] else -math.inf
    if ka[0] == "poly":
        return 0.0 if ka[2] == kb[2] else math.copysign(math.inf, ka[2] - kb[2])
    return ka[2] - kb[2]


def nq_holds(desc: str):
    k = growth_key(desc)
    if k is None:
        return None
    return k[0] == "poly" or k[1] > 1.0


def _status(flag: bool) -> str:
    return "holds" if flag else "fails"


def analyze_seq_checks(desc: str) -> list:
    nq = nq_holds(desc)
    if nq is None:
        return []
    out = [["status", "sequence.nq.status", _status(nq)],
           ["status", "sequence.nq_routes.status", _status(nq)]]
    fam, par = _family(desc)
    if fam in ("gevrey", "factorial_power", "power_index"):
        in_lc = fam != "factorial_power" or par[1] >= 1.0
        out.append(["status", "sequence.LC.status", _status(in_lc)])
        out.append(["status", "sequence.mg.status",
                    _status(fam != "power_index")])
    return out


def verdict_checks(desc: str) -> list:
    nq = nq_holds(desc)
    return [] if nq is None else [["status", "nq.status", _status(nq)]]


def dossier_seq_checks(desc: str) -> list:
    fam, _ = _family(desc)
    if fam in ("gevrey", "factorial_power"):
        return [["status", "verdicts.mg.status", "holds"]]
    if fam == "power_index":
        return [["status", "verdicts.mg.status", "fails"]]
    return []


def dossier_seq_exit(desc: str) -> int:
    """The dossier refuses (exit 3) a sequence outside LC: the bumpy prefix
    adds 0.5 to every seventh log value, so its second difference at p = 4
    is 2*log(5/4) - 1 < 0 and it is not log-convex."""
    return 3 if desc == f"file:{BUMPY_CSV}" else 0


def compare_checks(left: str, right: str) -> list:
    g = gap_limit(left, right)
    if g is None:
        return []
    back = gap_limit(right, left)
    return [
        ["status", "preceq.status", _status(g < math.inf)],
        ["status", "preceq_rev.status", _status(back < math.inf)],
        ["status", "triangle.status", _status(g == -math.inf)],
        ["status", "approx.status", _status(g < math.inf and back < math.inf)],
    ]


def weight_checks(desc: str) -> list:
    fam, par = _family(desc)
    if fam != "powerlog" or par[0] <= 1.0:
        return []
    return [["status", f"weight.{c}.status", "holds"] for c in POWERLOG_HOLDS] + [
        ["status", "weight.omega6.status", "fails"]]


def dossier_weight_checks(desc: str) -> list:
    fam, par = _family(desc)
    if fam != "powerlog" or par[0] <= 1.0:
        return []
    return [["status", "verdicts.omega6.status", "fails"]]


GEVREY_MATRIX_CHECKS = [["status", "mg_roumieu.status", "holds"],
                        ["status", "mg_beurling.status", "holds"]]
HARNESS_CHECKS = [["status", "status", "holds"]]
LEMMA53_CHECKS = [["status", "status", "holds"]]
SPECTRUM_CHECKS = [["range", "decay_exponent", 0.4, 0.6]]

# Malformed or refused argument vectors and the exit code the README
# contract gives them: 2 for a descriptor the parser rejects, 3 for a
# well-formed input whose precondition fails.
MALFORMED = [
    (["analyze", "--seq", "gevrey"], 2, "descriptor lacks ':'"),
    (["analyze", "--seq", "nosuch:1"], 2, "unknown sequence family"),
    (["analyze", "--seq", "gevrey:abc"], 2, "non-numeric parameter"),
    (["analyze", "--weight", "nosuch:2"], 2, "unknown weight family"),
    (["analyze"], 2, "neither --seq nor --weight"),
    (["matrix", "conditions", "--matrix", "gevrey:1"], 2,
     "matrix descriptor is not file:<path>"),
    (["quasi", "construct", "--rows", "1+1/q"], 2, "row pattern lacks ':q='"),
    (["matrix", "dossier", "--seq", "gevrey:0"], 3,
     "M_p = 1 has bounded roots, so it is not in LC"),
    (["quasi", "construct", "--rows", "1:q=1..3", "--pmax", "2000"], 3,
     "rows p! are quasianalytic (s = 1)"),
]
