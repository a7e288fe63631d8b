"""Smoothness classes, norms and minimax contraction exponents.

Losses are measured in L^{p'} for p' in [1, inf]; truths live in Besov
balls B^s_{p,inf} (wavelet-indexed) or Sobolev balls (single-indexed).
The minimax exponent r for estimating a B^s_{p,inf} truth in L^{p'} loss
has two zones separated by eta = s p - (p' - p)/2:

  eta > 0  (regular/dense):       r = s / (1 + 2 s)
  eta <= 0 (sparse or boundary):  r = s' / (1 + 2 (s - 1/p)),
                                  s' = s - 1/p + 1/p'.

Both expressions agree on the boundary eta = 0, so r is continuous in
(s, p, p').  Admissibility requires s > (1/p - 1/max(p', 2))_+ so that
s' > 0 and the ball embeds in L^{p'}.  For p' < 2 this is the embedding
in L^2, since ||f||_{p'} <= ||f||_2 on [0, 1]; every admissible (s, p)
then has s > 1/p - 1/2 > (p'/p - 1)/2, so eta > 0, the zone is regular
and r = s / (1 + 2 s).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import wavelets
from .errors import InvalidParameterError, ShapeError


def check_p_prime(p_prime):
    """`p_prime` unchanged, or InvalidParameterError unless it is a loss
    exponent p' >= 1 (inf included; NaN fails): the one copy of the rule,
    which the rate calculator, the loss metrics and experiment configs
    share."""
    if not p_prime >= 1:
        raise InvalidParameterError(
            f"p' must be >= 1 (may be inf), got {p_prime!r}")
    return p_prime


def _validate_spar(s, p, p_prime):
    if not s > 0:
        raise InvalidParameterError("smoothness s must be > 0")
    if not p >= 1:
        raise InvalidParameterError("p must be >= 1 (may be inf)")
    check_p_prime(p_prime)


def admissible(s, p, p_prime):
    """True when B^s_{p,inf} embeds in L^{p'}: s > (1/p - 1/(p' v 2))_+."""
    _validate_spar(s, p, p_prime)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(p_prime) else 1.0 / max(p_prime, 2.0)
    return s > max(inv_p - inv_q, 0.0)


@dataclass(frozen=True)
class RateSpec:
    """Resolved rate data for a (s, p, q, p') tuple.

    The fine index q only labels the ball; the minimax exponent over
    B^s_{p,q} balls does not depend on it.
    """

    s: float
    p: float
    q: float
    p_prime: float
    eta: float
    s_eff: float  # s' = s - 1/p + 1/p'
    exponent: float
    zone: str  # "regular", "sparse" or "boundary"


def rate_exponent(s, p, p_prime):
    """Minimax exponent r(s, p, p'); the rate itself is n^{-r}."""
    return resolve_rate(s, p, p_prime).exponent


def resolve_rate(s, p, p_prime, q=math.inf):
    _validate_spar(s, p, p_prime)
    if not q >= 1:
        raise InvalidParameterError("q must be >= 1 (may be inf)")
    if not admissible(s, p, p_prime):
        raise InvalidParameterError(
            f"(s={s}, p={p}, p'={p_prime}) is outside the admissible range"
        )
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(p_prime) else 1.0 / p_prime
    # eta = s p - (p' - p)/2; for infinite p or p' use the sign-equivalent
    # limit form eta/(p p') = s/p' - (1/2)(1/p - 1/p')
    eta_scaled = s * inv_q - 0.5 * (inv_p - inv_q)
    s_eff = s - inv_p + inv_q
    if eta_scaled > 0:
        zone = "regular"
        r = s / (1.0 + 2.0 * s)
    else:
        # both branches coincide when eta = 0, so r is continuous
        zone = "boundary" if eta_scaled == 0 else "sparse"
        r = s_eff / (1.0 + 2.0 * (s - inv_p))
    eta = eta_scaled * (p * p_prime) if not (math.isinf(p) or math.isinf(p_prime)) else (
        math.inf if eta_scaled > 0 else (-math.inf if eta_scaled < 0 else 0.0)
    )
    return RateSpec(s=float(s), p=float(p), q=float(q), p_prime=float(p_prime),
                    eta=eta, s_eff=s_eff, exponent=r, zone=zone)


def sobolev_norm(coefficients, beta):
    """(sum_k k^{2 beta} f_k^2)^{1/2} for a single-indexed sequence."""
    if beta < 0:
        raise InvalidParameterError("beta must be >= 0")
    f = np.asarray(coefficients, dtype=float)
    k = np.arange(1, len(f) + 1, dtype=float)
    return float(np.sqrt(np.sum(k ** (2.0 * beta) * f * f)))


def besov_norm(coefficients, s, p, q):
    """Sequence-space Besov norm of a packed wavelet coefficient vector.

    || f || = ( sum_j [ 2^{j (s + 1/2 - 1/p)} || f_{j.} ||_p ]^q )^{1/q},
    with the sup convention when q = inf; the coarse pseudo-levels
    j = -1..J0-1 enter with their own level index j (max(j, 0) weight).
    """
    _validate_spar(s, p, 2.0)
    if not q >= 1:
        raise InvalidParameterError("q must be >= 1 (may be inf)")
    f = np.asarray(coefficients, dtype=float)
    n = len(f)
    if n < 1 or n & (n - 1):
        raise ShapeError("coefficient length must be a power of two")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    weight_exp = s + 0.5 - inv_p
    levels = range(-1, int(np.log2(n)))
    terms = []
    for j in levels:
        lvl = wavelets.level_norm(f, j, p)
        terms.append(2.0 ** (max(j, 0) * weight_exp) * lvl)
    terms = np.asarray(terms)
    if math.isinf(q):
        return float(np.max(terms))
    return float(np.sum(terms**q) ** (1.0 / q))
