"""Closed-form average-AoI expressions for the four scheme/model combinations.

The formulas are implemented verbatim (no algebraic simplification) so each
function maps one-to-one onto a published expression.  Probability triples are
returned as :class:`Partition` named tuples (p0, p_first, p_second), so
``sum(part)`` is their total: per frame a user either succeeds at its first
opportunity slot, fails there but succeeds at its second opportunity, or
fails both.

Note on P != P_S: the first-opportunity success probability of the GAW
partition (and of the GAR user-m partition) is written with exponent eps/P_S
even though that attempt is a primary transmission at power P.  The two
coincide for P = P_S, which is the regime the closed forms are certified in;
for P != P_S the partitions below follow the published expressions, and
consequently the GAR user-m triple only sums to 1 when P = P_S.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Partition(NamedTuple):
    """Per-frame outcome probabilities: both-fail / first-slot / second-slot."""

    p0: float
    p_first: float
    p_second: float


def tau_of(eps: float, P: float, P_S: float) -> float:
    """Auxiliary integral tau = (1 - e^{-(eps*P/P_S + 1)*eps/P}) / (eps*P/P_S + 1)."""
    c = eps * P / P_S + 1.0
    return (1.0 - math.exp(-c * eps / P)) / c


def gaw_partition(eps: float, P: float, P_S: float) -> Partition:
    """Frame-outcome probabilities for any user under CR-NOMA with GAW.

    p_first  = e^{-eps/P_S}
    p_second = (1 - e^{-eps/P_S}) * e^{-eps/P_S} / (1 + P*eps/P_S)
    p0       = (1 - e^{-eps/P_S}) * (1 - e^{-eps/P_S} / (1 + P*eps/P_S))
    """
    e = math.exp(-eps / P_S)
    q = e / (1.0 + P * eps / P_S)
    return Partition(p0=(1.0 - e) * (1.0 - q), p_first=e, p_second=(1.0 - e) * q)


def gar_partition_user_m(eps: float, P: float, P_S: float) -> Partition:
    """Frame-outcome probabilities for user m (first slot of its pair) under
    CR-NOMA with GAR, including the tau correction for the partner-silent
    branch of the second slot."""
    tau = tau_of(eps, P, P_S)
    e_s = math.exp(-eps / P_S)
    q = e_s / (1.0 + P * eps / P_S)
    # probability of failing the first slot, split by the partner's outcome
    a = 1.0 - math.exp(-eps / P) - e_s * tau
    p_first = e_s
    p_second = a * q + e_s * e_s * tau
    p0 = a * (1.0 - q) + e_s * tau * (1.0 - e_s)
    return Partition(p0=p0, p_first=p_first, p_second=p_second)


def gar_partition_user_mprime(eps: float, P: float, P_S: float) -> Partition:
    """Frame-outcome probabilities for user m' (second slot of its pair) under
    CR-NOMA with GAR.  Its first opportunity is the capped secondary attempt
    in slot m; the retry in slot m' is interference-free."""
    q = math.exp(-eps / P_S) / (1.0 + eps * P / P_S)
    e_p = math.exp(-eps / P)
    return Partition(p0=(1.0 - q) * (1.0 - e_p), p_first=q, p_second=(1.0 - q) * e_p)


def delta_kernel(p0: float, p_first: float, p_second: float, M: int, T: float) -> float:
    """Renewal-reward AoI kernel over a frame-outcome partition:

        (MT/4) * [2(y+z)^2(1+x) + yz(1-x)^2] / [(y+z)^2 (1-x)]

    with (x, y, z) = (p0, p_first, p_second).  A partition that never succeeds
    (y + z = 0) has divergent AoI and returns inf.
    """
    x, y, z = p0, p_first, p_second
    s = y + z
    if s <= 0.0 or x >= 1.0:
        return math.inf
    num = 2.0 * s * s * (1.0 + x) + y * z * (1.0 - x) ** 2
    den = s * s * (1.0 - x)
    return (M * T / 4.0) * num / den


def tdma_gaw_aoi(M: int, T: float, eps: float, P: float) -> float:
    """Average AoI of any user under TDMA with GAW: T + (MT/2)(2 e^{eps/P} - 1)."""
    return T + (M * T / 2.0) * (2.0 * math.exp(eps / P) - 1.0)


def crnoma_gaw_aoi(M: int, T: float, eps: float, P: float, P_S: float) -> float:
    """Normalized overall average AoI under CR-NOMA with GAW."""
    return T + delta_kernel(*gaw_partition(eps, P, P_S), M, T)


def gaw_high_snr_aoi(M: int, T: float) -> float:
    """High-SNR limit shared by TDMA and CR-NOMA under GAW: T + MT/2."""
    return T + M * T / 2.0


def tdma_gar_user_aoi(k: int, M: int, T: float, eps: float, P: float) -> float:
    """User k's average AoI under TDMA with GAR: kT + (MT/2)(2 e^{eps/P} - 1)."""
    if not 1 <= k <= M:
        raise ValueError(f"user index k must be in 1..{M}, got {k}")
    return k * T + (M * T / 2.0) * (2.0 * math.exp(eps / P) - 1.0)


def tdma_gar_overall(M: int, T: float, eps: float, P: float) -> float:
    """Overall (user-averaged) TDMA AoI under GAR: T(M+1)/2 + (MT/2)(2 e^{eps/P} - 1)."""
    return T * (M + 1) / 2.0 + (M * T / 2.0) * (2.0 * math.exp(eps / P) - 1.0)


def delta_k0(m: int, m_prime: int, T: float, part: Partition) -> float:
    """Mean reset-age term of the GAR AoI: the expected height of the sawtooth
    right after a delivery, weighted by renewal interval length.

    Implemented exactly as published, prefactor included (the prefactor equals
    1 whenever the partition sums to 1).  Like :func:`delta_kernel`, a
    partition that never succeeds, or whose 1 - p0 is not positive, returns
    inf.
    """
    x, y, z = part
    s = y + z
    one = 1.0 - x
    if s <= 0.0 or one <= 0.0:
        return math.inf
    pref = one * one / (s * s)
    term_m = s * (m * T * y) / (one * one) + 0.5 * z * (m * T * y) / one
    term_mp = s * (m_prime * T * z) / (one * one) - 0.5 * y * (m_prime * T * z) / one
    return pref * (term_m + term_mp)


def crnoma_gar_user_aoi(k: int, m: int, M: int, T: float, eps: float,
                        P: float, P_S: float) -> float:
    """User k's average AoI under CR-NOMA with GAR, k in {m, m + M/2}."""
    m_prime = m + M // 2
    if not 1 <= m <= M // 2:
        raise ValueError(f"pair index m must be in 1..{M // 2}, got {m}")
    if k == m:
        part = gar_partition_user_m(eps, P, P_S)
    elif k == m_prime:
        part = gar_partition_user_mprime(eps, P, P_S)
    else:
        raise ValueError(f"k must be {m} or {m_prime}, got {k}")
    return delta_k0(m, m_prime, T, part) + delta_kernel(*part, M, T)


def crnoma_gar_overall(M: int, T: float, eps: float, P: float, P_S: float) -> float:
    """Normalized overall average AoI under CR-NOMA with GAR."""
    if M % 2 != 0:
        raise ValueError(f"M must be even, got {M}")
    total = 0.0
    for m in range(1, M // 2 + 1):
        total += crnoma_gar_user_aoi(m, m, M, T, eps, P, P_S)
        total += crnoma_gar_user_aoi(m + M // 2, m, M, T, eps, P, P_S)
    return total / M


def closed_form_aoi(scheme: str, gen_model: str, M: int, T: float, eps: float,
                    P: float, P_S: float, user: int | None = None) -> float:
    """Closed-form average AoI of one scheme/model point: the network average,
    or user ``user``'s (1..M) under GAR.  Under GAW every user has the
    network average.  ``math.inf`` marks a point whose AoI is beyond any
    float: a closed form whose ``math.exp`` overflows, or a partition whose
    published 1 - p0 rounds to 0."""
    tdma = scheme == "TDMA"
    try:
        if gen_model == "GAW":
            return tdma_gaw_aoi(M, T, eps, P) if tdma else crnoma_gaw_aoi(M, T, eps, P, P_S)
        if user is None:
            return (tdma_gar_overall(M, T, eps, P) if tdma
                    else crnoma_gar_overall(M, T, eps, P, P_S))
        if tdma:
            return tdma_gar_user_aoi(user, M, T, eps, P)
        m = user if user <= M // 2 else user - M // 2
        return crnoma_gar_user_aoi(user, m, M, T, eps, P, P_S)
    except OverflowError:
        return math.inf


def gar_high_snr_gap(M: int, T: float, eps: float) -> float:
    """High-SNR AoI advantage of CR-NOMA over TDMA for user m': -MT / (2(1+eps))."""
    return -M * T / (2.0 * (1.0 + eps))
