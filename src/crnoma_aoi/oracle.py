"""Independent validation paths for the closed forms and the simulator.

The probability estimators classify protocol events directly from fresh
channel draws (sharing only the success predicates with the simulator), so
they are independent of the algebra in :mod:`crnoma_aoi.analytic`.  The
renewal-reward recomputation integrates each user's deliveries (times and
reset ages, as :func:`crnoma_aoi.simulator.deliveries` returns them) interval
by interval in floating point (Q_j = reset_age * y_j + y_j^2 / 2), independent
of the simulator's per-frame kernel, which sums integer slot origins.

Each estimator draws its k gains per trial as k rows of ``trials`` Exp(1)
gains, in the order of one ``standard_exponential((k, trials))`` call (the
same stream).  A row is streamed ``_BLOCK`` trials at a time through one
reused buffer and reduced at once to the bool outcome rows it decides; only a
row that a later row's joint predicate still needs is held in float (GAW's
retry gain; GAR's U_m gain in slot m, then in slot m').  Both-fail is the
rest.  At 10^6 trials an estimator's traced peak is about 11 MiB, where the
whole (k, trials) draw took 25 (GAW) and 32 MiB (GAR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import check_trials, primary_success, secondary_capped_success

_BLOCK = 1 << 16   # trials drawn and classified at a time; temporaries stay small


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo probability estimate with a 3-sigma binomial half-interval."""

    estimate: float
    half_width: float
    trials: int

    @classmethod
    def from_count(cls, hits: int, trials: int) -> "EstimateWithCI":
        p = hits / trials
        return cls(estimate=p,
                   half_width=3.0 * math.sqrt(p * (1.0 - p) / trials),
                   trials=trials)

    def covers(self, value: float) -> bool:
        return abs(self.estimate - value) <= self.half_width


def _partition(trials: int, first: int, second: int):
    """(p0, p_first, p_second) from disjoint first- and second-slot counts."""
    return tuple(EstimateWithCI.from_count(int(hits), trials)
                 for hits in (trials - first - second, first, second))


def _blocks(rng: np.random.Generator, trials: int, buf: np.ndarray):
    """Yield (slice, gains) over one row of ``trials`` Exp(1) gains, drawn
    into ``buf`` ``_BLOCK`` at a time: the same stream as one draw of the
    row, without holding it."""
    for lo in range(0, trials, _BLOCK):
        block = rng.standard_exponential(out=buf[:min(_BLOCK, trials - lo)])
        yield slice(lo, lo + len(block)), block


def estimate_gaw_partition(eps: float, P: float, P_S: float, trials: int,
                           rng: np.random.Generator):
    """Empirical frame-outcome partition for a user under CR-NOMA with GAW.

    Per trial, draws the user's gains in its two slots plus the partner's
    gain in the second slot, and classifies: success in the own (primary)
    slot, else success in the partner's slot as capped secondary, else both
    fail.  Returns (p0, p_first, p_second) estimates.
    """
    buf = np.empty(min(check_trials(trials), _BLOCK))
    s1 = np.empty(trials, dtype=bool)
    for rows, g_own in _blocks(rng, trials, buf):
        s1[rows] = primary_success(P, g_own, eps)
    g_retry = rng.standard_exponential(trials)
    second = 0
    for rows, g_partner in _blocks(rng, trials, buf):
        second += np.count_nonzero(~s1[rows] & secondary_capped_success(
            P_S, g_retry[rows], P, g_partner, eps))
    return _partition(trials, np.count_nonzero(s1), second)


def estimate_gar_partitions(eps: float, P: float, P_S: float, trials: int,
                            rng: np.random.Generator):
    """Empirical frame-outcome partitions for both users of a pair under
    CR-NOMA with GAR, classified jointly per frame (including the branch
    where the partner's first-slot success leaves user m interference-free
    in slot m').  Returns two triples: (user m, user m')."""
    # rows: U_m in slot m, U_m' in slot m, U_m in slot m', U_m' in slot m';
    # the one float row held is g_m_m, then g_m_mp in its place
    buf = np.empty(min(check_trials(trials), _BLOCK))
    sm1, sp1 = np.empty(trials, dtype=bool), np.empty(trials, dtype=bool)
    g_m_m = rng.standard_exponential(trials)
    for rows, g_mp_m in _blocks(rng, trials, buf):
        sm1[rows] = primary_success(P, g_m_m[rows], eps)
        sp1[rows] = secondary_capped_success(P_S, g_mp_m, P, g_m_m[rows], eps)
    g_m_mp = rng.standard_exponential(out=g_m_m)
    m_second = p_second = 0
    for rows, g_mp_mp in _blocks(rng, trials, buf):
        sp1_b = sp1[rows]
        # U_m's retry: interference-free if U_m' is silent, else capped
        sm2 = ((sp1_b & primary_success(P_S, g_m_mp[rows], eps))
               | (~sp1_b & secondary_capped_success(P_S, g_m_mp[rows], P,
                                                    g_mp_mp, eps)))
        m_second += np.count_nonzero(~sm1[rows] & sm2)
        p_second += np.count_nonzero(~sp1_b & primary_success(P, g_mp_mp, eps))
    return (_partition(trials, np.count_nonzero(sm1), m_second),
            _partition(trials, np.count_nonzero(sp1), p_second))


def renewal_aoi(events_by_user: dict[int, tuple[np.ndarray, np.ndarray]],
                t_end: float) -> dict[int, float]:
    """Recompute per-user average AoI over [0, t_end] from renewal intervals
    alone.

    For each interval y_j between consecutive deliveries the age ramps from
    the reset value a_j, contributing Q_j = a_j y_j + y_j^2/2; intervals are
    clipped to t_end.  Each user's first record must be at t = 0, since its
    age before its first record is undefined.  Plain Python accumulation,
    deliberately separate from the simulator's kernel.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"non-finite accumulation window [0, {t_end}]")
    if t_end <= 0:
        raise ValueError("zero-length accumulation window")
    out = {}
    for user, (times, ages) in events_by_user.items():
        if len(times) == 0 or times[0] != 0:
            raise ValueError(f"user {user} has no record at t=0")
        times = times.tolist()
        total = 0.0
        for t_a, t_b, age in zip(times, times[1:] + [t_end], ages.tolist(), strict=True):
            y = min(t_b, t_end) - t_a
            if y > 0:
                total += age * y + 0.5 * y * y
        out[user] = total / t_end
    return out


def geometric_moment_check(x: float) -> tuple[float, float]:
    """Residuals of the two geometric-series moment identities

        sum_j j x^j   = x / (1-x)^2
        sum_j j^2 x^j = x (1+x) / (1-x)^3

    evaluated by direct partial summation of 2000 terms.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0, 1), got {x}")
    j = np.arange(1, 2001, dtype=np.float64)
    powers = x ** j
    s1 = float(np.sum(j * powers))
    s2 = float(np.sum(j * j * powers))
    c1 = x / (1.0 - x) ** 2
    c2 = x * (1.0 + x) / (1.0 - x) ** 3
    return abs(s1 - c1), abs(s2 - c2)
