"""Frame/slot simulation with exact sawtooth-AoI accounting.

Per frame and per user pair, four independent Exp(1) channel gains are drawn
(each user in each of its pair's two slots, whether or not it transmits, which
keeps the random stream aligned across schemes).  Every delivery takes effect
at the end of its slot; the instantaneous age then resets to T (GAW) or to
m*T / m'*T (GAR), and the age grows linearly in between.  Time averages are
the exact integrals of this piecewise-linear process over the post-warm-up
window; no per-slot sampling is involved.

:func:`run_many` integrates frame by frame.  Counted in slots, the age at time
t is t - o, where the origin o = t_last - reset_age moves only at deliveries.
A delivery never raises the age, so o never decreases, and the origin after
each slot is a running maximum over the deliveries so far.  A frame's area is
then linear in three integer origins (at frame start, after slot m, after
slot m'), an exact multiple of T^2/2.  The only state crossing frames is
each (config, pair)'s origins and the previous frame's U_m' slot-m' gain,
which decides CR-NOMA/GAW's retry in slot m, so frames are drawn and
integrated in fixed chunks and memory does not grow with the horizon.

Slots are counted from the start of frame -1, so every origin is >= 0 (the
earliest, user m' of the last pair under GAR, is 0) and a slot without a
delivery can stand as origin 0: its candidate is ``(frame start + offset) *
delivered``, and the running maximum ignores it.  The areas depend only on
frame start minus origin, so the shift cancels.  The kernel takes no
data-dependent branch: near 0 dB a delivery mask is close to random, so
``np.where`` on it mispredicts (choosing between two bool arrays, it ran
about 10x slower than ``(mask & a) | (~mask & b)``).  Each chunk's gains are
copied once into four contiguous rows, which every (scheme, R, P, P_S) then
classifies at unit stride.

One walk, :func:`_walk`, spawns the per-pair generators from (seed, M), cuts
the horizon into chunks, draws each chunk's gains and states each pair's reset
ages.
:func:`run_many` and :func:`deliveries` consume it.  :func:`run_many` shares
each chunk's gains among configs with the same M, model, horizon and seed,
and classifies them per (scheme, R, P, P_S); T only scales the integer areas.
:func:`deliveries` returns the same deliveries as arrays, per user, for
:func:`crnoma_aoi.oracle.renewal_aoi` to integrate independently: integer
slot ends, multiplied by T once, of only the chunks that deliver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (SystemConfig, draw_gains, primary_success,
                    secondary_capped_success)

N_BATCHES = 20
CHUNK_FRAMES = 1 << 15


@dataclass(frozen=True)
class AoiReport:
    """Per-user and overall time-average AoI with batch-means half-widths."""

    per_user_aoi: list[float]
    overall_aoi: float
    per_user_halfwidth: list[float]
    overall_halfwidth: float


def _pair_outcomes(cfg: SystemConfig, gains: np.ndarray, prev: float):
    """Classify consecutive frames for the pair (U_m, U_m').

    ``gains`` has shape (4, frames), one contiguous row per gain: U_m and U_m'
    in slot m, then U_m and U_m' in slot m' = m + M/2.  ``prev`` is U_m''s
    slot-m' gain in the frame before the first column (``inf`` before frame
    0); CR-NOMA/GAW reads it to decide U_m''s retry in the first column.
    Returns, for U_m then U_m', ``(at_m, at_mp)``: the delivery masks at
    slot m and at slot m'.
    """
    eps, P, P_S = cfg.eps, cfg.P, cfg.P_S
    g_m_m, g_mp_m, g_m_mp, g_mp_mp = gains

    if cfg.scheme == "TDMA":
        never = np.zeros(gains.shape[1], dtype=bool)
        return ((primary_success(P, g_m_m, eps), never),
                (never, primary_success(P, g_mp_mp, eps)))
    if cfg.gen_model == "GAW":
        # U_m: primary in slot m every frame; on failure, secondary in slot m'
        # of the same frame against U_m' (who is always primary there).
        s1 = primary_success(P, g_m_m, eps)
        s4 = secondary_capped_success(P_S, g_m_mp, P, g_mp_mp, eps)
        # U_m': primary in slot m' every frame; on failure, secondary in
        # slot m of the NEXT frame with a fresh update.
        s3 = primary_success(P, g_mp_mp, eps)
        retry = np.concatenate(([not primary_success(P, prev, eps)], ~s3[:-1]))
        s2 = secondary_capped_success(P_S, g_mp_m, P, g_m_m, eps)
        return ((s1, ~s1 & s4), (retry & s2, s3))
    # CR-NOMA / GAR: both users generate at frame start; undelivered
    # updates are dropped at frame end, so no state crosses frames.
    sm1 = primary_success(P, g_m_m, eps)                         # U_m primary, slot m
    sp1 = secondary_capped_success(P_S, g_mp_m, P, g_m_m, eps)   # U_m' secondary, slot m
    sp2 = primary_success(P, g_mp_mp, eps)                       # U_m' retry, slot m'
    # U_m's retry in slot m': interference-free if U_m' is silent, capped
    # if it retransmits (chosen bitwise: np.where on a bool mask branches)
    sm2 = ((sp1 & primary_success(P_S, g_m_mp, eps))
           | (~sp1 & secondary_capped_success(P_S, g_m_mp, P, g_mp_mp, eps)))
    return ((sm1, ~sm1 & sm2), (sp1, ~sp1 & sp2))


def _batch_edges(config: SystemConfig) -> list[int]:
    """Frame indices splitting the post-warm-up window into N_BATCHES blocks
    of whole frames."""
    w, n = config.warmup_frames, config.frames - config.warmup_frames
    return [w + k * n // N_BATCHES for k in range(N_BATCHES + 1)]


def _chunks(config: SystemConfig):
    """Yield (first frame, frame count, batch index) over the horizon, in
    order; the warm-up has batch index -1 and no chunk straddles a batch
    edge or exceeds CHUNK_FRAMES."""
    edges = [0] + _batch_edges(config)
    for batch in range(-1, N_BATCHES):
        lo, hi = edges[batch + 1], edges[batch + 2]
        for start in range(lo, hi, CHUNK_FRAMES):
            yield start, min(CHUNK_FRAMES, hi - start), batch


def _walk(config: SystemConfig):
    """Yield ``(m, resets, start, n, batch, gains, prev)`` for each pair
    (U_m, U_m') in order of m and each of its :func:`_chunks` in order.
    ``resets`` are the ages in slots that a delivery in slot m and in slot m'
    resets to; at t=0 each user's age is the reset age of its own slot.
    ``gains`` is the chunk's draw as four contiguous rows, and ``prev`` is as
    in :func:`_pair_outcomes`.  Each pair has its own generator, spawned
    from ``numpy.random.SeedSequence([config.seed, config.M])``, so results
    do not depend on the order in which pairs are processed, and configs of
    one seed but different M draw unrelated streams.  No other code derives
    a simulation stream."""
    h = config.M // 2
    seq = np.random.SeedSequence([config.seed, config.M])
    for m, child in enumerate(seq.spawn(h), start=1):
        rng = np.random.default_rng(child)
        resets = (1, 1) if config.gen_model == "GAW" else (m, m + h)
        prev = np.inf
        for start, n, batch in _chunks(config):
            gains = np.ascontiguousarray(draw_gains(rng, (n, 4)).T)
            yield m, resets, start, n, batch, gains, prev
            prev = gains[3, -1]


def run_many(configs: list[SystemConfig]) -> list[AoiReport]:
    """Simulate configs that share (M, gen_model, frames, warmup_frames, seed)
    on common gain draws; return one report per config, in order: the exact
    time-average AoI per user over the post-warm-up window, with half-widths
    of 3 standard errors over N_BATCHES = 20 batch means (about 99.3 % under
    t_19); each batch is a block of whole frames.  A config's report does not
    depend on the others in the list, and is deterministic given (config,
    seed).  Each distinct (scheme, R, P, P_S) is integrated once, with its own
    origins; T is applied only at the end."""
    if len({(c.M, c.gen_model, c.frames, c.warmup_frames, c.seed)
            for c in configs}) != 1:
        raise ValueError("run_many needs one or more configs sharing M, "
                         "gen_model, frames, warmup_frames and seed")
    first = configs[0]
    M, h = first.M, first.M // 2
    n_used = first.frames - first.warmup_frames
    if n_used < N_BATCHES:
        raise ValueError(f"need at least {N_BATCHES} frames after warm-up, "
                         f"got {n_used}")
    keyed = {(c.scheme, c.R, c.P, c.P_S): c for c in configs}
    # twice each user's area per batch, in slot^2; Python ints cannot overflow
    areas = {key: [[0] * N_BATCHES for _ in range(M)] for key in keyed}
    origins: dict = {}   # (key, m) -> U_m's and U_m''s origin, in slots
    for m, (r_m, r_mp), start, n, batch, gains, prev in _walk(first):
        base = (start + 1 + np.arange(n, dtype=np.int64)) * M
        sum_base = M * (n * (start + 1) + n * (n - 1) // 2)
        for key, cfg in keyed.items():
            origin = origins.setdefault((key, m), [M - r_m, M - r_mp])
            for u, (at_m, at_mp) in enumerate(_pair_outcomes(cfg, gains, prev)):
                # origin after slot m, then after slot m', of every frame;
                # 0 (no later than any origin) stands for no delivery
                o_m = base + (m - r_m)
                o_m *= at_m
                o_m[0] = max(o_m[0], origin[u])
                o_mp = base + (m + h - r_mp)
                o_mp *= at_mp
                np.maximum(o_mp, o_m, out=o_mp)
                np.maximum.accumulate(o_mp, out=o_mp)
                np.maximum(o_m[1:], o_mp[:-1], out=o_m[1:])
                s_m, s_mp = int(o_m.sum()), int(o_mp.sum())
                last = int(o_mp[-1])
                s_start = origin[u] + s_mp - last
                origin[u] = last
                if batch >= 0:
                    # per frame, sum over its segments [a, b] of
                    # (b - a)(a + b - 2 o) = M^2 + 2 (m d0 + h d1 + (h - m) d2)
                    # with d = frame start - origin of the segment
                    areas[key][(m - 1) + u * h][batch] += n * M * M + 2 * (
                        M * sum_base - m * s_start - h * s_m - (h - m) * s_mp)
    return [_report(c, areas[(c.scheme, c.R, c.P, c.P_S)]) for c in configs]


def _report(config: SystemConfig, areas: list[list[int]]) -> AoiReport:
    """Scale twice the per-user, per-batch areas (slot^2) by T into AoI."""
    M, T, n_used = config.M, config.T, config.frames - config.warmup_frames
    sizes = np.diff(_batch_edges(config))
    batch_aoi = np.array(areas, dtype=np.float64) * T / (2 * M * sizes)
    per_user = [sum(a) * T / (2 * M * n_used) for a in areas]
    se = np.std(batch_aoi, axis=1, ddof=1) / np.sqrt(N_BATCHES)
    overall_se = float(np.std(batch_aoi.mean(axis=0), ddof=1)) / np.sqrt(N_BATCHES)
    return AoiReport(
        per_user_aoi=per_user,
        overall_aoi=float(np.mean(per_user)),
        per_user_halfwidth=(3.0 * se).tolist(),
        overall_halfwidth=3.0 * overall_se,
    )


def deliveries(config: SystemConfig) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Simulate the full horizon from the same draws and classification as
    :func:`run_many` and return user -> (delivery times, reset ages), users in
    ascending order: each user's synthetic t=0 record at the reset age of its
    own slot, then its deliveries in time order, from the chunks of
    :func:`_walk` in which it delivers (each classified once per pair)."""
    M, h, T = config.M, config.M // 2, config.T
    records: dict[int, tuple[list, list]] = {}
    for m, resets, start, n, _batch, gains, prev in _walk(config):
        # ends of slots m and m' of every frame; row-major order is time order
        ends = ((start + np.arange(n))[:, None] * M + (m, m + h)) * T
        ages = np.broadcast_to(np.multiply(resets, T), ends.shape)
        for u, masks in enumerate(_pair_outcomes(config, gains, prev)):
            times, user_ages = records.setdefault(
                m + u * h, ([np.zeros(1)], [np.array([resets[u] * T])]))
            hit = np.column_stack(masks)
            if hit.any():
                times.append(ends[hit])
                user_ages.append(ages[hit])
    return {u: tuple(map(np.concatenate, records[u])) for u in sorted(records)}
