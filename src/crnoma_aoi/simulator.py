"""Frame/slot simulation with exact sawtooth-AoI accounting.

Per frame and per user pair, four independent Exp(1) channel gains are drawn
(each user in each of its pair's two slots, whether or not it transmits, which
keeps the random stream aligned across schemes).  Every delivery takes effect
at the end of its slot; the instantaneous age then resets to T (GAW) or to
m*T / m'*T (GAR), and the age grows linearly in between.  Time averages are
the exact integrals of this piecewise-linear process over the whole horizon
[0, frames * M * T]; no per-slot sampling is involved.

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
about 10x slower than ``(mask & a) | (~mask & b)``).

Each chunk of n frames runs in L lanes, L the largest divisor of n up to
_LANES: its gains are copied once into a (4, L, n/L) layout (:func:`_lanes`),
column b holding frames bL .. bL+L-1, which every (scheme, R, P, P_S)
classifies elementwise at unit stride.  Every user of every config is one
row of one stacked (2L, rows, n/L) array, its slot-m and slot-m' lanes
interleaved in time order (a slot where it never delivers, as under TDMA,
is a lane of 0), so one running maximum gives both of its origins.  That
maximum is a blocked prefix scan (Blelloch 1990): each block's maximum,
a short running maximum over the n/L block carries from each row's origin,
then 2L contiguous maxima, each over every row's blocks at once.  Origins
are int32 while every one fits, else int64 (:func:`_origin_dtype`), and
one sum per row, over its lanes first (in int32 while 2 _LANES of them
fit), gives the chunk's area (the frame-start origins sum to origin_in +
sum(o_mp) - last).

Pairs are the unit of work.  No state crosses pairs: each has its own
generator, its own two users and its own origins.  One walk, :func:`_walk`,
spawns one pair's generator from (seed, M), cuts the horizon into chunks,
draws each chunk's gains and states the pair's reset ages.
:func:`run_many` and :func:`deliveries` consume it.  :func:`run_many` shares
each chunk's gains among configs with the same M, model, horizon and seed,
and classifies them per (scheme, R, P, P_S); T only scales the integer areas.
:func:`_pair_areas` integrates one pair, and :func:`_integrate` runs it over
the pairs, in forked workers that the parent only coordinates, when the run
has pairs enough to pay for them.  A pair's areas are the same
Python ints in any process, so a report is bit-identical wherever it ran.
:func:`deliveries` returns the same deliveries as arrays, per user, for
:func:`crnoma_aoi.oracle.renewal_aoi` to integrate independently: integer
slot ends, multiplied by T once, of only the chunks that deliver.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .model import (N_BATCHES, SystemConfig, draw_gains, primary_success,
                    secondary_capped_success)

CHUNK_FRAMES = 1 << 15
# lanes of the blocked running maximum at most: 16 measured best, 20-25 level
_LANES = 16
# pairs per worker at least: with one, the queue cannot even out a slow CPU
FORK_PAIRS = 2


@dataclass(frozen=True)
class AoiReport:
    """Per-user and overall time-average AoI with batch-means half-widths."""

    per_user_aoi: list[float]
    overall_aoi: float
    per_user_halfwidth: list[float]
    overall_halfwidth: float


def _pair_outcomes(cfg: SystemConfig, gains: np.ndarray, prev: float):
    """Classify consecutive frames for the pair (U_m, U_m').

    ``gains`` is a :func:`_lanes` layout, shape (4, L, n/L): U_m and U_m' in
    slot m, then U_m and U_m' in slot m' = m + M/2, with frame bL + l at
    [:, l, b].  ``prev`` is U_m''s slot-m' gain in the frame before frame 0
    (``inf`` before the horizon); CR-NOMA/GAW reads it to decide U_m''s
    retry in frame 0.  Returns, for U_m then U_m', ``(at_m, at_mp)``: the
    (L, n/L) delivery masks at slot m and at slot m', or None at a slot
    where the user never delivers.
    """
    eps, P, P_S = cfg.eps, cfg.P, cfg.P_S
    g_m_m, g_mp_m, g_m_mp, g_mp_mp = gains

    if cfg.scheme == "TDMA":
        return ((primary_success(P, g_m_m, eps), None),
                (None, primary_success(P, g_mp_mp, eps)))
    if cfg.gen_model == "GAW":
        # U_m: primary in slot m every frame; on failure, secondary in slot m'
        # of the same frame against U_m' (who is always primary there).
        s1 = primary_success(P, g_m_m, eps)
        s4 = secondary_capped_success(P_S, g_m_mp, P, g_mp_mp, eps)
        # U_m': primary in slot m' every frame; on failure, secondary in
        # slot m of the NEXT frame with a fresh update: one lane on, and
        # lane 0 from the last lane of the block before
        s3 = primary_success(P, g_mp_mp, eps)
        retry = np.empty_like(s3)
        np.invert(s3[:-1], out=retry[1:])
        np.invert(s3[-1, :-1], out=retry[0, 1:])
        retry[0, 0] = not primary_success(P, prev, eps)
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


def _origin_dtype(frames: int, M: int):
    """Integer dtype of the slot origins of a ``frames``-frame horizon: every
    origin is below (frames + 1) * M, so int32 while that fits, else int64."""
    return np.int32 if (frames + 1) * M <= np.iinfo(np.int32).max else np.int64


def _batch_edges(config: SystemConfig) -> list[int]:
    """Frame indices splitting the horizon into N_BATCHES blocks of whole
    frames."""
    return [k * config.frames // N_BATCHES for k in range(N_BATCHES + 1)]


def _chunks(config: SystemConfig):
    """Yield (first frame, frame count, batch index) over the horizon, in
    order; no chunk straddles a batch edge or exceeds CHUNK_FRAMES."""
    edges = _batch_edges(config)
    for batch, (lo, hi) in enumerate(zip(edges, edges[1:])):
        for start in range(lo, hi, CHUNK_FRAMES):
            yield start, min(CHUNK_FRAMES, hi - start), batch


def _walk(config: SystemConfig, m: int):
    """Yield ``(resets, start, n, batch, gains, prev)`` for pair (U_m, U_m')
    and each of its :func:`_chunks` in order.  ``resets`` are the ages in
    slots that a delivery in slot m and in slot m' resets to; at t=0 each
    user's age is the reset age of its own slot.  ``gains`` is the chunk's
    (n, 4) draw in time order, a frame a row, which :func:`_lanes` lays out
    for :func:`_pair_outcomes`, and ``prev`` is as there.  Each pair has
    its own generator, child m - 1 of
    ``numpy.random.SeedSequence([config.seed, config.M])``, so results do
    not depend on the order or the process in which pairs are integrated,
    and configs of one seed but different M draw unrelated streams.  No
    other code derives a simulation stream."""
    h = config.M // 2
    rng = np.random.default_rng(np.random.SeedSequence(
        [config.seed, config.M], spawn_key=(m - 1,)))
    resets = (1, 1) if config.gen_model == "GAW" else (m, m + h)
    prev = np.inf
    for start, n, batch in _chunks(config):
        gains = draw_gains(rng, (n, 4))
        yield resets, start, n, batch, gains, prev
        prev = gains[-1, 3]


def _lanes(gains: np.ndarray, L: int) -> np.ndarray:
    """A chunk's (n, 4) draw copied into the (4, L, n/L) layout that
    :func:`_pair_outcomes` reads: frame bL + l at [:, l, b], so each gain's
    lane l is one contiguous row, and L = 1 keeps time order."""
    return gains.reshape(-1, L, 4).transpose(2, 1, 0).copy()


def _pair_areas(config: SystemConfig, keyed: dict, m: int) -> dict:
    """Twice the per-batch areas, in slot^2, of U_m and U_m' under each
    config of ``keyed``: key -> (U_m's row, U_m''s row).  Each key is
    integrated with its own origins; Python ints cannot overflow.  Every
    user is one row of a stacked (2L, rows, n/L) array, its slot-m and
    slot-m' lanes interleaved in time order, a slot where it never delivers
    as a lane of 0, and one blocked running maximum gives every origin of
    the chunk."""
    M, h = config.M, config.M // 2
    dtype = _origin_dtype(config.frames, M)
    # a sum over one block's 2L lanes is below 2 _LANES (frames + 1) M
    lane_sum = _origin_dtype(2 * _LANES * (config.frames + 1), M)
    areas = {key: ([0] * N_BATCHES, [0] * N_BATCHES) for key in keyed}
    rows = [user for pair in areas.values() for user in pair]
    # the stacked masks and origins of the longest chunk, reused by each
    size = 2 * len(rows) * min(CHUNK_FRAMES, -(-config.frames // N_BATCHES))
    hits, work = np.empty(size, bool), np.empty(size, dtype)
    origin = []   # per row, key i's user u at 2i + u: its origin, in slots
    for (r_m, r_mp), start, n, batch, gains, prev in _walk(config, m):
        origin = origin or [M - r_m, M - r_mp] * len(keyed)
        L = max(d for d in range(1, _LANES + 1) if n % d == 0)
        gains = _lanes(gains, L)
        hit = hits[:2 * len(rows) * n].reshape(L, 2, len(rows), n // L)
        for i, cfg in enumerate(keyed.values()):
            for u, masks in enumerate(_pair_outcomes(cfg, gains, prev)):
                for s, mask in enumerate(masks):
                    hit[:, s, 2 * i + u] = False if mask is None else mask
        # each frame's origin after slot m, then after slot m', if it
        # delivers there; else 0, no later than any origin
        frame = (start + 1 + np.arange(L, dtype=dtype)[:, None]
                 + L * np.arange(n // L, dtype=dtype)) * M
        cand = frame[:, None, None] + np.array([[[m - r_m]], [[m + h - r_mp]]],
                                               dtype=dtype)
        o = np.multiply(cand, hit, out=work[:hit.size].reshape(hit.shape))
        # their running maximum along time, a block of L frames at a time:
        # a block's carry is the running maximum of the blocks before it,
        # from the row's origin, and each lane takes the one before it
        o = o.reshape(2 * L, len(rows), n // L)
        carry = np.roll(o.max(axis=0), 1, axis=1)
        carry[:, 0] = origin
        np.maximum.accumulate(carry, axis=1, out=carry)
        np.maximum(o[0], carry, out=o[0])
        for k in range(1, 2 * L):
            np.maximum(o[k], o[k - 1], out=o[k])
        last = o[-1, :, -1].tolist()
        totals = o.sum(axis=0, dtype=lane_sum).sum(axis=1, dtype=np.int64)
        sum_base = M * (n * (start + 1) + n * (n - 1) // 2)
        for row, first, end, total in zip(rows, origin, last, totals.tolist()):
            # per frame, sum over its segments [a, b] of
            # (b - a)(a + b - 2 o) = M^2 + 2 (m d0 + h d1 + (h - m) d2)
            # with d = frame start - origin of the segment; the frame-start
            # origins sum to first + sum(o_mp) - end, so the d1 and d2
            # terms take one sum over both slots
            row[batch] += n * M * M + 2 * (
                M * sum_base - m * (first - end) - h * total)
        origin = last
    return areas


def _integrate(config: SystemConfig, keyed: dict) -> dict:
    """pair -> :func:`_pair_areas` for every pair of ``config``.  Forked
    workers integrate the pairs, one per FORK_PAIRS pairs and at most one per
    usable CPU, each pinned to its own CPU if they take every CPU.  This
    process only hands the pairs out, through one pipe that holds the whole
    queue before any worker exists, and gathers their areas, or raises a
    worker's exception, or ChildProcessError for a worker that sent none.
    The run stays here when it comes to one worker, without
    ``os.sched_getaffinity`` (not Linux), or while another thread is alive,
    since forking a threaded process can deadlock."""
    h = config.M // 2
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    workers = min(len(cpus), h // FORK_PAIRS)
    if workers < 2 or threading.active_count() > 1:
        return {m: _pair_areas(config, keyed, m) for m in range(1, h + 1)}
    pinned = workers == len(cpus)
    # one write of at most PIPE_BUF bytes is atomic and fits the empty pipe,
    # so it cannot block; each 4-byte token names the first of step pairs
    step = -(-h // (select.PIPE_BUF // 4))
    queue_r, queue_w = os.pipe()
    pids, replies = [], []   # the workers; their reply pipes' read ends, as files
    try:
        try:
            os.write(queue_w, b"".join(m.to_bytes(4, "little")
                                       for m in range(1, h + 1, step)))
        finally:
            os.close(queue_w)   # before any fork, so no worker holds it
        for cpu in cpus[:workers]:
            reply_r, reply_w = os.pipe()
            replies.append(open(reply_r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _worker(config, keyed, cpu if pinned else None, step,
                            queue_r, reply_w)
            finally:
                os.close(reply_w)
            pids.append(pid)
        areas = {}
        for pid, reply in zip(pids, replies):
            data = reply.read()
            if not data:
                raise ChildProcessError(f"run_many worker {pid} sent no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            areas.update(value)
        return areas
    finally:
        os.close(queue_r)
        for reply in replies:
            reply.close()
        # no other process can reap a worker, so its pid is still its own
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _worker(config: SystemConfig, keyed: dict, cpu: int | None, step: int,
            queue_r: int, reply_w: int) -> None:
    """A forked worker's whole life: move to ``cpu`` if given, read tokens
    from ``queue_r`` until it is empty, integrating for each the pair it
    names and the next ``step - 1`` pairs of the run, pickle ``(True, pair
    -> areas)`` or ``(False, exception)`` to ``reply_w``, and end without
    running any of the parent's clean-up; the parent reads only the reply."""
    try:
        if cpu is not None:
            with contextlib.suppress(OSError):   # pinning affects speed only
                os.sched_setaffinity(0, {cpu})
        try:
            areas = {}
            while data := os.read(queue_r, 4):
                first = int.from_bytes(data, "little")
                for m in range(first, min(first + step, config.M // 2 + 1)):
                    areas[m] = _pair_areas(config, keyed, m)
            reply = (True, areas)
        except BaseException as exc:
            reply = (False, exc)
        with open(reply_w, "wb") as fh:
            pickle.dump(reply, fh)
    finally:
        os._exit(0)


def run_many(configs: list[SystemConfig]) -> list[AoiReport]:
    """Simulate configs that share (M, gen_model, frames, seed) on common
    gain draws; return one report per config, in order: the exact
    time-average AoI per user over the whole horizon, with half-widths
    of 3 standard errors over N_BATCHES = 20 batch means (about 99.3 % under
    t_19); each batch is a block of whole frames.  A config's report does not
    depend on the others in the list, and is deterministic given (config,
    seed), whichever process integrates each pair.  Each distinct (scheme,
    R, P, P_S) is integrated once, with its own origins; T is applied only
    at the end."""
    if len({(c.M, c.gen_model, c.frames, c.seed) for c in configs}) != 1:
        raise ValueError("run_many needs one or more configs sharing M, "
                         "gen_model, frames and seed")
    first = configs[0]
    keyed = {(c.scheme, c.R, c.P, c.P_S): c for c in configs}
    pairs = _integrate(first, keyed)
    # users 1..M/2 are the pairs' U_m, users M/2+1..M their U_m'
    areas = {key: [pairs[m][key][u] for u in (0, 1)
                   for m in range(1, first.M // 2 + 1)] for key in keyed}
    return [_report(c, areas[(c.scheme, c.R, c.P, c.P_S)]) for c in configs]


def _report(config: SystemConfig, areas: list[list[int]]) -> AoiReport:
    """Scale twice the per-user, per-batch areas (slot^2) by T into AoI."""
    M, T = config.M, config.T
    sizes = np.diff(_batch_edges(config))
    batch_aoi = np.array(areas, dtype=np.float64) * T / (2 * M * sizes)
    per_user = [sum(a) * T / (2 * M * config.frames) for a in areas]
    se = np.std(batch_aoi, axis=1, ddof=1) / np.sqrt(N_BATCHES)
    overall_se = float(np.std(batch_aoi.mean(axis=0), ddof=1) / np.sqrt(N_BATCHES))
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
    for m in range(1, h + 1):
        for resets, start, n, _batch, gains, prev in _walk(config, m):
            # ends of slots m and m' of every frame; row-major order is time order
            ends = ((start + np.arange(n))[:, None] * M + (m, m + h)) * T
            ages = np.broadcast_to(np.multiply(resets, T), ends.shape)
            lanes = _lanes(gains, 1)   # one lane: each gain's row in time order
            for u, masks in enumerate(_pair_outcomes(config, lanes, prev)):
                times, user_ages = records.setdefault(
                    m + u * h, ([np.zeros(1)], [np.array([resets[u] * T])]))
                hit = np.column_stack([np.zeros(n, dtype=bool) if x is None else x[0]
                                       for x in masks])
                if hit.any():
                    times.append(ends[hit])
                    user_ages.append(ages[hit])
    return {u: tuple(map(np.concatenate, records[u])) for u in sorted(records)}
