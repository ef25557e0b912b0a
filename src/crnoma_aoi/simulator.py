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
about 10x slower than ``(mask & a) | (~mask & b)``).  Each chunk's gains are
copied once into four contiguous rows, which every (scheme, R, P, P_S) then
classifies at unit stride.

Origins are int32 while every one fits, else int64 (:func:`_origin_dtype`).
Each (pair, chunk) builds its candidate rows for slots m and m' once, as a
(2, n) array that every (config, user) masks into one reused work array.  The
frame-start origins sum to origin_in + sum(o_mp) - last, so a chunk's area
takes one int64 sum of that array.

Pairs are the unit of work.  No state crosses pairs: each has its own
generator, its own two users and its own origins.  One walk, :func:`_walk`,
spawns one pair's generator from (seed, M), cuts the horizon into chunks,
draws each chunk's gains and states the pair's reset ages.
:func:`run_many` and :func:`deliveries` consume it.  :func:`run_many` shares
each chunk's gains among configs with the same M, model, horizon and seed,
and classifies them per (scheme, R, P, P_S); T only scales the integer areas.
:func:`_pair_areas` integrates one pair, and :func:`_integrate` runs it over
the pairs, in forked workers that the parent only coordinates, when the run
has work and pairs enough to pay for them.  A pair's areas are the same
Python ints in any process, so a report is bit-identical wherever it ran.
:func:`deliveries` returns the same deliveries as arrays, per user, for
:func:`crnoma_aoi.oracle.renewal_aoi` to integrate independently: integer
slot ends, multiplied by T once, of only the chunks that deliver.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .model import (N_BATCHES, SystemConfig, draw_gains, primary_success,
                    secondary_capped_success)

CHUNK_FRAMES = 1 << 15
# configs x frames x M/2, and pairs, that each process of a run_many run
# must have; with fewer pairs a CPU that slows one process holds up the run
FORK_CONFIG_PAIR_FRAMES = 400_000
FORK_PAIRS = 4


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
    draw as four contiguous rows, and ``prev`` is as in
    :func:`_pair_outcomes`.  Each pair has its own generator, child m - 1 of
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
        gains = np.ascontiguousarray(draw_gains(rng, (n, 4)).T)
        yield resets, start, n, batch, gains, prev
        prev = gains[3, -1]


def _pair_areas(config: SystemConfig, keyed: dict, m: int) -> dict:
    """Twice the per-batch areas, in slot^2, of U_m and U_m' under each
    config of ``keyed``: key -> (U_m's row, U_m''s row).  Each key is
    integrated with its own origins; Python ints cannot overflow."""
    M, h = config.M, config.M // 2
    dtype = _origin_dtype(config.frames, M)
    areas = {key: ([0] * N_BATCHES, [0] * N_BATCHES) for key in keyed}
    origins: dict = {}   # key -> U_m's and U_m''s origin, in slots
    for (r_m, r_mp), start, n, batch, gains, prev in _walk(config, m):
        # each frame's candidate origins after slot m and after slot m'
        cand = ((start + 1 + np.arange(n, dtype=dtype)) * M
                + np.array([[m - r_m], [m + h - r_mp]], dtype=dtype))
        work = np.empty_like(cand)
        sum_base = M * (n * (start + 1) + n * (n - 1) // 2)
        for key, cfg in keyed.items():
            origin = origins.setdefault(key, [M - r_m, M - r_mp])
            for u, masks in enumerate(_pair_outcomes(cfg, gains, prev)):
                # origin after slot m, then after slot m', of every frame;
                # 0 (no later than any origin) stands for no delivery
                np.multiply(cand, masks, out=work)
                o_m, o_mp = work
                o_m[0] = max(o_m[0], origin[u])
                np.maximum(o_mp, o_m, out=o_mp)
                np.maximum.accumulate(o_mp, out=o_mp)
                np.maximum(o_m[1:], o_mp[:-1], out=o_m[1:])
                last = int(o_mp[-1])
                # per frame, sum over its segments [a, b] of
                # (b - a)(a + b - 2 o) = M^2 + 2 (m d0 + h d1 + (h - m) d2)
                # with d = frame start - origin of the segment; the
                # frame-start origins sum to origin[u] + sum(o_mp) - last,
                # so the d1 and d2 terms take one sum over both rows
                areas[key][u][batch] += n * M * M + 2 * (
                    M * sum_base - m * (origin[u] - last)
                    - h * int(work.sum(dtype=np.int64)))
                origin[u] = last
    return areas


def _integrate(config: SystemConfig, keyed: dict) -> dict:
    """pair -> :func:`_pair_areas` for every pair of ``config``.  Forked
    workers integrate the pairs: one per FORK_CONFIG_PAIR_FRAMES of the
    run's work (configs x frames x M/2) and FORK_PAIRS pairs, at most one
    per usable CPU, each pinned to its own CPU if they take every CPU (left
    alone, a 2-vCPU host's scheduler often kept two on one CPU).  This
    process only hands the pairs out, one at a time through one pipe, and
    gathers their areas, or raises a worker's exception, or ChildProcessError
    for a worker that sent none.  The run stays here when it comes to one
    worker, without ``os.sched_getaffinity`` (not Linux), or while another
    thread is alive, since forking a threaded process can deadlock."""
    h = config.M // 2
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    workers = min(len(cpus), h // FORK_PAIRS,
                  len(keyed) * config.frames * h // FORK_CONFIG_PAIR_FRAMES)
    if workers < 2 or threading.active_count() > 1:
        return {m: _pair_areas(config, keyed, m) for m in range(1, h + 1)}
    pinned = workers == len(cpus)
    queue_r, queue_w = os.pipe()
    replies: dict = {}   # worker pid -> read end of its reply pipe, as a file
    try:
        try:
            for cpu in cpus[:workers]:
                reply_r, reply_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _worker(config, keyed, cpu if pinned else None, queue_r,
                            queue_w, reply_w)
                os.close(reply_w)
                replies[pid] = open(reply_r, "rb")
        finally:
            os.close(queue_r)   # so that writing fails once every worker ended
        try:
            # written once the workers run, since they read while the pipe
            # fills, in writes of at most PIPE_BUF >= 512 bytes, each atomic,
            # so that every 4-byte read takes one whole pair number
            queue = b"".join(m.to_bytes(4, "little") for m in range(1, h + 1))
            for at in range(0, len(queue), 512):
                os.write(queue_w, queue[at:at + 512])
        except BrokenPipeError:   # the replies say why every worker ended
            pass
        finally:
            os.close(queue_w)
        areas = {}
        for pid, reply in replies.items():
            data = reply.read()
            if not data:
                raise ChildProcessError(f"run_many worker {pid} sent no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            areas.update(value)
        return areas
    finally:
        # no other process can reap a worker, so its pid is still its own
        for pid, reply in replies.items():
            reply.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _worker(config: SystemConfig, keyed: dict, cpu: int | None, queue_r: int,
            queue_w: int, reply_w: int) -> None:
    """A forked worker's whole life: close ``queue_w``, move to ``cpu`` if
    given, integrate the pairs read from ``queue_r``, pickle ``(True, pair
    -> areas)`` or ``(False, exception)`` to ``reply_w``, and end without
    running any of the parent's clean-up; the parent reads only the reply."""
    try:
        os.close(queue_w)
        if cpu is not None:
            with contextlib.suppress(OSError):   # pinning affects speed only
                os.sched_setaffinity(0, {cpu})
        try:
            areas = {}
            while data := os.read(queue_r, 4):
                m = int.from_bytes(data, "little")
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
            for u, masks in enumerate(_pair_outcomes(config, gains, prev)):
                times, user_ages = records.setdefault(
                    m + u * h, ([np.zeros(1)], [np.array([resets[u] * T])]))
                hit = np.column_stack(masks)
                if hit.any():
                    times.append(ends[hit])
                    user_ages.append(ages[hit])
    return {u: tuple(map(np.concatenate, records[u])) for u in sorted(records)}
