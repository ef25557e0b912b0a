import ast
import inspect
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crnoma_aoi import analytic, oracle, simulator
from crnoma_aoi.model import (GEN_MODELS, SCHEMES, SystemConfig, db_to_linear,
                              draw_gains, primary_success,
                              secondary_capped_success)
from crnoma_aoi.simulator import deliveries, run_many


def cfg(scheme="TDMA", gen_model="GAW", M=8, T=1.5, R=1.0, snr_db=0.0,
        frames=20_000, warmup=100, seed=5):
    P = db_to_linear(snr_db)
    return SystemConfig(M=M, T=T, R=R, P=P, P_S=P, scheme=scheme,
                        gen_model=gen_model, frames=frames,
                        warmup_frames=warmup, seed=seed)


def logged_events(c):
    """``c``'s deliveries as user -> (times, slots, reset ages), t=0 record
    (slot 0) first.  A delivery at the end of slot k (1..M) of frame f is at
    t = (f*M + k)*T, which gives its slot."""
    out = {}
    for user, (times, ages) in deliveries(c).items():
        slots = (np.rint(times / c.T).astype(np.int64) - 1) % c.M + 1
        slots[0] = 0
        out[user] = (times, slots, ages)
    return out


class TestWindowedAverage:
    """Exact time averages of run_many over the post-warm-up window, on
    processes with known integrals."""

    NEVER = 200.0   # R so large (eps = 2^200 - 1) that nothing is delivered

    def test_ramp(self):
        # no delivery: the GAW age starts at T and ramps for the whole horizon
        [r] = run_many([cfg(R=self.NEVER, M=4, T=1.5, frames=1000, warmup=0)])
        for a in r.per_user_aoi:
            assert a == pytest.approx(1.5 + 1000 * 4 * 1.5 / 2, rel=1e-12)

    def test_linear_ramp_average(self):
        # under GAR user k starts at age k*T (the reset age of its own slot)
        M, T, F = 6, 0.5, 997
        for scheme in ("TDMA", "CR-NOMA"):
            c = cfg(scheme=scheme, gen_model="GAR", R=self.NEVER, M=M, T=T,
                    frames=F, warmup=0)
            [r] = run_many([c])
            for k, a in enumerate(r.per_user_aoi, start=1):
                assert a == pytest.approx(k * T + F * M * T / 2, rel=1e-12)
            # no chunk delivers, so each user's record is its t=0 entry alone
            events = deliveries(c)
            assert list(events) == list(range(1, M + 1))
            for k, (times, ages) in events.items():
                assert times.tolist() == [0.0] and ages.tolist() == [k * T]

    def test_warmup_clipping(self):
        # area before the warm-up boundary is discarded exactly
        M, T, F, W = 4, 1.5, 1003, 37
        for gen_model in ("GAW", "GAR"):
            [r] = run_many([cfg(gen_model=gen_model, R=self.NEVER, M=M, T=T,
                                frames=F, warmup=W)])
            for k, a in enumerate(r.per_user_aoi, start=1):
                start_age = T if gen_model == "GAW" else k * T
                assert a == pytest.approx(start_age + (W + F) * M * T / 2,
                                          rel=1e-12)

    def test_periodic_resets(self):
        # TDMA/GAW at R=0: user k resets to T at the end of slot k of every
        # frame; the first and last partial periods are integrated exactly
        M, T, F = 8, 1.5, 1001
        [r] = run_many([cfg(R=0.0, M=M, T=T, frames=F, warmup=0)])
        for k, a in enumerate(r.per_user_aoi, start=1):
            twice_area = ((k + 1) ** 2 - 1 + (F - 1) * ((M + 1) ** 2 - 1)
                          + (M - k + 1) ** 2 - 1)
            assert a == pytest.approx(twice_area * T / (2 * F * M), rel=1e-12)

    def test_empty_window(self):
        # a zero-length averaging window (warm-up eats the whole horizon)
        # has no time average
        for frames in (0, 1, 100):
            with pytest.raises(ValueError):
                cfg(frames=frames, warmup=frames)

    def test_empty_window_rejected(self):
        # a non-empty window shorter than the batch count is rejected at run
        with pytest.raises(ValueError):
            run_many([cfg(frames=110, warmup=100)])   # fewer frames than batches


class TestKernel:
    PAIRS = [("TDMA", "GAW"), ("CR-NOMA", "GAW"), ("TDMA", "GAR"),
             ("CR-NOMA", "GAR")]

    @pytest.mark.parametrize("scheme,gen", PAIRS)
    def test_matches_oracle(self, scheme, gen):
        # 2983 post-warm-up frames: not a multiple of 20 or of the chunk size
        c = cfg(scheme=scheme, gen_model=gen, M=6, T=1.5, frames=3000,
                warmup=17, seed=4)
        events = deliveries(c)
        assert list(events) == list(range(1, c.M + 1))
        for times, _ages in events.values():
            assert times[0] == 0 and np.all(np.diff(times) > 0)
        expect = oracle.renewal_aoi(events, c.frames * c.frame_duration,
                                    c.warmup_frames * c.frame_duration)
        [r] = run_many([c])
        for k in range(c.M):
            assert abs(r.per_user_aoi[k] - expect[k + 1]) < 1e-9

    @pytest.mark.parametrize("scheme,gen", PAIRS)
    def test_chunk_size_invariant(self, monkeypatch, scheme, gen):
        c = cfg(scheme=scheme, gen_model=gen, M=4, frames=1000, warmup=13)
        whole = run_many([c])
        monkeypatch.setattr(simulator, "CHUNK_FRAMES", 7)
        assert run_many([c]) == whole

    def test_chunked_draws_match_one_draw(self):
        whole = draw_gains(np.random.default_rng(8), (1000, 4))
        rng = np.random.default_rng(8)
        parts = [draw_gains(rng, (n, 4)) for n in (7, 300, 1, 692)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_memory_bounded(self):
        # chunked frames: about 4.6 MiB here (the chunk's gains, drawn and
        # copied into contiguous rows, and its origin arrays), where event
        # arrays for this horizon would take hundreds of MiB
        tracemalloc.start()
        try:
            run_many([cfg(M=8, frames=2_000_000, warmup=100)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_event_log_memory_bounded(self, monkeypatch):
        # deliveries are drawn and classified in chunks, and a chunk without
        # a delivery keeps no array: a 16x longer horizon must not raise the
        # steady-state peak (keeping two empty arrays per user and chunk, it
        # grew 2.1x).  The chunk cap is below both horizons' batch lengths, so
        # both chunk at it; at -20 dB no frame delivers.  One untraced call
        # first pays the one-time costs, which would inflate the first peak.
        monkeypatch.setattr(simulator, "CHUNK_FRAMES", 4096)
        deliveries(cfg(scheme="CR-NOMA", M=4, snr_db=-20.0, frames=100_000))
        peaks = []
        for frames in (100_000, 1_600_000):
            c = cfg(scheme="CR-NOMA", M=4, snr_db=-20.0, frames=frames)
            tracemalloc.start()
            try:
                deliveries(c)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_event_log_draws_once_per_pair_and_block(self, monkeypatch):
        # one pass: each of the 2 pairs draws each of its chunks once for
        # both users (the 20-frame warm-up in blocks of at most 7 frames, then
        # one per batch), and the arrays match a call that draws the warm-up
        # in one block
        c = cfg(scheme="CR-NOMA", M=4, frames=50, warmup=20)
        whole = deliveries(c)
        calls = []

        def counting(rng, size):
            calls.append(size)
            return draw(rng, size)

        draw = simulator.draw_gains
        monkeypatch.setattr(simulator, "CHUNK_FRAMES", 7)
        monkeypatch.setattr(simulator, "draw_gains", counting)
        chunked = deliveries(c)
        assert len(calls) == c.M // 2 * len(list(simulator._chunks(c))) == 2 * 23
        assert list(chunked) == list(whole)
        for user, (times, ages) in whole.items():
            assert np.array_equal(chunked[user][0], times)
            assert np.array_equal(chunked[user][1], ages)


class TestWalk:
    def test_one_function_draws_gains(self):
        # the per-pair generators, the chunk walk, the gain draw and the t=0
        # state are said once, in the walk that run_many and deliveries share
        tree = ast.parse(inspect.getsource(simulator))
        callers = [fn.name for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Name) and node.id == "draw_gains"]
        assert callers == ["_walk"]

    def test_m_folded_into_stream(self):
        # one seed at two network sizes: pair 1's first chunk must differ, or
        # grid points of different M would share draws
        g4, g8 = (next(simulator._walk(cfg(M=M, seed=5)))[5] for M in (4, 8))
        assert g4.shape == g8.shape and not np.array_equal(g4, g8)

    def test_no_retry_before_frame_0(self):
        # under CR-NOMA/GAW, U_m' retries in slot m only after failing slot m'
        # of the frame before, so nothing is pending at t=0 and no user m'
        # delivers at the end of slot m of frame 0; with a retry pending at
        # t=0, 15 of these 40 pairs deliver there
        M = 8
        for seed in range(10):
            c = cfg(scheme="CR-NOMA", M=M, T=0.5, snr_db=20.0, frames=40,
                    warmup=0, seed=seed)
            events = deliveries(c)
            for m in range(1, M // 2 + 1):
                times, _ages = events[m + M // 2]
                assert m * c.T not in times[1:]


class TestHandBuiltGains:
    def test_gar_retry_of_user_m_in_slot_mp(self, monkeypatch):
        # CR-NOMA/GAR, M=2, R=1 (eps=1), P = P_S = 1, T=0.5; the columns are
        # U_m and U_m' in slot m, then U_m and U_m' in slot m'.  Frame 0: U_m'
        # delivers in slot m, so U_m retries alone in slot m' and succeeds.
        # Frame 1: U_m' retries in slot m', so U_m is capped and fails.
        rows = iter([[0.5, 2.0, 1.2, 2.0], [0.5, 0.1, 1.2, 2.0]])
        monkeypatch.setattr(simulator, "draw_gains", lambda rng, size: np.array(
            [next(rows) for _ in range(size[0])]))
        c = SystemConfig(M=2, T=0.5, R=1.0, P=1.0, P_S=1.0, scheme="CR-NOMA",
                         gen_model="GAR", frames=2, warmup_frames=0, seed=0)
        events = deliveries(c)
        assert list(events) == [1, 2]
        assert events[1][0].tolist() == [0.0, 1.0]
        assert events[1][1].tolist() == [0.5, 1.0]
        assert events[2][0].tolist() == [0.0, 0.5, 2.0]
        assert events[2][1].tolist() == [1.0, 0.5, 1.0]


class TestMetamorphic:
    """Relations that hold exactly on common draws (M=6, T=0.7, 5003 frames,
    warm-up 17, seed 11)."""

    @staticmethod
    def run_at(scheme, gen_model, T=0.7, R=1.0, P=1.0, P_S=1.0):
        return run_many([SystemConfig(M=6, T=T, R=R, P=P, P_S=P_S, scheme=scheme,
                                      gen_model=gen_model, frames=5003,
                                      warmup_frames=17, seed=11)])[0]

    @pytest.mark.parametrize("gen", GEN_MODELS)
    def test_tdma_ignores_secondary_power(self, gen):
        assert (self.run_at("TDMA", gen, P_S=2.0)
                == self.run_at("TDMA", gen, P_S=0.1))

    @pytest.mark.parametrize("gen", GEN_MODELS)
    @pytest.mark.parametrize("P", [0.3, 1.0, 10.0])
    def test_crnoma_without_secondary_power_is_tdma(self, gen, P):
        # no attempt at P_S = 1e-300 can succeed
        assert (self.run_at("CR-NOMA", gen, P=P, P_S=1e-300)
                == self.run_at("TDMA", gen, P=P, P_S=1e-300))

    def test_gaw_error_free_crnoma_is_tdma(self):
        # at R = 0 every primary succeeds, so no second chance is taken
        assert (self.run_at("CR-NOMA", "GAW", R=0.0)
                == self.run_at("TDMA", "GAW", R=0.0))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("gen", GEN_MODELS)
    def test_slot_length_only_scales(self, scheme, gen):
        unit = self.run_at(scheme, gen, T=1.0)
        for T in (0.3, 0.7, 1.5, 13.0):
            r = self.run_at(scheme, gen, T=T)
            for got, want in ((r.per_user_aoi, unit.per_user_aoi),
                              (r.per_user_halfwidth, unit.per_user_halfwidth),
                              ([r.overall_aoi, r.overall_halfwidth],
                               [unit.overall_aoi, unit.overall_halfwidth])):
                assert got == pytest.approx([T * w for w in want], rel=1e-12)


class TestRunMany:
    @pytest.mark.parametrize("gen", ["GAW", "GAR"])
    def test_equals_run_per_config(self, gen):
        # both schemes on mixed T, R and SNR; some configs differ only in T,
        # one repeats, and the last chunk is shorter than the others
        points = [(0.5, 1.0, 0.0), (1.5, 1.0, 0.0), (1.0, 0.5, 10.0),
                  (0.5, 1.5, 5.0), (0.5, 1.0, 0.0)]
        configs = [cfg(scheme=scheme, gen_model=gen, M=6, T=T, R=R, snr_db=snr,
                       frames=3001, warmup=17, seed=12)
                   for scheme in ("TDMA", "CR-NOMA") for T, R, snr in points]
        assert run_many(configs) == [r for c in configs for r in run_many([c])]

    @pytest.mark.parametrize("field,value", [
        ("M", 4), ("gen_model", "GAR"), ("frames", 2001),
        ("warmup_frames", 11), ("seed", 6)])
    def test_rejects_unshared_configs(self, field, value):
        c = cfg(frames=2000)
        with pytest.raises(ValueError, match="sharing"):
            run_many([c, replace(c, **{field: value})])

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            run_many([])


@st.composite
def shared_draws(draw):
    """(chunk size, configs): one to three configs sharing M, model, horizon
    and seed, each with its own scheme, T, R and P != P_S; the horizon is not
    a multiple of 20 frames and neither is its post-warm-up window."""
    M = draw(st.sampled_from(range(2, 13, 2)))
    gen_model = draw(st.sampled_from(GEN_MODELS))
    warmup = draw(st.integers(0, 30))
    used = draw(st.integers(21, 160).filter(lambda n: n % 20))
    assume((warmup + used) % 20)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    snr_db = st.floats(-10.0, 30.0)
    configs = []
    for _ in range(draw(st.integers(1, 3))):
        P, P_S = db_to_linear(draw(snr_db)), db_to_linear(draw(snr_db))
        assume(P != P_S)
        configs.append(SystemConfig(
            M=M, T=draw(st.floats(0.1, 5.0)), R=draw(st.floats(0.0, 3.0)),
            P=P, P_S=P_S, scheme=draw(st.sampled_from(SCHEMES)),
            gen_model=gen_model, frames=warmup + used, warmup_frames=warmup,
            seed=seed))
    return draw(st.integers(2, 40)), configs


class TestDifferential:
    """Randomized checks of the chunked kernel, with CHUNK_FRAMES small so
    that origins and the previous frame's U_m' slot-m' gain cross many chunk
    edges."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(shared_draws())
    def test_run_matches_renewal_oracle(self, draws):
        chunk, configs = draws
        with mock.patch.object(simulator, "CHUNK_FRAMES", chunk):
            for c in configs:
                expect = oracle.renewal_aoi(deliveries(c),
                                            c.frames * c.frame_duration,
                                            c.warmup_frames * c.frame_duration)
                [r] = run_many([c])
                for k in range(c.M):
                    assert (abs(r.per_user_aoi[k] - expect[k + 1])
                            <= 1e-9 * max(1.0, expect[k + 1]))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(shared_draws(), st.data())
    def test_run_many_of_a_subset_equals_run(self, draws, data):
        chunk, configs = draws
        subset = data.draw(st.lists(st.sampled_from(configs), min_size=1,
                                    max_size=len(configs) + 1))
        with mock.patch.object(simulator, "CHUNK_FRAMES", chunk):
            assert run_many(subset) == [r for c in subset for r in run_many([c])]


@st.composite
def protocol_configs(draw):
    """One config of each scheme and model on common draws, at rates and
    powers where primary and secondary attempts often succeed and often
    fail; P != P_S is allowed."""
    warmup = draw(st.integers(0, 30))
    snr_db = st.floats(-5.0, 15.0)
    P, P_S = db_to_linear(draw(snr_db)), db_to_linear(draw(snr_db))
    shared = dict(M=draw(st.sampled_from((2, 4, 6, 8))), T=draw(st.floats(0.1, 5.0)),
                  R=draw(st.floats(0.25, 2.0)), P=P, P_S=P_S,
                  frames=warmup + draw(st.integers(20, 200)), warmup_frames=warmup,
                  seed=draw(st.integers(0, 2 ** 32 - 1)))
    return [SystemConfig(scheme=scheme, gen_model=gen, **shared)
            for scheme in SCHEMES for gen in GEN_MODELS]


def reference_deliveries(c):
    """``c``'s deliveries as user -> (times, reset ages) lists, t=0 record
    first, replayed frame by frame and slot by slot from the gains that
    ``simulator._walk`` draws, with scalar code written from the protocol
    and no other simulator code.  Slot k of frame f ends at (f*M + k)*T.
    TDMA: each user sends in its own slot.  CR-NOMA pairs U_m with U_m' =
    U_(m+M/2); a secondary is decoded first, capped by the primary's
    interference, and at P_S.  GAW: U_m is primary in slot m and, if that
    failed, secondary in slot m'; U_m' is primary in slot m' and, if that
    failed, secondary in slot m of the next frame.  GAR: both generate at
    frame start, U_m' is secondary in slot m and, if that failed, primary in
    slot m'; U_m, failing slot m, retries in slot m' interference-free if U_m'
    is silent there; an update undelivered at frame end is dropped."""
    M, h, T, eps, P, P_S = c.M, c.M // 2, c.T, c.eps, c.P, c.P_S
    gar = c.gen_model == "GAR"
    log = {k: ([0.0], [(k if gar else 1) * T]) for k in range(1, M + 1)}

    def deliver(user, slot):   # at the end of ``slot`` of frame f
        log[user][0].append((f * M + slot) * T)
        log[user][1].append((slot if gar else 1) * T)

    for m, _resets, start, _n, _batch, gains, _prev in simulator._walk(c):
        mp = m + h
        if start == 0:
            retry = False   # U_m' has no retry pending before frame 0
        for f, (g_m_m, g_mp_m, g_m_mp, g_mp_mp) in enumerate(gains.T.tolist(), start):
            if c.scheme == "TDMA":
                if primary_success(P, g_m_m, eps):
                    deliver(m, m)
                if primary_success(P, g_mp_mp, eps):
                    deliver(mp, mp)
            elif not gar:
                m_ok = primary_success(P, g_m_m, eps)
                if m_ok:
                    deliver(m, m)
                if retry and secondary_capped_success(P_S, g_mp_m, P, g_m_m, eps):
                    deliver(mp, m)
                if not m_ok and secondary_capped_success(P_S, g_m_mp, P, g_mp_mp, eps):
                    deliver(m, mp)
                retry = not primary_success(P, g_mp_mp, eps)
                if not retry:
                    deliver(mp, mp)
            else:
                m_ok = primary_success(P, g_m_m, eps)
                mp_ok = secondary_capped_success(P_S, g_mp_m, P, g_m_m, eps)
                if m_ok:
                    deliver(m, m)
                if mp_ok:
                    deliver(mp, m)
                if not m_ok and (primary_success(P_S, g_m_mp, eps) if mp_ok else
                                 secondary_capped_success(P_S, g_m_mp, P, g_mp_mp, eps)):
                    deliver(m, mp)
                if not mp_ok and primary_success(P, g_mp_mp, eps):
                    deliver(mp, mp)
    return log


class TestReferenceModel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(protocol_configs())
    def test_deliveries_match_slot_by_slot_reference(self, configs):
        # every delivery time and reset age, exactly; each batch edge also
        # cuts a chunk, so a pending U_m' retry crosses many chunk edges
        for c in configs:
            got = {u: (times.tolist(), ages.tolist())
                   for u, (times, ages) in deliveries(c).items()}
            assert got == reference_deliveries(c)


class TestDeterminism:
    def test_seed_changes_results(self):
        [a] = run_many([cfg(frames=2000, seed=1)])
        [b] = run_many([cfg(frames=2000, seed=2)])
        assert a.per_user_aoi != b.per_user_aoi


class TestResetAges:
    def test_gaw_resets_always_to_T(self):
        for scheme in ("TDMA", "CR-NOMA"):
            events = logged_events(cfg(scheme=scheme, frames=2000))
            for _times, _slots, ages in events.values():
                assert np.all(ages == 1.5)

    def test_gar_resets_in_pair_slots(self):
        M, T = 8, 0.5
        events = logged_events(cfg(scheme="CR-NOMA", gen_model="GAR",
                                   M=M, T=T, frames=2000))
        for k, (_times, _slots, ages) in events.items():
            m = k if k <= M // 2 else k - M // 2
            allowed = {m * T, (m + M // 2) * T}
            assert set(np.unique(ages[1:])) <= allowed

    def test_tdma_gar_resets_to_kT(self):
        events = logged_events(cfg(scheme="TDMA", gen_model="GAR",
                                   M=8, T=0.5, frames=2000))
        for k, (_times, _slots, ages) in events.items():
            assert np.all(ages[1:] == k * 0.5)


class TestErrorFreeChannel:
    @pytest.mark.parametrize("scheme", ["TDMA", "CR-NOMA"])
    def test_gaw_exact(self, scheme):
        [r] = run_many([cfg(scheme=scheme, R=0.0, frames=1000, warmup=10)])
        assert r.overall_aoi == pytest.approx(1.5 + 8 * 1.5 / 2, rel=1e-12)

    def test_gar_tdma_exact(self):
        [r] = run_many([cfg(scheme="TDMA", gen_model="GAR", M=8, T=0.5, R=0.0,
                            frames=1000, warmup=10)])
        for k in range(8):
            assert r.per_user_aoi[k] == pytest.approx((k + 1) * 0.5 + 2.0, rel=1e-12)

    def test_gar_crnoma_exact(self):
        # every user succeeds at its first opportunity (slot m of its pair)
        [r] = run_many([cfg(scheme="CR-NOMA", gen_model="GAR", M=8, T=0.5, R=0.0,
                            frames=1000, warmup=10)])
        for k in range(8):
            m = k + 1 if k < 4 else k - 3
            assert r.per_user_aoi[k] == pytest.approx(m * 0.5 + 2.0, rel=1e-12)


class TestAgainstClosedForms:
    GRID = [(scheme, gen, M, T, R, snr)
            for scheme in ("TDMA", "CR-NOMA")
            for gen in ("GAW", "GAR")
            for (M, T, R, snr) in [(4, 0.5, 1.0, 0.0), (8, 1.5, 0.5, 5.0),
                                   (8, 0.5, 1.0, 10.0)]]

    @pytest.mark.parametrize("scheme,gen,M,T,R,snr", GRID)
    def test_overall_within_3_sigma(self, scheme, gen, M, T, R, snr):
        c = cfg(scheme=scheme, gen_model=gen, M=M, T=T, R=R, snr_db=snr,
                frames=40_000, seed=11)
        [r] = run_many([c])
        expect = analytic.closed_form_aoi(scheme, gen, M, T, c.eps, c.P, c.P)
        assert abs(r.overall_aoi - expect) < max(r.overall_halfwidth, 0.02 * expect)

    def test_report_mean_invariant(self):
        [r] = run_many([cfg(frames=2000)])
        assert r.overall_aoi == pytest.approx(np.mean(r.per_user_aoi), abs=1e-12)


class TestEventStatistics:
    def test_crnoma_gaw_frequencies_match_partition(self):
        c = cfg(scheme="CR-NOMA", gen_model="GAW", M=4, T=1.0, frames=100_000,
                warmup=0, seed=9)
        events = logged_events(c)
        part = analytic.gaw_partition(c.eps, c.P, c.P_S)
        M, T = c.M, c.T
        for m in (1, 2):  # the m-side of each pair
            times, slots, _ages = events[m]
            slots = slots[1:]
            times = times[1:]
            frames_first = np.count_nonzero(slots == m)
            # second-chance successes for user m happen in slot m' same frame
            frames_second = np.count_nonzero(slots == m + M // 2)
            n = c.frames
            sigma = 3 * math.sqrt(part.p_first * (1 - part.p_first) / n)
            assert abs(frames_first / n - part.p_first) < sigma
            sigma2 = 3 * math.sqrt(part.p_second * (1 - part.p_second) / n)
            assert abs(frames_second / n - part.p_second) < sigma2
            assert np.all(times > 0)

    def test_crnoma_gaw_renewal_interval_support(self):
        c = cfg(scheme="CR-NOMA", gen_model="GAW", M=4, T=1.0, frames=20_000,
                warmup=0, seed=10)
        events = logged_events(c)
        MT = c.frame_duration
        for times, _slots, _ages in events.values():
            gaps = np.diff(times[1:])  # skip the synthetic t=0 record
            # each user's deliveries come in time order
            assert np.all(gaps > 0)
            # allowed values: x*MT and x*MT +- MT/2 for integer x >= 0
            scaled = gaps / (MT / 2.0)
            assert np.allclose(scaled, np.round(scaled), atol=1e-9)
