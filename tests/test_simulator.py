import ast
import inspect
import math
import os
import threading
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crnoma_aoi import analytic, oracle, simulator
from crnoma_aoi.model import (GEN_MODELS, SCHEMES, SystemConfig, db_to_linear,
                              primary_success, secondary_capped_success)
from crnoma_aoi.simulator import deliveries, run_many


def cfg(scheme="TDMA", gen_model="GAW", M=8, T=1.5, R=1.0, snr_db=0.0,
        frames=20_000, seed=5):
    P = db_to_linear(snr_db)
    return SystemConfig(M=M, T=T, R=R, P=P, P_S=P, scheme=scheme,
                        gen_model=gen_model, frames=frames, seed=seed)


class TestWindowedAverage:
    """Exact time averages of run_many over the whole horizon, on processes
    with known integrals."""

    NEVER = 200.0   # R so large (eps = 2^200 - 1) that nothing is delivered

    def test_ramp(self):
        # no delivery: the GAW age starts at T and ramps for the whole horizon
        [r] = run_many([cfg(R=self.NEVER, M=4, T=1.5, frames=1000)])
        for a in r.per_user_aoi:
            assert a == pytest.approx(1.5 + 1000 * 4 * 1.5 / 2, rel=1e-12)

    def test_linear_ramp_average(self):
        # under GAR user k starts at age k*T (the reset age of its own slot)
        M, T, F = 6, 0.5, 997
        for scheme in ("TDMA", "CR-NOMA"):
            c = cfg(scheme=scheme, gen_model="GAR", R=self.NEVER, M=M, T=T,
                    frames=F)
            [r] = run_many([c])
            for k, a in enumerate(r.per_user_aoi, start=1):
                assert a == pytest.approx(k * T + F * M * T / 2, rel=1e-12)
            # no chunk delivers, so each user's record is its t=0 entry alone
            events = deliveries(c)
            assert list(events) == list(range(1, M + 1))
            for k, (times, ages) in events.items():
                assert times.tolist() == [0.0] and ages.tolist() == [k * T]

    def test_periodic_resets(self):
        # TDMA/GAW at R=0: user k resets to T at the end of slot k of every
        # frame; the first and last partial periods are integrated exactly
        M, T, F = 8, 1.5, 1001
        [r] = run_many([cfg(R=0.0, M=M, T=T, frames=F)])
        for k, a in enumerate(r.per_user_aoi, start=1):
            twice_area = ((k + 1) ** 2 - 1 + (F - 1) * ((M + 1) ** 2 - 1)
                          + (M - k + 1) ** 2 - 1)
            assert a == pytest.approx(twice_area * T / (2 * F * M), rel=1e-12)

    def test_empty_window(self):
        # a zero-length averaging window has no time average
        with pytest.raises(ValueError):
            cfg(frames=0)

    def test_empty_window_rejected(self):
        # a non-empty window shorter than the batch count is rejected
        with pytest.raises(ValueError, match="at least 20 frames"):
            cfg(frames=10)   # fewer frames than batches


class TestKernel:
    PAIRS = [("TDMA", "GAW"), ("CR-NOMA", "GAW"), ("TDMA", "GAR"),
             ("CR-NOMA", "GAR")]

    @pytest.mark.parametrize("scheme,gen", PAIRS)
    def test_chunk_size_invariant(self, monkeypatch, scheme, gen):
        c = cfg(scheme=scheme, gen_model=gen, M=4, frames=1000)
        whole = run_many([c])
        monkeypatch.setattr(simulator, "CHUNK_FRAMES", 7)
        assert run_many([c]) == whole

    def test_origin_dtype_widens_past_int32(self):
        # every origin is below (frames + 1) * M; M = 1 puts that product
        # at 2**31 - 1 exactly, and one frame more is one slot past it
        assert simulator._origin_dtype(2 ** 31 - 2, 1) == np.int32
        assert simulator._origin_dtype(2 ** 31 - 1, 1) == np.int64

    @pytest.mark.parametrize("scheme,gen", PAIRS)
    def test_wide_origins_invariant(self, monkeypatch, scheme, gen):
        c = cfg(scheme=scheme, gen_model=gen, M=4, frames=1000)
        narrow = run_many([c])
        monkeypatch.setattr(simulator, "_origin_dtype", lambda frames, M: np.int64)
        assert run_many([c]) == narrow

    def test_memory_bounded(self, monkeypatch):
        # chunked frames: about 4.3 MiB here (the chunk's gains, drawn and
        # copied into contiguous rows, and its origin arrays), where event
        # arrays for this horizon would take hundreds of MiB; serial, so
        # that the trace sees every pair
        monkeypatch.setattr(simulator, "FORK_CONFIG_PAIR_FRAMES", math.inf)
        tracemalloc.start()
        try:
            run_many([cfg(M=8, frames=2_000_000)])
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
        # both users (each 8- or 9-frame batch in a block of 7 frames and the
        # rest), and the arrays match a call that draws each batch in one block
        c = cfg(scheme="CR-NOMA", M=4, frames=170)
        whole = deliveries(c)
        calls = []

        def counting(rng, size):
            calls.append(size)
            return draw(rng, size)

        draw = simulator.draw_gains
        monkeypatch.setattr(simulator, "CHUNK_FRAMES", 7)
        monkeypatch.setattr(simulator, "draw_gains", counting)
        chunked = deliveries(c)
        assert len(calls) == c.M // 2 * len(list(simulator._chunks(c))) == 2 * 40
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
        g4, g8 = (next(simulator._walk(cfg(M=M, seed=5), 1))[4] for M in (4, 8))
        assert g4.shape == g8.shape and not np.array_equal(g4, g8)


class TestHandBuiltGains:
    def test_gar_retry_of_user_m_in_slot_mp(self, monkeypatch):
        # CR-NOMA/GAR, M=2, R=1 (eps=1), P = P_S = 1, T=0.5; the columns are
        # U_m and U_m' in slot m, then U_m and U_m' in slot m'.  Frame 0: U_m'
        # delivers in slot m, so U_m retries alone in slot m' and succeeds.
        # Frame 1: U_m' retries in slot m', so U_m is capped and fails.  No
        # attempt succeeds at zero gain, in the 18 frames left of the shortest
        # horizon, one frame a batch.
        rows = iter([[0.5, 2.0, 1.2, 2.0], [0.5, 0.1, 1.2, 2.0]] + [[0.0] * 4] * 18)
        monkeypatch.setattr(simulator, "draw_gains", lambda rng, size: np.array(
            [next(rows) for _ in range(size[0])]))
        c = SystemConfig(M=2, T=0.5, R=1.0, P=1.0, P_S=1.0, scheme="CR-NOMA",
                         gen_model="GAR", frames=20, seed=0)
        events = deliveries(c)
        assert list(events) == [1, 2]
        assert events[1][0].tolist() == [0.0, 1.0]
        assert events[1][1].tolist() == [0.5, 1.0]
        assert events[2][0].tolist() == [0.0, 0.5, 2.0]
        assert events[2][1].tolist() == [1.0, 0.5, 1.0]


class TestMetamorphic:
    """Relations that hold exactly on common draws (M=6, T=0.7, 5003 frames,
    seed 11)."""

    @staticmethod
    def run_at(scheme, gen_model, T=0.7, R=1.0, P=1.0, P_S=1.0):
        return run_many([SystemConfig(M=6, T=T, R=R, P=P, P_S=P_S, scheme=scheme,
                                      gen_model=gen_model, frames=5003,
                                      seed=11)])[0]

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
                       frames=3001, seed=12)
                   for scheme in ("TDMA", "CR-NOMA") for T, R, snr in points]
        assert run_many(configs) == [r for c in configs for r in run_many([c])]

    @pytest.mark.parametrize("field,value", [
        ("M", 4), ("gen_model", "GAR"), ("frames", 2001), ("seed", 6)])
    def test_rejects_unshared_configs(self, field, value):
        c = cfg(frames=2000)
        with pytest.raises(ValueError, match="sharing"):
            run_many([c, replace(c, **{field: value})])

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            run_many([])

    @pytest.mark.parametrize("gen", GEN_MODELS)
    def test_report_holds_python_floats(self, gen):
        # the areas are Python ints; a numpy integer among them would wrap
        # silently at long horizons and turn the AoI into np.float64
        [r] = run_many([cfg(scheme="CR-NOMA", gen_model=gen, frames=2000)])
        assert all(type(x) is float for x in (
            *r.per_user_aoi, r.overall_aoi, *r.per_user_halfwidth,
            r.overall_halfwidth))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedPairs:
    """run_many's pairs in forked workers, the parent only coordinating:
    every test must leave no child, and the parent must never pin itself."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch, tmp_path):
        """The usable CPUs, 0 and 1 unless a test changes the list.  A
        worker's request to pin itself is appended to a file, read back by
        :meth:`pins`, and then refused if ``self.refuse`` is set; a request
        from the parent fails the test."""
        cpus, parent = [0, 1], os.getpid()
        self.pin_log, self.parent_pins, self.refuse = tmp_path / "pins", [], False

        def pin(pid, mask):
            if os.getpid() == parent:
                self.parent_pins.append(mask)
                return
            with open(self.pin_log, "a") as fh:
                fh.write(f"{sorted(mask)}\n")
            if self.refuse:
                raise PermissionError("not allowed")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
        yield cpus
        assert self.parent_pins == []
        with pytest.raises(ChildProcessError):   # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def pins(self):
        """The CPU sets the workers asked to be pinned to, sorted."""
        if not self.pin_log.exists():
            return []
        return sorted(ast.literal_eval(line)
                      for line in self.pin_log.read_text().splitlines())

    @staticmethod
    def fork_every_run(monkeypatch, before_pair=None):
        """Fork on any run of two or more pairs.  _pair_areas fails if the
        parent runs it, so that the workers must integrate every pair, and
        calls ``before_pair(m)`` in the worker before it integrates pair m."""
        parent, real = os.getpid(), simulator._pair_areas

        def pair_areas(config, keyed, m):
            assert os.getpid() != parent, f"the parent integrated pair {m}"
            if before_pair:
                before_pair(m)
            return real(config, keyed, m)

        monkeypatch.setattr(simulator, "_pair_areas", pair_areas)
        monkeypatch.setattr(simulator, "FORK_CONFIG_PAIR_FRAMES", 1)
        monkeypatch.setattr(simulator, "FORK_PAIRS", 1)

    @staticmethod
    def fail(m):
        raise LookupError(f"pair {m} failed in a worker")

    @pytest.mark.parametrize("gen", GEN_MODELS)
    def test_reports_equal_serial(self, monkeypatch, gen):
        configs = [cfg(scheme=scheme, gen_model=gen, snr_db=snr, frames=3001,
                       seed=12)
                   for scheme in SCHEMES for snr in (0.0, 10.0)]
        monkeypatch.setattr(simulator, "FORK_CONFIG_PAIR_FRAMES", math.inf)
        serial = run_many(configs)
        self.fork_every_run(monkeypatch)
        assert run_many(configs) == serial
        assert self.pins() == [[0], [1]]   # two workers, each on its own CPU

    def test_more_workers_than_cores(self, monkeypatch, cpus):
        # eight workers share one pipe of eight pairs; a pair lost or read
        # misaligned would change a report or raise
        cpus[:] = range(8)
        configs = [cfg(scheme=scheme, gen_model="GAR", M=16, frames=3001,
                       seed=12) for scheme in SCHEMES]
        monkeypatch.setattr(simulator, "FORK_CONFIG_PAIR_FRAMES", math.inf)
        serial = run_many(configs)
        self.fork_every_run(monkeypatch)
        assert run_many(configs) == serial
        assert self.pins() == [[cpu] for cpu in range(8)]

    @pytest.mark.parametrize("pairs, work, shares", [
        (1, 2, 2), (1, 3, 3), (1, 7, 7), (1, 8, 8), (2, 8, 4), (3, 8, 2),
        (4, 8, 2), (4, 3, 2)])
    def test_processes_bounded(self, monkeypatch, cpus, pairs, work, shares):
        # each worker gets at least FORK_PAIRS = ``pairs`` of the run's 8
        # pairs and FORK_CONFIG_PAIR_FRAMES, 1/``work`` of its 2 configs x
        # 3001 frames x 8 pairs, however many CPUs there are; only a run on
        # all eight CPUs pins its workers, one to each
        cpus[:] = range(8)
        real_fork, forks = os.fork, []

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        self.fork_every_run(monkeypatch)
        monkeypatch.setattr(simulator, "FORK_PAIRS", pairs)
        monkeypatch.setattr(simulator, "FORK_CONFIG_PAIR_FRAMES",
                            2 * 3001 * 8 // work)
        run_many([cfg(scheme=scheme, M=16, frames=3001) for scheme in SCHEMES])
        assert len(forks) == shares
        assert self.pins() == ([[cpu] for cpu in range(8)] if shares == 8 else [])

    def test_pinning_refused(self, monkeypatch):
        # a CPU set the OS will not take leaves each worker where it is
        self.refuse = True
        configs = [cfg(frames=3001)]
        monkeypatch.setattr(simulator, "FORK_CONFIG_PAIR_FRAMES", math.inf)
        serial = run_many(configs)
        self.fork_every_run(monkeypatch)
        assert run_many(configs) == serial
        assert self.pins() == [[0], [1]]   # both asked, both were refused

    def test_exception_reaches_caller(self, monkeypatch):
        # one pair fails: the other worker's areas are not enough
        def fail_3(m):
            if m == 3:
                self.fail(m)

        self.fork_every_run(monkeypatch, fail_3)
        with pytest.raises(LookupError, match="^pair 3 failed in a worker$"):
            run_many([cfg(frames=3001)])

    def test_worker_death_reaches_caller(self, monkeypatch, tmp_path):
        # a worker that ends in mid-pair sends no reply, and is named
        died = tmp_path / "died"

        def die(m):
            if m == 3:
                died.write_text(str(os.getpid()))
                os._exit(1)

        self.fork_every_run(monkeypatch, die)
        with pytest.raises(ChildProcessError) as exc:
            run_many([cfg(frames=3001)])
        assert str(exc.value) == f"run_many worker {died.read_text()} sent no result"

    def test_workers_gone_before_queue_written(self, monkeypatch):
        # 256 pairs take two writes to the queue; the second waits until both
        # workers, failing on their first pair, have ended, and so finds no
        # reader: the caller still gets a worker's exception (the wait is
        # bounded, so that a worker still reading fails the test, not hangs it)
        self.fork_every_run(monkeypatch, self.fail)
        real_fork, real_write, pids, writes = os.fork, os.write, [], []

        def fork():
            pids.append(real_fork())
            return pids[-1]

        def write(fd, data):
            deadline = time.monotonic() + 10
            while writes and time.monotonic() < deadline and any(
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG)
                    is None for pid in pids):
                time.sleep(0.01)
            try:
                return real_write(fd, data)
            except BrokenPipeError:
                writes.append("broken")
                raise
            finally:
                writes.append(len(data))

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "write", write)
        with pytest.raises(LookupError, match="^pair [12] failed in a worker$"):
            run_many([cfg(M=512, frames=20)])
        assert writes == [512, "broken", 512]

    @pytest.mark.parametrize("case", ["thread alive", "one CPU", "M=2",
                                      "one process's work", "one process's pairs"])
    def test_stays_serial(self, monkeypatch, cpus, case):
        # cfg(frames=3001)'s 3001 x 4 pair-frames are not two processes' work,
        # and its 4 pairs not two processes' FORK_PAIRS = 4
        monkeypatch.setattr(simulator, "FORK_CONFIG_PAIR_FRAMES",
                            3001 * 4 // 2 + 1 if case == "one process's work" else 1)
        if case != "one process's pairs":
            monkeypatch.setattr(simulator, "FORK_PAIRS", 1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        if case == "one CPU":
            cpus[:] = [0]
        c = cfg(M=2 if case == "M=2" else 8, frames=3001)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        if case == "thread alive":
            thread.start()
        try:
            run_many([c])
        finally:
            done.set()
            if case == "thread alive":
                thread.join(timeout=10)
        assert not thread.is_alive()


@st.composite
def shared_draws(draw):
    """(chunk size, configs): one to three configs sharing M, model, horizon
    and seed, each with its own scheme, T, R and P != P_S; the horizon is not
    a multiple of 20 frames."""
    M = draw(st.sampled_from(range(2, 13, 2)))
    gen_model = draw(st.sampled_from(GEN_MODELS))
    frames = draw(st.integers(21, 190).filter(lambda n: n % 20))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    snr_db = st.floats(-10.0, 30.0)
    configs = []
    for _ in range(draw(st.integers(1, 3))):
        P, P_S = db_to_linear(draw(snr_db)), db_to_linear(draw(snr_db))
        assume(P != P_S)
        configs.append(SystemConfig(
            M=M, T=draw(st.floats(0.1, 5.0)), R=draw(st.floats(0.0, 3.0)),
            P=P, P_S=P_S, scheme=draw(st.sampled_from(SCHEMES)),
            gen_model=gen_model, frames=frames, seed=seed))
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
                                            c.frames * c.frame_duration)
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
    snr_db = st.floats(-5.0, 15.0)
    P, P_S = db_to_linear(draw(snr_db)), db_to_linear(draw(snr_db))
    shared = dict(M=draw(st.sampled_from((2, 4, 6, 8))), T=draw(st.floats(0.1, 5.0)),
                  R=draw(st.floats(0.25, 2.0)), P=P, P_S=P_S,
                  frames=draw(st.integers(20, 230)), seed=draw(st.integers(0, 2 ** 32 - 1)))
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

    walk = ((m, *chunk) for m in range(1, h + 1) for chunk in simulator._walk(c, m))
    for m, _resets, start, _n, _batch, gains, _prev in walk:
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


class TestErrorFreeChannel:
    @staticmethod
    def exact(k, slot, M=8, T=0.5, F=1000):
        """Time average over F frames of user k, whose age is k*T at t=0 and
        who delivers at the end of ``slot`` of every frame, resetting to
        slot*T: a first ramp of ``slot`` slots from k, F-1 whole frames and
        M - slot slots at the end, each from ``slot``; the steady-state
        average is slot*T + M*T/2."""
        twice_area = (2 * k * slot + slot ** 2 + (F - 1) * (2 * slot * M + M ** 2)
                      + 2 * slot * (M - slot) + (M - slot) ** 2)
        return twice_area * T / (2 * F * M)

    def test_gar_tdma_exact(self):
        [r] = run_many([cfg(scheme="TDMA", gen_model="GAR", M=8, T=0.5, R=0.0,
                            frames=1000)])
        for k in range(1, 9):
            assert r.per_user_aoi[k - 1] == pytest.approx(self.exact(k, k), rel=1e-12)

    def test_gar_crnoma_exact(self):
        # every user succeeds at its first opportunity (slot m of its pair)
        [r] = run_many([cfg(scheme="CR-NOMA", gen_model="GAR", M=8, T=0.5, R=0.0,
                            frames=1000)])
        for k in range(1, 9):
            m = k if k <= 4 else k - 4
            assert r.per_user_aoi[k - 1] == pytest.approx(self.exact(k, m), rel=1e-12)


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
                seed=9)
        events = deliveries(c)
        part = analytic.gaw_partition(c.eps, c.P, c.P_S)
        M, T = c.M, c.T
        for m in (1, 2):  # the m-side of each pair
            times = events[m][0][1:]   # skip the synthetic t=0 record
            # a delivery at the end of slot k (1..M) of frame f is at
            # t = (f*M + k)*T, which gives its slot
            slots = (np.rint(times / T).astype(np.int64) - 1) % M + 1
            frames_first = np.count_nonzero(slots == m)
            # second-chance successes for user m happen in slot m' same frame
            frames_second = np.count_nonzero(slots == m + M // 2)
            n = c.frames
            sigma = 3 * math.sqrt(part.p_first * (1 - part.p_first) / n)
            assert abs(frames_first / n - part.p_first) < sigma
            sigma2 = 3 * math.sqrt(part.p_second * (1 - part.p_second) / n)
            assert abs(frames_second / n - part.p_second) < sigma2
            assert np.all(times > 0)
