import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from crnoma_aoi import analytic, oracle
from crnoma_aoi.model import db_to_linear

EPS1 = 1.0


class TestEstimateWithCI:
    def test_half_width(self):
        e = oracle.EstimateWithCI.from_count(500, 1000)
        assert e.estimate == 0.5
        assert e.half_width == pytest.approx(3 * math.sqrt(0.25 / 1000))
        assert e.covers(0.51)
        assert not e.covers(0.6)


class TestGawEstimator:
    def test_zero_db_against_lemma(self):
        rng = np.random.default_rng(1)
        part = analytic.gaw_partition(EPS1, 1.0, 1.0)
        est = oracle.estimate_gaw_partition(EPS1, 1.0, 1.0, 10 ** 6, rng)
        for value, e in zip(part, est):
            assert e.covers(value)


class TestGarEstimators:
    def test_error_free(self):
        rng = np.random.default_rng(3)
        user_m, user_mp = oracle.estimate_gar_partitions(0.0, 1.0, 1.0, 10_000, rng)
        assert tuple(e.estimate for e in user_m) == (0.0, 1.0, 0.0)
        assert tuple(e.estimate for e in user_mp) == (0.0, 1.0, 0.0)

    def test_zero_db_against_lemma(self):
        rng = np.random.default_rng(4)
        um, ump = oracle.estimate_gar_partitions(EPS1, 1.0, 1.0, 10 ** 6, rng)
        for value, e in zip(analytic.gar_partition_user_m(EPS1, 1.0, 1.0), um):
            assert e.covers(value)
        for value, e in zip(analytic.gar_partition_user_mprime(EPS1, 1.0, 1.0), ump):
            assert e.covers(value)

    @pytest.mark.parametrize("snr_p,snr_s", [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)])
    def test_user_mprime_lemma_holds_for_any_powers(self, snr_p, snr_s):
        # the user-m' closed forms carry the powers through explicitly, so the
        # event probabilities match even when P != P_S
        P, P_S = db_to_linear(snr_p), db_to_linear(snr_s)
        rng = np.random.default_rng(6)
        _, ump = oracle.estimate_gar_partitions(EPS1, P, P_S, 10 ** 6, rng)
        part = analytic.gar_partition_user_mprime(EPS1, P, P_S)
        for value, e in zip(part, ump):
            assert e.covers(value)


class TestPinnedCounts:
    # Hit counts of the one-array-per-gain estimators (numpy 2.4.6): the
    # blocked kernel must reproduce them bit for bit.  100 003 trials leave a
    # ragged last block; GAW draws before GAR from the same generator.
    COUNTS = {
        (1.0, 1.0): ((51514, 36728, 11761), (48474, 36785, 14744),
                     (51402, 18383, 30218)),
        (2.0, 0.5): ((38345, 60604, 1054), (38045, 60621, 1337),
                     (38443, 2595, 58965)),
    }

    @pytest.mark.parametrize("P,P_S", sorted(COUNTS))
    def test_hit_counts(self, P, P_S):
        rng = np.random.default_rng(11)
        gaw = oracle.estimate_gaw_partition(EPS1, P, P_S, 100_003, rng)
        gm, gp = oracle.estimate_gar_partitions(EPS1, P, P_S, 100_003, rng)
        counts = tuple(tuple(round(e.estimate * e.trials) for e in est)
                       for est in (gaw, gm, gp))
        assert counts == self.COUNTS[(P, P_S)]


class TestMemory:
    @pytest.mark.parametrize("estimator", [oracle.estimate_gaw_partition,
                                           oracle.estimate_gar_partitions])
    def test_peak_bounded_at_a_million_trials(self, estimator):
        # rows are streamed and only one is held in float: about 11 MiB
        # traced, where the whole (3 or 4, trials) draw took 25 and 32 MiB
        tracemalloc.start()
        try:
            estimator(EPS1, 1.0, 1.0, 10 ** 6, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2 ** 20


class TestTrials:
    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize("estimator", [oracle.estimate_gaw_partition,
                                           oracle.estimate_gar_partitions])
    def test_fewer_than_one_rejected(self, estimator, trials):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
            estimator(EPS1, 1.0, 1.0, trials, rng)
        assert rng.bit_generator.state == state   # rejected before any draw

    @pytest.mark.parametrize("trials", [1000.5, 1e3])
    @pytest.mark.parametrize("estimator", [oracle.estimate_gaw_partition,
                                           oracle.estimate_gar_partitions])
    def test_non_integer_rejected(self, estimator, trials):
        # numpy would raise a TypeError of its own at the first draw
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"^trials must be an integer, got {trials}$"):
            estimator(EPS1, 1.0, 1.0, trials, rng)


class TestRenewalAoi:
    @pytest.mark.parametrize("times, ages, t_end, expected", [
        # a delivery every frame (M = 8, T = 1.5), each resetting to T
        (np.arange(0, 51) * 12.0, np.full(51, 1.5), 50 * 12.0, 1.5 + 12.0 / 2),
        (np.array([0.0]), np.array([1.0]), 4.0, 3.0),
        # a record past the window: the interval before it is cut at t_end
        (np.array([0.0, 3.0]), np.array([1.0, 1.0]), 2.0, 2.0),
    ], ids=["uniform-log", "single-interval", "clipped-to-window"])
    def test_time_average(self, times, ages, t_end, expected):
        out = oracle.renewal_aoi({1: (times, ages)}, t_end=t_end)
        assert out[1] == pytest.approx(expected, rel=1e-12)

    def test_empty_log_rejected(self):
        # also a log whose reset ages do not match its delivery times, one
        # whose first record leaves the age before it undefined, and one
        # whose first record lies outside the window
        for times, ages in (([], []), ([0.0, 1.0], [1.0]), ([0.5], [1.0]),
                            ([-0.5, 0.0], [1.0, 1.0])):
            with pytest.raises(ValueError):
                oracle.renewal_aoi({1: (np.array(times), np.array(ages))}, t_end=1.0)

    def test_zero_length_window_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            oracle.renewal_aoi({1: (np.array([0.0]), np.array([1.0]))}, t_end=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_window_rejected(self, bad):
        log = {1: (np.array([0.0]), np.array([1.0]))}
        with pytest.raises(ValueError, match="non-finite"):
            oracle.renewal_aoi(log, t_end=bad)


class TestGeometricMoments:
    def test_domain(self):
        with pytest.raises(ValueError):
            oracle.geometric_moment_check(1.0)
        with pytest.raises(ValueError):
            oracle.geometric_moment_check(0.0)


class TestIndependence:
    def test_imports_only_the_success_predicates(self):
        # the oracle shares the success predicates with the simulator, and
        # the trial-count rule with the CLI, and nothing else: no simulator,
        # analytic, experiments or validation code
        tree = ast.parse(inspect.getsource(oracle))
        package = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith("crnoma_aoi"))
                   or isinstance(node, ast.Import)
                   and any(a.name.startswith("crnoma_aoi") for a in node.names)]
        assert [ast.unparse(node) for node in package] == [
            "from .model import check_trials, primary_success, secondary_capped_success"]
