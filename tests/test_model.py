import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crnoma_aoi.model import (SystemConfig, db_to_linear, draw_gains, epsilon_of,
                              primary_success, secondary_capped_success)

positive = st.floats(min_value=1e-3, max_value=1e3)
gains = st.floats(min_value=0.0, max_value=1e3)


class TestEpsilon:
    def test_examples(self):
        assert epsilon_of(1.0) == 1.0
        assert epsilon_of(0.0) == 0.0
        assert epsilon_of(1.5) == pytest.approx(2.0 ** 1.5 - 1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            epsilon_of(-0.1)


class TestDbToLinear:
    def test_examples(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(3.0) == pytest.approx(10.0 ** 0.3)

    # 4000 dB overflows to inf, and -4000 dB underflows to 0
    @pytest.mark.parametrize("x_db", [math.nan, math.inf, -math.inf, 4000.0, -4000.0])
    def test_rejected(self, x_db):
        with pytest.raises(ValueError, match=f"^{x_db} dB is not a finite positive "
                                             "linear power ratio$"):
            db_to_linear(x_db)


class TestDrawGain:
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_stream_is_unit_exponential(self, seed):
        # the simulator's gains are numpy's Exp(1) stream, bit for bit
        n = 50_000
        a = draw_gains(np.random.default_rng(seed), (n, 4))
        b = np.random.default_rng(seed).exponential(size=(n, 4))
        assert a.tobytes() == b.tobytes()


class TestSuccessPredicates:
    def test_primary_boundary_counts_as_success(self):
        assert primary_success(1.0, 1.0, 1.0)
        assert not primary_success(1.0, 0.5, 1.0)

    @pytest.mark.parametrize("P,seed", [(1.0, 11), (2.0, 13)])
    def test_primary_rate(self, P, seed):
        rng = np.random.default_rng(seed)
        g = draw_gains(rng, 10 ** 6)
        rate = np.mean(primary_success(P, g, 1.0))
        assert rate == pytest.approx(math.exp(-1.0 / P), abs=1.5e-3)

    def test_capped_boundary(self):
        assert secondary_capped_success(1.0, 2.0, 1.0, 1.0, 1.0)

    @given(P_S=positive, g_sec=gains, P=positive, g_pri=gains, eps=positive,
           bump=st.floats(min_value=0.0, max_value=10.0))
    def test_capped_monotonicity(self, P_S, g_sec, P, g_pri, eps, bump):
        base = secondary_capped_success(P_S, g_sec, P, g_pri, eps)
        # non-decreasing in g_sec and P_S
        assert secondary_capped_success(P_S, g_sec + bump, P, g_pri, eps) >= base
        assert secondary_capped_success(P_S + bump, g_sec, P, g_pri, eps) >= base
        # non-increasing in g_pri, P, eps
        assert secondary_capped_success(P_S, g_sec, P, g_pri + bump, eps) <= base
        assert secondary_capped_success(P_S, g_sec, P + bump, g_pri, eps) <= base
        assert secondary_capped_success(P_S, g_sec, P, g_pri, eps + bump) <= base

    @given(P_S=positive, g=gains, eps=positive)
    def test_capped_without_interference_is_solo(self, P_S, g, eps):
        assert (secondary_capped_success(P_S, g, 1.0, 0.0, eps)
                == primary_success(P_S, g, eps))


class TestSystemConfig:
    def test_valid(self):
        cfg = SystemConfig(M=8, T=1.5, R=1.0, P=1.0, P_S=1.0)
        assert cfg.eps == 1.0
        assert cfg.frame_duration == 12.0
        SystemConfig(M=np.int64(8), T=1.5, R=1.0, P=1.0, P_S=1.0,
                     frames=np.int32(2000), seed=np.uint32(3))

    @pytest.mark.parametrize("kw", [
        (dict(M=7), "M must be an even integer >= 2, got 7"),
        (dict(M=0), "M must be an even integer >= 2, got 0"),
        (dict(T=0.0), "T must be > 0, got 0.0"),
        (dict(R=-1.0), "R must be >= 0, got -1.0"),
        (dict(P=0.0), "P and P_S must be > 0"),
        (dict(P_S=-1.0), "P and P_S must be > 0"),
        (dict(scheme="FDMA"), "scheme must be one of"),
        (dict(gen_model="GAX"), "gen_model must be one of"),
        (dict(frames=19), "need at least 20 frames, got 19"),
        (dict(frames=-1), "need at least 20 frames, got -1"),
        (dict(M=8.0), "M must be an even integer >= 2, got 8.0"),
        (dict(frames=2000.0), "frames must be an integer, got 2000.0"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(R=2000.0), r"R=2000.0 gives a SINR threshold 2\^R - 1 outside float range$"),
    ])
    def test_invalid(self, kw):
        # each row: the fields that break the config, then the start of the
        # message that names the rule they break
        fields, message = kw
        base = dict(M=8, T=1.5, R=1.0, P=1.0, P_S=1.0)
        base.update(fields)
        with pytest.raises(ValueError, match=f"^{message}"):
            SystemConfig(**base)

    @given(field=st.sampled_from(["T", "R", "P", "P_S"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           T=positive, R=st.floats(min_value=0.0, max_value=10.0),
           P=positive, P_S=positive)
    def test_non_finite_rejected(self, field, bad, T, R, P, P_S):
        kw = dict(M=8, T=T, R=R, P=P, P_S=P_S)
        SystemConfig(**kw)
        kw[field] = bad
        with pytest.raises(ValueError, match="finite"):
            SystemConfig(**kw)

    @pytest.mark.parametrize("seed", [-1, -(2 ** 63)])
    def test_negative_seed_rejected(self, seed):
        SystemConfig(M=4, T=1.0, R=1.0, P=1.0, P_S=1.0, seed=0)
        with pytest.raises(ValueError, match="seed"):
            SystemConfig(M=4, T=1.0, R=1.0, P=1.0, P_S=1.0, seed=seed)
