import math

import pytest
from hypothesis import assume, given, strategies as st

from crnoma_aoi import analytic
from crnoma_aoi.model import db_to_linear, epsilon_of

EPS1 = 1.0  # threshold for R = 1

# eps/P stays <= 220 so e^{eps/P} cannot overflow a double
snr = st.floats(min_value=0.1, max_value=1e4)
rate_eps = st.floats(min_value=1e-3, max_value=20.0)


def valid_partitions():
    # random simplex point with p_first + p_second > 0
    return st.tuples(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ).map(lambda t: (t[0], (1 - t[0]) * t[1] / (t[1] + t[2] + 1e-12),
                     (1 - t[0]) * t[2] / (t[1] + t[2] + 1e-12)))


class TestTdmaGaw:
    def test_paper_operating_point(self):
        assert analytic.tdma_gaw_aoi(8, 1.5, EPS1, 1.0) == pytest.approx(
            1.5 + 6.0 * (2.0 * math.e - 1.0), rel=1e-12)
        assert analytic.tdma_gaw_aoi(8, 1.5, EPS1, 1.0) == pytest.approx(28.119, abs=5e-4)

    def test_error_free(self):
        assert analytic.tdma_gaw_aoi(8, 1.5, 0.0, 1.0) == pytest.approx(7.5)

    def test_high_snr_limit(self):
        assert analytic.tdma_gaw_aoi(2, 1.0, 1.0, 1e6) == pytest.approx(2.000002, rel=1e-6)

    @given(eps=rate_eps, P=snr)
    def test_monotone(self, eps, P):
        a = analytic.tdma_gaw_aoi(8, 1.0, eps, P)
        assert analytic.tdma_gaw_aoi(8, 1.0, eps * 1.1, P) > a
        assert analytic.tdma_gaw_aoi(10, 1.0, eps, P) > a
        assert analytic.tdma_gaw_aoi(8, 1.0, eps, P * 1.1) < a


class TestGawPartition:
    def test_error_free(self):
        p = analytic.gaw_partition(0.0, 1.0, 1.0)
        assert p == (0.0, 1.0, 0.0)

    def test_zero_db(self):
        p = analytic.gaw_partition(EPS1, 1.0, 1.0)
        assert p.p0 == pytest.approx(0.5158484798611428, abs=1e-12)
        assert p.p_first == pytest.approx(0.36787944117144233, abs=1e-12)
        assert p.p_second == pytest.approx(0.11627207896741482, abs=1e-12)

    @given(eps=rate_eps, P=snr, P_S=snr)
    def test_sums_to_one(self, eps, P, P_S):
        assert sum(analytic.gaw_partition(eps, P, P_S)) == pytest.approx(1.0, abs=1e-12)


class TestDeltaKernel:
    def test_perfect_first_slot(self):
        assert analytic.delta_kernel(0.0, 1.0, 0.0, 8, 1.5) == pytest.approx(6.0)

    def test_zero_db_point(self):
        v = analytic.delta_kernel(0.515846, 0.367879, 0.116275, 8, 1.5)
        assert v == pytest.approx(19.05, abs=5e-3)

    def test_never_succeeds_is_divergent(self):
        assert math.isinf(analytic.delta_kernel(1.0, 0.0, 0.0, 8, 1.5))

    @given(p=valid_partitions())
    def test_symmetric_in_y_z(self, p):
        x, y, z = p
        a = analytic.delta_kernel(x, y, z, 8, 1.5)
        b = analytic.delta_kernel(x, z, y, 8, 1.5)
        assert a == pytest.approx(b, rel=1e-12)


class TestCrnomaGaw:
    def test_zero_db(self):
        assert analytic.crnoma_gaw_aoi(8, 1.5, EPS1, 1.0, 1.0) == pytest.approx(
            20.55, abs=1e-3)

    def test_error_free(self):
        assert analytic.crnoma_gaw_aoi(8, 1.5, 0.0, 1.0, 1.0) == pytest.approx(7.5)

    def test_high_snr(self):
        assert analytic.crnoma_gaw_aoi(8, 1.5, EPS1, 1e4, 1e4) == pytest.approx(
            7.50, abs=0.01)
        assert analytic.crnoma_gaw_aoi(8, 1.5, EPS1, 1e5, 1e5) == pytest.approx(
            analytic.gaw_high_snr_aoi(8, 1.5), rel=1e-3)

    @given(eps=rate_eps, P=snr)
    def test_never_worse_than_tdma(self, eps, P):
        # past eps/P ~ 25 the success probabilities underflow and the
        # partition degenerates to p0 == 1.0 in double precision
        assume(eps / P <= 25.0)
        assert (analytic.crnoma_gaw_aoi(8, 1.0, eps, P, P)
                <= analytic.tdma_gaw_aoi(8, 1.0, eps, P) * (1 + 1e-12))


class TestGawHighSnr:
    def test_values(self):
        assert analytic.gaw_high_snr_aoi(8, 1.5) == 7.5
        assert analytic.gaw_high_snr_aoi(2, 1.0) == 2.0


class TestTdmaGar:
    def test_user5(self):
        assert analytic.tdma_gar_user_aoi(5, 8, 0.5, EPS1, 1.0) == pytest.approx(
            11.373, abs=5e-4)

    def test_error_free(self):
        assert analytic.tdma_gar_user_aoi(5, 8, 0.5, 0.0, 1.0) == pytest.approx(4.5)

    def test_access_delay_gap_is_snr_independent(self):
        for P in (0.5, 1.0, 100.0):
            gap = (analytic.tdma_gar_user_aoi(5, 8, 0.5, EPS1, P)
                   - analytic.tdma_gar_user_aoi(1, 8, 0.5, EPS1, P))
            assert gap == pytest.approx(2.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            analytic.tdma_gar_user_aoi(9, 8, 0.5, EPS1, 1.0)

    def test_overall_is_arithmetic_mean(self):
        M, T, P = 8, 0.5, 1.0
        mean = sum(analytic.tdma_gar_user_aoi(k, M, T, EPS1, P)
                   for k in range(1, M + 1)) / M
        assert analytic.tdma_gar_overall(M, T, EPS1, P) == pytest.approx(mean, rel=1e-12)


class TestGarPartitions:
    def test_tau(self):
        assert analytic.tau_of(EPS1, 1.0, 1.0) == pytest.approx(0.432332, abs=1e-6)

    def test_user_m_zero_db(self):
        p = analytic.gar_partition_user_m(EPS1, 1.0, 1.0)
        assert p.p0 == pytest.approx(0.48659356877417326, abs=1e-12)
        assert p.p_first == pytest.approx(0.36787944117144233, abs=1e-12)
        assert p.p_second == pytest.approx(0.14552699005438444, abs=1e-12)

    def test_user_mprime_zero_db(self):
        p = analytic.gar_partition_user_mprime(EPS1, 1.0, 1.0)
        assert p.p0 == pytest.approx(0.5158484798611428, abs=1e-12)
        assert p.p_first == pytest.approx(0.18393972058572117, abs=1e-12)
        assert p.p_second == pytest.approx(0.300211799553136, abs=1e-12)

    def test_error_free(self):
        assert analytic.gar_partition_user_m(0.0, 1.0, 1.0) == (0.0, 1.0, 0.0)
        assert analytic.gar_partition_user_mprime(0.0, 1.0, 1.0) == (0.0, 1.0, 0.0)

    @given(eps=rate_eps, P=snr)
    def test_user_m_sums_to_one_when_powers_match(self, eps, P):
        # the published user-m triple only partitions when P = P_S
        assert sum(analytic.gar_partition_user_m(eps, P, P)) == pytest.approx(
            1.0, abs=1e-12)

    @given(eps=rate_eps, P=snr, P_S=snr)
    def test_user_mprime_sums_to_one(self, eps, P, P_S):
        assert sum(analytic.gar_partition_user_mprime(eps, P, P_S)) == pytest.approx(
            1.0, abs=1e-12)


class TestDeltaK0:
    def test_always_first_slot(self):
        p = analytic.Partition(0.0, 1.0, 0.0)
        assert analytic.delta_k0(1, 5, 0.5, p) == pytest.approx(0.5)

    def test_user_mprime_zero_db(self):
        p = analytic.gar_partition_user_mprime(EPS1, 1.0, 1.0)
        assert analytic.delta_k0(1, 5, 0.5, p) == pytest.approx(1.626, abs=5e-4)

    @pytest.mark.parametrize("partition", ["gar_partition_user_m",
                                           "gar_partition_user_mprime"])
    def test_one_minus_p0_rounded_to_zero_is_divergent(self, partition):
        # R = 0.5 at -20 dB: both slots succeed with probability ~1e-18, so
        # the published p0 rounds to 1 while p_first + p_second stays positive
        P = db_to_linear(-20.0)
        p = getattr(analytic, partition)(epsilon_of(0.5), P, P)
        assert p.p0 == 1.0 and p.p_first + p.p_second > 0.0
        assert analytic.delta_k0(1, 5, 0.5, p) == math.inf

    @given(eps=rate_eps, P=snr)
    def test_prefactor_is_one(self, eps, P):
        p = analytic.gar_partition_user_mprime(eps, P, P)
        # evaluating 1 - p0 loses precision once p0 approaches 1
        assume(p.p0 < 0.9)
        pref = (1.0 - p.p0) ** 2 / (p.p_first + p.p_second) ** 2
        assert pref == pytest.approx(1.0, abs=1e-12)


class TestCrnomaGar:
    def test_user5_zero_db(self):
        assert analytic.crnoma_gar_user_aoi(5, 8, 0.5, EPS1, 1.0, 1.0) == pytest.approx(
            8.00, abs=5e-3)

    def test_error_free_user_m(self):
        assert analytic.crnoma_gar_user_aoi(2, 8, 0.5, 0.0, 1.0, 1.0) == pytest.approx(
            2 * 0.5 + 2.0)

    def test_user5_high_snr(self):
        v = analytic.crnoma_gar_user_aoi(5, 8, 0.5, EPS1, 1e4, 1e4)
        assert v == pytest.approx(3.50, abs=0.01)

    def test_user_m_high_snr(self):
        for m in (1, 2, 3, 4):
            v = analytic.crnoma_gar_user_aoi(m, 8, 0.5, EPS1, 1e5, 1e5)
            assert v == pytest.approx(m * 0.5 + 2.0, rel=1e-3)

    def test_error_free_M2(self):
        assert analytic.crnoma_gar_overall(2, 1.0, 0.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_overall_is_user_mean(self):
        M, T = 8, 0.5
        users = []
        for m in range(1, M // 2 + 1):
            users.append(analytic.crnoma_gar_user_aoi(m, M, T, EPS1, 1.0, 1.0))
            users.append(analytic.crnoma_gar_user_aoi(m + M // 2, M, T, EPS1, 1.0, 1.0))
        assert analytic.crnoma_gar_overall(M, T, EPS1, 1.0, 1.0) == pytest.approx(
            sum(users) / M, rel=1e-12)

    def test_odd_m_rejected(self):
        # an odd M has no pairs, and M < 2 has no users
        for M in (7, 1, 0, -2):
            with pytest.raises(ValueError, match=f"M={M}"):
                analytic.crnoma_gar_overall(M, 0.5, EPS1, 1.0, 1.0)

    def test_bad_user_index(self):
        # a user outside 1..M, and an odd M, which has no pairs
        for k, M in ((0, 8), (9, 8), (1, 7)):
            with pytest.raises(ValueError, match=f"M={M}, k={k}"):
                analytic.crnoma_gar_user_aoi(k, M, 0.5, EPS1, 1.0, 1.0)


class TestGarHighSnrGap:
    def test_value(self):
        assert analytic.gar_high_snr_gap(8, 0.5, EPS1) == pytest.approx(-1.0)

    def test_vanishes_for_large_eps(self):
        assert abs(analytic.gar_high_snr_gap(8, 0.5, 1e9)) < 1e-8

    def test_consistent_with_closed_forms(self):
        P = db_to_linear(50.0)
        tdma = analytic.tdma_gar_user_aoi(5, 8, 0.5, EPS1, P)
        noma = analytic.crnoma_gar_user_aoi(5, 8, 0.5, EPS1, P, P)
        gap = analytic.gar_high_snr_gap(8, 0.5, EPS1)
        assert tdma + gap == pytest.approx(noma, rel=5e-3)

    def test_fairness_gap_high_snr(self):
        P = 1e4
        noma_gap = (analytic.crnoma_gar_user_aoi(5, 8, 0.5, EPS1, P, P)
                    - analytic.crnoma_gar_user_aoi(1, 8, 0.5, EPS1, P, P))
        assert noma_gap == pytest.approx(4 * 0.5 * EPS1 / (1 + EPS1), rel=0.01)
