import math

import pytest
from hypothesis import assume, given, strategies as st

from crnoma_aoi import analytic
from crnoma_aoi.model import db_to_linear

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


# name -> (function, arguments, value, tolerance): the closed forms at the paper's
# operating points and limits. Tolerance None asks for ==, a dict for pytest.approx.
PINNED = {
    "tdma_gaw_paper_point": (
        analytic.tdma_gaw_aoi, (8, 1.5, EPS1, 1.0), 1.5 + 6.0 * (2.0 * math.e - 1.0),
        {"rel": 1e-12}),
    "tdma_gaw_paper_point_figure": (
        analytic.tdma_gaw_aoi, (8, 1.5, EPS1, 1.0), 28.119, {"abs": 5e-4}),
    "tdma_gaw_error_free": (analytic.tdma_gaw_aoi, (8, 1.5, 0.0, 1.0), 7.5, {}),
    "tdma_gaw_60_db": (analytic.tdma_gaw_aoi, (2, 1.0, 1.0, 1e6), 2.000002, {"rel": 1e-6}),
    **{f"{f}_error_free": (getattr(analytic, f), (0.0, 1.0, 1.0), (0.0, 1.0, 0.0), None)
       for f in ("gaw_partition", "gar_partition_user_m", "gar_partition_user_mprime")},
    "gaw_partition_zero_db": (
        analytic.gaw_partition, (EPS1, 1.0, 1.0),
        (0.5158484798611428, 0.36787944117144233, 0.11627207896741482), {"abs": 1e-12}),
    # P = 5 dB, P_S = 0 dB: the published eps/P_S placement (module docstring)
    "gaw_partition_P_5_db_P_S_0_db": (
        analytic.gaw_partition, (EPS1, db_to_linear(5.0), 1.0),
        (0.5762511101946521, 0.36787944117144233, 0.05586944863390549), {"abs": 1e-12}),
    "delta_kernel_first_slot": (analytic.delta_kernel, (0.0, 1.0, 0.0, 8, 1.5), 6.0, {}),
    "delta_kernel_zero_db": (
        analytic.delta_kernel, (0.515846, 0.367879, 0.116275, 8, 1.5), 19.05, {"abs": 5e-3}),
    "delta_kernel_never_succeeds": (
        analytic.delta_kernel, (1.0, 0.0, 0.0, 8, 1.5), math.inf, None),
    "crnoma_gaw_zero_db": (
        analytic.crnoma_gaw_aoi, (8, 1.5, EPS1, 1.0, 1.0), 20.55, {"abs": 1e-3}),
    "crnoma_gaw_error_free": (analytic.crnoma_gaw_aoi, (8, 1.5, 0.0, 1.0, 1.0), 7.5, {}),
    "crnoma_gaw_40_db": (
        analytic.crnoma_gaw_aoi, (8, 1.5, EPS1, 1e4, 1e4), 7.50, {"abs": 0.01}),
    "crnoma_gaw_50_db": (
        analytic.crnoma_gaw_aoi, (8, 1.5, EPS1, 1e5, 1e5), analytic.gaw_high_snr_aoi(8, 1.5),
        {"rel": 1e-3}),
    "gaw_high_snr_M8": (analytic.gaw_high_snr_aoi, (8, 1.5), 7.5, None),
    "gaw_high_snr_M2": (analytic.gaw_high_snr_aoi, (2, 1.0), 2.0, None),
    "tdma_gar_user5": (
        analytic.tdma_gar_user_aoi, (5, 8, 0.5, EPS1, 1.0), 11.373, {"abs": 5e-4}),
    "tdma_gar_error_free": (analytic.tdma_gar_user_aoi, (5, 8, 0.5, 0.0, 1.0), 4.5, {}),
    "tau_zero_db": (analytic.tau_of, (EPS1, 1.0, 1.0), 0.432332, {"abs": 1e-6}),
    "gar_partition_user_m_zero_db": (
        analytic.gar_partition_user_m, (EPS1, 1.0, 1.0),
        (0.48659356877417326, 0.36787944117144233, 0.14552699005438444), {"abs": 1e-12}),
    "gar_partition_user_m_P_5_db_P_S_0_db": (
        analytic.gar_partition_user_m, (EPS1, db_to_linear(5.0), 1.0),
        (0.22906607137811125, 0.36787944117144233, 0.042040514511864135), {"abs": 1e-12}),
    "gar_partition_user_mprime_zero_db": (
        analytic.gar_partition_user_mprime, (EPS1, 1.0, 1.0),
        (0.5158484798611428, 0.18393972058572117, 0.300211799553136), {"abs": 1e-12}),
    "delta_k0_always_first_slot": (
        analytic.delta_k0, (1, 5, 0.5, analytic.Partition(0.0, 1.0, 0.0)), 0.5, {}),
    "delta_k0_user_mprime_zero_db": (
        analytic.delta_k0, (1, 5, 0.5, analytic.gar_partition_user_mprime(EPS1, 1.0, 1.0)),
        1.626, {"abs": 5e-4}),
    # the prefactor (1 - p0)^2 / (p_first + p_second)^2 = 25/16 is 1 only when
    # the partition sums to 1
    "delta_k0_partition_not_summing_to_one": (
        analytic.delta_k0, (1, 5, 0.5, analytic.Partition(0.5, 0.3, 0.1)), 0.90625,
        {"rel": 1e-12}),
    "crnoma_gar_user2_error_free": (
        analytic.crnoma_gar_user_aoi, (2, 8, 0.5, 0.0, 1.0, 1.0), 2 * 0.5 + 2.0, {}),
    "crnoma_gar_user5_40_db": (
        analytic.crnoma_gar_user_aoi, (5, 8, 0.5, EPS1, 1e4, 1e4), 3.50, {"abs": 0.01}),
    **{f"crnoma_gar_user{m}_50_db": (
        analytic.crnoma_gar_user_aoi, (m, 8, 0.5, EPS1, 1e5, 1e5), m * 0.5 + 2.0,
        {"rel": 1e-3}) for m in (1, 2, 3, 4)},
    "crnoma_gar_M2_error_free": (
        analytic.crnoma_gar_overall, (2, 1.0, 0.0, 1.0, 1.0), 2.0, {}),
    "gar_high_snr_gap_large_eps": (
        analytic.gar_high_snr_gap, (8, 0.5, 1e9), 0.0, {"abs": 1e-8}),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned(name):
    func, args, value, tol = PINNED[name]
    assert func(*args) == (value if tol is None else pytest.approx(value, **tol))


class TestTdmaGaw:
    @given(eps=rate_eps, P=snr)
    def test_monotone(self, eps, P):
        a = analytic.tdma_gaw_aoi(8, 1.0, eps, P)
        assert analytic.tdma_gaw_aoi(8, 1.0, eps * 1.1, P) > a
        assert analytic.tdma_gaw_aoi(10, 1.0, eps, P) > a
        assert analytic.tdma_gaw_aoi(8, 1.0, eps, P * 1.1) < a


class TestGawPartition:
    @given(eps=rate_eps, P=snr, P_S=snr)
    def test_sums_to_one(self, eps, P, P_S):
        assert sum(analytic.gaw_partition(eps, P, P_S)) == pytest.approx(1.0, abs=1e-12)


class TestDeltaKernel:
    @given(p=valid_partitions())
    def test_symmetric_in_y_z(self, p):
        x, y, z = p
        a = analytic.delta_kernel(x, y, z, 8, 1.5)
        b = analytic.delta_kernel(x, z, y, 8, 1.5)
        assert a == pytest.approx(b, rel=1e-12)


class TestCrnomaGaw:
    @given(eps=rate_eps, P=snr)
    def test_never_worse_than_tdma(self, eps, P):
        # past eps/P ~ 25 the success probabilities underflow and the
        # partition degenerates to p0 == 1.0 in double precision
        assume(eps / P <= 25.0)
        assert (analytic.crnoma_gaw_aoi(8, 1.0, eps, P, P)
                <= analytic.tdma_gaw_aoi(8, 1.0, eps, P) * (1 + 1e-12))


class TestTdmaGar:
    def test_out_of_range(self):
        for k in (0, 9):
            with pytest.raises(ValueError):
                analytic.tdma_gar_user_aoi(k, 8, 0.5, EPS1, 1.0)

    def test_overall_is_arithmetic_mean(self):
        M, T, P = 8, 0.5, 1.0
        mean = sum(analytic.tdma_gar_user_aoi(k, M, T, EPS1, P)
                   for k in range(1, M + 1)) / M
        assert analytic.tdma_gar_overall(M, T, EPS1, P) == pytest.approx(mean, rel=1e-12)


class TestGarPartitions:
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
    @given(eps=rate_eps, P=snr)
    def test_prefactor_is_one(self, eps, P):
        p = analytic.gar_partition_user_mprime(eps, P, P)
        # evaluating 1 - p0 loses precision once p0 approaches 1
        assume(p.p0 < 0.9)
        pref = (1.0 - p.p0) ** 2 / (p.p_first + p.p_second) ** 2
        assert pref == pytest.approx(1.0, abs=1e-12)


class TestCrnomaGar:
    def test_odd_m_rejected(self):
        # an odd M has no pairs, and M < 2 has no users
        for M in (7, 1, 0, -2):
            with pytest.raises(ValueError,
                               match=f"^M must be an even integer >= 2, got M={M}$"):
                analytic.crnoma_gar_overall(M, 0.5, EPS1, 1.0, 1.0)

    def test_bad_user_index(self):
        # a user outside 1..M, and an odd M, which has no pairs
        for k, M in ((0, 8), (9, 8), (1, 7)):
            with pytest.raises(ValueError, match=f"M={M}, k={k}"):
                analytic.crnoma_gar_user_aoi(k, M, 0.5, EPS1, 1.0, 1.0)

