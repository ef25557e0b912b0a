"""Physical-layer primitives: Rayleigh fading draws, rate thresholds, success predicates.

All powers are linear SNRs (noise normalized to 1); dB only appears at the
CLI boundary via :func:`db_to_linear`.  The success predicates accept scalars
or numpy arrays and evaluate elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCHEMES = ("TDMA", "CR-NOMA")
GEN_MODELS = ("GAW", "GAR")
N_BATCHES = 20   # batch means per simulated time average, each of whole frames


@dataclass(frozen=True)
class SystemConfig:
    """All protocol and channel parameters for one simulation run.

    M        -- number of users / slots per frame (even, >= 2)
    T        -- slot duration in seconds
    R        -- update size per slot-time, bits/s/Hz
    P        -- primary transmit SNR (linear)
    P_S      -- secondary transmit SNR (linear)
    scheme   -- "TDMA" or "CR-NOMA"
    gen_model -- "GAW" (generate-at-will) or "GAR" (generate-at-request)
    frames   -- simulation horizon in frames, averaged from t = 0
    seed     -- non-negative RNG seed
    """

    M: int
    T: float
    R: float
    P: float
    P_S: float
    scheme: str = "TDMA"
    gen_model: str = "GAW"
    frames: int = 200_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("P", "P_S"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        check_M(self.M)
        check_T(self.T)
        check_R(self.R)
        if self.P <= 0 or self.P_S <= 0:
            raise ValueError("P and P_S must be > 0 (linear SNR)")
        check_scheme(self.scheme)
        if self.gen_model not in GEN_MODELS:
            raise ValueError(f"gen_model must be one of {GEN_MODELS}, got {self.gen_model!r}")
        check_frames(self.frames)
        check_seed(self.seed)

    @property
    def eps(self) -> float:
        """SINR threshold 2^R - 1."""
        return epsilon_of(self.R)

    @property
    def frame_duration(self) -> float:
        return self.M * self.T


def check_M(M: int) -> int:
    """M itself, if it is a valid number of users: an even integer >= 2."""
    if M < 2 or M % 2 != 0:
        raise ValueError(f"M must be an even integer >= 2, got {M}")
    return M


def check_T(T: float) -> float:
    """T itself, if it is a valid slot duration: finite and > 0."""
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    return T


def check_R(R: float) -> float:
    """R itself, if it is a valid rate: finite, >= 0, and with 2^R - 1
    within float range."""
    if not math.isfinite(R):
        raise ValueError(f"R must be finite, got {R}")
    epsilon_of(R)
    return R


def check_frames(frames: int) -> int:
    """frames itself, if it is a valid horizon: at least one frame per batch."""
    if frames < N_BATCHES:
        raise ValueError(f"need at least {N_BATCHES} frames, got {frames}")
    return frames


def check_seed(seed: int) -> int:
    """seed itself, if it is a valid seed: an integer >= 0."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_scheme(scheme: str) -> str:
    """scheme itself, if it is one of SCHEMES."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return scheme


def _power(base: float, x: float) -> float:
    """base ** x, with inf where the float power overflows."""
    try:
        return base ** x
    except OverflowError:
        return math.inf


def epsilon_of(R: float) -> float:
    """SINR threshold equivalent to delivering R bits/s/Hz in one slot: 2^R - 1."""
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    eps = _power(2.0, R) - 1.0
    if not math.isfinite(eps):
        raise ValueError(f"R={R} gives a SINR threshold 2^R - 1 outside float range")
    return eps


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to a linear power ratio (a finite positive float)."""
    x = _power(10.0, x_db / 10.0)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{x_db} dB is not a finite positive linear power ratio")
    return x


def check_snr_db(snr_db: float) -> float:
    """snr_db itself, if :func:`db_to_linear` maps it to a valid power."""
    db_to_linear(snr_db)
    return snr_db


def draw_gains(rng: np.random.Generator, size) -> np.ndarray:
    """Draw squared channel magnitudes |h|^2 for h ~ CN(0, 1), i.e. Exp(1)."""
    return rng.standard_exponential(size)


def primary_success(P, g, eps):
    """Interference-free attempt at power P: true iff log2(1 + P*g) >= R,
    i.e. P*g >= eps.  This covers a primary and a secondary whose partner is
    silent (called with P_S).

    Equality counts as success (probability zero under continuous fading).
    """
    return P * g >= eps


def secondary_capped_success(P_S, g_sec, P, g_pri, eps):
    """Secondary user decoded first under SIC, rate capped by the primary's
    interference: true iff P_S*g_sec / (P*g_pri + 1) >= eps."""
    return P_S * g_sec >= eps * (P * g_pri + 1.0)
