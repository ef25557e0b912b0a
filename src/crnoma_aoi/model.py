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
    frames   -- simulation horizon in frames
    warmup_frames -- frames discarded before AoI accumulation
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
    warmup_frames: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("T", "R", "P", "P_S"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.M < 2 or self.M % 2 != 0:
            raise ValueError(f"M must be an even integer >= 2, got {self.M}")
        if self.T <= 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        epsilon_of(self.R)   # R >= 0 and 2^R - 1 within float range
        if self.P <= 0 or self.P_S <= 0:
            raise ValueError("P and P_S must be > 0 (linear SNR)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.gen_model not in GEN_MODELS:
            raise ValueError(f"gen_model must be one of {GEN_MODELS}, got {self.gen_model!r}")
        if self.warmup_frames < 0 or self.frames <= self.warmup_frames:
            raise ValueError("need frames > warmup_frames >= 0, got "
                             f"frames={self.frames}, warmup_frames={self.warmup_frames}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def eps(self) -> float:
        """SINR threshold 2^R - 1."""
        return epsilon_of(self.R)

    @property
    def frame_duration(self) -> float:
        return self.M * self.T


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


def draw_gains(rng: np.random.Generator, size) -> np.ndarray:
    """Draw squared channel magnitudes |h|^2 for h ~ CN(0, 1), i.e. Exp(1)."""
    return rng.exponential(size=size)


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
