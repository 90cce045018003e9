"""Discretized torus arithmetic (Torus32).

The real torus ``T = R/Z`` is discretized to 32 bits: the torus element
``t ∈ [0, 1)`` is represented by the ``uint32`` value ``round(t * 2**32)``.
Addition is native wrapping ``uint32`` addition; "multiplication" only ever
happens between an integer and a torus element.
"""

from __future__ import annotations

import numpy as np

#: The discretization modulus 2**32.
TORUS_MODULUS = 1 << 32

_U32 = np.uint32


def double_to_torus(x) -> np.ndarray:
    """Map real numbers (interpreted mod 1) to Torus32 values."""
    frac = np.mod(np.asarray(x, dtype=np.float64), 1.0)
    return (frac * TORUS_MODULUS).astype(np.int64).astype(_U32)


def torus_to_double(t) -> np.ndarray:
    """Map Torus32 values to the centered real interval [-1/2, 1/2)."""
    t = np.asarray(t, dtype=np.uint32).astype(np.int64)
    t = np.where(t >= TORUS_MODULUS // 2, t - TORUS_MODULUS, t)
    return t / TORUS_MODULUS


def encode_message(m, message_space: int) -> np.ndarray:
    """Encode integers mod ``message_space`` as torus points ``m / space``."""
    m = np.mod(np.asarray(m, dtype=np.int64), message_space)
    return ((m * (TORUS_MODULUS // message_space)) % TORUS_MODULUS).astype(_U32)


def decode_message(t, message_space: int) -> np.ndarray:
    """Round torus values to the nearest message in ``Z_message_space``."""
    t = np.asarray(t, dtype=np.uint32).astype(np.uint64)
    step = TORUS_MODULUS // message_space
    shifted = (t + np.uint64(step // 2)) % np.uint64(TORUS_MODULUS)
    return (shifted // np.uint64(step)).astype(np.int64) % message_space


def gaussian_noise(
    rng: np.random.Generator, std_fraction: float, size
) -> np.ndarray:
    """Rounded-Gaussian torus noise with stddev given as a torus fraction."""
    return torus_noise(rng.standard_normal(size), std_fraction)


def torus_noise(normals, std_fraction: float) -> np.ndarray:
    """Standard normal draws as rounded-Gaussian Torus32 noise whose stddev
    is ``std_fraction`` of the torus.  ``rng.normal(0, std)`` is
    ``std * rng.standard_normal()`` bit for bit, so a caller may draw its
    normals one encryption at a time and round them all at once."""
    std = std_fraction * TORUS_MODULUS
    return from_int64(np.rint(np.asarray(normals) * std))


def to_centered_int64(t) -> np.ndarray:
    """Torus32 array as centered int64 in ``[-2**31, 2**31)``."""
    t = np.asarray(t, dtype=np.uint32).astype(np.int64)
    return np.where(t >= TORUS_MODULUS // 2, t - TORUS_MODULUS, t)


def from_int64(v) -> np.ndarray:
    """Wrap arbitrary int64 values back onto the torus (mod 2**32)."""
    return (np.asarray(v, dtype=np.int64) % TORUS_MODULUS).astype(_U32)
