"""IEEE-754 bit-flip primitives.

A single event upset flips one storage or logic bit; on data it maps
directly to XOR-ing one bit of the binary representation.

The scalar float32 word codec (:func:`_word32`, :func:`_value32`)
reads and writes non-NaN words with :mod:`struct` (``"<f"`` /
``"<I"``), which rounds like the float32 conversion and costs a small
fraction of a NumPy scalar round trip.  NaN words take pure bit
moves instead, so a signalling NaN keeps its quiet bit cleared.  The
array forms (:func:`word32_array`, :func:`value32_array`) decode
branch for branch the same.
"""

from __future__ import annotations

import math
import operator
import struct

import numpy as np


_F64_EXP_MASK = np.uint64(0x7FF) << np.uint64(52)
_F64_MANT_MASK = (np.uint64(1) << np.uint64(52)) - np.uint64(1)

_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


def _word32(value: float) -> int:
    """The float32 storage word behind a Python float.

    An IEEE convert instruction *quiets* signalling NaNs (forces
    mantissa bit 22), so a float32 conversion silently rewrites any
    sNaN word and a flip/flip round trip through Python floats would
    not restore the original storage word.  NaNs are therefore
    decoded with pure bit moves, inverting :func:`_value32`'s
    encoding; everything else takes the ordinary rounding conversion,
    with a value beyond the float32 range stored as the signed
    infinity the conversion gives.
    """
    if math.isnan(value):
        as64 = _U64.unpack(_F64.pack(value))[0]
        # A float64 NaN payload living entirely below bit 29 has no
        # float32 counterpart; canonical quiet NaN.
        payload = (as64 >> 29) & 0x7FFFFF or 0x400000
        return (as64 >> 63) << 31 | 0x7F800000 | payload
    try:
        return _U32.unpack(_F32.pack(value))[0]
    except OverflowError:
        return 0xFF800000 if value < 0 else 0x7F800000


def _value32(word: int) -> float:
    """The Python float carrying a float32 storage word bit-exactly.

    NaN words embed their 23-bit payload at the top of the float64
    mantissa (exactly where the hardware widening conversion puts it)
    without executing a conversion, so signalling NaNs keep their
    quiet bit cleared and :func:`_word32` can recover the word.
    """
    if word & 0x7F800000 == 0x7F800000 and word & 0x7FFFFF:
        as64 = (
            (word >> 31) << 63
            | 0x7FF0000000000000
            | (word & 0x7FFFFF) << 29
        )
        return _F64.unpack(_U64.pack(as64))[0]
    return _F32.unpack(_U32.pack(word))[0]


def flip_bit32(value: float, bit: int) -> float:
    """Flip bit ``bit`` (0 = LSB of mantissa, 31 = sign) of a float32.

    An involution on the storage word: flipping the same bit twice
    restores ``float32(value)`` exactly, *including* flips whose
    intermediate word is a signalling NaN (see :func:`_word32`).
    """
    if not 0 <= bit < 32:
        raise ValueError("bit must be in [0, 32)")
    return _value32(_word32(value) ^ 1 << operator.index(bit))


def word32_array(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_word32`: float32 storage words (uint32) of a
    float64 array, branch-for-branch identical to the scalar decode
    (including the NaN-payload recovery and the canonical-quiet-NaN
    fallback for payloads below bit 29)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    as64 = values.view(np.uint64)
    is_nan = ((as64 & _F64_EXP_MASK) == _F64_EXP_MASK) & (
        (as64 & _F64_MANT_MASK) != 0
    )
    with np.errstate(over="ignore", invalid="ignore"):
        normal = values.astype(np.float32).view(np.uint32)
    sign = (as64 >> np.uint64(63)).astype(np.uint32) << np.uint32(31)
    payload = ((as64 >> np.uint64(29)) & np.uint64(0x7FFFFF)).astype(
        np.uint32
    )
    payload = np.where(payload == 0, np.uint32(0x400000), payload)
    return np.where(is_nan, sign | np.uint32(0x7F800000) | payload, normal)


def value32_array(words: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_value32`: float64 carriers of float32 storage
    words, bit-exact (NaN payloads embedded without a conversion, so
    signalling NaNs keep their quiet bit cleared)."""
    words = np.asarray(words, dtype=np.uint32)
    is_nan = ((words & np.uint32(0x7F800000)) == np.uint32(0x7F800000)) & (
        (words & np.uint32(0x7FFFFF)) != 0
    )
    # The widening conversion signals "invalid" on sNaN words; those
    # lanes are discarded below in favour of the bit-moved embedding.
    with np.errstate(invalid="ignore"):
        normal = words.view(np.float32).astype(np.float64)
    as64 = (
        ((words >> np.uint32(31)).astype(np.uint64) << np.uint64(63))
        | _F64_EXP_MASK
        | ((words & np.uint32(0x7FFFFF)).astype(np.uint64) << np.uint64(29))
    )
    return np.where(is_nan, as64.view(np.float64), normal)


def flip_bit32_array(
    values: np.ndarray, bits: int | np.ndarray
) -> np.ndarray:
    """Vectorised :func:`flip_bit32`.

    ``bits`` is a single bit position applied everywhere or an array
    broadcastable against ``values`` (one position per element, as the
    array fault models draw them).  Elementwise identical to the
    scalar flip, including the signalling-NaN involution guarantee.
    """
    bits = np.asarray(bits)
    if bits.size and (bits.min() < 0 or bits.max() >= 32):
        raise ValueError("bit must be in [0, 32)")
    masks = np.left_shift(np.uint32(1), bits.astype(np.uint32))
    return value32_array(word32_array(values) ^ masks)


def flip_bit64(value: float, bit: int) -> float:
    """Flip bit ``bit`` (0 = LSB, 63 = sign) of a float64."""
    if not 0 <= bit < 64:
        raise ValueError("bit must be in [0, 64)")
    as_int = np.float64(value).view(np.uint64)
    flipped = as_int ^ np.uint64(1 << bit)
    return float(flipped.view(np.float64))


def bit_range_bounds(
    bit_range: tuple[int, int] | None, width: int = 32
) -> tuple[int, int]:
    """The ``(low, high)`` bits a flip may hit: ``bit_range``, or the
    whole ``width``-bit word when it is None.

    Raises ``ValueError`` unless ``0 <= low < high <= width``, so a
    bad range fails where it is given, not when a fault first fires.
    """
    low, high = bit_range if bit_range is not None else (0, width)
    if not 0 <= low < high <= width:
        raise ValueError(f"invalid bit_range {bit_range!r} for width {width}")
    return low, high


def random_bitflip(
    value: float,
    rng: np.random.Generator,
    width: int = 32,
    bit_range: tuple[int, int] | None = None,
) -> float:
    """Flip one uniformly-chosen bit of ``value``.

    Parameters
    ----------
    width:
        32 or 64 (storage width being modelled).
    bit_range:
        Optional ``(low, high)`` half-open interval to restrict which
        bits can flip -- e.g. ``(23, 31)`` targets float32 exponent
        bits, the flips most likely to produce large, detectable
        deviations; ``(0, 23)`` targets the mantissa.
    """
    if width not in (32, 64):
        raise ValueError("width must be 32 or 64")
    low, high = bit_range_bounds(bit_range, width)
    bit = int(rng.integers(low, high))
    if width == 32:
        return flip_bit32(value, bit)
    return flip_bit64(value, bit)
