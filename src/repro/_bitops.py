"""Bit-packed mod-2 (GF(2)) kernels behind the QEC hot paths.

This is a dependency-free leaf module (numpy only), so importing the
kernels costs no more than numpy; QEC code and tests import them through
the canonical public face :mod:`repro.qec.bitops`.

Every QEC hot path in this repository ultimately does arithmetic over
GF(2): syndrome extraction is a mod-2 matmul of error rows against the
incidence matrix, and decoder dedup compares 0/1 rows for equality.  Both
once ran on byte-wide ``uint8`` arrays — 8× the memory they need — and
syndrome extraction rode a float32 GEMM whose exactness argument caps out at
detector degrees below 2**24 (float32's contiguous-integer range).

This module removes both limits by packing 0/1 rows into ``uint64`` words:

* :func:`pack_rows` / :func:`unpack_rows` — bit ``i`` of a row lands in
  word ``i // 64`` at bit position ``i % 64`` (little bit-order, i.e. the
  ``np.packbits(bitorder="little")`` byte layout viewed as little-endian
  words).  Unused tail bits of the last word are always zero, so packed
  rows compare equal iff the underlying bit rows do — packed words are
  directly usable as dedup keys.
* :func:`popcount_words` — element-wise popcount via ``np.bitwise_count``
  (numpy ≥ 2.0) with a byte-LUT fallback for older numpys; the
  ``REPRO_NO_BITWISE_COUNT`` environment knob forces the fallback so CI
  can exercise both implementations.
* :func:`parity` — GF(2) sums along an axis.  The XOR-fold
  identity ``popcount(a ^ b) ≡ popcount(a) + popcount(b) (mod 2)`` lets a
  whole row reduce to **one** word before the single popcount.
* :func:`mod2_matmul_packed` — the general word-wise AND + popcount
  matmul.  Exact at any size: parity is computed in integers, never
  floats, so the 2**24 ceiling is gone.
* :class:`Mod2GatherPlan` — the *fast* mod-2 matmul for a fixed matrix
  (syndrome extraction's shape: thousands of shots against one incidence
  matrix).  A "method of four Russians" table maps each input **byte**
  (256 values) to its precomputed contribution to the packed output row;
  applying the matrix is then one gather + XOR per input byte instead of
  an AND + popcount per input word per output bit.  On the d=9 benchmark
  workload this runs ~2.7× faster than the float32 GEMM it replaces.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

__all__ = [
    "WORD_BITS",
    "packed_words",
    "pack_rows",
    "unpack_rows",
    "popcount_words",
    "popcount",
    "popcount_impl",
    "parity",
    "mod2_matmul_packed",
    "mod2_matvec_packed",
    "Mod2GatherPlan",
]

#: Bits per packed word.
WORD_BITS = 64

#: Bytes per packed word.
_WORD_BYTES = WORD_BITS // 8


def packed_words(n_bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``n_bits`` bits."""
    return (int(n_bits) + WORD_BITS - 1) // WORD_BITS


# ---------------------------------------------------------------------------
# Packing / unpacking
# ---------------------------------------------------------------------------


def _as_native_words(byte_view: np.ndarray) -> np.ndarray:
    """View little-endian packed bytes as native-order ``uint64`` words."""
    words = byte_view.view("<u8")
    if not words.dtype.isnative:  # big-endian host: materialize native words
        words = words.astype(np.uint64)
    return words


def pack_rows(rows: np.ndarray, n_bits: Optional[int] = None) -> np.ndarray:
    """Pack 0/1 rows ``(R, n)`` into ``(R, packed_words(n))`` uint64 words.

    Bit ``i`` of a row is stored in word ``i // 64`` at position ``i % 64``
    (``1 << (i % 64)``).  Tail bits beyond ``n`` are zero.  A 1-D input is
    treated as a single row and returns a 1-D word vector.
    """
    rows = np.asarray(rows)
    squeeze = rows.ndim == 1
    if squeeze:
        rows = rows[np.newaxis, :]
    if rows.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D rows, got shape {rows.shape}")
    if n_bits is None:
        n_bits = rows.shape[1]
    elif rows.shape[1] != n_bits:
        raise ValueError(f"rows have {rows.shape[1]} bits, expected {n_bits}")
    rows = np.ascontiguousarray(rows.astype(np.uint8, copy=False) & 1)
    n_words = packed_words(n_bits)
    packed_bytes = np.packbits(rows, axis=1, bitorder="little")
    if packed_bytes.shape[1] != n_words * _WORD_BYTES:
        padded = np.zeros((rows.shape[0], n_words * _WORD_BYTES),
                          dtype=np.uint8)
        padded[:, :packed_bytes.shape[1]] = packed_bytes
        packed_bytes = padded
    words = _as_native_words(packed_bytes)
    return words[0] if squeeze else words


def unpack_rows(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: ``(R, W)`` words → ``(R, n_bits)`` uint8."""
    words = np.asarray(words, dtype=np.uint64)
    squeeze = words.ndim == 1
    if squeeze:
        words = words[np.newaxis, :]
    if words.shape[1] != packed_words(n_bits):
        raise ValueError(
            f"expected {packed_words(n_bits)} words for {n_bits} bits, "
            f"got {words.shape[1]}")
    byte_view = np.ascontiguousarray(words).view(np.uint8)
    if not np.little_endian:  # pragma: no cover - big-endian host
        byte_view = words.astype("<u8").view(np.uint8)
    bits = np.unpackbits(byte_view, axis=1, bitorder="little",
                         count=int(n_bits))
    return bits[0] if squeeze else bits


# ---------------------------------------------------------------------------
# Popcount (native np.bitwise_count, byte-LUT fallback)
# ---------------------------------------------------------------------------

#: Popcount of every byte value — the portable fallback kernel.
_POPCOUNT_LUT = np.array([bin(value).count("1") for value in range(256)],
                         dtype=np.uint8)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _use_native_popcount() -> bool:
    return _HAS_BITWISE_COUNT and not os.environ.get("REPRO_NO_BITWISE_COUNT")


def popcount_impl() -> str:
    """``"bitwise_count"`` or ``"lut"`` — which kernel popcount will use.

    Resolved per call (not cached) so the ``REPRO_NO_BITWISE_COUNT``
    environment knob can flip the implementation inside one process; CI
    logs this value to make fallback-path coverage visible.
    """
    return "bitwise_count" if _use_native_popcount() else "lut"


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Element-wise popcount of a uint64 array (same shape, uint8 counts)."""
    words = np.asarray(words, dtype=np.uint64)
    if _use_native_popcount():
        return np.bitwise_count(words)
    byte_view = np.ascontiguousarray(words).view(np.uint8)
    counts = _POPCOUNT_LUT[byte_view].reshape(words.shape + (_WORD_BYTES,))
    return counts.sum(axis=-1, dtype=np.uint8)


def popcount(words: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """Total popcount of a uint64 array, optionally along ``axis``."""
    return popcount_words(words).sum(axis=axis, dtype=np.int64)


def parity(words: np.ndarray, axis: int = -1) -> np.ndarray:
    """GF(2) sum (0/1 ``uint8``) of the bits of ``words`` along ``axis``.

    XOR-folds the words along ``axis`` first — ``popcount(a ^ b)`` has the
    same parity as ``popcount(a) + popcount(b)`` — so only **one** word per
    reduced element pays for a popcount.
    """
    folded = np.bitwise_xor.reduce(np.asarray(words, dtype=np.uint64),
                                   axis=axis)
    return (popcount_words(folded) & np.uint8(1)).astype(np.uint8)


# ---------------------------------------------------------------------------
# Packed mod-2 matmul (AND + popcount)
# ---------------------------------------------------------------------------

#: Row-chunk budget for the broadcast AND in :func:`mod2_matmul_packed`;
#: keeps the (chunk, Rb, W) intermediate around a few MB.
_MATMUL_CHUNK_WORDS = 1 << 19


def mod2_matmul_packed(a_words: np.ndarray,
                       b_words: np.ndarray) -> np.ndarray:
    """GF(2) product of packed row sets: ``out[i, j] = <a_i, b_j> mod 2``.

    ``a_words`` is ``(Ra, W)`` and ``b_words`` is ``(Rb, W)`` over the same
    ``W``-word bit width; the result is ``(Ra, Rb)`` uint8.  Each entry is
    the parity of the AND of the two packed rows — an exact integer
    computation at any operand size (no float32 ceiling).  Row chunking
    bounds the broadcast intermediate to a few MB.
    """
    a_words = np.atleast_2d(np.asarray(a_words, dtype=np.uint64))
    b_words = np.atleast_2d(np.asarray(b_words, dtype=np.uint64))
    if a_words.shape[1] != b_words.shape[1]:
        raise ValueError(
            f"word-width mismatch: {a_words.shape[1]} vs {b_words.shape[1]}")
    n_a, n_words = a_words.shape
    n_b = b_words.shape[0]
    out = np.empty((n_a, n_b), dtype=np.uint8)
    chunk = max(1, _MATMUL_CHUNK_WORDS // max(1, n_b * n_words))
    for start in range(0, n_a, chunk):
        stop = min(start + chunk, n_a)
        pairs = a_words[start:stop, np.newaxis, :] & b_words[np.newaxis, :, :]
        out[start:stop] = parity(pairs, axis=-1)
    return out


def mod2_matvec_packed(a_words: np.ndarray,
                       v_words: np.ndarray) -> np.ndarray:
    """Per-row GF(2) dot product ``<a_i, v> mod 2`` → ``(Ra,)`` uint8."""
    a_words = np.atleast_2d(np.asarray(a_words, dtype=np.uint64))
    v_words = np.asarray(v_words, dtype=np.uint64).ravel()
    if a_words.shape[1] != v_words.shape[0]:
        raise ValueError(
            f"word-width mismatch: {a_words.shape[1]} vs {v_words.shape[0]}")
    return parity(a_words & v_words[np.newaxis, :], axis=-1)


# ---------------------------------------------------------------------------
# Gather-table matmul for a fixed matrix ("method of four Russians")
# ---------------------------------------------------------------------------


class Mod2GatherPlan:
    """Precompiled GF(2) matmul against one fixed ``(n_in, n_out)`` matrix.

    The plan groups the matrix's input bits into bytes and tabulates, for
    every byte position and each of its 256 values, the XOR of the matrix
    rows that byte selects — packed into output words.  The table is built
    by doubling (``table[pos, m | bit] = table[pos, m] ^ row``), costing
    256 XORs per input byte once; applying the matrix to a batch is then

    .. code-block:: python

        for pos in range(n_in_bytes):
            out ^= table[pos, input_bytes[:, pos]]

    one fancy-index gather + XOR per input byte — no per-bit popcount at
    all, and the accumulation is pure XOR so the result is exactly the
    mod-2 product.  This is the syndrome-extraction workhorse: the
    incidence matrix is fixed per decoding graph, and the same plan serves
    every shot block of every experiment on that graph.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(
            np.asarray(matrix).astype(np.uint8, copy=False) & 1)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got {matrix.shape}")
        self.n_in, self.n_out = (int(matrix.shape[0]), int(matrix.shape[1]))
        self.n_out_words = packed_words(self.n_out)
        self.n_in_bytes = (self.n_in + 7) // 8
        rows_packed = pack_rows(matrix, self.n_out)  # (n_in, n_out_words)
        table = np.zeros((self.n_in_bytes, 256, self.n_out_words),
                         dtype=np.uint64)
        for pos in range(self.n_in_bytes):
            base = pos * 8
            for bit in range(min(8, self.n_in - base)):
                mask = 1 << bit
                table[pos, mask:mask * 2] = (table[pos, :mask]
                                             ^ rows_packed[base + bit])
        self._table = table

    @property
    def nbytes(self) -> int:
        """Heap footprint of the gather table."""
        return int(self._table.nbytes)

    def matmul_bytes(self, in_bytes: np.ndarray) -> np.ndarray:
        """``(S, n_in_bytes)`` little-bitorder bytes → ``(S, W_out)`` words."""
        in_bytes = np.asarray(in_bytes, dtype=np.uint8)
        if in_bytes.ndim != 2 or in_bytes.shape[1] < self.n_in_bytes:
            raise ValueError(
                f"expected (S, >= {self.n_in_bytes}) input bytes, got "
                f"{in_bytes.shape}")
        out = np.zeros((in_bytes.shape[0], self.n_out_words), dtype=np.uint64)
        table = self._table
        for pos in range(self.n_in_bytes):
            out ^= table[pos, in_bytes[:, pos]]
        return out

    def matmul_rows(self, rows: np.ndarray) -> np.ndarray:
        """Dense 0/1 ``(S, n_in)`` rows → packed ``(S, W_out)`` product."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.n_in:
            raise ValueError(
                f"expected (S, {self.n_in}) rows, got {rows.shape}")
        rows = np.ascontiguousarray(rows.astype(np.uint8, copy=False) & 1)
        return self.matmul_bytes(
            np.packbits(rows, axis=1, bitorder="little"))

    def matmul_packed(self, in_words: np.ndarray) -> np.ndarray:
        """Packed ``(S, packed_words(n_in))`` rows → packed product."""
        in_words = np.asarray(in_words, dtype=np.uint64)
        if in_words.ndim != 2 \
                or in_words.shape[1] != packed_words(self.n_in):
            raise ValueError(
                f"expected (S, {packed_words(self.n_in)}) words, got "
                f"{in_words.shape}")
        byte_view = np.ascontiguousarray(in_words).view(np.uint8)
        if not np.little_endian:  # pragma: no cover - big-endian host
            byte_view = in_words.astype("<u8").view(np.uint8)
        return self.matmul_bytes(byte_view[:, :self.n_in_bytes])
