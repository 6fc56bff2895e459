"""Bit-packed mod-2 (GF(2)) kernels — the QEC-facing public module.

The implementation lives in :mod:`repro._bitops`, a dependency-free leaf
module.  QEC code and tests should import from here; see
:mod:`repro._bitops` for the kernel documentation (word layout, popcount
strategy, the gather-table matmul).
"""

from __future__ import annotations

from .._bitops import (WORD_BITS, Mod2GatherPlan, mod2_matmul_packed,
                       mod2_matvec_packed, pack_rows, packed_words, parity,
                       popcount, popcount_impl, popcount_words, unpack_rows)

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
