"""The batched decoder protocol shared by every syndrome decoder.

PRs 1–4 batched every other hot path in the repository; this module does the
same for decoding.  A decoder that mixes in :class:`SyndromeBatchDecoder`
gains ``decode_batch(syndromes)``: the whole Monte-Carlo shot matrix is
decoded in one call, and — the structural win — shots are **deduplicated to
unique syndromes** first.  At the low physical error rates the paper's
EFT regime assumes, most shots share the empty or a small single-defect
syndrome, so a 1 000-shot experiment typically pays for a few hundred real
decodes (see ``benchmarks/test_qec_throughput.py``).

The module also carries the cross-cutting plumbing the batched pipeline
needs:

* **decode accounting** — process-wide :mod:`repro.obs` counters
  (:func:`batch_decode_stats`) record how many unique syndromes were
  actually decoded; the sampling layer uses them to *prove* that a
  warm-cache re-run decodes nothing.
* **decoder cache tokens** — :func:`decoder_cache_token` derives a stable,
  content-ish key component from a decoder (its name plus configuration),
  folded into the experiment cache key next to the graph fingerprint.
* **counter fold-back** — decoders keep diagnostic counters
  (``fallback_count``, ``predecoded_defects`` …), declared in their
  ``obs_counters`` class attribute and moved with :func:`repro.obs.bump`.
  When decoding happens in worker *processes*, those counters mutate in a
  pickled copy; the fan-out ships their movement home and replays it onto
  the caller's decoder instance (:func:`repro.obs.absorb_instances`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ... import obs
from ..bitops import pack_rows, packed_words, unpack_rows
from .graph import Detector

# ---------------------------------------------------------------------------
# Decode accounting (process-wide, so worker processes can report deltas)
# ---------------------------------------------------------------------------


@dataclass
class BatchDecodeStats:
    """Counters for the batched decode path (process-wide totals)."""

    batch_calls: int = 0
    shots_decoded: int = 0
    syndromes_decoded: int = 0

    @property
    def dedup_factor(self) -> float:
        """Shots served per unique syndrome actually decoded."""
        if self.syndromes_decoded == 0:
            return 0.0
        return self.shots_decoded / self.syndromes_decoded


#: :mod:`repro.obs` name prefix of the batched-decode counters (named
#: after the :class:`BatchDecodeStats` fields).
_COUNTERS = "qec.decode."


def batch_decode_stats() -> BatchDecodeStats:
    """A snapshot of the process-wide batched-decode counters (decodes
    that process shards made for this process included)."""
    return BatchDecodeStats(**obs.read(_COUNTERS))


def reset_batch_decode_stats() -> None:
    """Zero the process-wide batched-decode counters (tests, benchmarks)."""
    obs.reset(_COUNTERS)


def _record_batch(unique_syndromes: int, shots: int) -> None:
    obs.absorb({_COUNTERS + "batch_calls": 1,
                _COUNTERS + "shots_decoded": int(shots),
                _COUNTERS + "syndromes_decoded": int(unique_syndromes)})


def decoder_cache_token(decoder) -> Optional[tuple]:
    """A stable cache-key component describing ``decoder``, or ``None``.

    Uses the decoder's own :meth:`cache_token` (every in-repo decoder
    defines one covering its full configuration).  Decoders without one —
    or whose token resolves to ``None`` (e.g. a predecoder wrapping an
    unknown backing decoder) — yield ``None``, which the sampling layer
    treats as **not cacheable**: a class-name fallback would collide two
    differently-configured instances of the same class and serve one of
    them the other's failure counts.
    """
    token = getattr(decoder, "cache_token", None)
    if callable(token):
        value = token()
        return None if value is None else tuple(value)
    return None


# ---------------------------------------------------------------------------
# The decode_batch mixin
# ---------------------------------------------------------------------------


def _prepare_syndromes(syndromes: np.ndarray,
                       num_detectors: int) -> np.ndarray:
    """Validate and normalize a syndrome matrix to C-contiguous 0/1 uint8.

    Normalization happens exactly **once** here: a transposed or otherwise
    strided view is copied into C order a single time, and an input that is
    already contiguous 0/1 ``uint8`` passes through untouched — the old
    unconditional ``& 1`` re-copied every batch, and downstream packers
    would silently re-copy strided input again per call.  Non-binary
    entries are masked in place only when this function owns the buffer
    (the caller's array is never mutated).
    """
    source = np.asarray(syndromes)
    if source.ndim != 2 or source.shape[1] != num_detectors:
        raise ValueError(
            f"syndromes must be (shots, {num_detectors}), got array of "
            f"shape {source.shape}")
    normalized = np.ascontiguousarray(source, dtype=np.uint8)
    if normalized.size and int(normalized.max()) > 1:
        if np.shares_memory(normalized, source):
            normalized = normalized & 1
        else:
            normalized &= 1
    return normalized


def _dedup_packed(words: np.ndarray) -> tuple:
    """``(unique word rows, first_index, inverse)`` for packed syndromes.

    One fixed-length S-dtype ``np.unique`` over the raw word bytes (rows
    share a length, so trailing-null trimming cannot conflate two distinct
    rows) is several times faster than ``unique(axis=0)``.  Packed rows
    are valid equality keys because :func:`repro.qec.bitops.pack_rows`
    zeroes every tail bit past the row width.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    keys = words.view(f"S{words.shape[1] * words.itemsize}").ravel()
    _, first_index, inverse = np.unique(keys, return_index=True,
                                        return_inverse=True)
    return words[first_index], first_index, np.asarray(inverse).reshape(-1)


def _dedup_syndromes(syndromes: np.ndarray
                     ) -> tuple:
    """``(unique rows, inverse)`` via packed-word row keys (see
    :func:`_dedup_packed`)."""
    words = pack_rows(syndromes)
    _, first_index, inverse = _dedup_packed(words)
    return syndromes[first_index], inverse


def _loop_decode_unique(decoder, unique: np.ndarray,
                        detectors: Sequence[Detector]) -> np.ndarray:
    """Decode each unique syndrome row via the per-shot ``decode``."""
    flips = np.zeros(unique.shape[0], dtype=bool)
    for index in range(unique.shape[0]):
        defects: List[Detector] = [detectors[column] for column
                                   in np.flatnonzero(unique[index])]
        flips[index] = bool(decoder.decode(defects).flips_logical)
    return flips


def batch_decode(decoder, syndromes: np.ndarray,
                 detectors: Sequence[Detector]) -> np.ndarray:
    """Batched decode for *any* decoder with the graph-protocol ``decode``.

    Decoders implementing :class:`SyndromeBatchDecoder` (all in-repo ones)
    dispatch to their own ``decode_batch``; a plain third-party decoder
    exposing only ``decode(defects)`` still gets the dedup shell — unique
    syndromes decode once through a per-shot loop — so the memory-
    experiment drivers keep their historical "any decoder with a
    ``decode(defects)`` method" contract.
    """
    batch = getattr(decoder, "decode_batch", None)
    if callable(batch):
        return batch(syndromes, detectors)
    detectors = list(detectors)
    syndromes = _prepare_syndromes(syndromes, len(detectors))
    if syndromes.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    unique, inverse = _dedup_syndromes(syndromes)
    flips = _loop_decode_unique(decoder, unique, detectors)
    _record_batch(unique.shape[0], syndromes.shape[0])
    return flips[inverse]


def batch_decode_packed(decoder, syndrome_words: np.ndarray,
                        detectors: Sequence[Detector]) -> np.ndarray:
    """Batched decode of bit-packed syndromes for *any* decoder.

    ``syndrome_words`` is ``(shots, packed_words(n_detectors))`` uint64 as
    produced by :func:`repro.qec.bitops.pack_rows` (tail bits zero).
    Dispatches to :meth:`SyndromeBatchDecoder.decode_batch_packed` when
    available; a plain third-party decoder gets the packed dedup shell
    with a per-unique unpack + per-shot ``decode`` loop.
    """
    packed = getattr(decoder, "decode_batch_packed", None)
    if callable(packed):
        return packed(syndrome_words, detectors)
    detectors = list(detectors)
    words = _prepare_syndrome_words(syndrome_words, len(detectors))
    if words.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    unique_words, _, inverse = _dedup_packed(words)
    unique = unpack_rows(unique_words, len(detectors))
    flips = _loop_decode_unique(decoder, unique, detectors)
    _record_batch(unique.shape[0], words.shape[0])
    return flips[inverse]


def _prepare_syndrome_words(words: np.ndarray,
                            num_detectors: int) -> np.ndarray:
    """Validate a packed-syndrome matrix ``(shots, packed_words(n))``."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    expected = packed_words(num_detectors)
    if words.ndim != 2 or words.shape[1] != expected:
        raise ValueError(
            f"packed syndromes must be (shots, {expected}) uint64 for "
            f"{num_detectors} detectors, got shape {words.shape}")
    return words


class SyndromeBatchDecoder:
    """Mixin giving any ``decode(defects)`` decoder a batched entry point.

    ``decode_batch(syndromes)`` takes a ``(shots, n_detectors)`` 0/1 matrix
    whose columns follow :meth:`DecodingGraph.detector_order`, deduplicates
    the rows to unique syndromes (``np.unique``), decodes each unique
    syndrome exactly once, and scatters the per-unique logical-flip verdicts
    back to all shots.  Subclasses with a faster bulk path override
    :meth:`_decode_unique` / :meth:`_decode_unique_packed` and keep the
    dedup/accounting shell: the lookup decoder's vectorized table probe and
    the MWPM decoder's subset-DP matching with its per-graph verdict memo.

    Decoding is deterministic, so deduplication can never change results —
    only how often the underlying decoder runs.  Note that diagnostic
    counters (``fallback_count``, predecoder offload tallies) consequently
    count **unique syndromes**, not shots, on the batched path.
    """

    def decode_batch(self, syndromes: np.ndarray,
                     detectors: Optional[Sequence[Detector]] = None
                     ) -> np.ndarray:
        """Per-shot logical-flip verdicts for a syndrome matrix.

        ``syndromes`` is ``(shots, n_detectors)`` with 0/1 entries; columns
        follow ``detectors`` (default: the graph's canonical
        ``detector_order()``).  Returns a boolean array of length ``shots``:
        whether each shot's correction flips the logical operator.
        """
        graph = self.decoding_graph
        if detectors is None:
            detectors = graph.detector_order()
        else:
            detectors = list(detectors)
        syndromes = _prepare_syndromes(syndromes, len(detectors))
        if syndromes.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        unique, inverse = _dedup_syndromes(syndromes)
        flips = self._decode_unique(unique, detectors)
        _record_batch(unique.shape[0], syndromes.shape[0])
        return np.asarray(flips, dtype=bool)[inverse]

    def decode_batch_packed(self, syndrome_words: np.ndarray,
                            detectors: Optional[Sequence[Detector]] = None
                            ) -> np.ndarray:
        """Per-shot flips for a **bit-packed** syndrome matrix.

        ``syndrome_words`` is ``(shots, packed_words(n_detectors))``
        uint64 in the :func:`repro.qec.bitops.pack_rows` layout (bit ``i``
        of a row in word ``i // 64`` at position ``i % 64``; tail bits
        zero).  Dedup runs directly on the packed words — the dense
        syndrome matrix is never materialized; only the (few) unique rows
        are unpacked for decoders without a packed bulk path.  Bitwise
        identical to ``decode_batch(unpack_rows(words, n))``: decoding is
        deterministic, so the representation of the dedup keys cannot
        change any verdict.
        """
        graph = self.decoding_graph
        if detectors is None:
            detectors = graph.detector_order()
        else:
            detectors = list(detectors)
        words = _prepare_syndrome_words(syndrome_words, len(detectors))
        if words.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        unique_words, _, inverse = _dedup_packed(words)
        flips = self._decode_unique_packed(unique_words, detectors)
        _record_batch(unique_words.shape[0], words.shape[0])
        return np.asarray(flips, dtype=bool)[inverse]

    def _decode_unique(self, unique: np.ndarray,
                       detectors: Sequence[Detector]) -> np.ndarray:
        """Decode each unique syndrome row via the per-shot ``decode``."""
        return _loop_decode_unique(self, unique, detectors)

    def _decode_unique_packed(self, unique_words: np.ndarray,
                              detectors: Sequence[Detector]) -> np.ndarray:
        """Decode unique **packed** rows; default unpacks to the dense hook.

        Subclasses with a packed bulk probe (the lookup decoder) override
        this to avoid the unpack entirely.
        """
        unique = unpack_rows(unique_words, len(detectors))
        return self._decode_unique(unique, detectors)

    def cache_token(self) -> Optional[tuple]:
        """Cache-key component covering this decoder's configuration.

        The default returns ``None`` (the experiment is then not cached):
        only a decoder that *knows* its name pins down its behaviour — as
        the configuration-free :class:`~repro.qec.decoders.mwpm.MWPMDecoder`
        does — should return a token, otherwise two differently-configured
        instances of one class would share cache entries.
        """
        return None
