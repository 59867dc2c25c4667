"""Hash index: build from sequences, query by Hamming distance, save/load.

On-disk layout (all integers little-endian):

    magic "DPH1" | version u16 | width u16 (bits) | strategy tag u8 |
    reserved u8 = 0 | record count u64
    per record: id length u16 | id (UTF-8) | source length u32 |
                hash payload, ceil(width / 8) bytes
    trailer: CRC-32 (zlib) of every preceding byte, u32

Strategy tags: 0 = block, 1 = zigzag, 2 = zigzag_skip_dc.
"""

from __future__ import annotations

import logging
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import (
    BadMagic,
    ChecksumMismatch,
    DuplicateId,
    IndexFormatError,
    KOutOfRange,
    StrategyMismatch,
    TruncatedFile,
    UnsupportedVersion,
    WidthMismatch,
)
from .hashing import STRATEGY_KINDS, PerceptualHash, SelectionStrategy, _hash_batches
from .sequence import MIN_LENGTH, Sequence, _Batch, _batch_of

log = logging.getLogger(__name__)

MAGIC = b"DPH1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHHBBQ")
_ID_LEN = struct.Struct("<H")
_SOURCE_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")


def _pad_rows(rows: np.ndarray) -> np.ndarray:
    """Zero-pad (N, nbytes) packed hashes to whole 8-byte words per row."""
    padded = np.zeros((rows.shape[0], -(-rows.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, :rows.shape[1]] = rows
    return padded


@dataclass(frozen=True, eq=False)
class HashIndex:
    """Records sharing one strategy and width, held as columns.

    Record i is ``ids[i]``, ``source_len[i]`` (bases that produced the
    hash, 0 = unknown) and ``hashes[i]``: the packed hash bytes, most
    significant bit first as in :class:`PerceptualHash`, followed by zero
    bytes up to a multiple of 8, so ``hashes.view(np.uint64)`` is one row
    of whole words per record at no cost. Ids must be non-empty and
    unique, and every bit past the width must be zero.
    """

    strategy: SelectionStrategy
    ids: tuple[str, ...]
    source_len: np.ndarray  # uint32[N]
    hashes: np.ndarray  # uint8[N, 8 * ceil(nbytes / 8)]

    def __post_init__(self):
        ids = tuple(self.ids)
        source_len = np.ascontiguousarray(self.source_len, dtype=np.uint32)
        hashes = np.ascontiguousarray(self.hashes, dtype=np.uint8)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "source_len", source_len)
        object.__setattr__(self, "hashes", hashes)

        nbytes = (self.width + 7) // 8
        row_bytes = -(-nbytes // 8) * 8
        if source_len.shape != (len(ids),) or hashes.shape != (len(ids), row_bytes):
            raise ValueError(
                f"{len(ids)} ids need source_len of shape ({len(ids)},) and hashes of shape "
                f"({len(ids)}, {row_bytes}); got {source_len.shape} and {hashes.shape}"
            )
        if "" in ids:
            raise ValueError("record ids cannot be empty")
        if len(set(ids)) != len(ids):
            seen = set()
            for rid in ids:
                if rid in seen:
                    raise DuplicateId(f"duplicate record id {rid!r}")
                seen.add(rid)
        pad_mask = (1 << (nbytes * 8 - self.width)) - 1
        if np.any(hashes[:, nbytes - 1] & pad_mask) or np.any(hashes[:, nbytes:]):
            raise ValueError("trailing padding bits must be zero")

    @classmethod
    def from_hashes(cls, strategy: SelectionStrategy, ids: Iterable[str],
                    hashes: Iterable[PerceptualHash]) -> "HashIndex":
        """Stack per-record hashes into columns, in the order given."""
        ids, hashes = tuple(ids), list(hashes)
        for rid, h in zip(ids, hashes):
            if h.strategy != strategy:
                raise StrategyMismatch(
                    f"record {rid!r} was hashed with {h.strategy}, index uses {strategy}"
                )
        nbytes = (strategy.k + 7) // 8
        rows = np.frombuffer(b"".join(h.data for h in hashes), dtype=np.uint8)
        return cls(
            strategy=strategy,
            ids=ids,
            source_len=np.fromiter((h.source_len for h in hashes), dtype=np.uint32,
                                   count=len(hashes)),
            hashes=_pad_rows(rows.reshape(len(hashes), nbytes)),
        )

    @property
    def width(self) -> int:
        return self.strategy.k

    @cached_property
    def _id_rank(self) -> np.ndarray:
        """Each record's place among the ids in Python ``str`` order, as intp[N].

        Computed on first use. Query results break distance ties with it.
        """
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        return rank

    @cached_property
    def _columns(self) -> np.ndarray:
        """``hashes`` as read-only uint64[words, N]: row j holds word j of every record.

        Computed on first use. For a hash of at most 64 bits this is a view
        of ``hashes``; a wider one takes one transposed copy, 8 bytes per
        word per record. The scan reads one contiguous row per word.
        """
        columns = np.ascontiguousarray(self.hashes.view(np.uint64).T)
        columns.flags.writeable = False
        return columns

    def __len__(self) -> int:
        return len(self.ids)


def build_index(
    seqs: Iterable[Sequence],
    strategy: SelectionStrategy,
    *,
    window: int | None = None,
    step: int | None = None,
) -> HashIndex:
    """Hash every sequence (or every window of it) into a fresh index.

    Record order follows input order. With ``window`` set, the records are
    the windows of each sequence, ``window`` bases long and ``step`` apart
    (``step`` defaults to the window size, i.e. non-overlapping), with ids
    ``parent:offset`` (0-based offsets). A sequence shorter than the
    window yields none, with a warning. A window under ``MIN_LENGTH``
    bases, a step under 1 and a ``step`` without a ``window`` raise
    ``ValueError``.
    """
    return _build([_batch_of(list(seqs))], strategy, window=window, step=step)


def _build(batches: Iterable[_Batch], strategy: SelectionStrategy, *, window: int | None = None,
           step: int | None = None) -> HashIndex:
    """:func:`build_index` over batches of records, hashing each batch as it arrives.

    An error in a record comes from ``batches`` when it is read. The other
    errors wait until every batch has been read, so that a bad record
    anywhere wins over them. They are, in order: the window arguments, an
    empty index, a record (or window) that ``strategy`` does not fit, and
    a duplicate id. The warnings about parents shorter than the window
    also come once every batch has been read, after those of the reader.
    """
    if window is None:
        bad = None if step is None else "step only makes sense together with window"
    else:
        step = window if step is None else step
        bad = (f"window must be at least {MIN_LENGTH} bp" if window < MIN_LENGTH
               else "step must be positive" if step < 1 else None)
    if bad is not None:
        for _ in batches:  # read on: a bad record anywhere wins
            pass
        raise ValueError(bad)
    if window is not None:
        batches = _windows(batches, window, step)
    ids, rows, source_len = _hash_batches(batches, strategy)
    if not ids:
        raise ValueError("nothing to index: no sequences (or no windows) supplied")
    return HashIndex(strategy, tuple(ids), source_len, _pad_rows(rows))


def _windows(batches: Iterable[_Batch], window: int, step: int) -> Iterator[_Batch]:
    """Each batch's windows, as spans of its codes with ids ``parent:offset``.

    Parents shorter than the window are warned about once the last batch is
    read: after the reader's warnings, and not at all if a record is bad.
    """
    short: list[tuple[str, int]] = []
    for batch in batches:
        ids, starts = [], [np.empty(0, dtype=np.int64)]
        for rid, start, length in zip(batch.ids, batch.starts.tolist(), batch.lengths.tolist()):
            if length < window:
                short.append((rid, length))
                continue
            ids.extend(f"{rid}:{off}" for off in range(0, length - window + 1, step))
            starts.append(np.arange(start, start + length - window + 1, step))
        yield _Batch(ids, np.concatenate(starts), np.full(len(ids), window), batch.codes)
        del batch  # before the next read: a batch may hold one long record
    for rid, length in short:
        log.warning("sequence %r (%d bp) is shorter than the %d bp window; skipped",
                    rid, length, window)


def _words(index: HashIndex, probe: PerceptualHash) -> np.ndarray:
    """A compatible ``probe`` as uint64 words, laid out as a row of ``index.hashes``."""
    if probe.width != index.width:
        raise WidthMismatch(
            f"query hash is {probe.width} bits, index holds {index.width}-bit hashes"
        )
    if probe.strategy != index.strategy:
        raise StrategyMismatch(
            f"query uses {probe.strategy.kind}, index uses {index.strategy.kind}"
        )
    return np.frombuffer(probe.data.ljust(index.hashes.shape[1], b"\0"), dtype=np.uint64)


def _check_k(index: HashIndex, k: int) -> None:
    if not 1 <= k <= len(index):
        raise KOutOfRange(f"k must be within 1..{len(index)}, got {k}")


def _distances(index: HashIndex, words: np.ndarray) -> np.ndarray:
    """Hamming distance from a probe's uint64 ``words`` to every record, as uint16[N].

    uint16 holds the largest distance, 4096 bits, and selects fastest: on a
    2-core Xeon with numpy 2.4.6, ``np.partition`` of 20k distances took
    about 11 µs as uint16, against 31 µs as uint64 and 117 µs as uint8.
    """
    columns = index._columns
    dist = np.bitwise_count(columns[0] ^ words[0]).astype(np.uint16)
    for column, word in zip(columns[1:], words[1:]):
        dist += np.bitwise_count(column ^ word)
    return dist


def _nearest(index: HashIndex, words: np.ndarray, *, k: int | None = None,
             max_dist: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rows within ``max_dist`` of the probe ``words``, or its ``k`` nearest, closest
    first, ties by id; and every record's distance. The caller checks the arguments."""
    dist = _distances(index, words)
    if k is not None:
        # Every record at the kth distance is a candidate, so the id tie-break
        # picks among all of them, exactly as a full sort would.
        max_dist = np.partition(dist, k - 1)[k - 1]
    rows = np.flatnonzero(dist <= max_dist)
    return rows[np.lexsort((index._id_rank[rows], dist[rows]))][:k], dist


def _gather_ids(index: HashIndex, rows: list[int]) -> tuple[str, ...]:
    """The ids of the given rows, in their order, gathered at C level."""
    if len(rows) < 2:  # itemgetter of one row returns the bare id, of none fails
        return tuple(index.ids[i] for i in rows)
    return itemgetter(*rows)(index.ids)


def _hits(index: HashIndex, rows: np.ndarray, dist: np.ndarray) -> list[tuple[str, int]]:
    """(id, distance) for the given rows, in their order."""
    return list(zip(_gather_ids(index, rows.tolist()), dist[rows].tolist()))


def query(index: HashIndex, probe: PerceptualHash, max_dist: int) -> list[tuple[str, int]]:
    """All (id, distance) pairs within ``max_dist``, closest first, ties by id."""
    words = _words(index, probe)
    if not 0 <= max_dist <= index.width:
        raise ValueError(f"max_dist must be within 0..{index.width}, got {max_dist}")
    return _hits(index, *_nearest(index, words, max_dist=max_dist))


def query_topk(index: HashIndex, probe: PerceptualHash, k: int) -> list[tuple[str, int]]:
    """The k nearest (id, distance) pairs, closest first, ties by id."""
    words = _words(index, probe)
    _check_k(index, k)
    return _hits(index, *_nearest(index, words, k=k))


def index_bytes(index: HashIndex) -> bytes:
    """Serialize an index to its binary file format."""
    count, nbytes = len(index), (index.width + 7) // 8
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        index.width,
        STRATEGY_KINDS.index(index.strategy.kind),
        0,
        count,
    )
    joined = "".join(index.ids)
    if joined.isascii():  # one encode; an ASCII id has one byte per character
        encoded = joined.encode("ascii")
        id_len = np.fromiter(map(len, index.ids), dtype=np.int64, count=count)
    else:
        each = [rid.encode("utf-8") for rid in index.ids]
        encoded = b"".join(each)
        id_len = np.fromiter(map(len, each), dtype=np.int64, count=count)
    if count and id_len.max() > 0xFFFF:
        rid = index.ids[int(np.argmax(id_len > 0xFFFF))]
        raise ValueError(f"record id {rid[:32]!r}... is too long to serialize")
    # A record is id length (u16 LE), id, source length (u32 LE) and hash;
    # every byte but the id's belongs to a fixed-size field.
    fixed = np.hstack([
        id_len.astype("<u2").view(np.uint8).reshape(-1, _ID_LEN.size),
        index.source_len.astype("<u4").view(np.uint8).reshape(-1, _SOURCE_LEN.size),
        index.hashes[:, :nbytes],
    ])
    spans = np.column_stack([np.full(count, _ID_LEN.size), id_len,
                             np.full(count, _SOURCE_LEN.size + nbytes)])
    is_id = np.repeat(np.tile([False, True, False], count), spans.ravel())
    out = np.empty(_HEADER.size + is_id.size + _CRC.size, dtype=np.uint8)
    out[:_HEADER.size] = np.frombuffer(header, dtype=np.uint8)
    records = out[_HEADER.size:-_CRC.size]
    records[is_id] = np.frombuffer(encoded, dtype=np.uint8)
    records[~is_id] = fixed.ravel()
    out[-_CRC.size:] = np.frombuffer(_CRC.pack(zlib.crc32(out[:-_CRC.size])), dtype=np.uint8)
    return out.tobytes()


def save_index(index: HashIndex, sink: BinaryIO) -> None:
    """Write the binary format to an open binary file object."""
    sink.write(index_bytes(index))


def load_index(source: BinaryIO) -> HashIndex:
    """Read an index back; the inverse of :func:`save_index`.

    Raises an :class:`IndexFormatError` (BadMagic, UnsupportedVersion,
    TruncatedFile, ChecksumMismatch, or the base class for records that do
    not form a valid index: ids that are empty, repeated or not UTF-8, and
    nonzero padding bits) when the bytes cannot be decoded.
    """
    data = source.read()
    if len(data) < _HEADER.size + _CRC.size:
        raise TruncatedFile(f"index file holds {len(data)} bytes; even an empty index needs "
                            f"{_HEADER.size + _CRC.size}")
    magic, version, width, tag, _reserved, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, found {magic!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"index format version {version} is not supported")

    # Only the variable-length ids need a walk; the fixed-size fields are
    # gathered afterwards from the record start offsets.
    nbytes = (width + 7) // 8
    fixed = _ID_LEN.size + _SOURCE_LEN.size + nbytes
    payload_end = len(data) - _CRC.size
    starts, id_lens = [], []
    offset = _HEADER.size
    for _ in range(count):
        if offset + _ID_LEN.size > payload_end:
            raise TruncatedFile("file ends inside a record id length")
        id_len = data[offset] | data[offset + 1] << 8
        starts.append(offset)
        id_lens.append(id_len)
        offset += fixed + id_len
        if offset > payload_end:
            raise TruncatedFile("file ends inside a record")
    if offset != payload_end:
        raise TruncatedFile(f"{payload_end - offset} unexpected bytes after the last record")

    (stored_crc,) = _CRC.unpack_from(data, payload_end)
    actual_crc = zlib.crc32(data[:payload_end])
    if stored_crc != actual_crc:
        raise ChecksumMismatch(
            f"stored CRC-32 {stored_crc:#010x} != computed {actual_crc:#010x}"
        )

    try:
        if tag >= len(STRATEGY_KINDS):
            raise ValueError(f"unknown strategy tag {tag}; tags run 0..{len(STRATEGY_KINDS) - 1}")
        strategy = SelectionStrategy(kind=STRATEGY_KINDS[tag], k=width)
    except ValueError as exc:
        raise UnsupportedVersion(f"header does not decode to a known strategy: {exc}") from None

    try:
        ids = [data[s + _ID_LEN.size:s + _ID_LEN.size + n].decode("utf-8")
               for s, n in zip(starts, id_lens)]
    except UnicodeDecodeError:
        raise IndexFormatError("record id is not valid UTF-8") from None
    raw = np.frombuffer(data, dtype=np.uint8)
    tail = np.array(starts, dtype=np.int64) + np.array(id_lens, dtype=np.int64) + _ID_LEN.size
    source_len = raw[tail[:, None] + np.arange(_SOURCE_LEN.size)].view("<u4").reshape(-1)
    rows = raw[tail[:, None] + np.arange(_SOURCE_LEN.size, _SOURCE_LEN.size + nbytes)]
    try:
        return HashIndex(strategy=strategy, ids=ids, source_len=source_len,
                         hashes=_pad_rows(rows))
    except (ValueError, DuplicateId) as exc:
        raise IndexFormatError(f"index records are invalid: {exc}") from None
