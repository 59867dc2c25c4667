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
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from . import sequence
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
from .sequence import MIN_LENGTH, Sequence, _Batch, _batch_of, _id_runs, _Ids

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


def _column(values, dtype, name: str) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array; they must be integers that fit it."""
    arr, info = np.asarray(values), np.iinfo(dtype)
    if arr.dtype != dtype and arr.size and (
            arr.dtype.kind not in "iu" or arr.min() < info.min or arr.max() > info.max):
        raise ValueError(f"{name} must hold integers within {info.min}..{info.max}")
    return np.ascontiguousarray(arr, dtype=dtype)


@dataclass(frozen=True, eq=False, init=False)
class HashIndex:
    """Records sharing one strategy and width, held as columns.

    Record i is ``ids[i]``, ``source_len[i]`` (bases that produced the
    hash, 0 = unknown) and ``hashes[i]``: the packed hash bytes, most
    significant bit first as in :class:`PerceptualHash`, followed by zero
    bytes up to a multiple of 8, so ``hashes.view(np.uint64)`` is one row
    of whole words per record at no cost. Ids must be non-empty and
    unique, column values integers that fit the column's type (checked
    before the cast), and every bit past the width must be zero.

    The ids are kept as one UTF-8 column; ``ids`` decodes it on first access.
    ``_id_rank[i]`` is id i's place in Python ``str`` order, from the sort
    that checks the ids for repeats; queries break distance ties with it.
    """

    strategy: SelectionStrategy
    source_len: np.ndarray  # uint32[N]
    hashes: np.ndarray  # uint8[N, 8 * ceil(nbytes / 8)]
    _ids: _Ids = field(repr=False)
    _id_rank: np.ndarray = field(repr=False)  # the smallest unsigned type that holds N - 1

    def __init__(self, strategy: SelectionStrategy, ids: Iterable[str], source_len, hashes):
        # The package passes its ids as a column already; a lone surrogate fails to encode.
        ids = ids if isinstance(ids, _Ids) else _Ids.of(list(ids))
        source_len = _column(source_len, np.uint32, "source_len")
        hashes = _column(hashes, np.uint8, "hashes")
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "source_len", source_len)
        object.__setattr__(self, "hashes", hashes)

        n = len(ids)
        nbytes = (self.width + 7) // 8
        row_bytes = -(-nbytes // 8) * 8
        if source_len.shape != (n,) or hashes.shape != (n, row_bytes):
            raise ValueError(
                f"{n} ids need source_len of shape ({n},) and hashes of shape "
                f"({n}, {row_bytes}); got {source_len.shape} and {hashes.shape}"
            )
        if not np.diff(ids.offsets).all():
            raise ValueError("record ids cannot be empty")
        order, repeat = _id_order(ids)
        if repeat >= 0:
            raise DuplicateId(f"duplicate record id {ids[repeat]!r}")
        rank = np.empty(n, dtype=np.min_scalar_type(n - 1))
        rank[order] = np.arange(n, dtype=rank.dtype)
        object.__setattr__(self, "_id_rank", rank)
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
    def ids(self) -> tuple[str, ...]:
        """Every record's id, in order; decoded from the id column on first access."""
        return tuple(self._ids)

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
        return len(self._ids)


def _id_order(ids: _Ids) -> tuple[np.ndarray, int]:
    """The rows sorted by their ids' UTF-8 bytes, which is Python ``str`` order, and the
    first row, in input order, whose id equals an earlier one (-1 if none does).

    An id's key is its first ``width`` bytes, zero-padded: ``width`` is the longest id,
    or 4 · mean + 1 bytes if that is less, so the keys stay within a few times the id
    column. Rows sort by key, then by length ("a" before "a\\x00", whose keys are equal);
    ids longer than ``width`` that share a key sort again as bytes. Equal ids end up
    neighbours, in input order. The ids must be non-empty. Beside the keys and the order,
    the sort holds one small integer per id and a run of sorted keys at a time.
    """
    n, offsets = len(ids), ids.offsets
    if n < 2:
        return np.arange(n), -1
    lengths = np.diff(offsets)
    lengths = lengths.astype(np.min_scalar_type(lengths.max()))  # a byte each below 256 bytes
    width = int(min(lengths.max(), 4 * offsets[-1] // n + 1))
    keys = np.zeros(n, dtype=f"S{width}")
    cells, data = keys.view(np.uint8).reshape(n, width), np.frombuffer(ids.data, dtype=np.uint8)
    for a, b in _id_runs(offsets):
        kept, run = np.minimum(lengths[a:b], width), data[offsets[a]:offsets[b]]
        if kept.sum() < len(run):  # some ids are cut to the width
            run = run[_id_mask(kept, 0, lengths[a:b] - kept)]
        cells[a:b][np.arange(width) < kept[:, None]] = run
    order = np.lexsort((lengths, keys))
    same = np.empty(n - 1, dtype=bool)  # row i + 1 of the order has row i's key
    step = max(1, sequence._ID_BYTES // width)
    for a in range(0, n - 1, step):  # sorted keys a run at a time, never the whole column
        run = keys[order[a:a + step + 1]]
        same[a:a + step] = run[1:] == run[:-1]
    del keys
    lengths = lengths[order]
    long = lengths > width
    # Neighbours that share a key are equal if they have one length, up to the width.
    repeats = order[1:][same & (lengths[1:] == lengths[:-1]) & ~long[1:]].tolist()
    tied = same & long[1:] & long[:-1]  # neighbours past the width that share a key
    for s, e in np.flatnonzero(np.diff(tied, prepend=False, append=False)).reshape(-1, 2).tolist():
        group = sorted((ids.data[offsets[r]:offsets[r + 1]], r) for r in order[s:e + 1].tolist())
        order[s:e + 1] = [r for _, r in group]
        repeats += [r for (v, _), (w, r) in zip(group, group[1:]) if v == w]
    return order, min(repeats, default=-1)


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
    bases, a step under 1, a window or step over 2**63 - 1 and a ``step``
    without a ``window`` raise ``ValueError``.
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
        step, top = window if step is None else step, np.iinfo(np.int64).max
        bad = (f"window must be at least {MIN_LENGTH} bp" if window < MIN_LENGTH
               else f"window must be at most {top} bp" if window > top
               else "step must be positive" if step < 1
               else f"step must be at most {top}" if step > top else None)
    if bad is not None:
        for _ in batches:  # read on: a bad record anywhere wins
            pass
        raise ValueError(bad)
    if window is not None:
        batches = _windows(batches, window, step)
    ids, rows, source_len = _hash_batches(batches, strategy)
    if not ids:
        raise ValueError("nothing to index: no sequences (or no windows) supplied")
    return HashIndex(strategy, ids, source_len, _pad_rows(rows))


def _windows(batches: Iterable[_Batch], window: int, step: int) -> Iterator[_Batch]:
    """Each batch's windows, as spans of its codes with ids ``parent:offset``.

    The windows come in groups of at most ``sequence._BLOCK_BYTES // 8``, so
    that no int64 column of a group outgrows one reader block, however long
    a parent is; the groups share the batch's codes. Parents shorter than the
    window are warned about once the last batch is read: after the reader's
    warnings, and not at all if a record is bad.
    """
    short: list[tuple[str, int]] = []
    group = max(1, sequence._BLOCK_BYTES // 8)
    for batch in batches:
        short.extend((batch.ids[i], int(batch.lengths[i]))
                     for i in np.flatnonzero(batch.lengths < window).tolist())
        counts = np.maximum((batch.lengths - window) // step + 1, 0)  # windows per parent
        ends = np.cumsum(counts)  # window w of the batch is of the first parent whose end is past w
        firsts, total = ends - counts, int(counts.sum())
        for first in range(0, total, group):
            w = np.arange(first, min(first + group, total))
            parent = np.searchsorted(ends, w, side="right")
            offsets = (w - firsts[parent]) * step
            yield _Batch(_window_ids(batch.ids, parent, offsets),
                         batch.starts[parent] + offsets, np.full(len(w), window), batch.codes)
        del batch  # before the next read: a batch may hold one long record
    for rid, length in short:
        log.warning("sequence %r (%d bp) is shorter than the %d bp window; skipped",
                    rid, length, window)


#: 10, 100, ..., 10^18: an int64 offset has one digit more than it has of these at or below it.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _window_ids(parents: _Ids, parent: np.ndarray, offsets: np.ndarray) -> _Ids:
    """The ids ``parent:offset`` of windows, as one column written from the parents' bytes.

    Window w is at ``offsets[w]`` of parent ``parent[w]``.
    """
    first, size = parents.offsets[parent], np.diff(parents.offsets)[parent]
    digits = np.searchsorted(_POWERS_OF_TEN, offsets, side="right") + 1
    ends = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(size + 1 + digits)])
    out = np.empty(ends[-1], dtype=np.uint8)
    data = np.frombuffer(parents.data, dtype=np.uint8)
    for a, b in _id_runs(ends):
        part, z, d, e = out[ends[a]:ends[b]], size[a:b], digits[a:b], ends[a + 1:b + 1] - ends[a]
        # byte t of window w's parent part is byte first[w] + t of the parents' data
        at = np.arange(z.sum()) + np.repeat(first[a:b] - (np.cumsum(z) - z), z)
        part[_id_mask(z, 0, 1 + d)] = data[at]
        part[e - d - 1] = ord(":")
        for k in range(int(d.max())):  # the kth digit from the right
            has = np.flatnonzero(d > k)
            part[e[has] - 1 - k] = offsets[a:b][has] // 10 ** k % 10 + ord("0")
    return _Ids(out.tobytes(), ends)


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
    return b"".join(_file_pieces(index))


def _file_pieces(index: HashIndex) -> Iterator[bytes]:
    """The v1 file of ``index`` as the header, each run of records and the CRC-32; a
    ``ValueError`` for an id over 65,535 bytes comes before the header."""
    count, nbytes = len(index), (index.width + 7) // 8
    id_len = np.diff(index._ids.offsets)
    if count and id_len.max() > 0xFFFF:
        rid = index._ids[int(np.argmax(id_len > 0xFFFF))]
        raise ValueError(f"record id {rid[:32]!r}... is too long to serialize")
    del id_len  # the runs take their ids' lengths from the offsets
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, index.width,
                          STRATEGY_KINDS.index(index.strategy.kind), 0, count)
    yield header
    crc = zlib.crc32(header)
    offsets = index._ids.offsets

    def fields(a: int, b: int) -> np.ndarray:
        return np.hstack([
            np.diff(offsets[a:b + 1]).astype("<u2").view(np.uint8).reshape(-1, _ID_LEN.size),
            index.source_len[a:b].astype("<u4").view(np.uint8).reshape(-1, _SOURCE_LEN.size),
            index.hashes[a:b, :nbytes]])

    for run in _records(index._ids, _ID_LEN.size, fields):
        crc = zlib.crc32(run, crc)
        yield run
    yield _CRC.pack(crc)


def _records(ids: _Ids, before: int, fields: Callable[[int, int], np.ndarray]) -> Iterator[bytes]:
    """The records, one ``bytes`` per run ``[a, b)`` of ids (:func:`_id_runs`), laid out and
    held one run at a time: ``fields(a, b)`` gives the run's fixed bytes as (b - a, n) uint8
    rows, and record i is the first ``before`` bytes of its row, id i, then the rest."""
    offsets, data = ids.offsets, np.frombuffer(ids.data, dtype=np.uint8)
    for a, b in _id_runs(offsets):
        fixed = fields(a, b)
        is_id = _id_mask(np.diff(offsets[a:b + 1]), before, fixed.shape[1] - before)
        part = np.empty(len(is_id), dtype=np.uint8)
        part[is_id] = data[offsets[a]:offsets[b]]
        part[~is_id] = fixed.ravel()
        yield part.tobytes()


def _id_mask(id_len: np.ndarray, before, after) -> np.ndarray:
    """Which bytes of records of ``before`` bytes, an id and ``after`` bytes are id bytes;
    ``before`` and ``after`` are one count for every record or one count per record."""
    spans = np.column_stack([np.full(len(id_len), before), id_len, np.full(len(id_len), after)])
    return np.repeat(np.tile([False, True, False], len(id_len)), spans.ravel())


def save_index(index: HashIndex, sink: BinaryIO) -> None:
    """Write the binary format to an open binary file object through its ``write`` alone,
    one run of records at a time, so that the file is never held whole."""
    for piece in _file_pieces(index):
        sink.write(piece)


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

    # Only the variable-length ids need a walk; the ids and the fixed-size
    # fields are gathered afterwards with a mask of the id bytes.
    nbytes = (width + 7) // 8
    fixed = _ID_LEN.size + _SOURCE_LEN.size + nbytes
    payload_end = len(data) - _CRC.size
    id_lens = []
    offset = _HEADER.size
    for _ in range(count):
        if offset + _ID_LEN.size > payload_end:
            raise TruncatedFile("file ends inside a record id length")
        length = data[offset] | data[offset + 1] << 8
        id_lens.append(length)
        offset += fixed + length
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

    id_len = np.array(id_lens, dtype=np.int64)
    del id_lens
    records = np.frombuffer(data, dtype=np.uint8)[_HEADER.size:payload_end]
    is_id = _id_mask(id_len, _ID_LEN.size, _SOURCE_LEN.size + nbytes)
    id_bytes = records[is_id]
    blob = id_bytes.tobytes()
    starts = np.cumsum(id_len) - id_len
    # Every id is UTF-8 exactly when the blob is and no id starts inside a character.
    try:
        blob.decode("utf-8")
        inside = np.any((id_bytes[starts[id_len > 0]] & 0xC0) == 0x80)
    except UnicodeDecodeError:
        inside = True
    if inside:
        raise IndexFormatError("record id is not valid UTF-8")
    tails = records[~is_id].reshape(count, fixed)
    del data, records, is_id, id_bytes, id_len  # so that the id sort runs beside none of them
    source_len = tails[:, _ID_LEN.size:_ID_LEN.size + _SOURCE_LEN.size].copy().view("<u4")[:, 0]
    hashes = _pad_rows(tails[:, _ID_LEN.size + _SOURCE_LEN.size:])
    del tails
    try:
        return HashIndex(strategy, _Ids(blob, np.append(starts, len(blob))), source_len, hashes)
    except (ValueError, DuplicateId) as exc:
        raise IndexFormatError(f"index records are invalid: {exc}") from None
