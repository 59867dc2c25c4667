"""Nucleotide sequences, FASTA parsing and the gray-level pixel layout.

Each base maps to one 8-bit gray intensity (A=63, T=127, C=191, G=255 —
evenly spaced 64 apart, ending at the brightest level), and a sequence
becomes the smallest square image that holds it, row-major, with unused
trailing cells padded by intensity 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import EmptyRecord, InvalidBase, MalformedFasta, SequenceTooShort

log = logging.getLogger(__name__)

#: Code order: code i encodes base BASE_ORDER[i], at intensity 64*(i+1) - 1.
BASE_ORDER = "ATCG"

#: Gray intensity per nucleotide.
BASE_TO_INTENSITY = {b: 64 * (i + 1) - 1 for i, b in enumerate(BASE_ORDER)}
INTENSITY_TO_BASE = {v: k for k, v in BASE_TO_INTENSITY.items()}

#: Gray intensity per base code; the one table every layout reads.
CODE_TO_INTENSITY = np.array([BASE_TO_INTENSITY[b] for b in BASE_ORDER], dtype=np.uint8)
CODE_TO_INTENSITY.flags.writeable = False

#: Intensity used for cells past the end of the sequence.
PAD_VALUE = 0

#: Shortest sequence that can fill a useful (2x2) pixel matrix.
MIN_LENGTH = 4

# bytes.translate table so whole sequences encode without a Python loop;
# every byte that is not an upper-case base becomes 255.
_ASCII_TO_CODE = bytearray(b"\xff" * 256)
for _i, _b in enumerate(BASE_ORDER):
    _ASCII_TO_CODE[ord(_b)] = _i
_CODE_TO_ASCII = np.frombuffer(BASE_ORDER.encode("ascii"), dtype=np.uint8)

# The same table for FASTA text and :class:`Sequence`, lower case included.
_FASTA_TO_CODE = bytearray(_ASCII_TO_CODE)
for _i, _b in enumerate(BASE_ORDER.lower()):
    _FASTA_TO_CODE[ord(_b)] = _i
_ASCII_TO_CODE, _FASTA_TO_CODE = bytes(_ASCII_TO_CODE), bytes(_FASTA_TO_CODE)

#: Bytes :func:`_stream_fasta` reads at a time; a longer record is read whole.
_BLOCK_BYTES = 1 << 18


def encode_base(base: str) -> int:
    """Gray intensity of a single nucleotide (case-insensitive)."""
    try:
        return BASE_TO_INTENSITY[base.upper()]
    except KeyError:
        raise InvalidBase(base) from None


def decode_intensity(value: int) -> str:
    """Inverse of :func:`encode_base`."""
    try:
        return INTENSITY_TO_BASE[value]
    except KeyError:
        raise ValueError(f"no nucleotide has intensity {value!r}") from None


def codes_from_bases(bases: str) -> np.ndarray:
    """Base string -> uint8 code array (A=0, T=1, C=2, G=3)."""
    codes = bytearray(bases, "ascii").translate(_ASCII_TO_CODE)
    bad = codes.find(255)
    if bad >= 0:
        raise InvalidBase(bases[bad], position=bad + 1)
    return np.frombuffer(codes, dtype=np.uint8)


def bases_from_codes(codes: np.ndarray) -> str:
    """uint8 code array -> base string."""
    return _CODE_TO_ASCII[np.asarray(codes, dtype=np.uint8)].tobytes().decode("ascii")


def matrix_dim(length: int) -> int:
    """Side of the smallest square matrix with at least ``length`` cells."""
    dim = math.isqrt(length)
    if dim * dim < length:
        dim += 1
    return dim


@dataclass(frozen=True)
class Sequence:
    """A validated DNA sequence: canonical uppercase A/T/C/G, at least 4 bp."""

    id: str
    bases: str

    def __post_init__(self):
        # One "?" per non-ASCII character keeps positions those of the string.
        bad = self.bases.encode("ascii", "replace").translate(_FASTA_TO_CODE).find(255)
        if bad >= 0:
            raise InvalidBase(self.bases[bad], record_id=self.id, position=bad + 1)
        if len(self.bases) < MIN_LENGTH:
            raise SequenceTooShort(
                f"sequence {self.id!r} is {len(self.bases)} bp; at least {MIN_LENGTH} needed"
            )
        object.__setattr__(self, "bases", self.bases.upper())

    def __len__(self) -> int:
        return len(self.bases)


@dataclass(frozen=True, eq=False)
class PixelMatrix:
    """Square gray image of one sequence, row-major, tail-padded with 0."""

    cells: np.ndarray  # (dim, dim) uint8, read-only
    payload_len: int   # leading cells that hold real bases

    @property
    def dim(self) -> int:
        return self.cells.shape[0]


def layout_matrix(seq: Sequence) -> PixelMatrix:
    """Lay a sequence out as its pixel matrix.

    The side is ceil(sqrt(len)); cells past the payload keep intensity 0.
    """
    n = len(seq)
    dim = matrix_dim(n)
    flat = np.full(dim * dim, PAD_VALUE, dtype=np.uint8)
    flat[:n] = CODE_TO_INTENSITY[codes_from_bases(seq.bases)]
    cells = flat.reshape(dim, dim)
    cells.flags.writeable = False
    return PixelMatrix(cells=cells, payload_len=n)


def _check_policy(n_policy: str) -> None:
    if n_policy not in ("reject", "skip-record"):
        raise ValueError(f"unknown n_policy {n_policy!r}")


def _parse_lines(lines: Iterable[str], n_policy: str, first_line: int = 1) -> Iterator[Sequence]:
    """The records of FASTA lines, the first being line ``first_line``; see :func:`parse_fasta`."""
    header: str | None = None
    parts: list[str] = []

    def flush():
        if header is None:
            return
        bases = "".join(parts)
        if not bases:
            raise EmptyRecord(f"record {header!r} has no sequence lines")
        try:
            seq = Sequence(id=header, bases=bases)
        except InvalidBase:
            if n_policy == "reject":
                raise
            log.warning("record %r contains non-ATCG symbols; skipped", header)
            return
        yield seq

    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            yield from flush()
            fields = line[1:].split(maxsplit=1)
            if not fields:
                raise MalformedFasta(f"line {lineno}: header with no id")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # bytes that were not UTF-8, escaped on decoding
                    raise MalformedFasta(f"line {lineno}: header is not valid UTF-8") from None
            header, parts = fields[0], []
        else:
            if header is None:
                raise MalformedFasta(f"line {lineno}: sequence data before any '>' header")
            parts.append(line)
    yield from flush()


def parse_fasta(lines: Iterable[str], *, n_policy: str = "reject") -> list[Sequence]:
    """Parse FASTA text into validated sequences, preserving input order.

    ``lines`` may be an open text file, any iterable of lines, or a single
    string (split at LF, CR and CRLF, as a file is read). Headers start
    with ``>``; the id is the header text up to the first whitespace;
    wrapped sequence lines are concatenated and upper-cased.

    ``n_policy`` decides what happens to records with symbols outside
    A/T/C/G: ``"reject"`` raises :class:`InvalidBase` (with the record id and
    1-based offset), ``"skip-record"`` drops the record with a warning.
    """
    _check_policy(n_policy)
    if isinstance(lines, str):  # lines end where a text file's do: at LF, CR and CRLF
        lines = lines.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return list(_parse_lines(lines, n_policy))


def read_fasta(path: str, *, n_policy: str = "reject") -> list[Sequence]:
    """:func:`parse_fasta` over the contents of a file.

    A byte that is not UTF-8 is an error of the line that holds it: an
    :class:`InvalidBase` in a sequence line, a :class:`MalformedFasta` in a
    header or before the first one.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return parse_fasta(handle, n_policy=n_policy)


#: Bytes of ids that id-column loops work on at a time; their temporaries
#: take a few times 8 bytes per id byte.
_ID_BYTES = 1 << 15


def _id_runs(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Runs ``[a, b)`` of whole ids, one after another, of about ``_ID_BYTES`` each.

    Id i spans ``offsets[i]:offsets[i + 1]``. A run starts at the first id
    that starts at or after a multiple of ``_ID_BYTES``, so a run's ids start
    within ``_ID_BYTES`` of each other, and only its last id may end further on.
    """
    n = len(offsets) - 1
    bounds = list(dict.fromkeys(
        np.searchsorted(offsets[:-1], np.arange(0, max(offsets[-1], 1), _ID_BYTES)).tolist() + [n]))
    return zip(bounds, bounds[1:])


@dataclass(frozen=True, eq=False)
class _Ids:
    """Record ids as one column: id i is the UTF-8 ``data[offsets[i]:offsets[i + 1]]``.

    It reads as a sequence of ``str``: indexing decodes one id, and
    iterating decodes a run of ids at a time, never one id on its own.
    """

    data: bytes
    offsets: np.ndarray  # int64[N + 1], from 0 to len(data)

    @classmethod
    def of(cls, ids: list[str]) -> _Ids:
        """``ids`` as a column; a lone surrogate raises ``UnicodeEncodeError``."""
        joined = "".join(ids)
        data = joined.encode("utf-8")
        ends = np.cumsum(np.fromiter(map(len, ids), np.int64, len(ids)))  # in characters
        if len(data) != len(joined):  # each character's first byte is not a continuation byte
            firsts = np.flatnonzero((np.frombuffer(data, np.uint8) & 0xC0) != 0x80)
            ends = np.append(firsts, len(data))[ends]
        return cls(data, np.concatenate([np.zeros(1, np.int64), ends]))

    @classmethod
    def join(cls, columns: list[_Ids]) -> _Ids:
        """The columns one after another."""
        shifts = np.cumsum([0] + [len(c.data) for c in columns])
        return cls(b"".join(c.data for c in columns), np.concatenate(
            [np.zeros(1, np.int64)] + [c.offsets[1:] + s for c, s in zip(columns, shifts)]))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> str:
        return self.data[self.offsets[i]:self.offsets[i + 1]].decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(map(self._decode, _id_runs(self.offsets)))

    def _decode(self, run: tuple[int, int]) -> list[str]:
        """Ids ``[a, b)``, from one decode of their bytes."""
        a, b = run
        raw = self.data[self.offsets[a]:self.offsets[b]]
        text = raw.decode("utf-8")
        ends = self.offsets[a:b + 1] - self.offsets[a]
        if len(text) != len(raw):  # byte offsets to character offsets
            firsts = np.cumsum((np.frombuffer(raw, np.uint8) & 0xC0) != 0x80)
            ends = np.concatenate([np.zeros(1, np.int64), firsts])[ends]
        ends = ends.tolist()
        return [text[start:end] for start, end in zip(ends, ends[1:])]


class _Batch(NamedTuple):
    """Records in input order: their ids, starts and lengths, and the base codes they span.

    Record i's codes (0..3 for A, T, C, G) are ``codes[starts[i]:starts[i] +
    lengths[i]]``. The reader's records follow one another; windows may overlap.
    """

    ids: _Ids
    starts: np.ndarray  # int64[N]
    lengths: np.ndarray  # int64[N]
    codes: np.ndarray  # uint8

    @classmethod
    def consecutive(cls, ids: _Ids, lengths, codes: np.ndarray) -> _Batch:
        """Records that follow one another in ``codes``, record i ``lengths[i]`` codes long."""
        lengths = np.asarray(lengths, dtype=np.int64)
        return cls(ids, np.cumsum(lengths) - lengths, lengths, codes)


def _batch_of(seqs: list[Sequence]) -> _Batch:
    """One batch of validated sequences."""
    return _Batch.consecutive(_Ids.of([s.id for s in seqs]), list(map(len, seqs)),
                              codes_from_bases("".join(s.bases for s in seqs)))


def _batch_of_text(data: bytes, first_line: int, n_policy: str) -> tuple[_Batch, int]:
    """The records in ``data`` (whole records, from a line start), and the next line number.

    Line ends become LF first (CRLF and a lone CR end a line, as in a text
    file), and one scan finds them all; a header is a ``>`` that starts a
    line. A record takes the fast path when its header decodes and has an
    id and its lines hold at least ``MIN_LENGTH`` bases and nothing but
    A/C/G/T in either case: one ``bytes.translate`` of its body checks and
    encodes it. Every other record, and any text before a file's first
    header, goes through :func:`_parse_lines` from its own line number, so
    it is kept, skipped or raised exactly as :func:`read_fasta` would.
    """
    ids: list[str] = []
    lengths: list[int] = []
    codes: list[bytes] = []

    def reparse(start: int, end: int, line: int) -> None:
        lines = data[start:end].decode("utf-8", "surrogateescape").split("\n")
        for seq in _parse_lines(lines, n_policy, line):
            ids.append(seq.id)
            lengths.append(len(seq))
            codes.append(seq.bases.encode("ascii").translate(_FASTA_TO_CODE))

    def batch() -> _Batch:
        return _Batch.consecutive(_Ids.of(ids), lengths, np.frombuffer(b"".join(codes), np.uint8))

    if b"\r" in data:  # from here on every line ends in LF, as in a text file
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(data, np.uint8)
    line_ends = np.flatnonzero(raw == 10)
    next_line = first_line + len(line_ends)
    # Line j is data[line_starts[j]:line_ends[j]] (the last may end at the end of
    # data); a header is a line that starts with ">".
    line_starts = np.append(0, line_ends + 1)
    header_lines = np.flatnonzero(raw[line_starts[line_starts < len(data)]] == 62)
    starts = line_starts[header_lines].tolist()
    head_ends = np.append(line_ends, len(data))[header_lines].tolist()
    lines = (first_line + header_lines).tolist()
    del line_starts, line_ends  # an int64 per line each, not to be held while bodies are copied
    if not starts or starts[0]:  # text before the first header
        reparse(0, starts[0] if starts else len(data), first_line)
        if not starts:
            return batch(), next_line
    # Record i is data[starts[i]:ends[i]]; its header is line lines[i], ending at head_ends[i].
    ends = starts[1:] + [len(data)]
    bodies = [data[a + 1:b].translate(_FASTA_TO_CODE, b"\n") for a, b in zip(head_ends, ends)]
    body_lengths = np.fromiter(map(len, bodies), np.int64, len(bodies))
    joined = b"".join(bodies)
    try:
        heads = b"\n".join([data[a + 1:b] for a, b in zip(starts, head_ends)]).decode("utf-8")
        heads = heads.split("\n")
    except UnicodeDecodeError:  # no ids: every record is reparsed
        heads = [""] * len(starts)
    names = [(head.split(None, 1) or ("",))[0] for head in heads]

    bad = set(np.flatnonzero(body_lengths < MIN_LENGTH).tolist())
    if joined.find(b"\xff") >= 0:
        wrong = np.flatnonzero(np.frombuffer(joined, dtype=np.uint8) > 3)
        bad.update(np.searchsorted(np.cumsum(body_lengths), wrong, side="right").tolist())
    if not all(names):
        bad.update(i for i, name in enumerate(names) if not name)
    if not bad and not ids:
        return _Batch.consecutive(_Ids.of(names), body_lengths,
                                  np.frombuffer(joined, dtype=np.uint8)), next_line

    # Keep each run of fast records whole; reparse every other record alone,
    # from the line its header is on.
    done = 0
    for i in sorted(bad) + [len(starts)]:
        ids.extend(names[done:i])
        lengths.extend(body_lengths[done:i].tolist())
        codes.extend(bodies[done:i])
        if i < len(starts):
            reparse(starts[i], ends[i], lines[i])
        done = i + 1
    return batch(), next_line


def _stream_fasta(handle: BinaryIO, *, n_policy: str = "reject") -> Iterator[_Batch]:
    """The records of a binary FASTA stream, a :class:`_Batch` at a time.

    Reads ``_BLOCK_BYTES`` at a time and cuts before the last header that
    starts a line (after an LF or a lone CR), so each batch holds whole
    records and a record longer than a block is read whole. The records,
    errors and warnings are those of :func:`read_fasta` on the same bytes,
    in the same order.
    """
    _check_policy(n_policy)
    line = 1
    pending: list[bytes] = []
    while True:
        block = handle.read(_BLOCK_BYTES)
        cut = block.rfind(b"\n>") + 1
        if b"\r" in block:
            cut = max(cut, block.rfind(b"\r>") + 1)
        if block and not cut:
            pending.append(block)
            continue
        pending.append(block[:cut])
        data = b"".join(pending)
        pending, last = [block[cut:]], not block
        del block  # the batch is all the consumer needs of this text
        if data:
            batch, line = _batch_of_text(data, line, n_policy)
            del data
            if batch.ids:
                yield batch
            del batch  # before the next read: a batch may hold one long record
        if last:
            return
