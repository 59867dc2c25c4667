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
from typing import Iterable, Iterator

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

_VALID_BASES = frozenset(BASE_ORDER)

# ASCII lookup table so whole sequences encode without a Python loop.
_ASCII_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(BASE_ORDER):
    _ASCII_TO_CODE[ord(_b)] = _i
_CODE_TO_ASCII = np.frombuffer(BASE_ORDER.encode("ascii"), dtype=np.uint8)


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
    raw = np.frombuffer(bases.encode("ascii"), dtype=np.uint8)
    codes = _ASCII_TO_CODE[raw]
    if codes.max(initial=0) > 3:
        bad = int(np.argmax(codes > 3))
        raise InvalidBase(bases[bad], position=bad + 1)
    return codes


def bases_from_codes(codes: np.ndarray) -> str:
    """uint8 code array -> base string."""
    return _CODE_TO_ASCII[np.asarray(codes, dtype=np.uint8)].tobytes().decode("ascii")


def matrix_dim(length: int) -> int:
    """Side of the smallest square matrix with at least ``length`` cells."""
    dim = math.isqrt(length)
    if dim * dim < length:
        dim += 1
    return dim


def _first_invalid(bases: str) -> int | None:
    if set(bases) <= _VALID_BASES:
        return None
    for i, ch in enumerate(bases):
        if ch not in _VALID_BASES:
            return i
    return None


@dataclass(frozen=True)
class Sequence:
    """A validated DNA sequence: canonical uppercase A/T/C/G, at least 4 bp."""

    id: str
    bases: str

    def __post_init__(self):
        canonical = self.bases.upper()
        bad = _first_invalid(canonical)
        if bad is not None:
            raise InvalidBase(self.bases[bad], record_id=self.id, position=bad + 1)
        if len(canonical) < MIN_LENGTH:
            raise SequenceTooShort(
                f"sequence {self.id!r} is {len(canonical)} bp; at least {MIN_LENGTH} needed"
            )
        object.__setattr__(self, "bases", canonical)

    def __len__(self) -> int:
        return len(self.bases)


@dataclass(frozen=True, eq=False)
class PixelMatrix:
    """Square gray image of one sequence, row-major, tail-padded with 0."""

    cells: np.ndarray  # (dim, dim) uint8, read-only
    payload_len: int   # leading cells that hold real bases
    pad_value: int = PAD_VALUE

    @property
    def dim(self) -> int:
        return self.cells.shape[0]


def layout_matrix(seq: Sequence) -> PixelMatrix:
    """Lay a sequence out as its pixel matrix.

    The side is ceil(sqrt(len)); cells past the payload keep intensity 0.
    """
    n = len(seq)
    if n < MIN_LENGTH:
        raise SequenceTooShort(f"{n} bp cannot fill a {MIN_LENGTH}-cell matrix")
    dim = matrix_dim(n)
    flat = np.full(dim * dim, PAD_VALUE, dtype=np.uint8)
    codes = _ASCII_TO_CODE[np.frombuffer(seq.bases.encode("ascii"), dtype=np.uint8)]
    flat[:n] = CODE_TO_INTENSITY[codes]
    cells = flat.reshape(dim, dim)
    cells.flags.writeable = False
    return PixelMatrix(cells=cells, payload_len=n)


def parse_fasta(lines: Iterable[str], *, n_policy: str = "reject") -> list[Sequence]:
    """Parse FASTA text into validated sequences, preserving input order.

    ``lines`` may be an open text file, any iterable of lines, or a single
    string (split on newlines). Headers start with ``>``; the id is the
    header text up to the first whitespace; wrapped sequence lines are
    concatenated and upper-cased.

    ``n_policy`` decides what happens to records with symbols outside
    A/T/C/G: ``"reject"`` raises :class:`InvalidBase` (with the record id and
    1-based offset), ``"skip-record"`` drops the record with a warning.
    """
    if n_policy not in ("reject", "skip-record"):
        raise ValueError(f"unknown n_policy {n_policy!r}")
    if isinstance(lines, str):
        lines = lines.splitlines()

    out: list[Sequence] = []
    header: str | None = None
    parts: list[str] = []

    def flush():
        if header is None:
            return
        bases = "".join(parts)
        if not bases:
            raise EmptyRecord(f"record {header!r} has no sequence lines")
        try:
            out.append(Sequence(id=header, bases=bases))
        except InvalidBase:
            if n_policy == "reject":
                raise
            log.warning("record %r contains non-ATCG symbols; skipped", header)

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            fields = line[1:].split(maxsplit=1)
            if not fields:
                raise MalformedFasta(f"line {lineno}: header with no id")
            header, parts = fields[0], []
        else:
            if header is None:
                raise MalformedFasta(f"line {lineno}: sequence data before any '>' header")
            parts.append(line)
    flush()
    return out


def read_fasta(path: str, *, n_policy: str = "reject") -> list[Sequence]:
    """:func:`parse_fasta` over the contents of a file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_fasta(handle, n_policy=n_policy)
