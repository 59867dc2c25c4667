"""Sign-only hashes over DCT coefficients, and Hamming comparison.

A hash is the sign map of the coefficient matrix (1 where a value is
strictly positive, 0 otherwise — a coefficient of exactly zero yields 0)
sampled at k cells in a fixed selection order and packed most-significant
bit first. The zero rule makes every constant sequence of a given width
collapse to the same degenerate hash 1000...0: a documented collision
class, since a uniform image keeps all of its energy in the DC term.

Before the sign map, the pipeline forces coefficients within ``ZERO_TOL``
of zero to exactly zero. Pixel matrices hold integers, and their symmetric
cancellations produce coefficients that are mathematically zero far more
often than continuous inputs would (roughly one cell per six 4x4 layouts);
a float transform renders those as noise of arbitrary sign, which would
make the affected bits depend on the kernel and platform. Snapping them
to zero applies the sign rule's zero branch the way exact arithmetic
would. The band is safe on both sides: on constant square matrices, the
noise of the kernel's matrix path in the cells of selections of up to 64
bits stays below 7e-12 through dim 100 and below 3e-10 at the 15 dims
sampled from 101 through 3163 (10 Mbp); for selections of up to 4096
bits it stays below 8e-11 and 7e-10. Its product path (see
:func:`_hash_rows`) stays below 1.5e-11 in every shape it takes (every
dim, at k = 1, 16, 32, 64 and the widest k that fits). A batch of one
row is one product: below 3.2e-11 on the product layout (the worst is k
= 3 at dim 65), and on the matrix layout, wherever the record fits one
block of rows, within the matrix path's bounds through dim 100. The
``test_noise_*`` tests hold every cell of dims 8 to 34 below 1e-9 on
both layouts, batched and one row at a time. The smallest genuinely
nonzero coefficient observed for integer layouts is ~1e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SequenceTooShort, StrategyMismatch, StrategyTooLarge, WidthMismatch
from .sequence import MIN_LENGTH, Sequence, _Batch, _Ids, codes_from_bases, matrix_dim
from .transform import basis_rows

STRATEGY_KINDS = ("block", "zigzag", "zigzag_skip_dc")

#: Widest hash the on-disk format (16-bit width field) is specified for.
MAX_WIDTH = 4096

#: Coefficients within this band of zero are treated as exactly zero (see
#: the module docstring for why, and for the measured safety margins).
ZERO_TOL = 1e-7

#: Float cells (1 MiB) one :func:`hash_codes` chunk may hold: a fixed bound.
#: A chunk's cells, products and OpenBLAS's packed panels then fit one
#: core's 2 MiB L2. On a 2-core Xeon (medians of 7 alternating runs),
#: 2^17 beat 2^18 on 4000 rows of 1000 bp at zigzag-32 (4.3 against 5.3
#: ms), 400 rows of 10 kbp at block-64 (3.2 against 3.9 ms) and 19,901
#: windows of 1000 bp at step 10 (20.5 against 25.4 ms; 329 against 389
#: ms for 300k), and was within 2.5% of it on the product layout's rows
#: (36 to 400 bp); 2^16 and 2^15 were slower than 2^17 on every shape.
_WORKSPACE_CELLS = 1 << 17

#: A record of L bases hashed to k bits whose L·k is at most this (200 bp
#: at 64 bits, 400 bp at 32) hashes as one row of ``[codes, 1] @ W``
#: (:func:`_weights`), which costs about L·k multiply-adds; others as
#: ``T[:r] @ M @ T[:c].T``. The product won at every shape timed below it
#: and lost above about 30,000 (CHANGES.md; BENCH_kernel.json).
_GEMM_MAX_MACS = 200 * 64

#: Multiply-adds up to which OpenBLAS runs a product on the calling thread.
#: The kernel's products stay within it (stacked blocks of ``[codes, 1] @
#: W``, blocks of matrix rows), because on a shared 2-core host a threaded
#: product sometimes stalls for 8 ms, and pooled processes oversubscribe.
_BLAS_ONE_THREAD = 1 << 18


def _zigzag_walk(dim: int) -> Iterator[tuple[int, int]]:
    """The cells of :func:`zigzag_positions`, one at a time."""
    for s in range(2 * dim - 1):
        lo = max(0, s - dim + 1)
        hi = min(s, dim - 1)
        rows = range(lo, hi + 1) if s % 2 else range(hi, lo - 1, -1)
        for i in rows:
            yield i, s - i


def zigzag_positions(dim: int) -> tuple[tuple[int, int], ...]:
    """JPEG-style zigzag walk over a dim x dim grid, starting at (0, 0).

    Anti-diagonal s = i + j is traversed bottom-left to top-right when s is
    even and top-right to bottom-left when s is odd.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    return tuple(_zigzag_walk(dim))


@dataclass(frozen=True)
class SelectionStrategy:
    """Which sign cells become hash bits (``kind``) and how many (``k``).

    * ``block``: the top-left sqrt(k) x sqrt(k) square, row-major; k must
      be a perfect square.
    * ``zigzag``: the first k cells of the zigzag walk.
    * ``zigzag_skip_dc``: the same walk with the (0, 0) cell skipped.
    """

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; pick one of {STRATEGY_KINDS}")
        if not 1 <= self.k <= MAX_WIDTH:
            raise ValueError(f"hash width must be within 1..{MAX_WIDTH}, got {self.k}")
        if self.kind == "block" and math.isqrt(self.k) ** 2 != self.k:
            raise ValueError(f"block selection needs a square bit count, got {self.k}")

    @property
    def _skip(self) -> int:
        """Cells of the walk before the first selected one: the DC cell, or none."""
        return 1 if self.kind == "zigzag_skip_dc" else 0

    @property
    def min_dim(self) -> int:
        """Side of the smallest matrix holding the selection: ⌈√(k + skip)⌉, or √k for a block."""
        return math.isqrt(self.k + self._skip - 1) + 1

    def _too_small(self, dim: int) -> str:
        """Why a dim x dim matrix, smaller than ``min_dim``, cannot hold the selection."""
        if self.kind == "block":
            return f"block side {self.min_dim} does not fit a {dim}x{dim} matrix"
        return (f"{self.kind} selection of {self.k} bits needs {self.k + self._skip} cells, "
                f"but a {dim}x{dim} matrix has {dim * dim}")

    def positions(self, dim: int) -> tuple[tuple[int, int], ...]:
        """(row, col) cells in selection order over a dim x dim matrix."""
        if dim < self.min_dim:
            raise StrategyTooLarge(self._too_small(dim))
        if self.kind == "block":
            side = self.min_dim
            return tuple((i, j) for i in range(side) for j in range(side))
        # Walk only as far as the selection reads, not all dim * dim cells.
        return tuple(islice(_zigzag_walk(dim), self._skip, self._skip + self.k))


@lru_cache(maxsize=256)
def _selection_arrays(strategy: SelectionStrategy, dim: int):
    """Selected rows/columns as index vectors, and the kernel's factors 64·T[:r] and T[:c].T."""
    pos = strategy.positions(dim)
    rows = np.fromiter((p[0] for p in pos), dtype=np.intp, count=len(pos))
    cols = np.fromiter((p[1] for p in pos), dtype=np.intp, count=len(pos))
    scaled = 64.0 * basis_rows(dim, rows.max() + 1)
    for a in (rows, cols, scaled):
        a.flags.writeable = False
    return rows, cols, scaled, basis_rows(dim, cols.max() + 1).T


@lru_cache(maxsize=256)
def _base_offset(strategy: SelectionStrategy, length: int) -> np.ndarray:
    """The selected coefficients of 63 on each of ``length`` base cells, 0 on the pad cells.

    A base cell holds 63 + 64·code, so a layout's selected coefficients are
    those of 64·codes plus these. The first ``length // dim`` rows of that
    matrix are full and the next holds ``length % dim`` cells, so its
    transform takes row sums of T[:c].T, not a dim x dim matrix.
    """
    dim = matrix_dim(length)
    rows, cols, scaled, right = _selection_arrays(strategy, dim)
    left = basis_rows(dim, scaled.shape[0])
    full, part = divmod(length, dim)
    coeffs = np.outer(left[:, :full].sum(axis=1), 63.0 * right.sum(axis=0))
    if part:
        coeffs += np.outer(left[:, full], 63.0 * right[:part].sum(axis=0))
    offset = coeffs[rows, cols]
    offset.flags.writeable = False
    return offset


@lru_cache(maxsize=128)
def _weights(strategy: SelectionStrategy, length: int) -> np.ndarray:
    """(length + 1, k) weights W: a record's selected coefficients are ``[codes, 1] @ W``.

    W[x·dim + y, j] = 64·T[rows_j, x]·T[cols_j, y] over the first
    ``length`` cells (the pad cells hold 0, so they have no rows), and the
    last row is :func:`_base_offset`. With L·k at most ``_GEMM_MAX_MACS``
    and k at most dim² (about L + 2√L + 1), each W is under 104 KB, so the
    cache holds under 13.3 MB.
    """
    rows, cols, scaled, right = _selection_arrays(strategy, matrix_dim(length))
    dim = scaled.shape[1]
    w = (scaled[rows].T[:, None, :] * right[:, cols]).reshape(dim * dim, -1)[:length]
    w = np.vstack([w, _base_offset(strategy, length)])
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class PerceptualHash:
    """A fixed-width bit vector in coefficient-selection order.

    ``data`` packs the bits most-significant-bit first per octet; when the
    width is not a multiple of 8 the final octet's low bits are zero.
    ``source_len`` records how many bases produced the hash (0 = unknown);
    it never affects comparability.
    """

    data: bytes
    strategy: SelectionStrategy
    source_len: int = 0

    def __post_init__(self):
        nbytes = (self.strategy.k + 7) // 8
        if len(self.data) != nbytes:
            raise ValueError(
                f"{self.strategy.k}-bit hash needs {nbytes} bytes, got {len(self.data)}"
            )
        pad = nbytes * 8 - self.strategy.k
        if pad and self.data[-1] & ((1 << pad) - 1):
            raise ValueError("trailing padding bits must be zero")
        if self.source_len < 0:
            raise ValueError("source_len cannot be negative")

    @property
    def width(self) -> int:
        return self.strategy.k

    @property
    def bits(self) -> tuple[int, ...]:
        unpacked = np.unpackbits(np.frombuffer(self.data, dtype=np.uint8))
        return tuple(int(b) for b in unpacked[: self.width])

    def to_hex(self) -> str:
        """Lowercase hex, one digit per 4 bits (rounded up)."""
        return self.data.hex()[: (self.width + 3) // 4]

    def to_binary_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __str__(self) -> str:
        return self.to_hex()

    @classmethod
    def from_bits(cls, bits, strategy: SelectionStrategy, *, source_len: int = 0) -> "PerceptualHash":
        arr = np.asarray(list(bits))
        if arr.size != strategy.k:
            raise ValueError(f"expected {strategy.k} bits, got {arr.size}")
        if arr.dtype.kind not in "biuf" or not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bits must be 0 or 1")
        return cls(data=np.packbits(arr == 1).tobytes(), strategy=strategy, source_len=source_len)

    @classmethod
    def from_binary_string(cls, text: str, strategy: SelectionStrategy, *, source_len: int = 0) -> "PerceptualHash":
        """Bits written as '0'/'1' characters; whitespace is ignored."""
        compact = "".join(text.split())
        if not set(compact) <= {"0", "1"}:
            raise ValueError("binary string may only contain 0, 1 and whitespace")
        return cls.from_bits((int(c) for c in compact), strategy, source_len=source_len)

    @classmethod
    def from_hex(cls, text: str, strategy: SelectionStrategy, *, source_len: int = 0) -> "PerceptualHash":
        digits = (strategy.k + 3) // 4
        if len(text) != digits:
            raise ValueError(f"{strategy.k}-bit hash renders as {digits} hex digits, got {len(text)}")
        data = bytes.fromhex(text if len(text) % 2 == 0 else text + "0")
        return cls(data=data, strategy=strategy, source_len=source_len)


def sign_map(coeffs) -> np.ndarray:
    """Signs of a coefficient matrix: 1 where strictly positive, else 0."""
    return (np.asarray(coeffs) > 0).astype(np.uint8)


def snap_zeros(coeffs) -> np.ndarray:
    """A copy of ``coeffs`` with values within ``ZERO_TOL`` of zero zeroed.

    The hashing pipeline applies this before :func:`sign_map` so that
    mathematically-zero coefficients take the sign rule's zero branch
    instead of inheriting the transform's noise sign.
    """
    out = np.array(coeffs, dtype=np.float64, copy=True)
    out[np.abs(out) <= ZERO_TOL] = 0.0
    return out


def select_bits(signs: np.ndarray, strategy: SelectionStrategy, *, source_len: int = 0) -> PerceptualHash:
    """Sample a square sign matrix at the strategy's cells, in order."""
    s = np.asarray(signs)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square sign matrix, got shape {s.shape}")
    rows, cols, _, _ = _selection_arrays(strategy, s.shape[0])
    bits = s[rows, cols].astype(np.uint8)
    return PerceptualHash(
        data=np.packbits(bits).tobytes(), strategy=strategy, source_len=source_len
    )


def hash_codes(codes, strategy: SelectionStrategy) -> np.ndarray:
    """Packed hashes of (B, L) base codes (0..3 for A, T, C, G), as (B, ceil(k / 8)) rows.

    Row b holds the bytes :func:`compute_hash` gives for ``codes[b]``: the
    checked front of :func:`_hash_rows`, which hashes every row.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected a (B, L) array of base codes, got shape {codes.shape}")
    if codes.shape[1] < MIN_LENGTH:
        raise SequenceTooShort(f"{codes.shape[1]} bp cannot fill a {MIN_LENGTH}-cell matrix")
    if codes.dtype.kind not in "iu":
        raise ValueError(f"base codes must be integers, got {codes.dtype}")
    if codes.max(initial=0) > 3 or (codes.dtype.kind == "i" and codes.min(initial=0) < 0):
        raise ValueError("base codes must lie in 0..3")
    return _hash_rows(codes.astype(np.uint8, copy=False), None, strategy)


def _hash_rows(codes: np.ndarray, take: np.ndarray | None,
               strategy: SelectionStrategy) -> np.ndarray:
    """Packed hashes of the rows ``take`` of (N, L) uint8 base codes, or of every row if None.

    Only the coefficients the selection reads are computed. A base cell of
    ``M`` holds 63 + 64·code, so the codes are cast to floats as they are,
    and the 63 comes back as :func:`_base_offset`. A short record (its
    length times k at most ``_GEMM_MAX_MACS``) is one row of the product
    ``[codes, 1] @ W`` (:func:`_weights`), one matmul per chunk, of stacked
    blocks that OpenBLAS runs on the calling thread. A longer one is laid out
    as a matrix and transformed as ``T[:r] @ M @ T[:c].T``, with 64·T[:r]
    as ``scaled``. Rows are read in chunks whose cells, intermediates
    included, stay within ``_WORKSPACE_CELLS`` floats: a chunk of ``take``
    is gathered as it is laid out. A record whose matrix and first product
    alone outgrow that, or whose first product outgrows
    ``_BLAS_ONE_THREAD``, is laid out a block of matrix rows at a time, and
    the blocks' products are summed.

    One row is one product, without the chunk loop or its buffers:
    ``codes @ W[:-1] + W[-1]``, or ``scaled @ M @ right`` on the record's
    own zero-padded matrix when it fits one block of rows. A record that
    needs several blocks still takes the loop.
    """
    length = codes.shape[1]
    count = codes.shape[0] if take is None else len(take)
    gemm = length * strategy.k <= _GEMM_MAX_MACS
    if gemm:
        weights = _weights(strategy, length)
    else:
        dim = matrix_dim(length)
        rows, cols, scaled, right = _selection_arrays(strategy, dim)
        offset = _base_offset(strategy, length)
        r, c = len(scaled), right.shape[1]
        height = dim if dim * dim + r * dim <= _WORKSPACE_CELLS else max(1, _WORKSPACE_CELLS // dim)
        height = min(height, max(1, _BLAS_ONE_THREAD // (r * dim)))
    if count == 1 and (gemm or height >= dim):  # one row in one product, without chunk buffers
        row = codes[0 if take is None else take[0]]
        if gemm:
            picked = row @ weights[:-1] + weights[-1]
        else:
            matrix = np.zeros(dim * dim)
            matrix[:length] = row
            picked = (scaled @ matrix.reshape(dim, dim) @ right)[rows, cols] + offset
        return np.packbits(picked > ZERO_TOL)[None]
    out = np.empty((count, (strategy.k + 7) // 8), dtype=np.uint8)
    if gemm:
        # Per record: L + 1 float cells and k of product, and at most as much
        # again for its gathered codes and its mask.
        chunk = max(1, _WORKSPACE_CELLS // (2 * (length + 1 + strategy.k)))
        block = min(chunk, max(1, _BLAS_ONE_THREAD // (length * strategy.k)))
        chunk -= chunk % block
        cells = np.ones((min(chunk, -(-count // block) * block), length + 1))
    else:
        # Per record: a block of rows, scaled @ matrix, its product with right, the selected cells.
        chunk = max(1, _WORKSPACE_CELLS // (height * dim + r * dim + r * c + strategy.k))
        cells = np.empty((min(chunk, count), height * dim))
    for start in range(0, count, chunk):
        part = slice(start, start + chunk) if take is None else take[start:start + chunk]
        n = min(chunk, count - start)
        if gemm:
            cells[:n, :length] = codes[part]
            if n <= block:
                picked = cells[:n] @ weights
            else:  # the last block may run on rows past the chunk's: they are dropped
                m = -(-n // block) * block
                picked = (cells[:m].reshape(-1, block, length + 1) @ weights).reshape(m, -1)[:n]
        else:
            for top in range(0, dim, height):
                first = top * dim
                if first >= length:  # rows of pad cells add nothing
                    break
                h = min(height, dim - top)
                stop = min(first + h * dim, length)
                cells[:n, :stop - first] = codes[part, first:stop]
                cells[:n, stop - first:h * dim] = 0.0
                term = scaled[:, top:top + h] @ cells[:n, :h * dim].reshape(n, h, dim)
                if top:
                    product += term
                else:
                    product = term
            picked = (product @ right)[:, rows, cols]
            picked += offset
        out[start:start + n] = np.packbits(picked > ZERO_TOL, axis=1)
    return out


def _hash_records(starts: np.ndarray, lengths: np.ndarray, codes: np.ndarray,
                  strategy: SelectionStrategy) -> np.ndarray:
    """:func:`hash_codes` rows of records of any lengths, in input order.

    Record i is ``codes[starts[i]:starts[i] + lengths[i]]``. Records of one
    length are hashed together, as the rows of the codes' windows of that
    length that start at their starts.
    """
    out = np.empty((len(lengths), (strategy.k + 7) // 8), dtype=np.uint8)
    order = np.argsort(lengths, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if members.size:
            spans = sliding_window_view(codes, int(lengths[members[0]]))  # row s starts at s
            out[members] = _hash_rows(spans, starts[members], strategy)
    return out


def _hash_batches(batches: Iterable[_Batch],
                  strategy: SelectionStrategy) -> tuple[_Ids, np.ndarray, np.ndarray]:
    """Ids, packed hash rows and lengths of every record, each batch hashed as it is read.

    An error in a record comes from ``batches`` when it is read. A record
    the strategy does not fit is reported only once every batch has been
    read, so that a bad record anywhere wins over it. A record of L bases
    lays out as a ⌈√L⌉-sided matrix, so it fits exactly when L exceeds
    ``(min_dim - 1)²``; batches after the first misfit are read, not hashed.
    """
    ids: list[_Ids] = []
    rows: list[np.ndarray] = [np.empty((0, (strategy.k + 7) // 8), dtype=np.uint8)]
    lengths: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    unfit = (strategy.min_dim - 1) ** 2
    misfit = None
    for batch in batches:
        if misfit is None:
            short = np.flatnonzero(batch.lengths <= unfit)
            if short.size:
                i = short[0]
                reason = strategy._too_small(matrix_dim(int(batch.lengths[i])))
                misfit = StrategyTooLarge(f"record {batch.ids[i]!r}: {reason}")
            else:
                rows.append(_hash_records(batch.starts, batch.lengths, batch.codes, strategy))
        ids.append(batch.ids)
        lengths.append(batch.lengths)
        del batch  # before the next read: a batch may hold one long record
    if misfit is not None:
        raise misfit
    ids = _Ids.join(ids)  # each column's parts go once it is joined, before the next is
    rows = np.concatenate(rows)
    return ids, rows, np.concatenate(lengths)


def compute_hash(seq: Sequence, strategy: SelectionStrategy) -> PerceptualHash:
    """Hash one sequence, from its checked codes: a one-row :func:`_hash_rows` batch."""
    row = _hash_rows(codes_from_bases(seq.bases)[None], None, strategy)[0]
    return PerceptualHash(data=row.tobytes(), strategy=strategy, source_len=len(seq))


def hamming(a: PerceptualHash, b: PerceptualHash) -> int:
    """Number of differing bit positions between two compatible hashes."""
    if a.width != b.width:
        raise WidthMismatch(f"cannot compare a {a.width}-bit hash with a {b.width}-bit hash")
    if a.strategy != b.strategy:
        raise StrategyMismatch(
            f"cannot compare {a.strategy.kind} and {b.strategy.kind} selections"
        )
    return (int.from_bytes(a.data, "big") ^ int.from_bytes(b.data, "big")).bit_count()
