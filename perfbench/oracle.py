"""Reference results the benchmark checks the program's outputs against.

Everything here is written from the documented formats and definitions,
not from the package's code: a direct-sum DCT evaluated only at the
selected cells, the published selection orders, the ``DPH1`` v1 record
layout and a brute-force Hamming scan. The package's own functions are
used only to read index formats other than v1.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

INTENSITY = {"A": 63, "T": 127, "C": 191, "G": 255}
ZERO_BAND = 1e-7
STRATEGY_TAGS = ("block", "zigzag", "zigzag_skip_dc")

ASCII_TO_INTENSITY = np.zeros(256, dtype=np.float64)
for _b, _v in INTENSITY.items():
    ASCII_TO_INTENSITY[ord(_b)] = _v
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def positions(kind: str, k: int, dim: int) -> list[tuple[int, int]]:
    """Selected (row, col) cells in order: block, zigzag or zigzag_skip_dc."""
    if kind == "block":
        side = math.isqrt(k)
        return [(i, j) for i in range(side) for j in range(side)]
    walk = []
    for s in range(2 * dim - 1):
        lo, hi = max(0, s - dim + 1), min(s, dim - 1)
        rows = range(lo, hi + 1) if s % 2 else range(hi, lo - 1, -1)
        walk.extend((i, s - i) for i in rows)
    skip = 1 if kind == "zigzag_skip_dc" else 0
    return walk[skip:skip + k]


def _cos_rows(freqs: np.ndarray, n: int) -> np.ndarray:
    x = np.arange(n)
    scale = np.where(freqs == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    return scale[:, None] * np.cos((2 * x + 1) * freqs[:, None] * np.pi / (2 * n))


def hash_rows(records: list[str], kind: str, k: int) -> np.ndarray:
    """Packed sign-only hashes of equal-length base strings, by the definition.

    Only the selected coefficients are evaluated, each as the double sum
    s(i) s(j) sum_x sum_y m[x, y] cos((2x+1) i pi / 2N) cos((2y+1) j pi / 2N);
    values within 1e-7 of zero count as zero, so they give bit 0. Returns
    a (len(records), ceil(k / 8)) uint8 array.
    """
    length = len(records[0])
    dim = math.isqrt(length)
    if dim * dim < length:
        dim += 1
    sel = np.array(positions(kind, k, dim))
    rows, cols = _cos_rows(sel[:, 0], dim), _cos_rows(sel[:, 1], dim)
    chunk = max(1, 2_000_000 // (dim * dim))
    out = []
    for start in range(0, len(records), chunk):
        part = records[start:start + chunk]
        raw = np.frombuffer("".join(part).encode("ascii"), np.uint8).reshape(len(part), length)
        cells = np.zeros((len(part), dim * dim))
        cells[:, :length] = ASCII_TO_INTENSITY[raw]
        partial = np.einsum("kx,bxy->bky", rows, cells.reshape(-1, dim, dim))
        coeffs = np.einsum("bky,ky->bk", partial, cols)
        out.append(np.packbits(coeffs > ZERO_BAND, axis=1))
    return np.concatenate(out)


def to_hex(row: np.ndarray, k: int) -> str:
    return row.tobytes().hex()[:(k + 3) // 4]


class Index:
    """Records of an index file: ids, source lengths and packed hashes."""

    def __init__(self, kind: str, width: int, ids: list[str], source_lens: list[int],
                 hashes: np.ndarray):
        self.kind = kind
        self.width = width
        self.ids = ids
        self.source_lens = source_lens
        self.hashes = hashes  # (N, ceil(width / 8)) uint8

    def hex_list(self) -> list[str]:
        return [to_hex(row, self.width) for row in self.hashes]

    def distances(self, probe: bytes) -> np.ndarray:
        """Hamming distance from ``probe`` to every record (brute force)."""
        q = np.frombuffer(probe, dtype=np.uint8)
        return _POPCOUNT[self.hashes ^ q].sum(axis=1)

    def top_k(self, probe: bytes, k: int) -> list[tuple[str, int]]:
        """The k nearest (id, distance) pairs, ordered by (distance, id)."""
        d = self.distances(probe)
        kth = np.partition(d, k - 1)[k - 1]
        cand = np.flatnonzero(d <= kth)
        return sorted(((self.ids[i], int(d[i])) for i in cand), key=lambda p: (p[1], p[0]))[:k]

    def within(self, probe: bytes, max_dist: int) -> list[tuple[str, int]]:
        """Every (id, distance) pair within ``max_dist``, ordered by (distance, id)."""
        d = self.distances(probe)
        cand = np.flatnonzero(d <= max_dist)
        return sorted(((self.ids[i], int(d[i])) for i in cand), key=lambda p: (p[1], p[0]))


_HEADER = struct.Struct("<4sHHBBQ")


def read_index(path: str) -> Index:
    """Read an index file; raise ValueError when it does not decode.

    Version 1 of ``DPH1`` is parsed here from its documented layout. Other
    versions go through the package's ``load_index``, read either as
    per-record objects or as ``ids``/``source_len``/``hashes`` columns.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _HEADER.size + 4:
        raise ValueError("index file is truncated")
    magic, version, width, tag, _reserved, count = _HEADER.unpack_from(data, 0)
    if magic != b"DPH1":
        raise ValueError(f"bad magic {magic!r}")
    if version != 1:
        return _read_with_package(path)
    if zlib.crc32(data[:-4]) != struct.unpack_from("<I", data, len(data) - 4)[0]:
        raise ValueError("CRC-32 mismatch")
    if tag >= len(STRATEGY_TAGS):
        raise ValueError(f"unknown strategy tag {tag}")
    nbytes = (width + 7) // 8
    ids, lens, payload = [], [], bytearray()
    off = _HEADER.size
    try:
        for _ in range(count):
            (id_len,) = struct.unpack_from("<H", data, off)
            off += 2
            ids.append(data[off:off + id_len].decode("utf-8"))
            off += id_len
            lens.append(struct.unpack_from("<I", data, off)[0])
            off += 4
            payload += data[off:off + nbytes]
            off += nbytes
    except (struct.error, UnicodeDecodeError) as exc:
        raise ValueError(f"index record does not decode: {exc}") from None
    if off != len(data) - 4 or len(payload) != count * nbytes:
        raise ValueError("index records do not fill the file")
    hashes = np.frombuffer(bytes(payload), dtype=np.uint8).reshape(count, nbytes)
    return Index(STRATEGY_TAGS[tag], width, ids, lens, hashes)


def _read_with_package(path: str) -> Index:
    import dnaphash

    try:
        with open(path, "rb") as handle:
            idx = dnaphash.load_index(handle)
    except dnaphash.DnaPhashError as exc:
        raise ValueError(f"load_index failed: {exc}") from None
    nbytes = (idx.width + 7) // 8
    if hasattr(idx, "records"):
        ids = [r.id for r in idx.records]
        lens = [r.source_len for r in idx.records]
        raw = b"".join(r.hash.data for r in idx.records)
        hashes = np.frombuffer(raw, dtype=np.uint8).reshape(len(ids), nbytes)
    else:
        ids = list(idx.ids)
        lens = [int(n) for n in idx.source_len]
        hashes = np.asarray(idx.hashes, dtype=np.uint8)[:, :nbytes]
    return Index(idx.strategy.kind, idx.width, ids, lens, hashes)
