"""Seeded input generators: the program under test only ever sees these files.

The same seed always writes the same files. Ids look like accession
numbers with a random version suffix, so id bytes (and with them the index
size) vary a little from seed to seed.
"""

from __future__ import annotations

import numpy as np

_LUT = np.frombuffer(b"ATCG", dtype=np.uint8)


def random_bases(rng: np.random.Generator, n: int) -> str:
    return _LUT[rng.integers(0, 4, size=n, dtype=np.uint8)].tobytes().decode("ascii")


def substitute(rng: np.random.Generator, bases: str, count: int) -> str:
    """``bases`` with ``count`` distinct positions changed to another base."""
    codes = np.frombuffer(bases.encode("ascii"), dtype=np.uint8).copy()
    pos = rng.choice(len(bases), size=count, replace=False)
    lookup = {int(b): i for i, b in enumerate(_LUT)}
    for p in pos:
        codes[p] = _LUT[(lookup[int(codes[p])] + int(rng.integers(1, 4))) % 4]
    return codes.tobytes().decode("ascii")


def write_fasta(path: str, records: list[tuple[str, str]], wrap: int | None = None) -> int:
    """Write ``(id, bases)`` records; return the file size in bytes."""
    parts = []
    for rid, bases in records:
        parts.append(f">{rid}\n")
        if wrap is None:
            parts.append(bases + "\n")
        else:
            parts.extend(bases[o:o + wrap] + "\n" for o in range(0, len(bases), wrap))
    text = "".join(parts)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
    return len(text)


def records(rng: np.random.Generator, count: int, length: int, prefix: str,
            n_frac: float = 0.0) -> tuple[list[tuple[str, str]], list[bool]]:
    """Random records; a share ``n_frac`` of them holds one ``N``.

    Returns the records and, per record, whether it is free of ``N``.
    """
    versions = rng.integers(1, 100, size=count)
    has_n = rng.random(count) < n_frac
    records, clean = [], []
    for i in range(count):
        bases = random_bases(rng, length)
        if has_n[i]:
            p = int(rng.integers(0, length))
            bases = bases[:p] + "N" + bases[p + 1:]
        records.append((f"{prefix}{i}.{versions[i]}", bases))
        clean.append(not has_n[i])
    return records, clean


def probes(rng: np.random.Generator, sources: list[str], count: int,
           substitutions: int) -> list[tuple[str, str]]:
    """Query records: even ones are a source with substitutions, odd ones random."""
    length = len(sources[0])
    out = []
    for j in range(count):
        if j % 2 == 0:
            src = sources[int(rng.integers(0, len(sources)))]
            out.append((f"q{j}", substitute(rng, src, substitutions)))
        else:
            out.append((f"q{j}", random_bases(rng, length)))
    return out


def chromosomes(rng: np.random.Generator, count: int, length: int,
                jitter: int) -> list[tuple[str, str]]:
    """Long records of ``length`` +/- ``jitter`` bases."""
    sizes = rng.integers(length - jitter, length + jitter + 1, size=count)
    return [(f"chr{i}", random_bases(rng, int(n))) for i, n in enumerate(sizes)]
