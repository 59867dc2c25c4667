"""Divergence simulations: random primaries, mutated variants, distance tallies.

Every primary sequence ordinal gets its own RNG substream — PCG64 seeded
with ``SeedSequence(seed, spawn_key=(ordinal,))`` — and all draws for that
ordinal (the primary's bases, then each variant's mutation positions and
offsets, in ascending rate order) come from that stream. Results therefore
depend only on (seed, config), never on chunking or process count.

Per ordinal the draw order is:

1. ``rng.integers(0, 4, seq_len, dtype=uint8)`` — primary base codes;
2. for each nonzero rate, ascending: ``rng.choice(seq_len, n_mut,
   replace=False)`` mutation positions, then ``rng.integers(1, 4, n_mut,
   dtype=uint8)`` code offsets (new base = (old + offset) mod 4, so
   mutated positions always change).

The uint8 dtype is part of the contract: integer width changes how the
generator consumes its bit stream, so redrawing with a wider dtype would
yield different sequences.

``n_mut = round(rate * seq_len)`` with Python's round-half-to-even. A rate
of exactly 0 is the identity control: the variant is the primary itself
and consumes no draws.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, TextIO

import numpy as np

from . import sequence
from .errors import SequenceTooShort
from .hashing import SelectionStrategy, hash_codes
from .sequence import MIN_LENGTH, Sequence, bases_from_codes, codes_from_bases, matrix_dim

#: Divergence rates shared by all preset groups.
DEFAULT_RATES = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)

#: Primaries per group at desk scale.
DEFAULT_N_PRIMARY = 10_000

CSV_HEADER = ("group", "seq_len", "hash_width", "strategy",
              "divergence_rate", "hamming_distance", "count", "fraction")
PAIR_CSV_HEADER = ("ordinal", "divergence_rate", "hamming_distance")


def sequence_rng(seed: int, ordinal: int) -> np.random.Generator:
    """The independent substream owned by one primary-sequence ordinal."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(ordinal,)))
    )


def _random_codes(length: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 4, size=length, dtype=np.uint8)


def generate_sequence(length: int, rng: np.random.Generator, *, id: str = "seq") -> Sequence:
    """A uniformly random sequence of ``length`` bases drawn from ``rng``."""
    if length < MIN_LENGTH:
        raise SequenceTooShort(f"cannot generate a {length} bp sequence; minimum is {MIN_LENGTH}")
    return Sequence(id=id, bases=bases_from_codes(_random_codes(length, rng)))


def mutation_count(rate: float, length: int) -> int:
    """Positions changed at ``rate``: round(rate * length), half to even."""
    return round(rate * length)


def _mutate_codes(codes: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    out = codes.copy()
    n_mut = mutation_count(rate, codes.size)
    if n_mut == 0:
        return out
    positions = rng.choice(codes.size, size=n_mut, replace=False)
    offsets = rng.integers(1, 4, size=n_mut, dtype=np.uint8)
    out[positions] = (out[positions] + offsets) % 4
    return out


def mutate_sequence(seq: Sequence, rate: float, rng: np.random.Generator) -> Sequence:
    """A variant with exactly round(rate * len) positions substituted.

    Every selected position receives a base different from its original;
    all other positions are untouched. ``rate`` must lie in (0, 1]; a full
    rate of 1.0 changes every position.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"divergence rate must be within (0, 1], got {rate}")
    mutated = _mutate_codes(codes_from_bases(seq.bases), rate, rng)
    return Sequence(id=f"{seq.id}|div{rate:g}", bases=bases_from_codes(mutated))


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation group: sequence length, hash shape, rates, seed.

    ``divergence_rates`` are canonicalized to ascending order (duplicates
    rejected); rate 0.0 is allowed as an identity control.
    """

    group: str
    seq_len: int
    strategy: SelectionStrategy
    divergence_rates: tuple[float, ...] = DEFAULT_RATES
    n_primary: int = DEFAULT_N_PRIMARY
    seed: int = 0

    def __post_init__(self):
        if self.seq_len < MIN_LENGTH:
            raise ValueError(f"seq_len must be at least {MIN_LENGTH}")
        if self.n_primary < 1:
            raise ValueError("n_primary must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        rates = tuple(float(r) for r in self.divergence_rates)
        if not rates:
            raise ValueError("at least one divergence rate is required")
        for r in rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"divergence rates must lie in [0, 1], got {r}")
        if len(set(rates)) != len(rates):
            raise ValueError("divergence rates must be distinct")
        object.__setattr__(self, "divergence_rates", tuple(sorted(rates)))
        # Fail early if the hash cannot fit this length's matrix.
        self.strategy.positions(matrix_dim(self.seq_len))

    @property
    def hash_width(self) -> int:
        """Bits per hash: the strategy's k."""
        return self.strategy.k


def _preset(group: str, seq_len: int, width: int) -> SimulationConfig:
    kind = "block" if width == 64 else "zigzag"
    return SimulationConfig(
        group=group,
        seq_len=seq_len,
        strategy=SelectionStrategy(kind, width),
    )


#: The six standard groups: lengths 100/1000/10000 bp crossed with 32-bit
#: zigzag and 64-bit block hashes.
GROUP_PRESETS = {
    "A": _preset("A", 100, 32),
    "B": _preset("B", 100, 64),
    "C": _preset("C", 1000, 32),
    "D": _preset("D", 1000, 64),
    "E": _preset("E", 10_000, 32),
    "F": _preset("F", 10_000, 64),
}


@dataclass(frozen=True, eq=False)
class DistanceHistogram:
    """Hamming-distance tallies for one group.

    ``counts[r, d]`` is how many of the group's primaries ended at distance
    d from their rate ``config.divergence_rates[r]`` variant. ``pairs``
    (optional) keeps the raw per-ordinal distances, shape
    (n_primary, n_rates).
    """

    config: SimulationConfig
    counts: np.ndarray
    pairs: np.ndarray | None = None

    def __post_init__(self):
        expected = (len(self.config.divergence_rates), self.config.hash_width + 1)
        if self.counts.shape != expected:
            raise ValueError(f"counts shape {self.counts.shape} != {expected}")
        sums = self.counts.sum(axis=1)
        if not np.all(sums == self.config.n_primary):
            raise ValueError("each rate's counts must sum to n_primary")

    def fractions(self) -> np.ndarray:
        return self.counts / self.config.n_primary

    def rate_row(self, rate: float) -> np.ndarray:
        idx = self.config.divergence_rates.index(rate)
        return self.counts[idx]

    def mean_distance(self, rate: float) -> float:
        row = self.rate_row(rate)
        return float((row * np.arange(row.size)).sum() / row.sum())


def _simulate_chunk(config: SimulationConfig, start: int, stop: int) -> np.ndarray:
    """Distances for ordinals [start, stop): a (stop-start, n_rates) array.

    The ordinals are drawn and hashed a block of at most
    ``sequence._BLOCK_BYTES`` codes at a time, a reader block's worth, unless
    one ordinal alone holds more.
    """
    rates = config.divergence_rates
    streams = len(rates) + 1  # primary first, then one variant per rate
    block = max(1, sequence._BLOCK_BYTES // (streams * config.seq_len))
    codes = np.empty((min(block, stop - start), streams, config.seq_len), dtype=np.uint8)
    distances = np.empty((stop - start, len(rates)), dtype=np.uint16)
    for first in range(start, stop, block):
        count = min(block, stop - first)
        for i, ordinal in enumerate(range(first, first + count)):
            rng = sequence_rng(config.seed, ordinal)
            primary = _random_codes(config.seq_len, rng)
            codes[i, 0] = primary
            for j, rate in enumerate(rates, start=1):
                codes[i, j] = primary if rate == 0.0 else _mutate_codes(primary, rate, rng)
        packed = hash_codes(codes[:count].reshape(count * streams, config.seq_len), config.strategy)
        packed = packed.reshape(count, streams, -1)
        distances[first - start:first - start + count] = np.bitwise_count(
            packed[:, 1:] ^ packed[:, :1]).sum(axis=2, dtype=np.uint16)
    return distances


def _chunk_size(config: SimulationConfig) -> int:
    # Ordinals per chunk, and so the pool's split: at most ~6 MB of codes,
    # unless one ordinal alone holds more. A chunk holds a block of them at a time.
    streams = len(config.divergence_rates) + 1
    cells = matrix_dim(config.seq_len) ** 2
    return max(1, min(2048, 6_000_000 // (streams * cells)))


def run_group(config: SimulationConfig, *, keep_pairs: bool = False) -> DistanceHistogram:
    """Simulate one group and tally Hamming distances per divergence rate.

    The ordinals are cut into the fewest chunks of at most ``_chunk_size``,
    with sizes that differ by at most one. One process per chunk and per
    usable CPU hashes them; no more, because the pool starts all of its
    processes at its first task. Per-ordinal substreams make the output
    the same for every split.
    """
    n = config.n_primary
    chunks = -(-n // _chunk_size(config))
    edges = [n * i // chunks for i in range(chunks + 1)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(chunks, cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(partial(_simulate_chunk, config), edges[:-1], edges[1:]))
    else:
        parts = [_simulate_chunk(config, s, e) for s, e in zip(edges, edges[1:])]
    distances = np.concatenate(parts, axis=0)

    width = config.hash_width
    counts = np.empty((len(config.divergence_rates), width + 1), dtype=np.int64)
    for j in range(len(config.divergence_rates)):
        counts[j] = np.bincount(distances[:, j], minlength=width + 1)
    return DistanceHistogram(
        config=config,
        counts=counts,
        pairs=distances if keep_pairs else None,
    )


def write_histogram_csv(hist: DistanceHistogram, sink: TextIO) -> None:
    """Write the per-rate distance distribution as CSV.

    Rows are sorted by (divergence_rate, hamming_distance) and enumerate
    every distance 0..width, zero counts included; fractions carry nine
    decimal places. Byte-identical for identical histograms.
    """
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    cfg = hist.config
    for j, rate in enumerate(cfg.divergence_rates):
        row = hist.counts[j]
        total = int(row.sum())
        for dist in range(cfg.hash_width + 1):
            count = int(row[dist])
            writer.writerow([
                cfg.group, cfg.seq_len, cfg.hash_width, cfg.strategy.kind,
                rate, dist, count, f"{count / total:.9f}",
            ])


def write_pair_csv(hist: DistanceHistogram, sink: TextIO) -> None:
    """Write one (ordinal, rate, distance) row per hashed pair, as ``csv`` would.

    The rows of each block of 16,384 ordinals are written as one string, so
    the text held at once stays bounded for any number of pairs.
    """
    if hist.pairs is None:
        raise ValueError("histogram was built without keep_pairs=True")
    rates = [str(rate) for rate in hist.config.divergence_rates]  # csv writes numbers with str
    sink.write(",".join(PAIR_CSV_HEADER) + "\n")
    for start in range(0, hist.pairs.shape[0], 1 << 14):
        block = hist.pairs[start:start + (1 << 14)].tolist()
        sink.write("".join(f"{ordinal},{rate},{dist}\n"
                           for ordinal, row in enumerate(block, start)
                           for rate, dist in zip(rates, row)))


def preset_config(group: str, *, n_primary: int | None = None,
                  seed: int | None = None,
                  rates: Iterable[float] | None = None) -> SimulationConfig:
    """A preset group's config, with optional overrides applied."""
    try:
        config = GROUP_PRESETS[group.upper()]
    except KeyError:
        raise KeyError(
            f"unknown group {group!r}; presets are {', '.join(GROUP_PRESETS)}"
        ) from None
    overrides = {}
    if n_primary is not None:
        overrides["n_primary"] = n_primary
    if seed is not None:
        overrides["seed"] = seed
    if rates is not None:
        overrides["divergence_rates"] = tuple(rates)
    return replace(config, **overrides) if overrides else config
