"""Time the exact Hamming scan of a HashIndex, per probe, and write it as JSON.

    PYTHONPATH=src python3 tools/bench_scan.py [-o BENCH_scan.json]

For each row count (20k and 1M) and hash width (32 to 4096 bits) it builds
an index of random hashes, warms it with one probe, and times random
probes one at a time, for at least two seconds each: ``index._distances``
alone, and ``query_topk`` with k = 10 (scan, selection and ranking). It
reports the median seconds per probe of each, with the machine it ran on. The index comes from whichever
``dnaphash`` is first on ``PYTHONPATH``, so the same command times two
checkouts. At 1M rows and 4096 bits the hashes take 512 MB, and a scan may
hold as much again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from dnaphash import PerceptualHash, SelectionStrategy
from dnaphash.index import HashIndex, _distances, query_topk

ROWS = (20_000, 1_000_000)
WIDTHS = (32, 64, 100, 256, 1024, 4096)
K = 10
PROBES = 64
MIN_SECONDS = 2.0
MIN_SAMPLES = 21
SEED = 0


def _random_rows(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """n random packed hashes of ``width`` bits, padded to whole words, as uint8."""
    nbytes = (width + 7) // 8
    rows = np.zeros((n, -(-nbytes // 8) * 8), dtype=np.uint8)
    for start in range(0, n, 1 << 16):  # in blocks, to hold no second copy
        block = rows[start:start + (1 << 16)]
        block[:, :nbytes] = rng.integers(0, 256, size=(len(block), nbytes), dtype=np.uint8)
    rows[:, nbytes - 1] &= (0xFF << (8 * nbytes - width)) & 0xFF
    return rows


def _median_seconds(fn, probes: list) -> tuple[float, int]:
    """Median seconds of ``fn`` per probe, and the sample count.

    Probes are cycled for at least ``MIN_SECONDS`` and ``MIN_SAMPLES``, so
    that the median spans more than one of a shared host's slow spells.
    """
    times: list[float] = []
    total = 0.0
    while total < MIN_SECONDS or len(times) < MIN_SAMPLES:
        start = time.perf_counter()
        fn(probes[len(times) % len(probes)])
        times.append(time.perf_counter() - start)
        total += times[-1]
    return statistics.median(times), len(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run() -> dict:
    rng = np.random.default_rng(SEED)
    results = []
    for n in ROWS:
        ids = tuple(f"r{i}" for i in range(n))
        source_len = np.zeros(n, dtype=np.uint32)
        for width in WIDTHS:
            strategy = SelectionStrategy("zigzag", width)
            index = HashIndex(strategy, ids, source_len, _random_rows(rng, n, width))
            nbytes = (width + 7) // 8
            probes = [PerceptualHash(row[:nbytes].tobytes(), strategy)
                      for row in _random_rows(rng, PROBES, width)]
            query_topk(index, probes[0], K)  # builds the index's cached columns
            row = {"rows": n, "width": width}
            row["distances_s"], row["distances_samples"] = _median_seconds(
                lambda p: _distances(index, p), probes)
            row["query_topk_s"], row["query_topk_samples"] = _median_seconds(
                lambda p: query_topk(index, p, K), probes)
            results.append(row)
            del index
            print(f"{n:>9} rows {width:>5} bits  distances {1e3 * row['distances_s']:9.3f} ms"
                  f"  query_topk {1e3 * row['query_topk_s']:9.3f} ms", file=sys.stderr)
    return {
        "benchmark": "scan",
        "command": "PYTHONPATH=src python3 tools/bench_scan.py",
        "seed": SEED,
        "k": K,
        "probes": PROBES,
        "min_seconds": MIN_SECONDS,
        "machine": {
            "cpu": _cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("-o", "--output", default="BENCH_scan.json",
                        help="JSON file to write (default BENCH_scan.json)")
    args = parser.parse_args(argv)
    report = run()
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
