"""``tools/bench.py``, run end to end at small sizes so that it cannot rot."""

import importlib.util
import io
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import dnaphash.hashing
from dnaphash import SelectionStrategy, cli, hash_codes, load_index, read_fasta
from dnaphash.sequence import codes_from_bases

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in {"RECORDS": 3, "RECORD_LEN": 20_000, "PROBES": 6, "ROWS": (2000,),
                        "WIDTHS": (32, 100), "KERNEL_LENGTHS": (36, 1000), "KERNEL_BASES": 20_000,
                        "READS": 2000, "FRESH_RUNS": 3, "MIN_SECONDS": 0.05,
                        "MIN_SAMPLES": 3}.items():
        monkeypatch.setattr(module, name, value)
    return module


def _run(bench, tmp_path, suite):
    out = tmp_path / f"{suite}.json"
    assert bench.main([suite, "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report) == ["benchmark", "command", "constants", "machine", "results"]
    assert report["benchmark"] == suite
    assert report["constants"]["min_samples"] == 3
    assert list(report["machine"]) == ["cpu", "cores", "python", "numpy", "platform"]
    for row in report["results"]:
        timed = [key[:-2] for key in row if key.endswith("_s")]
        assert timed and all(row[f"{name}_samples"] >= 3 and row[f"{name}_s"] > 0
                             for name in timed)
    return report["results"]


def test_kernel(bench, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "LONG_LEN", 5000)
    rows = _run(bench, tmp_path, "kernel")
    assert [(row["function"], row["length"], row["strategy"]) for row in rows] == [
        ("hash_codes", 36, "block-16"), ("hash_codes", 36, "zigzag-32"),
        ("hash_codes", 1000, "block-64"), ("hash_codes", 1000, "zigzag-32"),
        ("hash_codes", 5000, "block-64"),
        ("_hash_records", 1000, "zigzag-32"), ("_hash_records", 1000, "zigzag-32"),
        ("compute_hash", 100, "block-64"), ("compute_hash", 1000, "zigzag-32")]
    assert len(capsys.readouterr().err.splitlines()) == 9
    # Each CRC-32 is that of the same codes hashed through the matrix path.
    monkeypatch.setattr(dnaphash.hashing, "_GEMM_MAX_MACS", 0)
    for row in rows:
        probes, windows = row["function"] == "compute_hash", row["function"] == "_hash_records"
        assert list(row) == ["function", "length", "strategy", "rows", *(["step"] if windows else []),
                             "crc32", "call_s", "call_samples", "hashes_per_second",
                             *(["call_after_idle_s", "call_after_idle_samples"] if probes else [])]
        if probes:  # each sample follows a 0.1 s sleep, which counts toward MIN_SECONDS
            assert row["call_after_idle_s"] > 0 and row["call_after_idle_samples"] == bench.MIN_SAMPLES
        kind, k = row["strategy"].split("-")
        if windows:  # one 20 kbp parent's windows, stacked as rows
            parent = bench._kernel_codes(1, 20_000)[0]
            codes = np.stack([parent[at:at + 1000] for at in range(0, 19_001, row["step"])])
            assert row["rows"] == len(codes) == 19_000 // row["step"] + 1
        else:
            codes = bench._kernel_codes(bench.PROBES if probes else row["rows"], row["length"])
            assert row["rows"] == (1 if probes else 20_000 // row["length"])
        packed = hash_codes(codes, SelectionStrategy(kind, int(k)))
        assert row["crc32"] == f"{zlib.crc32(packed):08x}"
    assert [row["step"] for row in rows if "step" in row] == [100, 10]


def test_scan(bench, tmp_path, capsys):
    rows = _run(bench, tmp_path, "scan")
    assert [(row["rows"], row["width"]) for row in rows] == [(2000, 32), (2000, 100)]
    assert all(list(row) == ["rows", "width", "distances_s", "distances_samples",
                             "query_topk_s", "query_topk_samples"] for row in rows)
    assert len(capsys.readouterr().err.splitlines()) == 2  # one progress line per row


def test_query(bench, tmp_path, capsys):
    rows = _run(bench, tmp_path, "query")
    assert [row["step"] for row in rows] == [100, 10]
    assert len(capsys.readouterr().err.splitlines()) == 2
    # The same inputs and command, rebuilt here, give the index each row describes.
    records, _ = bench._write_inputs(np.random.default_rng(bench.SEED), str(tmp_path))
    for row in rows:
        assert list(row) == ["step", "windows", "index_crc32", "index_s", "index_samples",
                             "index_rss_mb", "load_index_s", "load_index_samples", "topk_lines",
                             "topk_crc32", "topk_s", "topk_samples", "topk_rss_mb", "range_lines",
                             "range_crc32", "range_s", "range_samples", "range_rss_mb"]
        # the peak of a process that imported numpy, in MB (ru_maxrss is in KiB)
        assert all(10 < row[f"{mode}_rss_mb"] < 500 for mode in ("index", "topk", "range"))
        path = str(tmp_path / f"step{row['step']}.dph")
        assert cli.main(["index", records, "-o", path, "--window", str(bench.WINDOW),
                         "--step", str(row["step"]), "--width", "32", "--strategy", "zigzag"]) == 0
        with open(path, "rb") as handle:
            data = handle.read()
        assert row["windows"] == len(load_index(io.BytesIO(data)))
        assert row["index_crc32"] == f"{zlib.crc32(data[:-4]):08x}"
        assert row["topk_lines"] == bench.PROBES * bench.TOP_K


def test_cli(bench, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "CHROMOSOME_LEN", 50_000)
    rows = _run(bench, tmp_path, "cli")
    assert len(capsys.readouterr().err.splitlines()) == 3
    row, *index_rows = rows
    assert list(row) == ["command", "records", "length", "strategy", "stdout_bytes", "stdout_crc32",
                         "wall_s", "wall_samples", "wall_range", "rss_mb", "rss_range_mb"]
    assert (row["command"], row["records"], row["wall_samples"]) == ("hash", 2000, 3)
    for each in rows:
        assert each["wall_range"][0] <= each["wall_s"] <= each["wall_range"][1]
        assert 10 < each["rss_range_mb"][0] <= each["rss_mb"] <= each["rss_range_mb"][1] < 500
    # The same reads and command, run here, print what the row describes.
    reads = bench._write_reads(str(tmp_path))
    assert cli.main(["hash", reads, "--width", "64", "--strategy", "block"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out.count(b"\n") == 2000 and out.startswith(b"read0\t")
    assert (row["stdout_bytes"], row["stdout_crc32"]) == (len(out), f"{zlib.crc32(out):08x}")
    # The same inputs and commands, run here, write the files the index rows describe.
    chromosome = bench._write_chromosomes(str(tmp_path), 1)
    assert [(r["input"], r["records"], r["length"], r["strategy"], r["window"], r["step"])
            for r in index_rows] == [("reads", 2000, 100, "block-64", None, None),
                                     ("chromosome", 4901, 50_000, "zigzag-32", 1000, 10)]
    for row, argv in zip(index_rows, (
            [reads, "--width", "64", "--strategy", "block"],
            [chromosome, "--window", "1000", "--step", "10", "--width", "32", "--strategy",
             "zigzag"])):
        assert list(row) == ["command", "input", "records", "length", "strategy", "window", "step",
                             "file_bytes", "file_crc32", "wall_s", "wall_samples", "wall_range",
                             "rss_mb", "rss_range_mb"]
        assert (row["command"], row["wall_samples"]) == ("index", 3)
        path = tmp_path / "direct.dph"
        assert cli.main(["index", *argv, "-o", str(path)]) == 0
        data = path.read_bytes()
        assert len(load_index(io.BytesIO(data))) == row["records"]
        assert (row["file_bytes"], row["file_crc32"]) == (len(data), f"{zlib.crc32(data[:-4]):08x}")


def test_reader(bench, tmp_path, capsys, monkeypatch):
    for name, value in {"LONG_RECORDS": 5, "LONG_LEN": 2000, "CHROMOSOMES": 2,
                        "CHROMOSOME_LEN": 50_000}.items():
        monkeypatch.setattr(bench, name, value)
    rows = _run(bench, tmp_path, "reader")
    assert len(capsys.readouterr().err.splitlines()) == 6
    assert [(row["function"], row["input"], row["records"]) for row in rows[2:]] == [
        ("_stream_fasta", "records", 5), ("_stream_fasta", "chromosome", 1),
        ("hash", "chr1.fa", 1), ("hash", "chr2.fa", 2)]
    for row in rows[:4]:
        assert list(row) == ["function", "input", "n_policy", "bytes", "records", "ids_crc32",
                             "lengths_crc32", "codes_crc32", "read_s", "read_samples",
                             "mb_per_second"]
    for row in rows[4:]:
        assert list(row) == ["function", "input", "records", "bytes", "stdout_bytes",
                             "stdout_crc32", "wall_s", "wall_samples", "wall_range", "rss_mb",
                             "rss_range_mb"]
        assert 10 < row["rss_range_mb"][0] <= row["rss_mb"] <= row["rss_range_mb"][1] < 500
        assert row["stdout_bytes"] == row["records"] * len("chr0\t" + "0" * 16 + "\n")
    # The CRC-32s of the reads are those of the records read_fasta gives on the same files.
    for row, n_share in zip(rows[:2], (0.0, bench.N_SHARE)):
        assert (row["function"], row["input"]) == ("_stream_fasta", "reads-n" if n_share else "reads")
        path = bench._write_reads(str(tmp_path), n_share)
        seqs = read_fasta(path, n_policy=row["n_policy"])
        assert (row["n_policy"] == "skip-record") == bool(n_share)
        assert 1900 < row["records"] == len(seqs) <= 2000
        lengths = np.array([len(s) for s in seqs], dtype="<i8")
        assert [row[f"{column}_crc32"] for column in ("ids", "lengths", "codes")] == [
            f"{zlib.crc32(data):08x}" for data in ("".join(s.id for s in seqs).encode(), lengths,
                                                   codes_from_bases("".join(s.bases for s in seqs)))]
    assert rows[1]["records"] < 2000


def test_ids(bench, tmp_path, capsys, monkeypatch):
    for name, value in {"CHROMOSOME_LEN": 50_000, "SMALL_READS": 500}.items():
        monkeypatch.setattr(bench, name, value)
    rows = _run(bench, tmp_path, "ids")
    assert len(capsys.readouterr().err.splitlines()) == 4
    shapes = list(bench._id_shapes())
    assert [(row["ids"], row["records"]) for row in rows] == [
        (shape, len(names)) for shape, names in shapes]
    assert [len(names) for _, names in shapes][1:] == [4901, 500, 2000]
    assert all(rid.startswith(f"s{i}.") and 1 <= int(rid.split(".")[1]) <= 99
               for i, rid in enumerate(shapes[2][1]))
    for row, (_, names) in zip(rows, shapes):
        assert list(row) == ["ids", "records", "id_bytes", "image_crc32", "topk_ids_crc32",
                             "init_s", "init_samples", "load_topk_s", "load_topk_samples"]
        assert row["id_bytes"] == len("".join(names).encode("utf-8"))
        # The top-k CRC-32 is that of the brute-force ranking: distance, then id.
        rng = np.random.default_rng([bench.SEED, 5])
        hashes = bench._random_rows(rng, len(names), 32)[:, :4]
        probe = bench._random_rows(rng, bench.PROBES, 32)[0, :4]
        body = struct.pack("<4sHHBBQ", b"DPH1", 1, 32, 1, 0, len(names)) + b"".join(
            struct.pack("<H", len(rid.encode())) + rid.encode() + bytes(4) + h.tobytes()
            for rid, h in zip(names, hashes))  # the v1 image, field by field
        assert row["image_crc32"] == f"{zlib.crc32(body):08x}"
        dist = np.bitwise_count(hashes ^ probe).sum(axis=1).tolist()
        top = sorted(range(len(names)), key=lambda i: (dist[i], names[i]))[:bench.TOP_K]
        want = "".join(f"{names[i]}\n" for i in top).encode("utf-8")
        assert row["topk_ids_crc32"] == f"{zlib.crc32(want):08x}"
