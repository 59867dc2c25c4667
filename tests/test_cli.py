"""End-to-end command line behavior: outputs, exit codes, atomic writes."""

import io
import logging
import os
import random
import stat
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

import dnaphash
from dnaphash import SelectionStrategy, Sequence, compute_hash, load_index, query, query_topk
from dnaphash.cli import _atomic_write, main
from window_oracle import expand_windows

def run_cli(*argv):
    """Invoke the CLI in-process; argparse aborts surface as their exit code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def write_fasta(path, records):
    with open(path, "w") as fh:
        for name, bases in records:
            fh.write(f">{name}\n{bases}\n")
    return str(path)


@pytest.fixture
def small_fasta(tmp_path):
    return write_fasta(tmp_path / "in.fa", [
        ("s1", "A" * 16),
        ("s2", "ACGTTGCAACGTTGCA"),
    ])


class TestHash:
    def test_pinned_output(self, small_fasta, capsys):
        assert run_cli("hash", "--width", "4", small_fasta) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "s1\t8"
        expected = compute_hash(Sequence("s2", "ACGTTGCAACGTTGCA"),
                                SelectionStrategy("block", 4)).to_hex()
        assert lines[1] == f"s2\t{expected}"

    def test_matches_library(self, tmp_path, capsys):
        fa = write_fasta(tmp_path / "x.fa", [("r1", "ACGT" * 64), ("r2", "GATTACA" * 40)])
        assert run_cli("hash", "--width", "64", fa) == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.strip().split("\n"))
        strat = SelectionStrategy("block", 64)
        assert out["r1"] == compute_hash(Sequence("r1", "ACGT" * 64), strat).to_hex()
        assert out["r2"] == compute_hash(Sequence("r2", "GATTACA" * 40), strat).to_hex()

    def test_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b">p\n" + b"A" * 16 + b"\n")))
        assert run_cli("hash", "--width", "4") == 0
        assert capsys.readouterr().out == "p\t8\n"

    @pytest.mark.parametrize("command", ["hash", "query"])
    def test_closed_stdin_exits_3(self, command, small_fasta, tmp_path, monkeypatch, capsys):
        argv = ["hash", "--width", "4"]
        if command == "query":
            idx = str(tmp_path / "s.dph")
            assert run_cli("index", small_fasta, "-o", idx, "--width", "4") == 0
            argv = ["query", idx, "-", "--top-k", "1"]
        monkeypatch.setattr(sys, "stdin", None)  # what Python sets when fd 0 is closed at start
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert "stdin is closed" in err and "Traceback" not in err

    def test_zigzag_choice_for_nonsquare_width(self, tmp_path, capsys):
        fa = write_fasta(tmp_path / "x.fa", [("r", "ACGT" * 32)])
        assert run_cli("hash", "--width", "32", fa) == 0
        expected = compute_hash(Sequence("r", "ACGT" * 32),
                                SelectionStrategy("zigzag", 32)).to_hex()
        assert capsys.readouterr().out == f"r\t{expected}\n"

    def test_invalid_base_exits_2(self, tmp_path, capsys):
        fa = write_fasta(tmp_path / "bad.fa", [("ok", "ACGT" * 8), ("oops", "ACGTNACGTACGTACG")])
        assert run_cli("hash", "--width", "4", fa) == 2
        err = capsys.readouterr().err
        assert "oops" in err and "5" in err  # offending record and position

    def test_skip_record_policy(self, tmp_path, capsys):
        fa = write_fasta(tmp_path / "bad.fa", [("oops", "ACGTNACGTACGTACG"), ("ok", "A" * 16)])
        assert run_cli("hash", "--width", "4", "--n-policy", "skip-record", fa) == 0
        assert capsys.readouterr().out == "ok\t8\n"

    def test_sequence_too_small_exits_2(self, tmp_path, capsys):
        fa = write_fasta(tmp_path / "tiny.fa", [("t", "ACGTACGT")])
        assert run_cli("hash", "--width", "64", fa) == 2
        assert "t" in capsys.readouterr().err

    def test_misfit_record_prints_nothing(self, tmp_path, capsys):
        fa = write_fasta(tmp_path / "m.fa", [("ok", "ACGT" * 32), ("tiny", "ACGTACGT")])
        assert run_cli("hash", "--width", "64", fa) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "record 'tiny':" in captured.err

    @pytest.mark.parametrize("command", [
        ["hash"], ["index", "-o", "x.dph"], ["index", "-o", "x.dph", "--window", "16"]],
        ids=["hash", "index", "index-window"])
    def test_bad_record_in_a_later_file_wins_over_a_misfit(self, command, tmp_path,
                                                           monkeypatch, capsys):
        # 'tiny' does not fit 64 bits, nor does a 16 bp window ('ok:0')
        monkeypatch.chdir(tmp_path)
        a = write_fasta(tmp_path / "a.fa", [("ok", "ACGT" * 32), ("tiny", "ACGTACGT")])
        b = write_fasta(tmp_path / "b.fa", [("fine", "ACGT" * 32), ("oops", "ACGTNACGT" * 4)])
        assert run_cli(*command, "--width", "64", a, b) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid base 'N' in record 'oops' at position 5" in captured.err
        assert "tiny" not in captured.err and "ok:0" not in captured.err
        assert sorted(os.listdir(tmp_path)) == ["a.fa", "b.fa"]

    @pytest.mark.parametrize("command", [["hash"], ["index", "-o", "x.dph"]],
                             ids=["hash", "index"])
    def test_misfit_in_an_earlier_file_wins_over_a_shorter_one(self, command, tmp_path,
                                                                monkeypatch, capsys):
        # 'mid' (48 bp, a 7x7 matrix) and 'tiny' (8 bp) do not fit 64 bits
        monkeypatch.chdir(tmp_path)
        a = write_fasta(tmp_path / "a.fa", [("ok", "ACGT" * 32), ("mid", "ACGT" * 12)])
        b = write_fasta(tmp_path / "b.fa", [("tiny", "ACGTACGT"), ("fine", "ACGT" * 32)])
        assert run_cli(*command, "--width", "64", a, b) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "record 'mid': block side 8 does not fit a 7x7 matrix" in captured.err
        assert "tiny" not in captured.err
        assert sorted(os.listdir(tmp_path)) == ["a.fa", "b.fa"]

    def test_non_utf8_input_is_a_data_error(self, tmp_path, capsys):
        bad_base = tmp_path / "base.fa"
        bad_base.write_bytes(b">a\nAC\xffGT\n")
        bad_header = tmp_path / "head.fa"
        bad_header.write_bytes(b">a\nACGT\n>b\xff\nACGT\n")
        assert run_cli("hash", "--width", "4", str(bad_base)) == 2
        assert "in record 'a' at position 3" in capsys.readouterr().err
        assert run_cli("hash", "--width", "4", str(bad_header)) == 2
        assert "line 3: header is not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["hash"], ["index", "-o", "-", "--width", "32", "--window", "1000"]])
    def test_long_records_are_held_one_at_a_time(self, command, tmp_path, capsysbinary):
        # A record's codes are dropped before the next record is read, so
        # several long records peak about as high as one of them.
        length = 2_000_000
        assert length > dnaphash.sequence._BLOCK_BYTES
        rng = np.random.default_rng(8)
        records = [(f"r{i}", "".join(rng.choice(list("ACGT"), size=length))) for i in range(4)]
        one = write_fasta(tmp_path / "one.fa", records[:1])
        several = write_fasta(tmp_path / "several.fa", records)
        assert run_cli(*command, one) == 0  # the kernel's cached factors are not per record

        def peak(path):
            tracemalloc.start()
            try:
                assert run_cli(*command, path) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsysbinary.readouterr()

        assert peak(several) < peak(one) + length / 2

    def test_interleaved_lengths_across_kernel_chunks(self, tmp_path, monkeypatch, capsys):
        # One batch whose 20 kbp records sit at uneven starts and outnumber
        # one kernel chunk, which holds fewer than this many matrices of side 142.
        chunk = dnaphash.hashing._WORKSPACE_CELLS // (142 * 142)
        lengths = [(20_000, 20_001, 20_000, 19_999)[i % 4] for i in range(4 * (chunk // 2 + 2))]
        assert lengths.count(20_000) > chunk
        rng = np.random.default_rng(4)
        records = [(f"r{i}", "".join(rng.choice(list("ACGT"), size=n)))
                   for i, n in enumerate(lengths)]
        fa = write_fasta(tmp_path / "i.fa", records)
        monkeypatch.setattr(dnaphash.sequence, "_BLOCK_BYTES", os.path.getsize(fa) + 1)
        assert run_cli("hash", "--width", "64", fa) == 0
        strategy = SelectionStrategy("block", 64)
        assert capsys.readouterr().out.splitlines() == [
            f"{rid}\t{compute_hash(Sequence(rid, bases), strategy).to_hex()}"
            for rid, bases in records]

    def test_missing_file_exits_3(self, tmp_path):
        assert run_cli("hash", str(tmp_path / "nope.fa")) == 3

    def test_bad_width_exits_1(self, small_fasta):
        assert run_cli("hash", "--width", "0", small_fasta) == 1

    def test_unknown_flag_exits_1(self, small_fasta):
        assert run_cli("hash", "--frobnicate", small_fasta) == 1


class TestIndexAndQuery:
    @pytest.fixture
    def corpus(self, tmp_path):
        records = [(f"g{i}", "ACGTTGCA" * 16) for i in range(3)]
        records += [(f"h{i}", "GGTTAACCGGTTAACC" * 8) for i in range(2)]
        return write_fasta(tmp_path / "corpus.fa", records)

    def test_round_trip_query_self(self, corpus, tmp_path, capsys):
        idx = str(tmp_path / "c.dph")
        assert run_cli("index", corpus, "-o", idx, "--width", "64") == 0
        assert run_cli("query", idx, corpus, "--max-dist", "0") == 0
        out = capsys.readouterr().out.strip().split("\n")
        # every record finds at least itself at distance 0
        for i in range(3):
            assert f"g{i}\tg{i}\t0" in out

    def test_top_k(self, corpus, tmp_path, capsys):
        idx = str(tmp_path / "c.dph")
        run_cli("index", corpus, "-o", idx, "--width", "64")
        probe = write_fasta(tmp_path / "p.fa", [("probe", "ACGTTGCA" * 16)])
        assert run_cli("query", idx, probe, "--top-k", "2") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("probe\t") and lines[0].endswith("\t0")

    def test_window_flag(self, corpus, tmp_path, capsys):
        idx = str(tmp_path / "w.dph")
        assert run_cli("index", corpus, "-o", idx, "--width", "16", "--window", "64") == 0
        # probing with one window's exact content finds both copies of it
        probe = write_fasta(tmp_path / "w.fa", [("w", "ACGTTGCA" * 8)])
        assert run_cli("query", idx, probe, "--max-dist", "0") == 0
        hits = capsys.readouterr().out.strip().split("\n")
        assert "w\tg0:0\t0" in hits
        assert "w\tg0:64\t0" in hits

    def test_window_count_over_mixed_parents(self, tmp_path):
        rng = np.random.default_rng(5)
        fa = write_fasta(tmp_path / "w.fa", [
            (name, "".join(rng.choice(list("ACGT"), size=n)))
            for name, n in (("long", 20_000), ("short", 50), ("mid", 3000))
        ])
        out = tmp_path / "w.dph"
        assert run_cli("index", fa, "-o", str(out), "--width", "32", "--window", "64",
                       "--step", "37") == 0
        with open(out, "rb") as fh:
            assert len(load_index(fh)) == 539 + 80

    @pytest.mark.parametrize("cells", [None, 128], ids=["workspace", "small-workspace"])
    def test_windows_across_reader_batches_equal_expanded_windows(self, cells, tmp_path,
                                                                  monkeypatch, caplog):
        # Small blocks give batches of several parents each; a small
        # workspace splits a parent's windows into chunks, some of which
        # straddle two parents of one batch.
        rng = np.random.default_rng(12)
        lengths = [90, 18, 260, 25, 130, 300, 75, 31, 180, 210, 64, 20, 150, 95, 240]
        records = [(f"p{i}", "".join(rng.choice(list("ACGT"), size=n)))
                   for i, n in enumerate(lengths)]
        records[4] = ("n4", records[4][1][:60] + "N" + records[4][1][61:])
        records[11] = ("n11", "N" + records[11][1][1:])
        fa = write_fasta(tmp_path / "w.fa", records)
        window, step, strategy = 32, 7, SelectionStrategy("zigzag", 20)
        monkeypatch.setattr(dnaphash.sequence, "_BLOCK_BYTES", 200)
        with open(fa, "rb") as handle:
            sizes = [len(b.ids) for b in dnaphash.sequence._stream_fasta(
                handle, n_policy="skip-record")]
        assert len(sizes) > 4 and max(sizes) > 2
        caplog.clear()
        if cells is not None:
            monkeypatch.setattr(dnaphash.hashing, "_WORKSPACE_CELLS", cells)
        out = tmp_path / "w.dph"
        with caplog.at_level(logging.WARNING):
            assert run_cli("index", fa, "-o", str(out), "--window", str(window), "--step",
                           str(step), "--width", "20", "--strategy", "zigzag",
                           "--n-policy", "skip-record") == 0
        got = [r.getMessage() for r in caplog.records]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            seqs = dnaphash.read_fasta(fa, n_policy="skip-record")
            want = dnaphash.index_bytes(dnaphash.build_index(
                expand_windows(seqs, window, step), strategy))
        assert out.read_bytes() == want
        assert got == [r.getMessage() for r in caplog.records]
        assert [r.args[0] for r in caplog.records] == ["n4", "n11", "p1", "p3", "p7"]

    def test_workers_flag_is_gone(self, corpus, tmp_path):
        # no command takes a process count; simulate sizes its own pool
        assert run_cli("index", corpus, "-o", str(tmp_path / "x.dph"), "--workers", "2") == 1
        assert run_cli("bench", "-n", "10", "--workers", "2") == 1
        assert run_cli("simulate", "--group", "A", "-n", "10", "-o", str(tmp_path / "s.csv"),
                       "--workers", "2") == 1
        assert os.listdir(tmp_path) == ["corpus.fa"]

    @pytest.mark.parametrize("parent, window", [(70_000, None), (65_534, "50")],
                             ids=["record", "window"])
    def test_overlong_id_is_a_data_error(self, parent, window, tmp_path, monkeypatch,
                                         capsysbinary):
        # An id may take at most 65,535 UTF-8 bytes; a 65,534-byte parent
        # fits, but its windows 'parent:0' and 'parent:50' do not.
        monkeypatch.chdir(tmp_path)
        fa = write_fasta(tmp_path / "long-id.fa", [("x" * parent, "ACGT" * 25)])
        flags = ["--width", "16"] + (["--window", window] if window else [])
        message = f"dnaphash: data error: record id {'x' * 32!r}... is too long to serialize\n"
        for output in ("-", "x.dph"):
            assert run_cli("index", fa, "-o", output, *flags) == 2
            captured = capsysbinary.readouterr()
            assert captured.out == b""
            assert captured.err.decode() == message
            assert os.listdir(tmp_path) == ["long-id.fa"]

    def test_step_without_window_exits_1(self, corpus, tmp_path):
        assert run_cli("index", corpus, "-o", str(tmp_path / "x.dph"), "--step", "10") == 1

    @pytest.mark.parametrize("flags, message", [
        (["--window", "3"], "window must be at least 4 bp"),
        (["--window", "4", "--step", "0"], "step must be positive"),
        (["--step", "5"], "step only makes sense together with window"),
    ], ids=["window", "step", "step-alone"])
    @pytest.mark.parametrize("second", ["ACGTTACGT" * 4, "ACGTNACGT" * 4], ids=["clean", "N"])
    def test_bad_record_wins_over_window_arguments(self, flags, message, second, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        fa = write_fasta(tmp_path / "a.fa", [("first", "ACGT" * 32), ("second", second),
                                             ("third", "ACGT" * 32)])
        code = run_cli("index", "-o", "x.dph", *flags, fa)
        captured = capsys.readouterr()
        if "N" in second:
            assert code == 2
            assert "invalid base 'N' in record 'second' at position 5" in captured.err
            assert message not in captured.err
        else:
            assert code == 1
            assert message in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["a.fa"]

    def test_corrupt_index_exits_3(self, corpus, tmp_path, capsys):
        idx = tmp_path / "c.dph"
        run_cli("index", corpus, "-o", str(idx), "--width", "64")
        blob = bytearray(idx.read_bytes())
        blob[-1] ^= 0xFF
        idx.write_bytes(bytes(blob))
        assert run_cli("query", str(idx), corpus, "--max-dist", "0") == 3
        assert "CRC" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["padding", "empty_id", "duplicate_id"])
    def test_invalid_records_exit_3(self, corpus, tmp_path, capsys, damage):
        # CRC-valid files whose records do not form an index
        idx = tmp_path / "c.dph"
        run_cli("index", corpus, "-o", str(idx), "--width", "12", "--strategy", "zigzag")
        blob = bytearray(idx.read_bytes())
        if damage == "padding":
            blob[-5] |= 0x01  # low bit of the last 12-bit hash's second byte
        elif damage == "empty_id":
            # the first record's id "g0" becomes an empty id plus 2 bytes of
            # garbage; shorten the file to match so the walk stays aligned
            at = blob.index(b"g0")
            blob[at - 2:at] = struct.pack("<H", 0)
            del blob[at:at + 2]
        else:
            at = blob.index(b"g1")
            blob[at:at + 2] = b"g0"
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        idx.write_bytes(bytes(blob))
        assert run_cli("query", str(idx), corpus, "--max-dist", "0") == 3
        err = capsys.readouterr().err
        assert "i/o error" in err and "Traceback" not in err

    def test_not_an_index_exits_3(self, corpus, tmp_path):
        bogus = tmp_path / "bogus.dph"
        bogus.write_bytes(b"this is not an index file at all....")
        assert run_cli("query", str(bogus), corpus, "--max-dist", "0") == 3

    def test_query_too_short_exits_2(self, corpus, tmp_path):
        idx = str(tmp_path / "c.dph")
        run_cli("index", corpus, "-o", idx, "--width", "64")
        probe = write_fasta(tmp_path / "p.fa", [("p", "ACGTACGTACGTACGT")])
        assert run_cli("query", idx, probe, "--max-dist", "0") == 2

    def test_query_misfit_probe_prints_nothing(self, corpus, tmp_path, capsys):
        idx = str(tmp_path / "c.dph")
        run_cli("index", corpus, "-o", idx, "--width", "64")
        probe = write_fasta(tmp_path / "p.fa", [("ok", "ACGTTGCA" * 16), ("p", "ACGT" * 4)])
        capsys.readouterr()
        assert run_cli("query", idx, probe, "--max-dist", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "record 'p':" in captured.err

    def test_index_misfit_record_named_exits_2(self, tmp_path, capsys):
        fa = write_fasta(tmp_path / "m.fa", [("ok", "ACGT" * 32), ("tiny", "ACGTACGT")])
        out = tmp_path / "m.dph"
        assert run_cli("index", fa, "-o", str(out), "--width", "64") == 2
        assert "record 'tiny':" in capsys.readouterr().err
        assert not out.exists()

    def test_index_to_stdout(self, corpus, tmp_path, monkeypatch, capsysbinary):
        monkeypatch.chdir(tmp_path)
        assert run_cli("index", corpus, "-o", "c.dph", "--width", "64") == 0
        assert run_cli("index", corpus, "-o", "-", "--width", "64") == 0
        data = capsysbinary.readouterr().out
        assert data == (tmp_path / "c.dph").read_bytes()
        assert load_index(io.BytesIO(data)).ids == ("g0", "g1", "g2", "h0", "h1")
        assert not (tmp_path / "-").exists()

    def test_max_dist_out_of_range_exits_1(self, corpus, tmp_path):
        idx = str(tmp_path / "c.dph")
        run_cli("index", corpus, "-o", idx, "--width", "64")
        assert run_cli("query", idx, corpus, "--max-dist", "65") == 1

    def test_query_flags_checked_without_probes(self, corpus, tmp_path, capsys):
        idx = str(tmp_path / "c.dph")
        run_cli("index", corpus, "-o", idx, "--width", "64")
        empty = tmp_path / "empty.fa"
        empty.write_text("")
        capsys.readouterr()
        assert run_cli("query", idx, str(empty), "--max-dist", "999") == 1
        assert "--max-dist must be within 0..64, got 999" in capsys.readouterr().err
        assert run_cli("query", idx, str(empty), "--top-k", "0") == 2
        assert "k must be within 1..5, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, window, max_dist, none", [
        (["--width", "32"], 64, 4, "ACGTTGCA" * 4 + "ACGTAGCA" + "ACGTTGCA" * 3),
        (["--width", "100", "--strategy", "zigzag"], 96, 27, ("GATTACA" * 14)[:96]),
    ], ids=["width32", "width100-zigzag"])
    def test_output_equals_library_results(self, flags, window, max_dist, none, tmp_path,
                                           capsys):
        # Windows of periodic parents tie in runs of many equal distances,
        # with ids whose str order is not their offset order ("chr:16" before
        # "chr:8"); one parent and one probe have non-ASCII ids. A 100-bit
        # probe spans two words. 'none' is within no record's max_dist.
        rng = np.random.default_rng(3)
        rand = "".join(rng.choice(list("ACGT"), size=300))
        corpus = write_fasta(tmp_path / "c.fa", [
            ("chr", "ACGTTGCA" * 40), ("染色体", rand), ("z", "GGTTAACC" * 40)])
        probes = [("tie", "ACGTTGCA" * (window // 8)), ("none", none),
                  ("const", "A" * window), ("é", rand[5:5 + window])]
        probe_fa = write_fasta(tmp_path / "p.fa", probes)
        idx = str(tmp_path / "c.dph")
        assert run_cli("index", corpus, "-o", idx, *flags, "--window", str(window),
                       "--step", "1") == 0
        with open(idx, "rb") as fh:
            index = load_index(fh)
        hashes = {pid: compute_hash(Sequence(pid, bases), index.strategy) for pid, bases in probes}
        results = {}
        for flag, value, search in (("--max-dist", max_dist, query), ("--top-k", 40, query_topk)):
            capsys.readouterr()
            assert run_cli("query", idx, probe_fa, flag, str(value)) == 0
            results[flag] = {pid: search(index, h, value) for pid, h in hashes.items()}
            assert capsys.readouterr().out == "".join(
                f"{pid}\t{rid}\t{d}\n" for pid, _ in probes for rid, d in results[flag][pid])
        # What the comparison has to cover:
        for hits in (h for by_probe in results.values() for h in by_probe.values()):
            assert hits == sorted(hits, key=lambda hit: (hit[1], hit[0]))
        in_range = results["--max-dist"]
        assert in_range["none"] == []
        for pid in ("tie", "const"):  # several distances, each tied many times
            runs = {d: [rid for rid, dd in in_range[pid] if dd == d] for _, d in in_range[pid]}
            assert len(runs) >= 3 and min(map(len, runs.values())) >= 10
        zero = [rid for rid, d in in_range["tie"] if d == 0]
        assert zero.index("chr:16") < zero.index("chr:8")
        assert any(not rid.isascii() for rid, _ in in_range["é"] + results["--top-k"]["é"])
        everything = query(index, hashes["tie"], index.width)
        assert everything[39][1] == everything[40][1]  # --top-k 40 cuts inside a run
        assert results["--top-k"]["tie"] == everything[:40]

    def test_all_tied_windows_print_in_python_str_order(self, tmp_path, capsys):
        # one constant parent: its 24 windows hash alike, and "c:10" precedes "c:9"
        fa = write_fasta(tmp_path / "c.fa", [("c", "A" * 87)])
        idx = str(tmp_path / "c.dph")
        assert run_cli("index", fa, "-o", idx, "--window", "64", "--step", "1", "--width", "32",
                       "--strategy", "zigzag") == 0
        probe = write_fasta(tmp_path / "p.fa", [("p", "A" * 64)])
        capsys.readouterr()
        assert run_cli("query", idx, probe, "--top-k", "24") == 0
        ids = sorted(f"c:{i}" for i in range(24))
        assert ids[:4] == ["c:0", "c:1", "c:10", "c:11"]
        assert capsys.readouterr().out == "".join(f"p\t{rid}\t0\n" for rid in ids)

    def test_both_query_modes_exits_1(self, corpus, tmp_path):
        idx = str(tmp_path / "c.dph")
        run_cli("index", corpus, "-o", idx, "--width", "64")
        assert run_cli("query", idx, corpus, "--max-dist", "3", "--top-k", "2") == 1

    def test_neither_query_mode_exits_1(self, corpus, tmp_path):
        idx = str(tmp_path / "c.dph")
        run_cli("index", corpus, "-o", idx, "--width", "64")
        assert run_cli("query", idx, corpus) == 1

    def test_window_warnings_follow_the_reader_and_a_bad_record(self, tmp_path, caplog):
        # Short parents are reported after the reader's warnings, as when
        # the whole input was parsed first, and not at all when a record is bad.
        fa = tmp_path / "w.fa"
        fa.write_text(">short1\nACGTACGT\n>n1\nACGTN" + "A" * 20 + "\n>long1\n" + "ACGT" * 6
                      + "\n>short2\nACGTA\n>n2\nN" + "C" * 20 + "\n")
        args = ["index", "-o", str(tmp_path / "w.dph"), "--window", "16", "--width", "16"]
        with caplog.at_level(logging.WARNING):
            assert run_cli(*args, "--n-policy", "skip-record", str(fa)) == 0
        assert [r.args[0] for r in caplog.records] == ["n1", "n2", "short1", "short2"]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert run_cli(*args, str(fa)) == 2
        assert caplog.records == []

    def test_empty_corpus_exits_1(self, tmp_path):
        fa = tmp_path / "empty.fa"
        fa.write_text("")
        assert run_cli("index", str(fa), "-o", str(tmp_path / "e.dph")) == 1


class TestFuzzedFasta:
    def test_every_mutation_exits_with_a_documented_code(self, tmp_path, capsys):
        # Byte flips, inserts and truncations of a small FASTA, run through
        # hash, index and query in-process: each must end in 0..3, never a
        # traceback.
        rng = random.Random(2024)
        clean = b">a one\nACGTACGTTGCA\nacgtAC\n>b\nGGGGCCCCAAAATTTT\n>c\r\nACGTTGCAACGT\r\n"
        index = tmp_path / "base.dph"
        assert run_cli("index", "--width", "16", "-o", str(index), _write(tmp_path, clean)) == 0
        special = [0x80, 0xBF, 0xC3, 0xE2, 0xFF, ord("\r"), ord("\n"), ord(">"), ord(" "), ord("N")]
        for trial in range(100):
            data = bytearray(clean)
            for _ in range(rng.randint(1, 3)):
                byte = rng.choice(special) if rng.random() < 0.7 else rng.randrange(256)
                at = rng.randrange(len(data) + 1)
                kind = rng.choice(["flip", "insert", "truncate"])
                if kind == "flip" and at < len(data):
                    data[at] = byte
                elif kind == "insert":
                    data[at:at] = bytes([byte])
                else:
                    del data[at:]
            fa = _write(tmp_path, bytes(data))
            policy = ["--n-policy", rng.choice(["reject", "skip-record"])]
            runs = [["hash", "--width", "16", *policy, fa],
                    ["index", "--width", "16", *policy, "-o", str(tmp_path / "f.dph"), fa],
                    ["index", "--width", "16", "--window", "8", "--step", "3", *policy,
                     "-o", str(tmp_path / "w.dph"), fa],
                    ["query", str(index), fa, *rng.choice([["--top-k", "2"], ["--max-dist", "5"]]),
                     *policy]]
            for argv in runs:
                assert run_cli(*argv) in (0, 1, 2, 3), (trial, argv[0], bytes(data))
            capsys.readouterr()


def _write(tmp_path, data):
    path = tmp_path / "fuzz.fa"
    path.write_bytes(data)
    return str(path)


class TestSimulate:
    def test_preset_group_to_file(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = run_cli("simulate", "--group", "A", "-n", "40",
                       "--rates", "0.1,1.0", "-o", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 33
        assert lines[0].startswith("group,seq_len,")
        assert lines[1].split(",")[:5] == ["A", "100", "32", "zigzag", "0.1"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--group", "B", "-n", "30", "--rates", "0.5", "--seed", "4")
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_length_and_width(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli("simulate", "--len", "256", "--width", "16",
                       "-n", "25", "--rates", "0.2", "-o", str(out))
        assert code == 0
        first = out.read_text().strip().split("\n")[1].split(",")
        assert first[:4] == ["custom", "256", "16", "block"]

    def test_per_pair_file(self, tmp_path):
        hist, pairs = tmp_path / "h.csv", tmp_path / "p.csv"
        code = run_cli("simulate", "--group", "A", "-n", "15", "--rates", "0.1,0.5",
                       "-o", str(hist), "--per-pair", str(pairs))
        assert code == 0
        lines = pairs.read_text().strip().split("\n")
        assert lines[0] == "ordinal,divergence_rate,hamming_distance"
        assert len(lines) == 1 + 15 * 2

    def test_stdout_default(self, capsys):
        assert run_cli("simulate", "--group", "A", "-n", "10", "--rates", "1.0") == 0
        out = capsys.readouterr().out
        assert out.startswith("group,seq_len,")
        assert len(out.strip().split("\n")) == 1 + 33

    def test_unknown_group_exits_1(self, capsys):
        assert run_cli("simulate", "--group", "Q", "-n", "10") == 1
        assert "presets" in capsys.readouterr().err

    def test_group_with_len_exits_1(self):
        assert run_cli("simulate", "--group", "A", "--len", "100", "-n", "10") == 1

    def test_group_with_strategy_exits_1(self, capsys):
        # a preset's strategy is part of the group, not a default to override
        assert run_cli("simulate", "--group", "B", "--strategy", "zigzag", "-n", "10") == 1
        captured = capsys.readouterr()
        assert captured.err == ("dnaphash: error: --group already fixes --len, --width "
                                "and --strategy\n")
        assert captured.out == ""

    def test_bad_rates_exit_1(self):
        assert run_cli("simulate", "--group", "A", "-n", "10", "--rates", "0.1,abc") == 1
        assert run_cli("simulate", "--group", "A", "-n", "10", "--rates", "0.1,2.0") == 1

    def test_missing_len_or_width_exits_1(self):
        assert run_cli("simulate", "--len", "100", "-n", "10") == 1

    def test_workers_env_is_ignored(self, monkeypatch, tmp_path):
        args = ("simulate", "--group", "A", "-n", "10", "--rates", "1.0")
        assert run_cli(*args, "-o", str(tmp_path / "plain.csv")) == 0
        monkeypatch.setenv("DNAPHASH_WORKERS", "bogus")
        assert run_cli(*args, "-o", str(tmp_path / "env.csv")) == 0
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestBench:
    def test_report_lines(self, capsys):
        assert run_cli("bench", "-n", "2000", "--len", "64") == 0
        out = capsys.readouterr().out
        lines = dict(
            (line.split(maxsplit=1)[0], line.split(maxsplit=1)[1].strip())
            for line in out.strip().split("\n")
        )
        assert lines["sequences"] == "2000"
        assert lines["sequence_length"] == "64"
        assert lines["hash_width"] == "64"
        assert lines["strategy"] == "block"
        assert "hashes/s" in lines["hashing"]
        assert "seq/s" in lines["generation"]
        assert lines["generation_share"].endswith("%")
        assert int(lines["bits_set"]) > 0

    def test_bad_n_exits_1(self):
        assert run_cli("bench", "-n", "0") == 1


class TestAtomicWrites:
    def test_failure_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with _atomic_write(str(target)) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    def test_success_replaces_previous(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old")
        with _atomic_write(str(target)) as fh:
            fh.write("new")
        assert target.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("binary", [False, True])
    def test_fsync_then_rename_then_fsync_directory(self, tmp_path, monkeypatch, binary):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        target = tmp_path / "out.bin"
        with _atomic_write(str(target), binary=binary) as fh:
            fh.write(b"data" if binary else "data")
        assert events == ["fsync file", "rename", "fsync dir"]
        assert target.read_bytes() == b"data"

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_output_mode_follows_umask(self, tmp_path, binary, umask):
        target = tmp_path / "out"
        old = os.umask(umask)
        try:
            with _atomic_write(str(target), binary=binary) as fh:
                fh.write(b"data" if binary else "data")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    def test_missing_directory_names_the_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert run_cli("simulate", "--group", "A", "-n", "10", "-o", str(target)) == 3
        err = capsys.readouterr().err
        assert f"No such file or directory: '{target}'" in err and ".dnaphash-" not in err
        assert os.listdir(tmp_path) == []

    def test_directory_target_names_the_path(self, tmp_path, small_fasta, capsys):
        target = tmp_path / "out"
        target.mkdir()
        assert run_cli("index", small_fasta, "-o", str(target), "--width", "16") == 3
        err = capsys.readouterr().err
        assert f"Is a directory: '{target}'" in err and ".dnaphash-" not in err
        assert sorted(os.listdir(tmp_path)) == ["in.fa", "out"] and os.listdir(target) == []

    @pytest.mark.parametrize("command", ["index", "simulate"])
    def test_fifo_target_stays_a_fifo(self, command, tmp_path, small_fasta):
        argv = {"index": ["index", small_fasta, "--width", "16"],
                "simulate": ["simulate", "--group", "A", "-n", "10"]}[command]
        regular = tmp_path / "regular"
        assert run_cli(*argv, "-o", str(regular)) == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        keep = tmp_path / "fifo.keep"  # reaches the FIFO even if a rename replaces ``fifo``
        os.link(fifo, keep)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code = run_cli(*argv, "-o", str(fifo))
        finally:
            reader.join(timeout=10)
            if reader.is_alive():  # still blocked in open: no writer came, so be one
                os.close(os.open(keep, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0 and stat.S_ISFIFO(fifo.stat().st_mode)
        assert got == [regular.read_bytes()]

    def test_simulate_failure_preserves_existing_file(self, tmp_path):
        out = tmp_path / "h.csv"
        out.write_text("keep me")
        # invalid rates abort before any write
        assert run_cli("simulate", "--group", "A", "-n", "10",
                       "--rates", "0.1,0.1", "-o", str(out)) == 1
        assert out.read_text() == "keep me"


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dnaphash", "hash", "--width", "4"],
            input=">z\n" + "A" * 16 + "\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "z\t8\n"

    def test_closed_stdin_exits_3(self):
        proc = subprocess.run(
            ["/bin/sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m", "dnaphash", "hash"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert "stdin is closed" in proc.stderr and "Traceback" not in proc.stderr

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable,
        # every hashing command still runs at dim 100 (10 kbp records)
        fa = write_fasta(tmp_path / "long.fa", [("a", "ACGTTGCA" * 1250), ("b", "GATTACA" * 1430)])
        idx = str(tmp_path / "long.dph")
        commands = [
            ["hash", fa],
            ["index", fa, "-o", idx],
            ["query", idx, fa, "--top-k", "1"],
            ["simulate", "--len", "10000", "--width", "64", "-n", "3", "--rates", "0.1",
             "-o", str(tmp_path / "sim.csv")],
        ]
        script = textwrap.dedent(f"""
            import sys
            sys.modules["scipy"] = None
            from dnaphash.cli import main
            for argv in {commands!r}:
                if main(argv):
                    sys.exit(f"{{argv[0]}} failed")
        """)
        src = os.path.dirname(os.path.dirname(dnaphash.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split("\t")[0] for line in lines] == ["a", "b", "a", "b"]
        assert lines[2] == "a\ta\t0" and lines[3] == "b\tb\t0"
        assert (tmp_path / "sim.csv").read_text().startswith("group,")

    def test_process_pool_is_imported_only_when_used(self):
        # importing it loads multiprocessing, which every command would pay for at start-up
        script = textwrap.dedent("""
            import sys
            import dnaphash.cli
            print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
        """)
        src = os.path.dirname(os.path.dirname(dnaphash.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_one_chunk_simulate_starts_no_pool(self, tmp_path):
        script = textwrap.dedent(f"""
            import sys
            from dnaphash.cli import main
            if main(["simulate", "--group", "F", "-n", "3", "-o", {str(tmp_path / "s.csv")!r}]):
                sys.exit("simulate failed")
            print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
        """)
        src = os.path.dirname(os.path.dirname(dnaphash.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dnaphash", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        for name in ("hash", "index", "query", "simulate", "bench"):
            assert name in proc.stdout
