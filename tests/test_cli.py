import json
import struct

import numpy as np
import pytest

from patchindex import _native, bench as bench_mod, cli
from patchindex.cli import main
from patchindex.column_store import MAGIC, ColumnTable
from patchindex.patch_index import NSC_ASC, NSC_DESC, NUC


def pdx1(header):
    """A PDX1 file of the given header and no rows."""
    blob = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob


GOOD_HEADER = {"schema": [["key", "<i8"], ["value", "<i8"]],
               "partitions": [0, 0], "block_size": 4096}
BAD_HEADERS = {
    "short": b"PDX1\x01",
    "empty object": pdx1({}),
    "list": pdx1([1, 2]),
    "block_size 0": pdx1(dict(GOOD_HEADER, block_size=0)),
    "block_size true": pdx1(dict(GOOD_HEADER, block_size=True)),
    "no partitions": pdx1(dict(GOOD_HEADER, partitions=[])),
    "negative rows": pdx1(dict(GOOD_HEADER, partitions=[5, -1])),
    "unknown dtype": pdx1(dict(GOOD_HEADER, schema=[["key", "zz"]])),
    "schema not pairs": pdx1(dict(GOOD_HEADER, schema=[["key"]])),
    "block_size 2^40": pdx1(dict(GOOD_HEADER, block_size=2**40)),
    "column twice": pdx1(dict(GOOD_HEADER, schema=[["value", "<i8"]] * 2)),
    "not JSON": MAGIC + struct.pack("<I", 3) + b"{no",
}


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "t.pdx"
    rc = main(["generate", "--kind", "nuc", "--rows", "5000",
               "--exception-rate", "0.2", "--partitions", "2",
               "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture
def sorted_dataset(tmp_path):
    path = tmp_path / "s.pdx"
    main(["generate", "--kind", "nsc", "--rows", "5000",
          "--exception-rate", "0.05", "--partitions", "2",
          "--seed", "3", "--out", str(path)])
    return path


class TestExitCodes:
    def test_unknown_verb_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as e:
            main(["generate", "--kind", "nuc"])
        assert e.value.code == 2

    def test_success_zero(self, dataset):
        assert main(["index", "stats", "--table", str(dataset)]) == 0


class TestGenerate:
    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.pdx", tmp_path / "b.pdx"
        args = ["generate", "--kind", "nsc", "--rows", "3000",
                "--exception-rate", "0.1", "--seed", "7"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestIndex:
    def test_stats_output(self, dataset, capsys):
        main(["index", "stats", "--table", str(dataset),
              "--constraint", "nuc", "--store", "identifiers"])
        out = capsys.readouterr().out
        assert "constraint: nuc" in out
        assert "store: identifiers" in out
        assert "exception_rate: 0.2" in out
        assert f"kernel_backend: {_native.BACKEND}\n" in out

    @pytest.mark.parametrize("store", ["bitmap", "identifiers"])
    def test_stats_report_bitmap_health(self, dataset, capsys, store):
        # a freshly built index has no dead bitmap slots
        assert main(["index", "stats", "--table", str(dataset),
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "lost_bits: 0\n" in out and "utilization: 1.0\n" in out


class TestRemovedIndexVerbs:
    @pytest.mark.parametrize("action", ["create", "rebuild"])
    def test_rejected(self, dataset, action):
        with pytest.raises(SystemExit) as e:
            main(["index", action, "--table", str(dataset)])
        assert e.value.code == 2


class TestRemovedThreadsFlags:
    @pytest.mark.parametrize("argv", [["index", "stats", "--table", "t.pdx"],
                                      ["bench", "query"],
                                      ["bench", "update"]])
    def test_rejected(self, argv):
        cli.make_parser().parse_args(argv)  # the rest of the line is valid
        with pytest.raises(SystemExit) as e:
            main(argv + ["--threads", "2"])
        assert e.value.code == 2


class TestQuery:
    def test_distinct_verify_ok(self, dataset, capsys):
        rc = main(["query", "distinct", "--table", str(dataset), "--verify"])
        assert rc == 0
        assert "verification ok" in capsys.readouterr().out

    def test_sort_verify_ok(self, sorted_dataset):
        assert main(["query", "sort", "--table", str(sorted_dataset),
                     "--verify"]) == 0

    def test_join_verify_ok(self, sorted_dataset):
        assert main(["query", "join", "--table", str(sorted_dataset),
                     "--dim-rows", "5000", "--verify"]) == 0

    def test_explain_prints_tree(self, dataset, capsys):
        rc = main(["query", "distinct", "--table", str(dataset), "--explain"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Union" in out
        assert "Scan[exclude_patches]" in out
        assert "rows=" in out and "cost=" not in out

    def test_patchindex_plan_is_not_pruned(self, tmp_path, capsys):
        path = tmp_path / "e0.pdx"
        main(["generate", "--kind", "nsc", "--rows", "3000", "--partitions",
              "2", "--out", str(path)])
        capsys.readouterr()
        for plan, pruned in (("patchindex", False), ("patchindex-zbp", True)):
            assert main(["query", "sort", "--table", str(path), "--plan",
                         plan, "--explain"]) == 0
            out = capsys.readouterr().out
            assert ("Scan[use_patches]" not in out) is pruned

    def test_csv_output(self, dataset, tmp_path, capsys):
        csv = tmp_path / "q.csv"
        main(["query", "distinct", "--table", str(dataset),
              "--csv-out", str(csv)])
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("experiment,param,variant,runtime_ns")
        assert lines[1].startswith("query_distinct,")


class TestUpdate:
    @pytest.mark.parametrize("op", ["insert", "modify", "delete"])
    def test_update_runs(self, dataset, op, capsys):
        rc = main(["update", op, "--table", str(dataset), "--count", "50",
                   "--granularity", "10", "--constraint", "nuc"])
        assert rc == 0
        assert f"{op} x50" in capsys.readouterr().out

    def test_delete_more_than_half(self, tmp_path, capsys):
        path, csv = tmp_path / "small.pdx", tmp_path / "d.csv"
        assert main(["generate", "--kind", "nuc", "--rows", "2000",
                     "--out", str(path)]) == 0
        assert main(["update", "delete", "--table", str(path), "--count",
                     "1500", "--granularity", "100", "--csv-out", str(csv)]) == 0
        row = csv.read_text().splitlines()[1].split(",")
        assert row[0] == "update_delete" and row[4] == "500"

    def test_update_prints_phases(self, dataset, capsys):
        assert main(["update", "insert", "--table", str(dataset), "--count",
                     "20", "--granularity", "10"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("phases: storage ")
        assert "probe " in line and "maintain " in line

    def test_update_prints_filter_bytes(self, dataset, sorted_dataset, capsys):
        # the NUC probe builds the value column's block filters; NSC never
        # probes, so its table carries none
        for path, kind, want in ((dataset, "nuc", lambda x: x > 0),
                                 (sorted_dataset, "nsc", lambda x: x == 0)):
            assert main(["update", "insert", "--table", str(path), "--count",
                         "20", "--granularity", "10", "--constraint", kind]) == 0
            first = capsys.readouterr().out.splitlines()[0]
            assert "rows_scanned=" in first and "blocks_scanned=" in first
            value = float(first.split("filter_bytes_per_row=")[1])
            assert want(value), (kind, first)

    def test_update_prints_filter_fill(self, dataset, sorted_dataset, capsys):
        # a share of set bits: NUC filters hold about 4 bits per row at 16
        # bits per row, NSC has none
        for path, kind, low, high in ((dataset, "nuc", 0.05, 0.5),
                                      (sorted_dataset, "nsc", 0.0, 0.0)):
            assert main(["update", "insert", "--table", str(path), "--count",
                         "20", "--granularity", "10", "--constraint", kind]) == 0
            first = capsys.readouterr().out.splitlines()[0]
            fill = float(first.split("filter_fill=")[1].split(",")[0])
            assert low <= fill <= high, (kind, first)
            assert first.index("filter_fill=") < first.index("filter_bytes_per_row=")

    def test_insert_into_empty_table(self, tmp_path, capsys):
        path = tmp_path / "empty.pdx"
        assert main(["generate", "--kind", "nuc", "--rows", "0",
                     "--out", str(path)]) == 0
        assert main(["update", "insert", "--table", str(path),
                     "--count", "5"]) == 0
        assert main(["bench", "update", "--rows", "0", "--count", "5",
                     "--granularities", "5"]) == 0
        out = capsys.readouterr().out
        assert "insert x5" in out and "update_insert,5,bitmap," in out

    def test_nsc_update(self, sorted_dataset):
        assert main(["update", "insert", "--table", str(sorted_dataset),
                     "--count", "30", "--granularity", "5",
                     "--constraint", "nsc", "--store", "identifiers"]) == 0


class TestBenchVerbs:
    def test_shard_sweep_small(self, capsys):
        rc = main(["bench", "shard-sweep", "--bits", "100000",
                   "--deletes", "1000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shard_sweep,256,scalar," in out

    def test_bench_query_small(self, tmp_path, capsys):
        csv = tmp_path / "bq.csv"
        rc = main(["bench", "query", "--rows", "3000", "--rates", "0.0", "0.2",
                   "--queries", "distinct", "--csv-out", str(csv)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == ("experiment,param,variant,runtime_ns,rows,"
                            "patches,memory_bytes,blocks_scanned")
        assert len(lines) > 4

    def test_bench_update_small(self, capsys):
        rc = main(["bench", "update", "--rows", "2000", "--op", "delete",
                   "--count", "40", "--granularities", "10", "40"])
        assert rc == 0
        assert "update_delete" in capsys.readouterr().out


class TestErrorContract:
    """User errors exit 2 with one line on stderr; 1 means verification."""

    def _usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("patchindex: error: ")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("verb", [["index", "stats"], ["query", "sort"],
                                      ["update", "insert"]])
    def test_missing_table_file(self, tmp_path, capsys, verb):
        missing = tmp_path / "absent.pdx"
        err = self._usage_error(verb + ["--table", str(missing)], capsys)
        assert str(missing) in err

    def test_not_a_table_file(self, tmp_path, capsys):
        path = tmp_path / "junk.pdx"
        path.write_bytes(b"not a table")
        err = self._usage_error(["index", "stats", "--table", str(path)], capsys)
        assert "bad magic" in err

    @pytest.mark.parametrize("blob", BAD_HEADERS.values(), ids=BAD_HEADERS)
    def test_bad_header(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.pdx"
        path.write_bytes(blob)
        err = self._usage_error(["index", "stats", "--table", str(path)], capsys)
        assert str(path) in err and "header" in err

    @pytest.mark.parametrize("change", [{"block_size": 2**40},
                                        {"schema": [["value", "<i8"]] * 2}],
                             ids=["block_size 2^40", "column twice"])
    def test_bad_header_of_a_table(self, tmp_path, capsys, change):
        """A 5-row table whose header is rewritten; both columns hold the
        same rows, so the file still holds the bytes, and the zone maps,
        that the header needs."""
        path = tmp_path / "t.pdx"
        rows = np.arange(5, dtype=np.int64)
        ColumnTable.from_partitions([{"key": rows, "value": rows}]).save(path)
        buf = path.read_bytes()
        (hlen,) = struct.unpack("<I", buf[4:8])
        header = json.loads(buf[8:8 + hlen])
        assert header["schema"] == [["key", "<i8"], ["value", "<i8"]]
        path.write_bytes(pdx1(dict(header, **change)) + buf[8 + hlen:])
        err = self._usage_error(["index", "stats", "--table", str(path)],
                                capsys)
        assert str(path) in err and "header" in err

    def test_good_header_of_empty_partitions_loads(self, tmp_path):
        path = tmp_path / "empty.pdx"
        path.write_bytes(pdx1(GOOD_HEADER))
        assert main(["index", "stats", "--table", str(path)]) == 0

    @pytest.mark.parametrize("cut", ["truncated", "trailing bytes"])
    def test_file_length_checked(self, tmp_path, capsys, cut):
        path = tmp_path / "t.pdx"
        assert main(["generate", "--kind", "nuc", "--rows", "100",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        buf = path.read_bytes()
        bad = buf[:200] if cut == "truncated" else buf + bytes(16)
        path.write_bytes(bad)
        err = self._usage_error(["index", "stats", "--table", str(path)],
                                capsys)
        assert str(path) in err
        assert f"holds {len(bad)} bytes" in err and f"needs {len(buf)}" in err

    def test_corrupt_zone_maps(self, dataset, capsys):
        buf = bytearray(dataset.read_bytes())
        buf[-1] ^= 0x01  # the last partition's last zone-map entry
        dataset.write_bytes(bytes(buf))
        err = self._usage_error(["index", "stats", "--table", str(dataset)],
                                capsys)
        assert "partition 1" in err and "zone maps" in err

    @pytest.mark.parametrize("verb", [["index", "stats"], ["query", "distinct"],
                                      ["update", "delete"]])
    def test_unknown_column(self, dataset, capsys, verb):
        err = self._usage_error(verb + ["--table", str(dataset),
                                        "--column", "nope"], capsys)
        assert "'nope'" in err and "value" in err

    def test_bytes_column(self, tmp_path, capsys):
        path = tmp_path / "pad.pdx"
        assert main(["generate", "--kind", "nuc", "--rows", "100",
                     "--pad-bytes", "4", "--out", str(path)]) == 0
        capsys.readouterr()
        err = self._usage_error(["index", "stats", "--table", str(path),
                                 "--column", "pad"], capsys)
        assert "not an int64 column" in err

    def test_declined_rewrite(self, dataset, capsys, monkeypatch):
        real = cli.build_query_plans
        monkeypatch.setattr(cli, "build_query_plans",
                            lambda *a: (real(*a)[0], None))
        err = self._usage_error(["query", "distinct", "--table", str(dataset)],
                                capsys)
        assert "rewrite declined" in err
        # the naive plan needs no rewrite
        assert main(["query", "distinct", "--table", str(dataset),
                     "--plan", "naive"]) == 0

    def test_format_flag_removed(self, dataset):
        with pytest.raises(SystemExit) as e:
            main(["query", "distinct", "--table", str(dataset),
                  "--format", "csv"])
        assert e.value.code == 2

    @pytest.mark.parametrize("args, words", [
        (["delete", "--count", "5001"], "outside [0, 5000]"),
        (["modify", "--count", "5001"], "outside [0, 5000]"),
        (["insert", "--count", "-3"], "outside [0, inf]"),
        (["insert", "--granularity", "0"], "at least 1"),
        (["delete", "--granularity", "-1"], "at least 1")])
    def test_bad_update_workload(self, dataset, capsys, args, words):
        capsys.readouterr()
        err = self._usage_error(["update", args[0], "--table", str(dataset)]
                                + args[1:], capsys)
        assert words in err

    @pytest.mark.parametrize("args, words", [
        (["--rows", "-5"], "rows must be at least 0"),
        (["--rows", "10", "--partitions", "0"], "partitions at least 1"),
        (["--rows", "10", "--exception-rate", "1.5"], "exception rate"),
        (["--rows", "1000", "--exception-rate", "0.2", "--dup-domain", "-5"],
         "dup domain"),
        (["--rows", "1000", "--exception-rate", "0.2", "--dup-domain", "0"],
         "dup domain"),
        (["--rows", "10", "--value-domain", "0"], "value domain"),
        (["--rows", "10", "--pad-bytes", "-1"], "pad bytes")])
    def test_bad_dataset(self, tmp_path, capsys, args, words):
        out = tmp_path / "x.pdx"
        err = self._usage_error(["generate", "--kind", "nuc", "--out", str(out)]
                                + args, capsys)
        assert words in err and not out.exists()

    @pytest.mark.parametrize("args, words", [
        (["update", "--rows", "-5"], "rows must be at least 0"),
        (["update", "--partitions", "0"], "partitions at least 1"),
        (["query", "--rates", "1.5"], "exception rate"),
        (["query", "--rates", "0.1", "1.5"], "exception rate"),
        (["query", "--rows", "-5"], "rows must be at least 0"),
        (["query", "--partitions", "0"], "partitions at least 1")])
    def test_bad_bench_dataset(self, capsys, monkeypatch, args, words):
        def generate(spec):
            raise AssertionError("a table was generated")

        monkeypatch.setattr(bench_mod, "generate", generate)
        err = self._usage_error(["bench"] + args, capsys)
        assert words in err

    def test_negative_dimension_rows(self, dataset, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("an index was built")

        monkeypatch.setattr(cli, "_build", build)
        err = self._usage_error(["query", "join", "--table", str(dataset),
                                 "--dim-rows", "-1"], capsys)
        assert "dimension rows must be at least 0" in err

    @pytest.mark.parametrize("text", ["nsc:foo", "nsc:", "nuc:desc", "nuc:asc",
                                      "unique"])
    def test_unknown_constraint(self, dataset, capsys, text):
        with pytest.raises(SystemExit) as e:
            main(["update", "insert", "--table", str(dataset),
                  "--constraint", text])
        assert e.value.code == 2
        assert f"unknown constraint {text!r}" in capsys.readouterr().err

    def test_constraint_spellings(self):
        assert [cli._constraint(t) for t in ("nuc", "nsc", "nsc:asc",
                                             "nsc:desc")] == [
            NUC, NSC_ASC, NSC_ASC, NSC_DESC]

    def test_corrupt_unprobed_zone_maps(self, dataset, capsys):
        # the stored zone maps of the key column, which no probe reads,
        # are still checked. The file ends with each partition's key and
        # value minimums and maximums, one 4096-row block per 2500-row
        # partition; flip the first byte of partition 0's key minimums
        buf = bytearray(dataset.read_bytes())
        buf[len(buf) - 2 * 2 * 2 * 8] ^= 0x01
        dataset.write_bytes(bytes(buf))
        err = self._usage_error(["index", "stats", "--table", str(dataset)],
                                capsys)
        assert "partition 0" in err and "column 'key'" in err

    def test_more_deletes_than_bits(self, capsys):
        err = self._usage_error(["bench", "shard-sweep", "--bits", "1000",
                                 "--deletes", "1001"], capsys)
        assert "--deletes" in err
