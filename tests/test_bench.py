import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from patchindex import _native
from patchindex import bench as bench_mod
from patchindex.bench import (CSV_HEADER, PlainBitVector, WorkloadReport,
                              bench_query, bench_shard_sweep, bench_update,
                              build_query_plans, shard_overhead_pct,
                              write_csv)
from patchindex.column_store import route_rows
from patchindex.datagen import GenSpec, dimension_table, generate
from patchindex.patch_index import NSC_ASC, NUC, build_index
from patchindex.query_engine import (execute, explain, result_checksum,
                                     zero_branch_prune)
from patchindex.sharded_bitmap import ShardedBitmap


class TestPlainBitVector:
    def test_delete_shifts_everything(self):
        pv = PlainBitVector(200)
        pv.set(64)
        pv.delete(0)
        assert pv.get(63) == 1
        assert pv.logical_len == 199

    def test_matches_sharded_logical_content(self):
        rng = np.random.default_rng(0)
        n = 1000
        pv = PlainBitVector(n)
        bm = ShardedBitmap(n, 128)
        on = rng.choice(n, size=200, replace=False)
        for p in on:
            pv.set(int(p))
        bm.set_many(on)
        for p in sorted(rng.choice(800, size=100, replace=False), reverse=True):
            pv.delete(int(p))
            bm.delete(int(p))
        got = bm.to_bool_array()
        want = [pv.get(i) for i in range(pv.logical_len)]
        assert got.astype(int).tolist() == want


class TestReports:
    def test_csv_schema(self, tmp_path):
        r = WorkloadReport("query_distinct", 0.5, "naive", 123, rows=10)
        path = tmp_path / "out.csv"
        write_csv([r], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("experiment,param,variant,runtime_ns,rows,"
                            "patches,memory_bytes,blocks_scanned")
        assert lines[1] == "query_distinct,0.5,naive,123,10,0,0,0"

    def test_overhead_values(self):
        assert shard_overhead_pct(1 << 14) == 0.39
        assert shard_overhead_pct(1 << 8) == 25.0


class TestShardSweep:
    def test_small_sweep_reports(self):
        reports = bench_shard_sweep(bits=2 * 10**5, deletes=2000,
                                    shard_sizes=(256, 1024, 4096), seed=0)
        assert len(reports) == 6
        variants = {r.variant for r in reports}
        assert variants == {"scalar", "parallel_lanes"}
        assert all(r.runtime_ns > 0 for r in reports)

    def test_reports_median_of_repeats(self, monkeypatch):
        from patchindex import bench as bench_mod
        built = []
        real_bitmap = bench_mod.ShardedBitmap

        def counted(*args, **kwargs):
            built.append(args)
            return real_bitmap(*args, **kwargs)

        # each timed delete reads the clock twice; the repeats alternate the
        # variants, scalar taking 5, 1, 3, 7, 2 and parallel_lanes 2, 100,
        # 4, 6, 9
        ticks = [0]
        for d in [5, 2, 1, 100, 3, 4, 7, 6, 2, 9]:
            ticks += [ticks[-1] + d, ticks[-1] + d + 10]
        clock = iter(ticks)
        monkeypatch.setattr(bench_mod, "ShardedBitmap", counted)
        monkeypatch.setattr(bench_mod.time, "perf_counter_ns",
                            lambda: next(clock))
        reports = bench_shard_sweep(bits=4096, deletes=100, shard_sizes=(256,))
        assert len(built) == 2 * bench_mod.SHARD_SWEEP_REPEATS == 10
        assert [(r.variant, r.runtime_ns) for r in reports] == [
            ("scalar", 3), ("parallel_lanes", 6)]


class TestBenchQuery:
    def _indexed(self, kind, e, rows=4000, value_domain=None):
        spec = GenSpec(kind, rows, e, seed=2, partitions=2,
                       value_domain=value_domain)
        t = generate(spec)
        c = NUC if kind == "nuc" else NSC_ASC
        return t, build_index([p.columns["value"] for p in t.partitions], c)

    def test_distinct_verified(self):
        t, idx = self._indexed("nuc", 0.3)
        reports = bench_query(t, "distinct", idx,
                              plans=("naive", "patchindex"), param=0.3)
        assert [r.variant for r in reports] == ["naive", "patchindex"]
        assert reports[0].rows == reports[1].rows

    def test_sort_verified(self):
        t, idx = self._indexed("nsc", 0.1)
        reports = bench_query(t, "sort", idx, plans=("naive", "patchindex"))
        assert reports[0].rows == t.row_count

    def test_join_with_zbp(self):
        t, idx = self._indexed("nsc", 0.0, value_domain=50)
        reports = bench_query(t, "join", idx, dim=dimension_table(50),
                              plans=("naive", "patchindex", "patchindex-zbp"))
        assert len(reports) == 3

    @pytest.mark.parametrize("query", ["sort", "join"])
    def test_patchindex_runs_unpruned_rewrite(self, query, monkeypatch):
        from patchindex import bench as bench_mod
        from patchindex.query_engine import explain
        t, idx = self._indexed("nsc", 0.0, value_domain=50)
        dim = dimension_table(50)
        assert idx.patch_count == 0
        _, rewritten = bench_mod.build_query_plans(query, t, idx, dim)
        real_execute = bench_mod.execute
        calls = []

        def recorded(plan):
            calls.append(explain(plan))
            return real_execute(plan)

        monkeypatch.setattr(bench_mod, "execute", recorded)
        bench_query(t, query, idx, dim=dim,
                    plans=("naive", "patchindex", "patchindex-zbp"))
        # the naive baseline, one verified run per rewrite, then the timed
        # runs round-robin over naive, patchindex and patchindex-zbp
        runs = 1 + bench_mod.QUERY_REPEATS
        timed = calls[3:]
        patchindex = [calls[1]] + timed[1::3]
        zbp = [calls[2]] + timed[2::3]
        assert patchindex == [explain(rewritten)] * runs
        assert len(zbp) == runs and zbp[0] != patchindex[0]
        assert "Scan[use_patches]" in patchindex[0]
        assert "Scan[use_patches]" not in zbp[0]

    def test_median_of_warm_runs(self, monkeypatch):
        from patchindex import bench as bench_mod
        t, idx = self._indexed("nuc", 0.2)
        real_execute = bench_mod.execute
        calls = []

        def counted(plan):
            calls.append(plan)
            return real_execute(plan)

        # each timed run reads the clock twice; durations 1, 2, 100, 3, 4
        ticks = [0]
        for d in [1, 2, 100, 3, 4] * 2:
            ticks += [ticks[-1] + d, ticks[-1] + d + 10]
        clock = iter(ticks)
        monkeypatch.setattr(bench_mod, "execute", counted)
        monkeypatch.setattr(bench_mod.time, "perf_counter_ns",
                            lambda: next(clock))
        reports = bench_query(t, "distinct", idx, plans=("naive", "patchindex"))
        # the baseline doubles as the naive warm-up; the rewrite gets its own
        assert len(calls) == 1 + bench_mod.QUERY_REPEATS + 1 + bench_mod.QUERY_REPEATS
        assert [r.runtime_ns for r in reports] == [3, 3]

    def test_timed_runs_interleave_plans(self, monkeypatch):
        from patchindex import bench as bench_mod
        t, idx = self._indexed("nsc", 0.0, value_domain=50)
        dim = dimension_table(50)
        naive, rewritten = bench_mod.build_query_plans("join", t, idx, dim)
        pruned = bench_mod.zero_branch_prune(rewritten)
        names = {id(naive): "naive", id(rewritten): "patchindex"}
        real_execute = bench_mod.execute
        calls = []

        def recorded(plan):
            calls.append(names.get(id(plan), "patchindex-zbp"))
            return real_execute(plan)

        # each timed run reads the clock twice; durations per round are
        # (naive, patchindex, patchindex-zbp)
        durations = [(9, 1, 50), (7, 2, 40), (8, 100, 10), (1, 3, 20),
                     (100, 4, 30)]
        ticks = [0]
        for d in [d for rnd in durations for d in rnd]:
            ticks += [ticks[-1] + d, ticks[-1] + d + 10]
        clock = iter(ticks)
        monkeypatch.setattr(bench_mod, "execute", recorded)
        monkeypatch.setattr(bench_mod, "zero_branch_prune", lambda p: pruned)
        monkeypatch.setattr(bench_mod.time, "perf_counter_ns",
                            lambda: next(clock))
        monkeypatch.setattr(bench_mod, "build_query_plans",
                            lambda *a: (naive, rewritten))
        plans = ("naive", "patchindex", "patchindex-zbp")
        reports = bench_query(t, "join", idx, dim=dim, plans=plans)
        assert bench_mod.QUERY_REPEATS == len(durations)
        # untimed: the baseline and one verified run per rewrite
        assert calls[:3] == list(plans)
        assert calls[3:] == list(plans) * bench_mod.QUERY_REPEATS
        assert [(r.variant, r.runtime_ns) for r in reports] == [
            ("naive", 8), ("patchindex", 3), ("patchindex-zbp", 30)]

    def test_tampered_result_detected(self, monkeypatch):
        from patchindex import bench as bench_mod
        t, idx = self._indexed("nuc", 0.2)
        real_execute = bench_mod.execute
        calls = []

        def tampered(plan):
            rel = real_execute(plan)
            calls.append(plan)
            if len(calls) > 1:  # corrupt everything after the baseline
                for c in rel.columns:
                    rel.columns[c] = rel.columns[c][:-1]
            return rel

        monkeypatch.setattr(bench_mod, "execute", tampered)
        with pytest.raises(bench_mod.VerificationError):
            bench_query(t, "distinct", idx, plans=("naive", "patchindex"))


class TestBenchUpdate:
    @pytest.mark.parametrize("op", ["insert", "modify", "delete"])
    def test_granularity_invariant_state(self, op):
        spec = GenSpec("nuc", 3000, 0.5, seed=3, partitions=2)
        reports, checksums = bench_update(
            spec, op, count=60, granularities=(5, 30, 60),
            variants=("bitmap", "identifiers"), seed=4)
        assert len(reports) == 6
        for variant in ("bitmap", "identifiers"):
            states = {checksums[(variant, g)] for g in (5, 30, 60)}
            assert len(states) == 1
        # both variants maintain identical logical state
        assert checksums[("bitmap", 5)] == checksums[("identifiers", 5)]

    def test_delete_most_rows_granularity_invariant(self):
        # 2500 of 3000 rows, drawn from the whole table: applied in
        # descending order, every split deletes the same rows
        ids = bench_mod._prepared_updates("delete", 3000, 2500, 4, 3000)["ids"]
        assert ids.max() >= 500
        spec = GenSpec("nuc", 3000, 0.5, seed=3, partitions=2)
        reports, checksums = bench_update(
            spec, "delete", count=2500, granularities=(7, 100, 2500),
            variants=("bitmap", "identifiers"), seed=4)
        assert {r.rows for r in reports} == {500}
        assert len(set(checksums.values())) == 1

    def test_none_variant_runs(self):
        spec = GenSpec("nsc", 1000, 0.2, seed=5, partitions=2)
        reports, _ = bench_update(spec, "insert", count=20,
                                  granularities=(10,), variants=("none",))
        assert reports[0].patches == 0


def _load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPlanProfile:
    # the label explain starts each operator's line with
    LABELS = {"scan": "Scan[", "select": "Select", "project": "Project(",
              "distinct": "SortDistinct(", "sort": "Sort(",
              "hash_join": "HashJoin(", "merge_join": "MergeJoin(",
              "union": "Union", "merge_sorted": "MergeSortedStreams("}

    @pytest.mark.parametrize("e", [0.0, 0.2])
    @pytest.mark.parametrize("query", ["distinct", "sort", "join"])
    def test_explain_line_per_preorder_node(self, query, e):
        """plan_profile pairs explain's lines with its preorder walk."""
        preorder = _load_tool("plan_profile").preorder
        kind = "nuc" if query == "distinct" else "nsc"
        table = generate(GenSpec(kind, 3000, e, partitions=3, seed=5,
                                 dup_domain=1000, value_domain=100))
        index = build_index([p.columns["value"] for p in table.partitions],
                            NUC if kind == "nuc" else NSC_ASC)
        naive, rewritten = build_query_plans(query, table, index,
                                             dimension_table(100))
        pruned = zero_branch_prune(rewritten)
        assert (pruned is rewritten) == (e > 0)
        for plan in (naive, rewritten, pruned):
            lines = explain(plan).splitlines()
            nodes = preorder(plan)
            assert len(lines) == len(nodes)
            for node, line in zip(nodes, lines):
                assert line.lstrip().startswith(self.LABELS[node.op])


    @pytest.mark.parametrize("query", ["distinct", "sort", "join"])
    def test_self_times_cover_every_node(self, query):
        """Under destination passing a scan writes inside its consumer's
        write; the profiler still gives every node a self time, none
        negative, that together stay within the run, and its result is
        the executor's."""
        tool = _load_tool("plan_profile")
        kind = "nuc" if query == "distinct" else "nsc"
        table = generate(GenSpec(kind, 3000, 0.2, partitions=3, seed=5,
                                 dup_domain=1000, value_domain=100))
        index = build_index([p.columns["value"] for p in table.partitions],
                            NUC if kind == "nuc" else NSC_ASC)
        dim = dimension_table(100)
        for plan in build_query_plans(query, table, index, dim):
            ex = tool.ProfilingExecutor()
            t0 = time.perf_counter_ns()
            rel = ex.run(plan)
            elapsed = time.perf_counter_ns() - t0
            assert set(ex.self_ns) == {id(n) for n in tool.preorder(plan)}
            assert min(ex.self_ns.values()) >= 0
            assert sum(ex.self_ns.values()) <= elapsed
            assert result_checksum(rel) == result_checksum(execute(plan))

    @pytest.mark.parametrize("argv,want", [
        ([], (("distinct", "sort", "join"), (0.01, 0.2))),
        (["sort"], (("sort",), (0.01, 0.2))),
        (["sort", "0.01"], (("sort",), (0.01,))),
        (["join", "0"], (("join",), (0.0,))),
    ])
    def test_query_and_rate_arguments(self, argv, want):
        tool = _load_tool("plan_profile")
        assert tool.parse_args(argv) == want

    @pytest.mark.parametrize("argv", [["scan"], ["sort", "1.5"],
                                      ["sort", "x"], ["sort", "0.1", "2"]])
    def test_bad_arguments_exit_2(self, argv):
        tool = _load_tool("plan_profile")
        with pytest.raises(SystemExit) as exc:
            tool.parse_args(argv)
        assert exc.value.code == 2


class TestStmtProfile:
    def test_route_wrapper_yields_what_route_rows_yields(self):
        tool = _load_tool("stmt_profile")
        route = tool._timed_generator("route", route_rows)
        rowids = np.array([9, 7, 3, 2, 0])
        got = list(route(rowids, [4, 4, 4], "test"))
        want = list(route_rows(rowids, [4, 4, 4], "test"))
        assert [g[0] for g in got] == [w[0] for w in want] == [0, 1, 2]
        for (_, gsel, glocal), (_, wsel, wlocal) in zip(got, want):
            assert np.array_equal(gsel, wsel) and np.array_equal(glocal, wlocal)
        assert tool._spent["route"] > 0

    def test_blocks_column_sits_next_to_probe(self):
        tool = _load_tool("stmt_profile")
        ms = {col: [2e6, 1e6, 3e6] for col in tool.PHASES}  # ns samples
        samples = {("nuc_insert", 10): dict(ms, blocks=[6, 4, 81],
                                            rows=[1536, 1024, 20736]),
                   ("nsc_delete", 10): dict(ms, blocks=[0, 0, 0], rows=[0, 0, 0])}
        header, nuc, nsc = tool.format_table(samples)
        names = header.split()[1:]
        assert names[names.index("probe") + 1] == "blocks"
        assert names[names.index("blocks") + 1] == "rows"
        assert names[names.index("part") + 1] == "summary"
        assert names == list(tool.COLUMNS)
        nuc, nsc = nuc.split()[2:], nsc.split()[2:]  # past "kind x10"
        assert nuc[names.index("blocks")] == "6"
        assert nuc[names.index("rows")] == "1536"
        assert nsc[names.index("blocks")] == "0"
        assert nuc[names.index("probe")] == "2.000"


class TestBenchTrajectory:
    @staticmethod
    def make_tree(root, kernel):
        pkg = root / "src" / "patchindex"
        (pkg / "__pycache__").mkdir(parents=True)
        (pkg / "column_store.py").write_text("X = 1\n")
        (pkg / "_native.c").write_text(kernel)
        return pkg

    def test_src_digest_tells_kernel_only_changes_apart(self, tmp_path):
        digest = _load_tool("bench_trajectory").src_digest
        self.make_tree(tmp_path / "a", "int f(void) { return 1; }\n")
        self.make_tree(tmp_path / "b", "int f(void) { return 2; }\n")
        same = self.make_tree(tmp_path / "same", "int f(void) { return 1; }\n")
        assert digest(tmp_path / "a") != digest(tmp_path / "b")
        assert digest(tmp_path / "a") == digest(tmp_path / "same")
        # bytecode caches are build output, not source
        (same / "__pycache__" / "x.pyc").write_bytes(b"\0")
        assert digest(tmp_path / "a") == digest(tmp_path / "same")
        # a file's name counts as well as its bytes
        (same / "_native.c").rename(same / "_kernels.c")
        assert digest(tmp_path / "same") != digest(tmp_path / "a")

    def test_kernel_paths_record_the_select_path(self, tmp_path):
        kernel_paths = _load_tool("bench_trajectory").kernel_paths
        root = Path(__file__).resolve().parents[1]
        assert kernel_paths(root) == (_native.BACKEND, _native.SELECT_PATH)
        for body, want in (('BACKEND = "c"\nSELECT_PATH = "scalar"\n', ("c", "scalar")),
                           ('BACKEND = "c"\n', ("c", None))):  # an older tree
            pkg = self.make_tree(tmp_path / str(len(body)), "")
            (pkg / "__init__.py").write_text("")
            (pkg / "_native.py").write_text(body)
            assert kernel_paths(pkg.parent.parent) == want
