"""Self-test of the benchmark at about 10^4 rows; run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload prints every declared metric with its unit
(traced and untraced), that a wrong query result is counted as a failure,
that two streams with the same seed are identical, and that design.json
covers exactly the declared workloads and per-layer metrics. Exit code 0
means every check passed.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SECONDS = "1"


def tiny_scale():
    import workloads
    return workloads.Scale(rows=10_000, dim_rows=100)


def run_tiny(workload, trace, corrupt=None):
    """(result JSON, printed lines) of one tiny run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", "5", "--seconds", SECONDS,
                  "--trace", str(trace)], scale=tiny_scale(), corrupt=corrupt)
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics_printed():
    end_to_end, per_layer = run.declared_metrics()
    import workloads
    for workload in workloads.WORKLOADS:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            result, lines = run_tiny(workload, trace)
            where = f"{workload} trace={trace}"
            assert result["correct"] and result["failed"] == 0, (where, lines)
            assert set(result["metrics"]) == set(units), where
            for name, unit in units.items():
                m = result["metrics"][name]
                assert m["unit"] == unit and math.isfinite(m["value"]), (where, name)
                assert any(line.startswith(f"{name} ") and f" {unit} n=" in line
                           for line in lines), (where, name)
                if trace == 0:
                    assert m["value"] > 0, (where, name, m)
            assert any(line.startswith("failed_ratio 0 ratio n=")
                       for line in lines), where
            if trace:
                assert any(line.startswith("# attribution nuc_delete")
                           for line in lines), where


def check_wrong_result_counted():
    from patchindex.query_engine import Relation
    injected = []

    def corrupt(kind, rel):
        if kind == "distinct" and not injected:
            injected.append(kind)
            return Relation({c: a[:-1] for c, a in rel.columns.items()})
        return rel

    result, lines = run_tiny("mixed-bulk", 0, corrupt)
    assert injected and result["failed"] == 1 and not result["correct"], result
    ratio = next(line for line in lines if line.startswith("failed_ratio "))
    assert float(ratio.split()[1]) > 0, ratio


def check_streams_repeat():
    import numpy as np
    import workloads as wl
    w = wl.WORKLOADS["mixed-bulk"]

    def stream(seed):
        s = wl.StatementStream(seed, tiny_scale(), w.exception_rate, 50)
        out = []
        for kind in list(wl.STATEMENTS) * 10:
            st = s.next(kind)
            out.append([kind] + [a.tolist() for a in (st.ids, st.values, st.keys)
                                 if a is not None])
        return out

    assert stream(11) == stream(11)
    assert stream(11) != stream(12)
    kinds = wl.op_kinds(w.pattern)
    assert [next(kinds) for _ in range(4)] == ["distinct", "nuc_insert",
                                               "nuc_modify", "sort"]
    deleted = wl.StatementStream(3, tiny_scale(), 0.2, 5).next("nsc_delete").ids
    assert np.all(np.diff(deleted) < 0), deleted


def check_design_covers_declared():
    import workloads
    with open(HERE / "design.json") as f:
        design = json.load(f)
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    end_to_end, per_layer = run.declared_metrics()
    assert set(design["workloads"]) == set(workloads.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(design["per_layer"]) == set(per_layer)
    assert set(design["end_to_end"]) == set(end_to_end) | {"failed_ratio"}
    for name, entry in design["per_layer"].items():
        assert set(entry["moves"]) <= set(end_to_end), name
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS) | {"all"}, name


def main():
    run.import_library()
    checks = (check_design_covers_declared, check_streams_repeat,
              check_wrong_result_counted, check_metrics_printed)
    for check in checks:
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
