"""Per-node self time of the naive and rewritten query plans.

Builds the tables the benchmark (``perfbench``) queries: a NUC and an NSC
fact table of 10^6 rows in 4 partitions and a 10^4-row dimension, with
perfbench's generator settings, at exception rates 0.01 and 0.2. For each
query (distinct, sort, join) it runs the naive and the rewritten plan
round-robin, 2 untimed runs and then 9 timed ones each, in one process, so
the allocator is warm as it is in perfbench. Every node's result is
memoized for the run, so a node reached twice runs once and a node's self
time is its own work: its elapsed time less its children's. The executor
memoizes only shared nodes, and a timing subclass that did not memoize
every node would run a shared child once per parent.

Freed memory stays in the process heap (glibc ``mallopt``: no trimming,
and arrays up to 32 MiB come from the heap, not from fresh mappings), as
it does in perfbench's long-lived process. Otherwise every run takes
thousands of minor page faults on fresh output arrays, at several
microseconds each, which swamp the nodes' own work.

Prints, per plan, the median run time and minor page faults per run
(``resource.getrusage``), then each node as ``explain`` shows it with its
median self time in ms. "gather at the root" is what the run spends
outside the nodes: gathering a join's columns when the join is the root.

Usage: PYTHONPATH=src python tools/plan_profile.py
"""

import ctypes
import resource
import statistics
import time

from patchindex.bench import build_query_plans
from patchindex.datagen import GenSpec, dimension_table, generate
from patchindex.patch_index import NSC_ASC, NUC, build_index
from patchindex.query_engine import Executor, explain

ROWS, DIM_ROWS, PARTITIONS, DUP_DOMAIN = 10**6, 10**4, 4, 100_000
RATES = (0.01, 0.2)
QUERIES = ("distinct", "sort", "join")
WARM, REPEATS, SEED = 2, 9, 1


class ProfilingExecutor(Executor):
    """An Executor that memoizes every node and times each one's own work."""

    def run(self, plan):
        self.results, self.self_ns, self._child_ns = {}, {}, []
        return super().run(plan)

    def _exec(self, node):
        rel = self.results.get(id(node))
        if rel is not None:
            return rel
        self._child_ns.append(0)
        t0 = time.perf_counter_ns()
        rel = getattr(self, "_op_" + node.op)(node)
        elapsed = time.perf_counter_ns() - t0
        self.self_ns[id(node)] = elapsed - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += elapsed
        self.results[id(node)] = rel
        return rel


def preorder(plan):
    """Nodes in the order ``explain`` prints them, shared ones repeated."""
    out = [plan]
    for c in plan.children:
        out += preorder(c)
    return out


def profile(plans):
    """{name: (run ns list, minor fault list, {node id: self ns list})}."""
    stats = {name: ([], [], {}) for name in plans}
    for i in range(WARM + REPEATS):
        for name, plan in plans.items():
            ex = ProfilingExecutor()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter_ns()
            ex.run(plan)
            elapsed = time.perf_counter_ns() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if i < WARM:
                continue
            runs, fault_list, nodes = stats[name]
            runs.append(elapsed)
            fault_list.append(faults)
            for key, ns in ex.self_ns.items():
                nodes.setdefault(key, []).append(ns)
            nodes.setdefault("root", []).append(elapsed - sum(ex.self_ns.values()))
    return stats


def ms(ns_list):
    return statistics.median(ns_list) / 1e6


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def keep_freed_memory():
    """Have glibc keep freed memory for reuse; False where that fails."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
                    and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30))
    except (OSError, AttributeError):
        return False


def main():
    if not keep_freed_memory():
        print("mallopt unavailable: page faults may dominate the times")
    dim = dimension_table(DIM_ROWS)
    for e in RATES:
        tables = {
            "nuc": generate(GenSpec("nuc", ROWS, e, dup_domain=DUP_DOMAIN,
                                    partitions=PARTITIONS, seed=2 * SEED)),
            "nsc": generate(GenSpec("nsc", ROWS, e, partitions=PARTITIONS,
                                    seed=2 * SEED + 1, value_domain=DIM_ROWS)),
        }
        for query in QUERIES:
            name = "nuc" if query == "distinct" else "nsc"
            table = tables[name]
            index = build_index([p.columns["value"] for p in table.partitions],
                                NUC if name == "nuc" else NSC_ASC)
            naive, rewrite = build_query_plans(query, table, index, dim)
            plans = {"naive": naive, "rewrite": rewrite}
            for plan_name, (runs, faults, nodes) in profile(plans).items():
                plan = plans[plan_name]
                print(f"\n{query}, e={e}, {plan_name}: {ms(runs):.2f} ms, "
                      f"{statistics.median(faults):.0f} minor faults per run")
                lines = explain(plan).splitlines()
                seen = set()
                for node, line in zip(preorder(plan), lines):
                    note = "" if id(node) in seen else f"{ms(nodes[id(node)]):8.2f}"
                    seen.add(id(node))
                    print(f"  {line:<64}{note}")
                print(f"  {'gather at the root':<64}{ms(nodes['root']):8.2f}")


if __name__ == "__main__":
    main()
