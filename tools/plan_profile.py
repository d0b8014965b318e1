"""Per-node self time of the naive and rewritten query plans.

Builds the tables the benchmark (``perfbench``) queries: a NUC and an NSC
fact table of 10^6 rows in 4 partitions and a 10^4-row dimension, with
perfbench's generator settings, at exception rates 0.01 and 0.2. For each
query (distinct, sort, join) it runs the naive and the rewritten plan
round-robin, 2 untimed runs and then 9 timed ones each, in one process, so
the allocator is warm as it is in perfbench. A node's self time is its own
work: the time of its calls less that of the calls nested in them. Under
destination passing a scan or join writes its rows inside its consumer's
write, and that time is still the scan's or the join's (see
``ProfilingExecutor``).

Freed memory stays in the process heap, as the package pins it at import
(``_native.keep_freed_memory``). Where that pin is unavailable, every run
takes thousands of minor page faults on fresh output arrays, at several
microseconds each, which swamp the nodes' own work.

Prints, per plan, the median run time and minor page faults per run
(``resource.getrusage``), then each node as ``explain`` shows it with its
median self time in ms. "outside the nodes" is what the run spends
outside every node's calls.

Usage: PYTHONPATH=src python tools/plan_profile.py [QUERY [RATE]]

QUERY (distinct, sort or join) and RATE (an exception rate) narrow the
sweep to one query, or to one plan pair, so that it runs in seconds:
``tools/plan_profile.py sort 0.01``. With neither, every query runs at
both rates.
"""

import argparse
import resource
import statistics
import time

from patchindex import _native
from patchindex.bench import build_query_plans
from patchindex.datagen import GenSpec, dimension_table, generate
from patchindex.patch_index import NSC_ASC, NUC, build_index
from patchindex.query_engine import Executor, explain

ROWS, DIM_ROWS, PARTITIONS, DUP_DOMAIN = 10**6, 10**4, 4, 100_000
RATES = (0.01, 0.2)
QUERIES = ("distinct", "sort", "join")
WARM, REPEATS, SEED = 2, 9, 1


class ProfilingExecutor(Executor):
    """An Executor that times each node's own work.

    A node's work comes in up to three calls: ``_exec`` (its whole run),
    ``_rows`` (the bound and dtypes that a destination-passing node gives
    its consumer) and ``_write`` (its rows written into the consumer's
    arrays, inside the consumer's own write). Each call's time less the
    time of the calls nested in it is charged to its node, so a node's
    self time covers its writes wherever they run.
    """

    def run(self, plan):
        self.self_ns, self._child_ns = {}, []
        return super().run(plan)

    def _timed(self, node, call, *args):
        self._child_ns.append(0)
        t0 = time.perf_counter_ns()
        out = call(*args)
        elapsed = time.perf_counter_ns() - t0
        own = elapsed - self._child_ns.pop()
        self.self_ns[id(node)] = self.self_ns.get(id(node), 0) + own
        if self._child_ns:
            self._child_ns[-1] += elapsed
        return out

    def _exec(self, node):
        return self._timed(node, super()._exec, node)

    def _rows(self, node):
        return self._timed(node, super()._rows, node)

    def _write(self, rows, dest):
        return self._timed(rows.node, super()._write, rows, dest)


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


def fact_table(kind, e):
    """perfbench's NUC or NSC fact table at exception rate e."""
    if kind == "nuc":
        return generate(GenSpec("nuc", ROWS, e, dup_domain=DUP_DOMAIN,
                                partitions=PARTITIONS, seed=2 * SEED))
    return generate(GenSpec("nsc", ROWS, e, partitions=PARTITIONS,
                            seed=2 * SEED + 1, value_domain=DIM_ROWS))


def parse_args(argv=None):
    """(queries, rates) to profile: the ones named, or all of them."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("query", nargs="?", choices=QUERIES)
    parser.add_argument("rate", nargs="?", type=float)
    args = parser.parse_args(argv)
    if args.rate is not None and not 0 <= args.rate <= 1:
        parser.error(f"rate must lie in [0, 1], got {args.rate}")
    return ((args.query,) if args.query else QUERIES,
            (args.rate,) if args.rate is not None else RATES)


def main(argv=None):
    queries, rates = parse_args(argv)
    if not _native.HEAP_KEPT:
        print("mallopt unavailable: page faults may dominate the times")
    dim = dimension_table(DIM_ROWS)
    for e in rates:
        tables = {}
        for query in queries:
            name = "nuc" if query == "distinct" else "nsc"
            if name not in tables:
                tables[name] = fact_table(name, e)
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
                print(f"  {'outside the nodes':<64}{ms(nodes['root']):8.2f}")


if __name__ == "__main__":
    main()
