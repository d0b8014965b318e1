"""Append entries to the BENCH_<workload>.json performance trajectory.

Runs ``perfbench/run.py --trace 0`` once per seed in each given checkout
and appends one entry per checkout to BENCH_<workload>.json at the root of
this repository. An entry holds the median, quartiles and IQR of every
end-to-end metric over the seeds, the per-seed values, the run's
environment fingerprint, the checkout's git revision, a digest of its
package source (``src_digest``), which tells apart checkouts of one
revision with different uncommitted changes, and the kernel backend and
select path that ``patchindex._native`` loads there. Within each seed the
checkouts run one after another, and the order alternates from seed to
seed, so that a slow phase of the machine lands on both sides of a
comparison. With two checkouts it also prints, per metric, in how many
seeds the second beat the first.

    python3 tools/bench_trajectory.py --workload write-small --seconds 30 \\
        --seeds 1501 1502 1503 1504 1505 --checkout ../parent --checkout .

Each checkout needs its own perfbench/ and src/; BENCHMARK.json of this
repository names the metrics and which direction is better.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cmd, cwd):
    # the ceiling keeps git from reporting a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path(cwd).parent))
    return subprocess.run(cmd, cwd=cwd, env=env, text=True,
                          capture_output=True, check=True).stdout


def src_digest(checkout):
    """SHA-256 over the relative path and bytes of every file under the
    checkout's src/patchindex/, bytecode caches aside: trees that differ
    in any source file, _native.c included, get different digests."""
    root = Path(checkout) / "src" / "patchindex"
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and "__pycache__" not in rel.parts:
            digest.update(rel.as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def kernel_paths(checkout):
    """(kernel backend, select path) that ``patchindex._native`` loads in
    the checkout; the select path is None in a tree without the select
    kernel."""
    out = _run([sys.executable, "-c",
                "import sys; sys.path.insert(0, 'src'); "
                "from patchindex import _native; "
                "print(_native.BACKEND, getattr(_native, 'SELECT_PATH', None))"],
               checkout).strip().splitlines()[-1]
    backend, select = out.split()
    return backend, None if select == "None" else select


def describe(checkout):
    """Git revision, whether src/ differs from it, the digest of the
    package source, the kernel backend and the select path (``"avx512"``
    or ``"scalar"``), which tells apart runs on a CPU without AVX-512."""
    rev = _run(["git", "rev-parse", "HEAD"], checkout).strip()
    dirty = bool(_run(["git", "status", "--porcelain", "--", "src"], checkout).strip())
    backend, select = kernel_paths(checkout)
    return {"git_rev": rev, "src_modified": dirty,
            "src_digest": src_digest(checkout), "kernel_backend": backend,
            "select_path": select}


def run_once(checkout, workload, seed, seconds):
    """(metric values, fingerprint, correct, failed) of one perfbench run."""
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
               checkout)
    lines = out.splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines
               if line.startswith("# env "))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, env, result["correct"], result["failed"]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--checkout", action="append", required=True,
                        help="checkout to measure; repeat to compare")
    args = parser.parse_args(argv)
    if len(args.seeds) < 5:
        parser.error("a trajectory entry needs at least 5 seeds")
    with open(ROOT / "BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    checkouts = [Path(c).resolve() for c in args.checkout]
    runs = {c: [] for c in checkouts}
    for i, seed in enumerate(args.seeds):
        for c in (checkouts if i % 2 == 0 else checkouts[::-1]):
            runs[c].append(run_once(c, args.workload, seed, args.seconds))
            print(f"# {c.name} seed {seed} done", file=sys.stderr)

    path = ROOT / f"BENCH_{args.workload}.json"
    trajectory = json.loads(path.read_text()) if path.exists() else []
    for c in checkouts:
        env = dict(runs[c][0][1], **describe(c))
        for key in ("seed", "trace", "workload"):
            env.pop(key, None)
        values = {name: [r[0][name] for r in runs[c]] for name in better}
        trajectory.append({
            "workload": args.workload, "seconds": args.seconds,
            "seeds": args.seeds, "fingerprint": env,
            "correct": all(r[2] for r in runs[c]),
            "failed_ops": sum(r[3] for r in runs[c]),
            "metrics": {name: summarize(v) for name, v in values.items()},
            "values": values,
        })
    path.write_text(json.dumps(trajectory, indent=1) + "\n")

    if len(checkouts) == 2:
        a, b = (runs[c] for c in checkouts)
        for name, direction in better.items():
            wins = sum((rb[0][name] < ra[0][name]) == (direction == "lower")
                       and rb[0][name] != ra[0][name] for ra, rb in zip(a, b))
            ma = statistics.median(r[0][name] for r in a)
            mb = statistics.median(r[0][name] for r in b)
            print(f"{name:24s} {ma:10.4g} -> {mb:10.4g}  "
                  f"better in {wins}/{len(a)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
