"""Record one benchmark run as a row of BENCH_<workload>.json.

Run from the repository root:

    python3 tools/bench_record.py --workload plsa-sweep --seed 1
    python3 tools/bench_record.py --workload plsa-sweep --seed 1 --checkout ../parent

The script runs ``perfbench/run.py --workload W --seed S --trace 0`` inside
the checkout (this repository by default; another clone measures another
commit with its own sources) and appends one row to ``BENCH_<workload>.json``
at the root of this repository. A row holds the workload, the seed, the
checkout's commit, whether its ``src/`` or ``perfbench/`` differ from that
commit, and the run's two JSON lines: the environment line and the final
metrics line. The file is a JSON list in the order the runs were made, one
row per line. Times from different hosts or sessions are not comparable, so
a comparison alternates the commits it compares within one session.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout, *args):
    """Output of a git command in ``checkout``, or None where git cannot answer."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def run_benchmark(checkout, workload, seed):
    """Run the benchmark once. Returns (environment line, final line) as dicts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    environment = next(json.loads(line) for line in lines if line.startswith('{"environment"'))
    return environment["environment"], json.loads(lines[-1])


def append_row(path, row):
    """Append ``row`` to the JSON list in ``path``, writing one row per line."""
    rows = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    rows.append(row)
    path.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n",
                    encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository whose benchmark and sources are run (default: this one)")
    args = parser.parse_args(argv)
    environment, result = run_benchmark(args.checkout, args.workload, args.seed)
    status = git(args.checkout, "status", "--porcelain", "--untracked-files=no", "--",
                 "src", "perfbench")
    row = {"workload": args.workload, "seed": args.seed,
           "commit": git(args.checkout, "rev-parse", "HEAD"),
           "dirty": None if status is None else bool(status),
           "environment": environment, "result": result}
    append_row(ROOT / f"BENCH_{args.workload}.json", row)
    metrics = result["metrics"]
    print(f"{args.workload} seed {args.seed} @ {str(row['commit'])[:9]}: "
          f"train_s {metrics['train_s']['value']:.3f}, correct {result['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
