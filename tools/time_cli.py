"""Time one excol command in fresh interpreters against two source trees.

    python3 tools/time_cli.py BASE_SRC HEAD_SRC [--pairs N] [--warm] -- ARGV...

BASE_SRC and HEAD_SRC are directories holding an excol package, such as
this checkout's src and an export of another commit's
(git archive REV src | tar -x -C DIR, then DIR/src).  Each run is a new
interpreter that imports excol.cli from one tree (PYTHONPATH) and calls
main(ARGV), timed from spawn to exit.  A run works in a directory of its
own, so the CLI's default cache (.excol-cache) and a relative --out land
there; EXCOL_CACHE_DIR is removed from its environment.  Without --warm
every run starts in an empty directory, so a sweep starts from an empty
cache; with --warm each tree keeps one directory, filled by one untimed
run first.  Each of the N pairs runs both trees, base first in the first
pair and then in turn, so drift on the host falls on both sides alike.

Prints each side's median and quartiles, the median of the per-pair
head / base ratios and how many pairs head was faster in.  Each pair's
two stdouts are compared with every line's trailing seconds field (the
sec column of a sweep row) masked, and the pairs whose outputs differ are
counted.  Exits 1 if the trees' exit codes differ or any pair's outputs
do.  Example, the warm 4/1 sweep:

    python3 tools/time_cli.py /tmp/base/src src --warm -- \\
        sweep --max-dim 4 --max-degree 1
"""

import argparse
import hashlib
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

RUN = "import sys; from excol.cli import main; sys.exit(main(sys.argv[1:]))"
SECONDS = re.compile(rb" +\d+\.\d+$", re.MULTILINE)  # a sweep row's sec column


def run_once(src, argv, cwd):
    """(seconds, exit code, stdout) of one fresh interpreter running argv
    from src."""
    env = {k: v for k, v in os.environ.items() if k != "EXCOL_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.abspath(src)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", RUN, *argv], cwd=cwd, env=env, stdout=subprocess.PIPE
    )
    return time.perf_counter() - start, done.returncode, done.stdout


def masked(stdout):
    """The digest of stdout with every line's trailing seconds field masked."""
    return hashlib.sha256(SECONDS.sub(b" <sec>", stdout)).digest()


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"median {median:.3f} s  quartiles {q1:.3f}-{q3:.3f} s"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], epilog="then -- and the excol argv"
    )
    parser.add_argument("base", help="the src directory of the tree to compare against")
    parser.add_argument("head", help="the src directory of the tree under test")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (>= 2)")
    parser.add_argument("--warm", action="store_true", help="one untimed run per tree first")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1 :]
    if args.pairs < 2 or not command:
        parser.error("give --pairs >= 2 and an excol command after --")
    trees = {"base": args.base, "head": args.head}
    times = {side: [] for side in trees}
    codes = {side: set() for side in trees}
    differ = 0  # pairs whose masked stdouts differ
    with tempfile.TemporaryDirectory(prefix="time-cli-") as root:
        warm = {side: os.path.join(root, side) for side in trees}
        for side, cwd in warm.items():
            os.mkdir(cwd)
            if args.warm:
                codes[side].add(run_once(trees[side], command, cwd)[1])
        for pair in range(args.pairs):
            outputs = set()
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                cwd = warm[side] if args.warm else tempfile.mkdtemp(dir=root)
                seconds, code, stdout = run_once(trees[side], command, cwd)
                times[side].append(seconds)
                codes[side].add(code)
                outputs.add(masked(stdout))
            differ += len(outputs) > 1
    print(f"excol {' '.join(command)}  ({args.pairs} pairs{', warm' if args.warm else ''})")
    for side in trees:
        print(f"  {side}: {summary(times[side])}  exit {sorted(codes[side])}")
    ratios = [h / b for h, b in zip(times["head"], times["base"])]
    faster = sum(r < 1 for r in ratios)
    print(f"  head/base: median {statistics.median(ratios):.3f}, faster in {faster}/{args.pairs}")
    print(f"  stdout (seconds masked): differs in {differ}/{args.pairs} pairs")
    return 1 if codes["base"] != codes["head"] or differ else 0


if __name__ == "__main__":
    sys.exit(main())
