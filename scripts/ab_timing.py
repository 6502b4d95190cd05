"""CPU time of two pitchmbc source trees on the same commands, in one process.

Both trees' packages are imported side by side under private names, and
every round runs each ``--cmd`` through each tree's ``cli.main``,
alternating which tree goes first. ``{out}`` in a command becomes a fresh
output directory per tree and round, and after every round the two trees'
output files must be byte-identical:

    git archive HEAD~1 | tar -x -C ../parent
    python scripts/ab_timing.py ../parent . --rounds 8 \\
        --cmd "batch --input team.csv --reps 20 --outdir {out}"

Each tree is a checkout holding ``src/pitchmbc``. One untimed warm-up round
runs first. BLAS is pinned to one thread when this script is the first to
import numpy, as it is when run as a program. It prints each round's CPU
time (``time.process_time``) of both trees, then how many rounds B won,
the median times and the median A/B ratio. One more untimed round then
runs each command alone under ``tracemalloc`` and prints each tree's traced
peak per command. Last it prints, per tree and command, the growth of
``ru_maxrss`` (read as KiB, as Linux reports it) over one run of the
command in a fresh child process, started before any round; unlike the
traced peak, it includes heap fragmentation. It exits 1 when the trees'
exit codes or output files differ in any round, after printing every
figure above, so a change meant to move outputs can still quote its ratios.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path


def load_cli(tree: Path, name: str):
    """``pitchmbc.cli`` of ``tree``'s ``src/pitchmbc``, imported as package ``name``."""
    init = tree / "src" / "pitchmbc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"{tree}: no src/pitchmbc package")
    for stale in [mod for mod in sys.modules if mod == name or mod.startswith(name + ".")]:
        del sys.modules[stale]
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run(cli, commands: list[str], out: Path) -> tuple[float, list[int]]:
    """CPU seconds and exit codes of ``commands`` run through ``cli.main``."""
    argvs = [shlex.split(cmd.replace("{out}", str(out))) for cmd in commands]
    gc.collect()
    sink = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(argv) for argv in argvs]
    return time.process_time() - start, codes


def traced_peaks(cli, commands: list[str], out: Path) -> list[float]:
    """The tracemalloc peak, in MB, of each of ``commands`` run alone through
    ``cli.main``."""
    peaks = []
    sink = io.StringIO()
    for cmd in commands:
        argv = shlex.split(cmd.replace("{out}", str(out)))
        gc.collect()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(argv)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    return peaks


# Run in a fresh interpreter: argv[1] is a tree's src directory, the rest
# one pitchmbc command line; prints the KiB ru_maxrss grew while it ran.
CHILD = """
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
from pitchmbc import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(sys.argv[2:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def rss_growths(tree: Path, commands: list[str], out: Path) -> list[float]:
    """The ``ru_maxrss`` growth, in MB, of a fresh child process over one
    run of each of ``commands`` through ``tree``'s ``cli.main``."""
    growths = []
    for i, cmd in enumerate(commands):
        cmd_out = out / str(i)
        cmd_out.mkdir()
        argv = shlex.split(cmd.replace("{out}", str(cmd_out)))
        child = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src"), *argv],
                               check=True, capture_output=True, text=True)
        growths.append(int(child.stdout) / 1024)
    return growths


def differences(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that are not byte-identical under ``a`` and ``b``."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(rel) for rel in files_a ^ files_b) + sorted(
        str(rel) for rel in files_a & files_b
        if (a / rel).read_bytes() != (b / rel).read_bytes())


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree_a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("tree_b", type=Path, help="checkout B (the change)")
    parser.add_argument("--cmd", action="append", required=True,
                        help="a pitchmbc command line; {out} is the output directory")
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args()
    if args.rounds < 1:
        sys.exit("--rounds must be >= 1")

    # Linux starts a child's ru_maxrss at its parent's resident size, so the
    # children run while this process is still small, before it imports a tree
    growths = {}
    for side, tree in zip("AB", (args.tree_a, args.tree_b)):
        with tempfile.TemporaryDirectory() as tmp:
            growths[side] = rss_growths(tree, args.cmd, Path(tmp))
    clis = {"A": load_cli(args.tree_a, "_ab_tree_a"), "B": load_cli(args.tree_b, "_ab_tree_b")}
    times: dict[str, list[float]] = {"A": [], "B": []}
    failed = False
    for rnd in range(args.rounds + 1):
        order = "AB" if rnd % 2 else "BA"
        seconds, codes = {}, {}
        with tempfile.TemporaryDirectory() as tmp:
            for side in order:
                out = Path(tmp) / side
                out.mkdir()
                seconds[side], codes[side] = run(clis[side], args.cmd, out)
            differ = differences(Path(tmp) / "A", Path(tmp) / "B")
        name = f"round {rnd}" if rnd else "warm-up"
        if codes["A"] != codes["B"] or differ:
            failed = True
            print(f"{name}: exit codes A {codes['A']} B {codes['B']}; "
                  f"files that differ: {', '.join(differ) or 'none'}")
        if rnd:
            times["A"].append(seconds["A"])
            times["B"].append(seconds["B"])
            print(f"{name} ({order[0]} first): A {seconds['A']:.3f} s  B {seconds['B']:.3f} s  "
                  f"A/B {seconds['A'] / seconds['B']:.3f}")
    wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    ratios = [a / b for a, b in zip(times["A"], times["B"])]
    print(f"B faster in {wins}/{args.rounds} rounds; median CPU A "
          f"{statistics.median(times['A']):.3f} s, B {statistics.median(times['B']):.3f} s; "
          f"median A/B {statistics.median(ratios):.3f}")
    with tempfile.TemporaryDirectory() as tmp:
        for side in "AB":
            out = Path(tmp) / side
            out.mkdir()
            peaks = traced_peaks(clis[side], args.cmd, out)
            print(f"tracemalloc peak {side}: " + "; ".join(
                f"{cmd.split()[0]} {peak:.2f} MB" for cmd, peak in zip(args.cmd, peaks)))
    for side in "AB":
        print(f"ru_maxrss growth {side}: " + "; ".join(
            f"{cmd.split()[0]} {growth:.2f} MB" for cmd, growth in zip(args.cmd, growths[side])))
    if failed:
        sys.exit("outputs differ between the trees")
    print("outputs byte-identical in every round")


if __name__ == "__main__":
    main()
