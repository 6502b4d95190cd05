"""pitchmbc benchmark: whole CLI commands on seeded synthetic inputs.

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The inputs are generated from
``--seed`` in a separate process before any timing (see ``gen.py``); then one
process drives ``pitchmbc.cli.main`` in a closed loop, one operation after
another, for ``--seconds`` seconds of operation time and at least once over
every input. Outputs are checked between operations, off the clock.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every input
once untraced and once traced (alternating which goes first), prints the
per-layer metrics of the first traced pass over the inputs and the tracing
overhead against the untraced operations, and writes the spans out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record with the
environment stamp and every sample goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child: the load generator is a
# single process on a 2-core machine, and the pin is the same on every commit.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_FOUND = {var: os.environ.get(var) for var in BLAS_VARS}
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("fit-large", "cohort-batch", "classify-season")
SETUP_REPEATS = 3
# Stop starting operations this long after the loop began, so a run always
# ends within three minutes, even on a much slower commit.
LOOP_DEADLINE_S = 110.0
CHILD_TIMEOUT_S = 60.0
# (n, k) at which the public e_step/m_step are probed: the shape holding the
# most fit_em time on the two EM workloads, and classify's one E-step pass.
PROBE_SHAPE = {"fit-large": (1500, 9), "cohort-batch": (960, 5), "classify-season": (20000, 5)}
PROBE_CALLS = 60


def _child(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def generate_inputs(workload: str, seed: int, size: str, dest: Path) -> dict:
    _child([sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
            "--out", str(dest), "--size", size])
    return json.loads((dest / "manifest.json").read_text(encoding="utf-8"))


def measure_setup(fit_input: Path | None, work: Path, repeats: int) -> list[dict]:
    """Each repeat is a fresh process: import, plus the model fit if any."""
    results = []
    for i in range(repeats):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)]
        archive = work / f"setup{i}" / "model.json"
        if fit_input is not None:
            archive.parent.mkdir(parents=True, exist_ok=True)
            cmd += [str(fit_input), str(archive)]
        result = json.loads(_child(cmd).strip().splitlines()[-1])
        result["archive"] = archive if fit_input is not None else None
        results.append(result)
    return results


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                  cwd=ROOT)
            rev = proc.stdout.strip() or rev
        except OSError:  # no git binary
            pass
    return {
        "git_revision": rev,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_found": BLAS_FOUND,
        "blas_threads_pinned": {var: os.environ[var] for var in BLAS_VARS},
        "machine": platform.machine(),
    }


class Runner:
    """Runs, checks and counts the operations of one benchmark invocation."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: dict[str, str] = {}
        self.facts: dict[str, dict] = {}

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")

    def execute(self, op: dict, key: str) -> float:
        """Run one operation, then check it; returns its seconds.

        Every run writes into a fresh directory, removed once checked: on
        ext4, truncating and rewriting an existing file forces writeback on
        close, which made repeated classify operations three times slower.
        """
        self.attempted += 1
        out = self.work / "out" / f"{key}-{self.attempted}"
        seconds, failure = self.workload.run(op, out)
        try:
            if failure is not None:
                self.fail(key, failure)
                return seconds
            self._check(op, key, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return seconds

    def _check(self, op: dict, key: str, out: Path) -> None:
        from workloads import CheckFailed, digest
        try:
            paths = self.workload.outputs(op, out)
            missing = [p.name for p in paths if not p.is_file()]
            if missing:
                raise CheckFailed(f"missing outputs {missing}")
            got = digest(paths)
            if key not in self.first_digest:
                self.facts.update(self.workload.check(op, out))
                self.first_digest[key] = got
            elif got != self.first_digest[key]:
                raise CheckFailed("re-run outputs differ from the first run's bytes")
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(key, f"{type(exc).__name__}: {exc}")


def closed_loop(runner: Runner, ops: list[dict], seconds: float, tracer=None) -> dict:
    """Run operations in input order, cycling, until the clock and the first
    pass over the inputs are both done. With a tracer, every input runs as an
    untraced/traced pair."""
    samples = {"untraced": [], "traced": []}
    rows = 0
    begun = time.perf_counter()
    i = 0
    while True:
        spent = sum(s for _, s in samples["untraced"]) + sum(s for _, s in samples["traced"])
        if i >= len(ops) and spent >= seconds:
            break
        if time.perf_counter() - begun > LOOP_DEADLINE_S:
            break
        idx = i % len(ops)
        op = ops[idx]
        modes = ["untraced"] if tracer is None else (
            ["untraced", "traced"] if i % 2 == 0 else ["traced", "untraced"])
        for mode in modes:
            if mode == "traced":
                tracer.op_id = i
                tracer.install()
            try:
                took = runner.execute(op, f"op{idx}")
            finally:
                if mode == "traced":
                    tracer.uninstall()
            samples[mode].append((i, took))
        rows += op["rows"]
        i += 1
    return {"samples": samples, "rows": rows, "passes": i}


def kernel_probe(n: int, k: int) -> dict:
    """Median µs per call of the public e_step and m_step at (n, k), with each
    call's operation count and bytes moved computed from the array shapes."""
    from pitchmbc.mixture import EmConfig, e_step, fit_em, m_step
    from pitchmbc.synth import archetype_pitcher
    X = archetype_pitcher(n, seed=12345)[0].to_matrix()
    fit = fit_em(X, k, EmConfig(restarts=1, max_iter=20))
    comps, resp = fit.components, fit.responsibilities

    def median_us(call) -> float:
        times = []
        for _ in range(PROBE_CALLS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return 1e6 * statistics.median(times)

    return {
        "mixture.e_step_us": median_us(lambda: e_step(comps, X)),
        "mixture.m_step_us": median_us(lambda: m_step(X, resp)),
        # E-step: 25 elementwise operations per (k, n) entry (forward
        # substitution, quadratic form, log-sum-exp, normalisation); reads
        # X (n, 3) and writes resp (n, k).
        "mixture.e_step_ops_computed": 25 * k * n,
        "mixture.e_step_bytes_computed": 8 * (3 * n + k * n),
        # M-step: resp.T @ X and resp.T @ xx (2·k·n·3 + 2·k·n·9), column sums
        # of resp, and the (n, 9) outer products; reads resp and X, writes
        # and reads xx (n, 9).
        "mixture.m_step_ops_computed": 25 * k * n + 9 * n,
        "mixture.m_step_bytes_computed": 8 * (k * n + 3 * n + 2 * 9 * n),
    }


def check_setup_fits(runner: Runner, setups: list[dict]) -> dict | None:
    """Each set-up fit is a checked operation; all must write the same archive.
    Returns the facts of the first fit's model."""
    from workloads import CheckFailed, check_archive
    model_fact, first_model = None, None
    for i, setup in enumerate(setups):
        runner.attempted += 1
        try:
            if setup["code"] != 0:
                raise CheckFailed(f"fit exited {setup['code']}")
            fact = check_archive(setup["archive"])
            model_bytes = setup["archive"].read_bytes()
            if i == 0:
                model_fact, first_model = fact, model_bytes
            elif model_bytes != first_model:
                raise CheckFailed("same fit, different archive bytes")
        except (CheckFailed, OSError) as exc:
            runner.fail(f"setup{i}", str(exc))
    return model_fact


def quality(workload_name: str, manifest: dict, runner: Runner, work: Path,
            model_fact: dict | None) -> dict:
    """model_true_frac and agree20_mean over the first pass of the inputs."""
    from workloads import CheckFailed, model_true_frac, stability_agree20
    if workload_name == "classify-season":
        pitchers = manifest["train"]["pitchers"]
        facts = {pitchers[0]["id"]: model_fact} if model_fact else {}
        agree_input = work / "inputs" / manifest["train"]["files"][0]
    else:
        pitchers = [p for op in manifest["ops"] for p in op["pitchers"]]
        facts = runner.facts
        agree_input = work / "inputs" / manifest["ops"][0]["files"][0]
    result = {"model_true_frac": model_true_frac(facts, pitchers)}
    if workload_name == "cohort-batch":
        agrees = [facts[p["id"]]["agree20"] for p in pitchers if p["id"] in facts]
        result["agree20_mean"] = statistics.fmean(agrees) if agrees else 0.0
        return result
    # fit-large and classify-season run no stability step in their operations;
    # their agreement comes from one stability run on the model they fitted.
    fact = facts.get(pitchers[0]["id"])
    runner.attempted += 1
    try:
        if fact is None:
            raise CheckFailed("no fitted model to measure")
        result["agree20_mean"] = stability_agree20(str(agree_input), fact["k"],
                                                   work / "agree20")
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        runner.fail("agree20", f"{type(exc).__name__}: {exc}")
        result["agree20_mean"] = 0.0
    return result


def run(args, work: Path) -> tuple[dict, dict]:
    phases = {}  # wall seconds of each stage of the run, for the record
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    inputs = work / "inputs"
    manifest = generate_inputs(args.workload, args.seed, args.size, inputs)
    lap("generate")

    model_fact = None
    setups: list[dict] = []
    train = inputs / manifest["train"]["files"][0] if "train" in manifest else None
    repeats = SETUP_REPEATS if not args.trace else (1 if train else 0)
    if repeats:
        setups = measure_setup(train, work, repeats)
    lap("setup")

    sys.path.insert(0, str(SRC))
    import pitchmbc
    if Path(pitchmbc.__file__).resolve().parent != SRC / "pitchmbc":
        raise RuntimeError(f"imported pitchmbc from {pitchmbc.__file__}, not {SRC}")
    import workloads
    from spans import Tracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload](inputs)
    runner = Runner(workload, work)

    if train is not None:
        model_fact = check_setup_fits(runner, setups)
        workload.model = setups[0]["archive"]

    runner.execute(manifest["warmup"], "warmup")
    lap("warmup")
    tracer = Tracer() if args.trace else None
    loop = closed_loop(runner, manifest["ops"], args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lap("loop")
    runner.execute(manifest["warmup"], "warmup")

    untraced = [s for _, s in loop["samples"]["untraced"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "sizes": manifest["sizes"], "passes": loop["passes"],
              "op_seconds": untraced, "failures": runner.failures}
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "pitches_per_s": loop["rows"] / sum(untraced),
            "op_p50_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics.update(quality(args.workload, manifest, runner, work, model_fact))
        metrics["ok_frac"] = (runner.attempted - len(runner.failures)) / runner.attempted
        record["setup_seconds"] = [s["setup_s"] for s in setups]
    else:
        n_ops = len(manifest["ops"])
        first_pass = [s for s in tracer.spans if s["op"] is not None and s["op"] < n_ops]
        metrics = layer_metrics(first_pass)
        traced = dict(loop["samples"]["traced"])
        plain = dict(loop["samples"]["untraced"])
        metrics["trace.overhead_frac"] = sum(traced.values()) / sum(plain.values()) - 1.0
        metrics.update(kernel_probe(*PROBE_SHAPE[args.workload]))
        record["traced_op_seconds"] = list(traced.values())
        record["probe_shape_n_k"] = PROBE_SHAPE[args.workload]
        record["first_pass_spans"] = len(first_pass)
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    lap("after_loop")
    record["phases_s"] = phases
    record["environment"] = environment()
    record["metrics"] = metrics
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "pitchmbc" / "__init__.py").is_file():
        print(f"error: no pitchmbc sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        result, record = run(args, work)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result["metrics"].items()}
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} sizes={record['sizes']} "
          f"operations={len(record['op_seconds'])} record={record_path.relative_to(ROOT)}")
    print(f"# environment {json.dumps(record['environment'])}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
