"""Benchmark of the six-command corrindex pipeline, end to end and layer by layer.

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes
    python3 bench/run.py --paper-protocol        # opt-in: 4 cells x 30 runs x 100 epochs

Run it from the repository root; it builds nothing and imports the package
from `src/`. With `--trace 0` it generates the workload's seeded workspace
(several times, for `setup_s`), then runs whole rounds of the six CLI
commands, each in its own `python -m corrindex.cli` process, until
`--seconds` have passed (at least two rounds, so the second checks that a
rerun is byte-identical), and checks every artifact against an independent
computation; its times are wall times scaled to a reference CPU speed (see
REFERENCE_LOOP_S). With `--trace 1` it replays the commands in one process
inside spans and reports per-layer metrics. The last line of output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in every command it starts; set
# before numpy is imported so the in-process replay gets the same setting.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
from workspace import CELLS, COMMANDS, WORKLOADS, Workspace, generate

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MAX_SETUPS = 25
MIN_ROUNDS = 2
MIN_REPLAY_PAIRS = 3
PAPER_RUNS, PAPER_EPOCHS = 30, 100  # the paper's protocol, per cell
# On the reference machine, a 2-vCPU VM, CPU speed moves by up to 1.7x within
# minutes, through contention from other work on its host, and the two vCPUs
# move independently. Wall time alone then spreads past the metrics' bounds
# between runs. So the benchmark times a short reference loop before, during
# and after each timed step, on the CPU the step runs on, and scales the
# step's wall time to the speed at which that loop takes REFERENCE_LOOP_S,
# near its fastest on that machine. The raw wall times are reported beside
# the scaled ones.
REFERENCE_LOOP_S = 0.0006
LOOPS_AROUND = 5  # reference loops per CPU just before and just after a step
POLL_S = 0.02  # how often a running command's CPU is read
POLLS_PER_LOOP = 5  # one reference loop on the command's CPU every 5 polls
COMMAND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "select_s": "s",
    "allocate_s": "s",
    "build_index_s": "s",
    "make_dataset_s": "s",
    "run_experiment_s": "s",
    "report_s": "s",
    "ingest_rows_per_s": "rows/s",
    "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    units = {
        "market_data.load_price_csv_s": "s",
        "market_data.load_price_csv_us_per_row": "us",
        "market_data.rows": "count",
        "market_data.compute_returns_s": "s",
        "market_data.align_calendars_s": "s",
        "selection.load_metrics_csv_s": "s",
        "selection.score_s": "s",
    }
    for name in ("covariance_matrix", "correlation_distance", "linkage_single", "linkage_complete",
                 "linkage_ward", "matrix_to_csv"):
        units[f"riskmodel.{name}_s"] = "s"
    for name in ("hrp_dendrogram_walk", "hrp_recursive_bisection", "equal_weight", "min_variance_long_only"):
        units[f"allocation.{name}_s"] = "s"
    for name in ("build_index", "index_to_csv", "index_from_csv"):
        units[f"index_builder.{name}_s"] = "s"
    for name in ("feature_matrix", "make_windows", "chronological_split", "save_windows_csv"):
        units[f"dataset.{name}_s"] = "s"
    units["dataset.save_windows_csv_bytes"] = "bytes"
    units["dataset.load_windows_csv_s"] = "s"
    for model, data in CELLS:
        cell = f"forecast.{model}.{data}"
        units |= {f"{cell}.forward_ms": "ms", f"{cell}.backward_ms": "ms", f"{cell}.adam_ms": "ms",
                  f"{cell}.batches": "count", f"{cell}.epoch_s": "s", f"{cell}.predict_ms": "ms",
                  f"{cell}.gflop_per_s": "GFLOP/s"}
    units["forecast.save_model_ms"] = "ms"
    units["forecast.load_model_ms"] = "ms"
    for model, data in CELLS:
        units[f"evaluation.multi_run_s.{model}.{data}"] = "s"
    units |= {
        "evaluation.run_ms": "ms",
        "evaluation.render_report_ms": "ms",
        "evaluation.parse_runs_csv_ms": "ms",
        "cli.import_s": "s",
        "cli.unattributed_s": "s",
        "trace.coverage": "ratio",
        "trace.overhead_s": "s",
    }
    return units


PER_LAYER = _per_layer()


class Operations:
    """Commands and checks attempted in one run, and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.skipped: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail else name)

    def record_checks(self, results) -> None:
        for name, status, detail in results:
            if status == "skip":
                self.skipped.append(f"{name}: {detail}")
            else:
                self.record(f"check {name}", status == "pass", detail)


# ------------------------------------------------------------ environment


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORRINDEX_")}
    env["PYTHONPATH"] = str(src)
    return env


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        commit = done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit,
    }


# ------------------------------------------------------------- commands


CLI = (sys.executable, "-m", "corrindex.cli")


def reference_loop() -> float:
    """Seconds this CPU takes for a fixed pure-Python loop, about 0.6 ms."""
    start = perf_counter()
    total = 0
    for i in range(15_000):
        total += i
    return perf_counter() - start


def loops_on(cpus, repeats: int = 1) -> dict[int, list[float]]:
    """Reference-loop times on each of `cpus`, this process pinned to each in turn."""
    allowed = os.sched_getaffinity(0)
    try:
        seconds = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            seconds[cpu] = [reference_loop() for _ in range(repeats)]
        return seconds
    finally:
        os.sched_setaffinity(0, allowed)


def scale(wall: float, loops: list[float]) -> float:
    """`wall` at the reference CPU speed, from loop times taken on the step's CPU."""
    return wall * REFERENCE_LOOP_S / statistics.median(loops)


@dataclass
class Timed:
    ok: bool
    wall_s: float
    scaled_s: float  # wall_s at the reference CPU speed
    rss_mb: float


def _cpu_of(pid: int) -> int | None:
    """The CPU a process last ran on, field 39 of /proc/PID/stat."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def run_command(ws: Workspace, command: str, env: dict[str, str], log: Path,
                launcher: tuple[str, ...] = CLI, timeout: float | None = COMMAND_TIMEOUT_S) -> Timed:
    """One command process, by default `python -m corrindex.cli`, killed after
    `timeout` seconds unless that is None. The command may use every CPU.
    Polls find the CPU it runs on; the reference loops taken there before,
    during and after it give its scaled time."""
    argv = [*launcher, "--config", str(ws.config), command]
    cpus = sorted(os.sched_getaffinity(0))
    before = loops_on(cpus, LOOPS_AROUND)
    polls: dict[int, int] = {}
    during: list[float] = []
    with log.open("ab") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ws.root)
        exited = os.pidfd_open(proc.pid)  # readable once the process has exited
        try:
            while not select.select([exited], [], [], POLL_S)[0]:
                if timeout is not None and perf_counter() - start > timeout:
                    proc.kill()
                cpu = _cpu_of(proc.pid)
                if cpu is not None:
                    polls[cpu] = polls.get(cpu, 0) + 1
                    if sum(polls.values()) % POLLS_PER_LOOP == 0:
                        during += loops_on([cpu])[cpu]
            wall = perf_counter() - start
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = loops_on(cpus, LOOPS_AROUND)
    ran_on = [cpu for cpu in cpus if polls.get(cpu)] or cpus
    loops = during + [t for cpu in ran_on for t in before[cpu] + after[cpu]]
    return Timed(proc.returncode == 0, wall, scale(wall, loops), usage.ru_maxrss / 1024.0)


def fingerprint(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir()) if p.is_file()}


def pipeline_round(ws: Workspace, env: dict[str, str], ops: Operations, log: Path,
                   launcher=lambda command: CLI) -> dict[str, Timed]:
    """The six commands in order; `report` must rebuild run-experiment's report.txt."""
    timed = {}
    written = b""
    for command in COMMANDS:
        timed[command] = run_command(ws, command, env, log, launcher(command))
        ops.record(f"command {command}", timed[command].ok, f"exit status, see {log}")
        if command == "run-experiment" and timed[command].ok:
            written = (ws.out / "report.txt").read_bytes()
    rebuilt = (ws.out / "report.txt").read_bytes() if (ws.out / "report.txt").is_file() else b""
    ops.record("report rebuilds report.txt byte for byte", written != b"" and rebuilt == written)
    return timed


def setup(name: str, seed: int, work: Path, repeats: int, min_seconds: float = 0.0) -> tuple[Workspace, list[Timed]]:
    """Generate the workspace at least `repeats` times and for `min_seconds`.
    Generation is the benchmark's own work, so it runs pinned to one CPU,
    the one its reference loop times."""
    times: list[Timed] = []
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        while len(times) < repeats or (sum(t.wall_s for t in times) < min_seconds and len(times) < MAX_SETUPS):
            shutil.rmtree(work / "workspace", ignore_errors=True)
            before = [reference_loop() for _ in range(LOOPS_AROUND)]
            start = perf_counter()
            ws = generate(WORKLOADS[name], seed, work / "workspace")
            wall = perf_counter() - start
            after = [reference_loop() for _ in range(LOOPS_AROUND)]
            times.append(Timed(True, wall, scale(wall, before + after), 0.0))
    finally:
        os.sched_setaffinity(0, allowed)
    return ws, times


def train_sample_epochs(ws: Workspace) -> int:
    """cells x runs x epochs x training samples, read from the dataset CSVs."""
    w = ws.workload
    total = 0
    for data in ("dataset1", "dataset2"):
        with (ws.out / f"{data}_train.csv").open("rb") as handle:
            samples = (sum(1 for _ in handle) - 1) // w.lookback
        total += 2 * w.runs * w.epochs * samples  # two models per dataset
    return total


# ------------------------------------------------------------ the two modes


def measure(name: str, seed: int, seconds: float, work: Path, env: dict[str, str]):
    """Untraced run: end-to-end metrics plus every artifact check."""
    ops = Operations()
    ws, setup_times = setup(name, seed, work, SETUP_REPEATS, SETUP_SECONDS)
    log = work / "commands.log"
    rounds, first = [], None
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        rounds.append(pipeline_round(ws, env, ops, log))
        if first is None:
            first = fingerprint(ws.out)
        else:
            ops.record("rerun gives byte-identical artifacts", fingerprint(ws.out) == first)

    ops.record_checks(checks.run_checks(checks.artifact_checks(ws) + checks.gradient_checks(ws)))

    med = {c: statistics.median(r[c].scaled_s for r in rounds) for c in COMMANDS}
    sample_epochs = train_sample_epochs(ws)
    metrics = {
        "setup_s": statistics.median(t.scaled_s for t in setup_times),
        "pipeline_s": statistics.median(sum(t.scaled_s for t in r.values()) for r in rounds),
        **{f"{c.replace('-', '_')}_s": med[c] for c in COMMANDS},
        "ingest_rows_per_s": ws.price_rows / med["select"],
        "train_samples_per_s": sample_epochs / med["run-experiment"],
        "peak_rss_mb": statistics.median(max(t.rss_mb for t in r.values()) for r in rounds),
    }
    extra = {
        "rounds": len(rounds),
        # Unscaled figures, for reading beside the metrics.
        "setup_wall_s": statistics.median(t.wall_s for t in setup_times),
        "pipeline_wall_s": statistics.median(sum(t.wall_s for t in r.values()) for r in rounds),
        **{f"{c.replace('-', '_')}_wall_s": statistics.median(r[c].wall_s for r in rounds) for c in COMMANDS},
        "rounds_detail": [{c: vars(t) for c, t in r.items()} for r in rounds],
        "setups_detail": [vars(t) for t in setup_times],
        "price_rows": ws.price_rows,
        "train_sample_epochs": sample_epochs,
    }
    if name == "paper-grid":
        # At the measured train_samples_per_s, the paper protocol's 30 x 100 sample-epochs per cell take:
        w = ws.workload
        extra["paper_protocol_run_experiment_s_extrapolated"] = (
            sample_epochs * (PAPER_RUNS * PAPER_EPOCHS) / (w.runs * w.epochs) / metrics["train_samples_per_s"])
    return ops, metrics, extra


def trace(name: str, seed: int, seconds: float, work: Path, env: dict[str, str]):
    """Traced run: one round of traced command processes, then in-process replays."""
    ops = Operations()
    ws, _ = setup(name, seed, work, 1)
    traced_command = str(Path(__file__).with_name("traced_command.py"))
    commands = pipeline_round(ws, env, ops, work / "commands.log",
                              lambda c: (sys.executable, traced_command, str(work / f"spans-{c}.json")))
    cli_seconds = {c: t.wall_s for c, t in commands.items()}
    expected = fingerprint(ws.out)

    plain_walls, traced_walls, per_replay, tracer = [], [], [], None
    start = perf_counter()
    while len(traced_walls) < MIN_REPLAY_PAIRS or perf_counter() - start < seconds:
        # Alternate which replay of a pair goes first, so neither always runs warm.
        for traced in (False, True) if len(traced_walls) % 2 == 0 else (True, False):
            out_dir = work / ("replay_traced" if traced else "replay_plain")
            shutil.rmtree(out_dir, ignore_errors=True)
            if traced:
                tracer = tracing.Tracer()
            wall, ok = tracing.replay(ws, out_dir, tracer if traced else None)
            ops.record(f"{'traced' if traced else 'untraced'} replay exits 0", ok)
            ops.record("replay artifacts equal the CLI's byte for byte", fingerprint(out_dir) == expected)
            if traced:
                traced_walls.append(wall)
                per_replay.append(tracing.layer_metrics(tracer, ws.workload.runs, ws.workload.epochs))
            else:
                plain_walls.append(wall)

    metrics = {key: statistics.median(m[key] for m in per_replay) for key in per_replay[0]}
    # Median over pairs of traced minus untraced wall time; a pair runs back to back.
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced_walls, plain_walls))
    metrics["cli.unattributed_s"] = sum(
        cli_seconds[c] - tracing.layer_seconds(work / f"spans-{c}.json") for c in COMMANDS)
    metrics["cli.import_s"] = tracing.import_seconds(env)
    metrics["dataset.save_windows_csv_bytes"] = sum(
        p.stat().st_size for p in (work / "replay_traced").glob("dataset*_*.csv"))
    step, exact = tracing.step_metrics(ws, work / "replay_traced", work)
    ops.record("model save/load round-trips bit-exactly", exact)
    metrics.update(step)
    metrics.update(tracing.layer_microbench(tracer, ws.workload.linkage))
    tracer.dump(work / "trace.json")
    extra = {"replays": len(traced_walls), "self_time_s": tracer.self_times(), "cli_seconds": cli_seconds}
    return ops, metrics, extra


# ------------------------------------------------------------------ output


def result_line(ops: Operations, metrics: dict[str, float], units: dict[str, str]) -> dict:
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set differs from the declared one: {sorted(missing)}")
    return {
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def report(name: str, mode: str, ops: Operations, result: dict, extra: dict, env_record: dict) -> None:
    print(f"== {name} ({mode})")
    for key, entry in result["metrics"].items():
        print(f"  {key:<44} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"  ({key} = {value:.6g})")
    if "self_time_s" in extra:
        print("  self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in extra["self_time_s"].items()))
    for line in ops.skipped:
        print(f"  skipped {line}")
    for line in ops.failed:
        print(f"  FAILED {line}")
    print(f"operations: attempted {ops.attempted} failed {len(ops.failed)}")
    print("env " + json.dumps(env_record, sort_keys=True))


def run_one(name: str, seed: int, seconds: float, traced: bool, root: Path, env: dict[str, str]) -> dict:
    mode = "trace" if traced else "measure"
    work = root / ".bench_work" / f"{name}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, metrics, extra = (trace if traced else measure)(name, seed, seconds, work, env)
    result = result_line(ops, metrics, PER_LAYER if traced else END_TO_END)
    env_record = environment(root)
    report(name, mode, ops, result, extra, env_record)
    (work / "result.json").write_text(
        json.dumps({"workload": name, "seed": seed, "env": env_record, "result": result, "extra": extra}, indent=1)
    )
    return result


def paper_protocol(root: Path, env: dict[str, str], seed: int) -> dict:
    """Opt-in: run-experiment once at 4 cells x 30 runs x 100 epochs, paper-grid shapes.

    Commands run without a time limit; the time is printed only if every command exited 0.
    """
    work = root / ".bench_work" / "paper-protocol"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = replace(WORKLOADS["paper-grid"], runs=PAPER_RUNS, epochs=PAPER_EPOCHS)
    ws = generate(w, seed, work / "workspace")
    ops, seconds = Operations(), {}
    for command in COMMANDS[:5]:
        timed = run_command(ws, command, env, work / "commands.log", timeout=None)
        seconds[command] = timed.wall_s
        ops.record(f"command {command}", timed.ok, f"exit status, see {work / 'commands.log'}")
        if not timed.ok:
            print(f"FAILED {ops.failed[0]}")
            return result_line(ops, {}, {})
    print(f"paper protocol ({PAPER_RUNS} runs x {PAPER_EPOCHS} epochs per cell) run-experiment: "
          f"{seconds['run-experiment']:.1f} s")
    ops.record_checks(checks.run_checks([("runs_and_report", lambda: checks.check_report(ws))]))
    for line in ops.failed:
        print(f"FAILED {line}")
    return result_line(ops, {"run_experiment_s": seconds["run-experiment"]}, {"run_experiment_s": "s"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paper-protocol", action="store_true",
                        help="run the full 4 x 30 x 100 protocol once (about 40 minutes here)")
    args = parser.parse_args(argv)
    if not args.paper_protocol and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    src = root / "src"
    if not (src / "corrindex" / "cli.py").is_file():
        print(f"error: {src / 'corrindex'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = child_env(src)

    if args.paper_protocol:
        result = paper_protocol(root, env, args.seed)
    elif args.workload == "all":
        results = {}
        for name in WORKLOADS:
            for traced in (False, True):
                results[f"{name}.{'trace' if traced else 'measure'}"] = run_one(
                    name, args.seed, args.seconds, traced, root, env)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{run}.{k}": v for run, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), root, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
