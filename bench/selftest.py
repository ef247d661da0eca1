"""Check the checks: corrupt one value per artifact and show its check fails.

    python3 bench/selftest.py

Runs the six commands once on a small ragged-calendar, min-variance
workspace, confirms every artifact check passes on it, then for each
corruption copies the finished workspace, changes one value in one artifact
and runs every check on the copy. It exits 1 unless each corruption is
caught by the check that owns that artifact. Run from the repository root.
"""

from __future__ import annotations

import csv
import io
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run  # sets the thread variables before numpy loads
import checks
from workspace import WORKLOADS, generate

SEED = 1
SMALL = replace(
    WORKLOADS["wide-universe"], name="selftest", tickers=30, days=300, stagger=20, k=12, runs=2, epochs=1
)

# (label, artifact, row, column, change, the check that must fail); row 0 is the first line.
CORRUPTIONS = (
    ("constituent score", "constituents.csv", 1, 1, lambda v: v + 1e-3, "constituents"),
    ("covariance entry", "covariance.csv", 2, 3, lambda v: v * 1.01, "covariance"),
    ("correlation entry", "correlation.csv", 3, 2, lambda v: v - 1e-3, "correlation"),
    ("linkage height", "linkage.csv", 3, 2, lambda v: v + 1e-3, "linkage"),
    ("weight", "weights.csv", 0, 1, lambda v: v + 0.01, "weights"),
    ("index return", "index_returns.csv", 5, 1, lambda v: v + 1e-4, "index_returns"),
    ("dataset cell", "dataset2_train.csv", 10, 4, lambda v: v + 1e-3, "dataset2_train"),
    ("RMSE in runs.csv", "runs.csv", 3, 3, lambda v: v * 1.1, "runs_and_report"),
)


def corrupt(path: Path, row: int, column: int, change) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    rows[row][column] = repr(change(float(rows[row][column])))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def move_weight(path: Path) -> None:
    """Shift 0.01 between two weights: the sum still checks, the optimum does not."""
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    big = max(range(len(rows)), key=lambda i: float(rows[i][1]))
    other = (big + 1) % len(rows)
    rows[big][1] = f"{float(rows[big][1]) - 0.01:.4f}"
    rows[other][1] = f"{float(rows[other][1]) + 0.01:.4f}"
    path.write_text("".join(f"{t},{w}\n" for t, w in rows), encoding="utf-8")


def failing(ws) -> list[str]:
    return [name for name, status, _ in checks.run_checks(checks.artifact_checks(ws)) if status == "fail"]


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "corrindex" / "cli.py").is_file():
        print(f"error: {src / 'corrindex'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = run.child_env(src)

    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ws = generate(SMALL, SEED, work / "workspace")
    for command in run.COMMANDS:
        if not run.run_command(ws, command, env, work / "commands.log").ok:
            print(f"command {command} failed; see {work / 'commands.log'}", file=sys.stderr)
            return 1
    clean = failing(ws)
    print(f"unmodified workspace: {'all checks pass' if not clean else 'FAILING ' + ', '.join(clean)}")

    cases = [(label, artifact, lambda p, r=r, c=c, f=f: corrupt(p, r, c, f), owner)
             for label, artifact, r, c, f, owner in CORRUPTIONS]
    cases.append(("weight moved, sum kept", "weights.csv", move_weight, "min_variance"))
    caught = not clean
    for label, artifact, change, owner in cases:
        copy = work / label.replace(" ", "_").replace(",", "")
        shutil.copytree(ws.root, copy)
        change(copy / "out" / artifact)
        failed = failing(replace(ws, root=copy, config=copy / "pipeline.ini"))
        hit = owner in failed
        caught &= hit
        print(f"{label:<24} in {artifact:<18} -> {'caught' if hit else 'MISSED'} by {owner}; failing: {', '.join(failed)}")
    print("self-test " + ("passed" if caught else "FAILED"))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
