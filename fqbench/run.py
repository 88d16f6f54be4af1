"""Run one fqspheres benchmark workload and print its metrics.

From the root of an fqspheres source checkout:

    python3 fqbench/run.py --workload census --seed 1 --seconds 30 --trace 0

The benchmark runs the program from a copy of src/ under .bench_build/,
built for the workload's kernel backend (see extbuild.py). It writes
the workload's input files from --seed, then for --seconds runs passes:
each pass is a fresh child process that runs the workload's CLI
commands back to back through fqspheres.cli.main. Every command's
counted quantities are checked against references. With --trace 1,
traced passes alternate with untraced ones and the output holds the
per-layer metrics instead of the end-to-end ones.

The machine this runs on changes speed by tens of percent over
minutes, because other work shares its cores. So every timed region is
bracketed by a fixed reference loop that uses no program code (see
child.py), and each time is reported at the reference speed: measured
seconds times REF_LOOP_S over the loop's mean seconds around it. The
measured seconds are in the information line.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds information
that is not a metric (build path, versions, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, median_low

import extbuild
import layers
import spans
from workloads import WORKLOADS, Step, Workload

CHILD = Path(__file__).resolve().with_name("child.py")
CHILD_TIMEOUT_S = 150
SETUP_SPAWNS = 11
# Seconds child.reference_loop takes at the speed times are scaled to.
REF_LOOP_S = 0.07


class BenchError(Exception):
    """The workload cannot be measured as specified."""


def _tail(text: str, lines: int = 3) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


def _child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def scale(ref_s: list[float]) -> list[float]:
    """Factor for the region between each pair of neighbouring loop runs."""
    return [2 * REF_LOOP_S / (a + b) for a, b in zip(ref_s, ref_s[1:])]


def measure_setup(env: dict, backend: str) -> tuple[list[float], list[float]]:
    """Import seconds of fqspheres.cli in fresh interpreters, scaled and measured.

    The first spawn writes the bytecode caches, which users pay once,
    and is not counted.
    """
    scaled, measured = [], []
    for i in range(SETUP_SPAWNS + 1):
        proc = _child([str(CHILD), "setup"], env)
        if proc.returncode != 0:
            raise BenchError(f"importing fqspheres.cli failed: {_tail(proc.stderr)}")
        seconds, before, after, got = proc.stdout.split()
        if got != backend:
            raise BenchError(f"asked for the {backend} backend, got {got}")
        if i:
            measured.append(float(seconds))
            scaled.append(float(seconds) * scale([float(before), float(after)])[0])
    return scaled, measured


def check_parity(work: Path, env: dict) -> dict[str, bool]:
    """Whether each kernel primitive agrees across the two backends."""
    out = work / "parity.json"
    proc = _child([str(CHILD), "parity", str(out)], env)
    if proc.returncode != 0:
        raise BenchError(f"parity check failed to run: {_tail(proc.stderr)}")
    data = json.loads(out.read_text(encoding="utf-8"))
    return data["agree"]


def run_pass(work: Path, env: dict, spec: Path, traced: bool) -> dict | str:
    """One pass in a fresh child; its result, or why there is none."""
    out = work / "pass.json"
    argv = [str(CHILD), "pass", str(spec), str(out), "1" if traced else "0"]
    try:
        proc = _child(argv, env)
    except subprocess.TimeoutExpired:
        return f"pass exceeded {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not out.is_file():
        return f"pass exited with {proc.returncode}: {_tail(proc.stderr)}"
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def step_problems(step: Step, record: dict) -> list[str]:
    """Why one command of a pass failed; empty when it succeeded."""
    if record["error"]:
        return [f"raised {_tail(record['error'], 1)}"]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}: {_tail(record['stderr'])}"]
    try:
        report = json.loads(record["stdout"])
    except ValueError:
        return ["report is not JSON"]
    if report.get("verdict") == "violated":
        return ["verdict is violated"]
    return step.check(report.get("results", {}))


def _require_backend(result: dict, workload: Workload, src: Path) -> None:
    """Never measure a silent fallback to the other backend or another tree."""
    if result["backend"] != workload.backend:
        raise BenchError(f"asked for the {workload.backend} backend, got {result['backend']}")
    if not Path(result["module"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"fqspheres was imported from {result['module']}, not from {src}")


def scaled_commands(result: dict) -> list[tuple[str, float]]:
    """(command name, scaled seconds) for each command of a pass."""
    factors = scale(result["ref_s"])
    return [(rec["argv"][0], rec["seconds"] * f) for rec, f in zip(result["commands"], factors)]


def pass_seconds(result: dict) -> float:
    """Scaled seconds of one pass: its commands, without the reference loops."""
    return sum(seconds for _, seconds in scaled_commands(result))


def end_to_end(setup: list[float], untraced: list[dict]) -> dict:
    return {
        "setup_s": (median(setup), "s"),
        "pass_s": (median(map(pass_seconds, untraced)), "s"),
        "peak_rss_mb": (median(r["peak_rss_kb"] for r in untraced) / 1024, "MB"),
    }


def command_seconds(untraced: list[dict]) -> dict[str, float]:
    """Median scaled seconds per pass spent in each CLI command."""
    return {
        layers.command_metric(c): median(
            sum((s for name, s in scaled_commands(r) if name == c), 0.0) for r in untraced
        )
        for c in layers.COMMANDS
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    per_pass = []
    for r in traced:
        seconds = spans.metric_seconds(r["spans"], scale(r["ref_s"]))
        values = layers.pass_metrics(seconds, r["counts"])
        values["trace.pass_s"] = pass_seconds(r)
        per_pass.append(values)
    # Counts repeat exactly from pass to pass; median_low keeps them whole.
    values = {
        name: (median if unit == "s" else median_low)(p[name] for p in per_pass)
        for name, unit, _ in layers.PER_LAYER
        if name in per_pass[0]
    }
    values["trace.overhead_s"] = values["trace.pass_s"] - median(map(pass_seconds, untraced))
    values.update(command_seconds(untraced))
    return {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}


def measure(args, root: Path, work: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload](args.seed, work)
    src, build = extbuild.prepare(root, workload.backend)
    info = {"workload": args.workload, "seed": args.seed, "backend": workload.backend,
            **build, **extbuild.toolchain()}
    env = dict(os.environ, PYTHONPATH=str(src), FQSPHERES_KERNELS=workload.backend,
               TMPDIR=str(work))
    spec = work / "commands.json"
    spec.write_text(json.dumps([s.argv for s in workload.steps]), encoding="utf-8")

    attempted = failed = 0
    problems: list[str] = []
    if workload.backend == "compiled":
        agree = check_parity(work, env)
        info["parity"] = agree
        attempted += len(agree)
        failed += sum(not ok for ok in agree.values())
        problems += [f"parity: {name} differs across backends"
                     for name, ok in agree.items() if not ok]

    setup, setup_measured = measure_setup(env, workload.backend)

    kinds = (False, True) if args.trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    deadline = time.monotonic() + args.seconds
    n = 0
    while n < len(kinds) or time.monotonic() < deadline:
        traced = kinds[n % len(kinds)]
        n += 1
        attempted += len(workload.steps)
        result = run_pass(work, env, spec, traced)
        if isinstance(result, str):
            failed += len(workload.steps)
            problems.append(result)
            continue
        _require_backend(result, workload, src)
        for step, record in zip(workload.steps, result["commands"]):
            found = step_problems(step, record)
            if found:
                failed += 1
                problems.append(f"{step.argv[0]}: {'; '.join(found)}")
        passes[traced].append(result)
    if not passes[False] or (args.trace and not passes[True]):
        raise BenchError("no pass completed: " + "; ".join(problems[:3]))

    untraced, traced_passes = passes[False], passes[True]
    info.update(
        passes={"untraced": len(untraced), "traced": len(traced_passes)},
        measured_setup_s=median(setup_measured),
        measured_pass_s=[sum(rec["seconds"] for rec in r["commands"]) for r in untraced],
        scaled_pass_s=[pass_seconds(r) for r in untraced],
        fail_rate=failed / attempted,
        problems=problems[:10],
        command_s=command_seconds(untraced),
    )
    if args.trace:
        metrics = per_layer(traced_passes, untraced)
        info["trace_self_sum_s"] = median(
            sum(spans.metric_seconds(r["spans"], scale(r["ref_s"])).values())
            for r in traced_passes
        )
        info["trace_wrapped"] = len(traced_passes[0]["wrapped"])
        info["trace_counter_errors"] = traced_passes[0]["counts"].get("trace.counter_errors", 0)
    else:
        metrics = end_to_end(setup, untraced)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fqspheres benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "fqspheres" / "cli.py").is_file():
        print("fqbench: run from the root of an fqspheres source checkout "
              "(src/fqspheres/cli.py not found)", file=sys.stderr)
        return 2
    (root / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_build"))
    try:
        result, info = measure(args, root, work)
    except (BenchError, extbuild.BuildFailed) as exc:
        print(f"fqbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
