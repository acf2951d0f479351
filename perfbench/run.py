"""Benchmark of the aimrom CLI: three workloads, timed per command, traced per module.

    python3 perfbench/run.py --workload chafee-postprocess --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run repeats whole rounds of its workload's commands, in this
process, until ``--seconds`` have passed, then checks the first round's
outputs against the independent reference and the later rounds' outputs
against the first, byte for byte.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with
the end-to-end metrics under ``--trace 0`` and the per-layer metrics under
``--trace 1``.  Each metric is the median over the run's rounds.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: with two on this 2-core machine the small matrix products
# of network training took from 0.45 to 1.46 s for the same work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import aimrom.cli  # noqa: E402

from workloads import WORKLOADS, write_configs  # noqa: E402

SETUP_PROBES = 7
WORK = ROOT / ".perfbench"


def clock():
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # set against the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _manifest(root, name):
    path = root / "out" / name / "manifest.json"
    return json.loads(path.read_text()) if path.exists() else None


def _operations(step, ok, root):
    """(attempted, failed) for one command and the work units inside it.

    A sampled trajectory fails when the manifest lists it under
    failed_trajectories, an ensemble pipeline run when it is counted under
    failed; when the command itself fails, all of its units count as failed.
    """
    attempted, failed = 1, 0 if ok else 1
    cfg = step.config
    if step.command == "sample":
        units = cfg["n_trajectories"]
        man = _manifest(root, step.name) if ok else None
        bad = units if man is None else len(man["failed_trajectories"])
    elif step.command == "ensemble":
        units = len(cfg["pipelines"]) * cfg["n_ic"]
        man = _manifest(root, step.name) if ok else None
        bad = units if man is None else sum(man["failed"].values())
    else:
        units = bad = 0
    return attempted + units, failed + bad


def run_round(steps, root, tracer=None):
    """Run one round's commands with root as working directory."""
    phases = {"sample": 0.0, "train": 0.0, "evaluate": 0.0}
    attempted = failed = 0
    log = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        first = clock()
        for step in steps:
            args = [step.command, "--config", f"config/{step.name}.yaml",
                    "--out", f"out/{step.name}"]
            span = tracer.span(f"cli.{step.command}") if tracer else contextlib.nullcontext()
            code = 0
            t0 = clock()
            with span, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                try:
                    aimrom.cli.main(args, standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = 1
            phases[step.phase] += clock() - t0
            a, f = _operations(step, code in (0, None), Path("."))
            attempted += a
            failed += f
        span_s = clock() - first
    finally:
        os.chdir(cwd)
    (root / "commands.log").write_text(log.getvalue())
    return {"phases": phases, "span": span_s, "attempted": attempted, "failed": failed}


def setup_seconds(workload, seed, base):
    """Median time from spawning a fresh interpreter until it has imported
    aimrom.cli and written one round's configs."""
    times = []
    for i in range(SETUP_PROBES):
        t0 = clock()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", str(base / f"probe-{i}"),
             "--workload", workload, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def _median(rounds, key):
    return statistics.median(key(r) for r in rounds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.probe:
        write_configs(args.workload, args.seed, Path(args.probe))
        print(repr(clock()))
        return

    if not Path(aimrom.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"aimrom was imported from {aimrom.cli.__file__}, not from {ROOT / 'src'}")

    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(clock)
        installed = spans.install(tracer)
    else:
        installed = contextlib.nullcontext()

    rounds = []
    with installed:
        start = clock()
        while not rounds or clock() - start < args.seconds:
            root = base / f"round-{len(rounds)}"
            steps = write_configs(args.workload, args.seed, root)
            rounds.append(run_round(steps, root, tracer))
            if tracer:
                rounds[-1]["layers"] = spans.layer_metrics(tracer)
                tracer.reset()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_s = setup_seconds(args.workload, args.seed, base)
    wall_s = setup_s + _median(rounds, lambda r: r["span"])
    for i, r in enumerate(rounds):
        print(f"round {i}: " + ", ".join(f"{k}_s {v:.4f}" for k, v in r["phases"].items())
              + f", span_s {r['span']:.4f}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, setup_s {setup_s:.4f}, "
          f"wall_s {wall_s:.4f}{' traced' if tracer else ''}")

    import checks

    try:
        for line in checks.run(args.workload, args.seed, [base / f"round-{i}" for i in
                                                           range(len(rounds))]):
            print(f"check ok: {line}")
        correct = True
    except checks.CheckFailed as exc:
        print(f"check FAILED: {exc}")
        correct = False
    except Exception:
        # an output the checks need is missing or unreadable
        traceback.print_exc(file=sys.stdout)
        correct = False

    if tracer:
        metrics = {name: {"value": _median(rounds, lambda r: r["layers"][name][0]), "unit": unit}
                   for name, (_, unit) in rounds[0]["layers"].items()}
        (base / "trace.json").write_text(json.dumps([r["layers"] for r in rounds], indent=1))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "sample_s": {"value": _median(rounds, lambda r: r["phases"]["sample"]), "unit": "s"},
            "train_s": {"value": _median(rounds, lambda r: r["phases"]["train"]), "unit": "s"},
            "evaluate_s": {"value": _median(rounds, lambda r: r["phases"]["evaluate"]),
                           "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
