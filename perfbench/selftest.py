"""Self-test of the benchmark's checks: each one must fail on a wrong output.

    python3 perfbench/selftest.py [--seed 1] [--workload NAME]

Runs one round of each workload, requires every check to pass on it, then
for each check breaks one output in a copy of the round (the ``none``
closure's zero tail swapped in for euler-galerkin's, one perturbed
coefficient or eigenvalue, a dropped snapshot, swapped ensemble labels, ...)
and requires that check to raise ``CheckFailed``.  Exits 1 on the first
check that lets a wrong output through.
"""

import argparse
import json
import shutil
import sys

import numpy as np

import checks
import run
import workloads as wl


def _edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _metrics(name, change):
    return lambda root: _edit_json(root / "out" / name / "metrics.json", change)


def _stored(alias, change):
    def mutate(root):
        store = root / wl.STORE
        key = json.loads((store / "aliases.json").read_text())[alias]
        _edit_json(store / f"{key}.json", change)
    return mutate


def _model(alias, change):
    return _stored(alias, lambda doc: change(doc["model"]))


def _scale(values, i, factor):
    values[i] *= factor


def _drop_snapshot(root):
    path = root / "out" / "sample" / "snapshots.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _perturb_trajectory(seed, n_trajectories):
    def mutate(root):
        path = root / "out" / "sample" / "snapshots.csv"
        lines = path.read_text().splitlines()
        j = seed % n_trajectories
        rows = [i for i, ln in enumerate(lines[1:], 1) if int(float(ln.split(",")[0])) == j]
        cells = lines[rows[-1]].split(",")
        big = 2 + int(np.argmax(np.abs(np.array(cells[2:], dtype=float))))
        cells[big] = repr(float(cells[big]) * (1.0 + 1e-4))
        lines[rows[-1]] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return mutate


def _swap_labels(a, b):
    def mutate(root):
        path = root / "out" / "ensemble" / "samples.csv"
        text = path.read_text().replace(a + ",", "@,").replace(b + ",", a + ",")
        path.write_text(text.replace("@,", b + ","))
    return mutate


def _zero_tail(doc):
    # what the none closure appends: the low block followed by zeros
    doc["corrected_coeffs"][2:] = [0.0] * len(doc["corrected_coeffs"][2:])


def _as_none_closure(doc):
    _zero_tail(doc)
    doc["corrected"]["mape_final"] = doc["raw"]["mape_final"]


def _lift_far(doc):
    doc["coefficients"] = (1.5 * np.asarray(doc["coefficients"])).tolist()


def _shift_decoder(doc):
    doc["decoder"]["biases"][-1] = [b + 1.0 for b in doc["decoder"]["biases"][-1]]


def mutations(seed):
    """check name -> list of (description, mutation of a round directory)."""
    chafee_n, ks_n = wl.CHAFEE["n_trajectories"], wl.KS["n_trajectories"]
    raw = lambda doc: _scale(doc["raw"], "mape_final", 1.001)  # noqa: E731
    corrected = lambda doc: _scale(doc["corrected"], "mape_final", 1.001)  # noqa: E731

    def low(n_low):
        # the largest low coefficient, since the state checks are relative to it
        def mutate(doc):
            c = doc["corrected_coeffs"]
            _scale(c, int(np.argmax(np.abs(c[:n_low]))), 1.001)
        return mutate

    return {
        "chafee-postprocess": {
            "snapshot_count": [("one snapshot dropped", _drop_snapshot)],
            "sampled_trajectory": [("largest sampled coefficient off by 1e-4",
                                    _perturb_trajectory(seed, chafee_n))],
            "euler_galerkin_coeffs": [
                ("none closure's zero tail for euler-galerkin",
                 _metrics("eval-euler-galerkin", _zero_tail)),
                ("largest low coefficient off by 1e-3",
                 _metrics("eval-euler-galerkin", low(2)))],
            "scores:eval-euler-galerkin": [("raw MAPE off by 0.1%",
                                            _metrics("eval-euler-galerkin", raw))],
            "scores:eval-mlp": [("corrected MAPE off by 0.1%", _metrics("eval-mlp", corrected))],
            "mlp_removed_share": [("none closure's output for mlp",
                                   _metrics("eval-mlp", _as_none_closure))],
            "ensemble_medians": [("none and euler-galerkin samples swapped", _swap_labels(
                "chafee/fourier/truncated/none", "chafee/fourier/truncated/euler-galerkin"))],
        },
        "ks-dmaps": {
            "snapshot_count": [("one snapshot dropped", _drop_snapshot)],
            "dmap_spectrum": [
                ("trivial eigenvalue 1 - 1e-9", _model("dm", lambda d: _scale(
                    d["eigenvalues"], 0, 1.0 - 1e-9))),
                ("third eigenvalue off by 1e-6", _model("dm", lambda d: _scale(
                    d["eigenvalues"], 2, 1.0 + 1e-6)))],
            "dmap_pruning": [
                ("a coordinate pruned away", _model("dm", lambda d: d["kept_indices"].pop())),
                ("the second coordinate's stored residual scaled by 1.5", _stored(
                    "dm", lambda d: _scale(d["meta"]["residuals"], 1, 1.5))),
                ("the third coordinate's stored residual set to 0.1", _stored(
                    "dm", lambda d: d["meta"]["residuals"].__setitem__(2, 0.1)))],
            "held_out_reconstruction": [
                ("lift coefficients scaled by 1.5", _model("lift", _lift_far)),
                ("decoder output shifted by 1", _model("ae", _shift_decoder))],
            "low_block:eval-double-dmaps": [("largest low coefficient off by 1e-3",
                                             _metrics("eval-double-dmaps", low(3)))],
            "scores:eval-double-dmaps": [("raw MAPE off by 0.1%",
                                          _metrics("eval-double-dmaps", raw))],
        },
        "ks-graybox": {
            "snapshot_count": [("one snapshot dropped", _drop_snapshot)],
            "sampled_trajectory": [("largest sampled coefficient off by 1e-4",
                                    _perturb_trajectory(seed, ks_n))],
            "scores:eval-gray-box": [("corrected MAPE off by 0.1%",
                                      _metrics("eval-gray-box", corrected))],
            "scores:eval-black-box": [("raw MAPE off by 0.1%", _metrics("eval-black-box", raw))],
            "gray_box_beats_truncation": [
                ("gray-box low block scaled by 10", _metrics("eval-gray-box", lambda d: d.update(
                    corrected_coeffs=[10.0 * v for v in d["corrected_coeffs"]])))],
            "ensemble_medians": [("gray-box and truncated samples swapped", _swap_labels(
                "ks/fourier/gray-box/none", "ks/fourier/truncated/none"))],
        },
    }


def _flip_byte(root):
    path = root / "out" / "sample" / "snapshots.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def selftest(workload, seed, base):
    good = base / workload / "round-0"
    shutil.rmtree(base / workload, ignore_errors=True)
    steps = wl.write_configs(workload, seed, good)
    result = run.run_round(steps, good)
    if result["failed"]:
        sys.exit(f"{workload}: {result['failed']} operations failed; see {good / 'commands.log'}")
    for line in checks.run(workload, seed, [good]):
        print(f"{workload}: passes on the program's output: {line}")

    cases = mutations(seed)[workload]
    missing = set(checks.CHECKS[workload]) - set(cases)
    if missing:
        sys.exit(f"{workload}: no wrong output tried for {sorted(missing)}")
    bad = base / workload / "mutated"
    for name, tries in cases.items():
        for description, mutate in tries:
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(good, bad)
            mutate(bad)
            try:
                checks.CHECKS[workload][name](checks.Round(workload, seed, bad))
            except checks.CheckFailed as exc:
                print(f"{workload}: {name} fails on {description}: {exc}")
            else:
                sys.exit(f"{workload}: {name} passed on a wrong output ({description})")
    shutil.rmtree(bad)
    shutil.copytree(good, bad)
    _flip_byte(bad)
    try:
        checks.same_bytes(good, bad)
    except checks.CheckFailed as exc:
        print(f"{workload}: same_bytes fails on one flipped byte: {exc}")
    else:
        sys.exit(f"{workload}: same_bytes passed on a flipped byte")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args()
    base = run.WORK / "selftest"
    for workload in [args.workload] if args.workload else sorted(wl.WORKLOADS):
        selftest(workload, args.seed, base)
    print("selftest ok: every check fails on each wrong output tried")


if __name__ == "__main__":
    main()
