"""Self-test of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, emits exactly the metrics
BENCHMARK.json names, with their units, and passes its output checks; that
a deliberately corrupted output of each workload, and changed work counts
in a traced run, are counted as failed; that
the last stdout line has the documented keys; and that the benchmark exits
non-zero, printing no result, where the program is absent.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run
import workloads as wl


def corrupt(workload: str, outputs: dict) -> None:
    """Damage one output of a repetition the way a defect would."""
    if workload == "sweep_csv":
        outputs["stdout"] = outputs["stdout"].replace('"rows": ', '"rows": 1')
    elif workload == "sweep_fine":
        outputs["summary"]["excluded"] += 1
    elif workload == "mc_detect":
        run0 = outputs["runs"][0]
        run0["stdout"] = run0["stdout"].replace('"detections": ', '"detections": 1')
    else:
        outputs["n2"][0] += 1e-3


def corrupt_counts(rounds: list) -> None:
    """Change the work counts a traced client read from the program."""
    traced = rounds[0]["traced"]
    traced["sweep_fine"]["chunks"] += 1
    traced["mc_detect"]["lib"][0]["chunks"] += 1
    traced["pointwise"]["n2_evals"] += 1


def check_metrics(record: dict, want: dict, workload: str, trace: bool) -> None:
    got = {k: m["unit"] for k, m in record["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metrics {got} != {want}"
    assert record["failed"] == 0, f"{workload}: {record['failures']}"
    assert record["attempted"] > 0
    for name, m in record["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if not trace:
            assert value > 0, f"{workload}: {name} = {value}"


def main() -> int:
    # Sizes travel to the clients in each spec, so patching the parent's
    # tables shrinks every run.
    wl.FULL = {w: {k: wl.TINY[k] for k in sizes} for w, sizes in wl.FULL.items()}
    wl.PROBE = dict(wl.TINY)
    run.SETUP_SAMPLES = 4
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in wl.WORKLOADS:
            check_metrics(run.run_workload(w, 7, 0.01, trace), want, w, trace)
            print(f"ok   {w} trace={int(trace)}: {len(want)} metrics, checks pass")

    launch = run.launch

    def tampered(client_spec, deadline):
        reply = launch(client_spec, deadline)
        if client_spec["mode"] == "rep":
            corrupt(client_spec["workload"], reply["outputs"])
        elif client_spec["mode"] == "trace":
            corrupt_counts(reply["rounds"])
        return reply

    run.launch = tampered
    try:
        for w in wl.WORKLOADS:
            record = run.run_workload(w, 7, 0.01, False)
            assert record["failed"] > 0, f"{w}: corrupted output passed its check"
            print(f"ok   {w}: corrupted output counted "
                  f"({record['failed']} of {record['attempted']} failed)")
        record = run.run_workload("sweep_fine", 7, 0.01, True)
        assert record["failed"] == 3, f"changed counts: {record['failures']}"
        print("ok   changed work counts counted (3 failed)")
    finally:
        run.launch = launch

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "sweep_fine", "--seed", "3", "--seconds", "0.01"])
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert code == 0 and sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    print("ok   result line has correct, attempted, failed and metrics")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "pointwise",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok   without the program it exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
