"""Run every workload over ten seeds, twice, and record the figures in a file.

    python3 perfbench/record_baseline.py --label baseline

Run it from the repository root. For each workload it runs
`run.py --trace 0` once per seed 1-10, as the command in BENCHMARK.json
does, then the whole set again, and `run.py --trace 1` for seeds 1 and 2,
whose computed counts must be identical. It writes
perfbench/BENCH_<label>.json with, for each end-to-end metric and set, the
values, median, quartiles and spread (the interquartile range over the
median) against its bound in BENCHMARK.json, and how far the second set's
median moved from the first's. It also writes every per-layer metric of the
traced run, headline figures with their per-round values, and the
provenance of the first run. Failed checks are recorded with the figures; a
run that exits non-zero stops the recording.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import POINTWISE_SPANS, per_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def bench(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def rounds_of(values) -> dict:
    values = [float(v) for v in values]
    return {"median": statistics.median(values), "rounds": values}


def headline(traced: dict, e2e: dict) -> dict:
    """Figures the ROADMAP quotes, and the layer shares the benchmark's
    acceptance names, from the first traced run of each workload, with the
    value of each round and their median."""
    def spans(workload, name, **attrs):
        """Total duration of the spans in each round."""
        return per_round(traced[workload]["spans"], name, **attrs)

    def csv(out):
        return spans("sweep_csv", "unlock.conjecture_sweep", grid="csv", jobs=1, out=out)

    csv_jobs1 = csv("path")
    format_s = csv("sink") - csv("none")
    write_s = spans("sweep_csv", "unlock.write_alone")
    kernel_s = spans("sweep_csv", "unlock.conjecture_sweep", grid="fine")
    n2 = spans("pointwise", "measures.n2")
    batch = sum(spans("pointwise", n) for n in POINTWISE_SPANS)
    return {
        "sweep_csv_jobs1_s": rounds_of(csv_jobs1),
        "sweep_csv_jobs2_s": e2e["sweep_csv"]["wall_s"]["median"],
        "sweep_csv_peak_rss_mb": e2e["sweep_csv"]["peak_rss_mb"]["median"],
        "format_share_of_csv_jobs1": rounds_of(format_s / csv_jobs1),
        "write_share_of_csv_jobs1": rounds_of(write_s / csv_jobs1),
        "format_plus_write_share_of_csv_jobs1": rounds_of((format_s + write_s) / csv_jobs1),
        "kernel_share_of_csv_jobs1": rounds_of(kernel_s / csv_jobs1),
        "bb84_1e7_trials_jobs1_s": rounds_of(
            spans("mc_detect", "crypto.simulate", jobs=1, row=0)),
        "n2_ms_per_pair": traced["pointwise"]["metrics"]["measures.n2_ms"]["value"],
        "n2_share_of_pointwise": rounds_of(n2 / batch),
        "scalar_share_of_pointwise": rounds_of((batch - n2) / batch),
        "trace_overhead_s": {w: traced[w]["metrics"]["trace.overhead_s"]["value"]
                             for w in traced},
    }


def summarise(runs: list, metrics: list) -> dict:
    """Median, quartiles and spread of each end-to-end metric over seeds."""
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"],
                          "spread_over_bound": (q3 - q1) / med / m["bound"],
                          "values": values}
    return out


def drift(first: dict, second: dict, metrics: list) -> dict:
    """How much worse the second set's median is than the first's, as a
    share of the first; negative where it is better."""
    out = {}
    for m in metrics:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        out[m["name"]] = {"worse_by": worse, "bound": m["bound"],
                          "within_bound": worse <= m["bound"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sets = []
    for k in range(SETS):
        runs = {w: [bench(w, s, seconds, 0) for s in SEEDS] for w in names}
        sets.append(runs)
        for w in names:
            for name, m in summarise(runs[w], metrics).items():
                print(f"set {k + 1} {w:10s} {name:12s} median {m['median']:12.6g}  "
                      f"spread {m['spread']:.4f}  bound {m['bound']}", flush=True)
    out = {"label": args.label, "seeds": list(SEEDS), "sets": SETS,
           "run_seconds": spec["run_seconds"],
           "provenance": sets[0][names[0]][0]["provenance"], "workloads": {}}
    traced = {}
    for w in names:
        # Two traced runs: every computed count must repeat exactly.
        traced[w], again = (bench(w, s, seconds, 1) for s in SEEDS[:2])
        for k, m in traced[w]["metrics"].items():
            if m["kind"] == "computed" and m["value"] != again["metrics"][k]["value"]:
                sys.exit(f"{w}: computed {k} differs between seeds: "
                         f"{m['value']} != {again['metrics'][k]['value']}")
        e2e = [summarise(runs[w], metrics) for runs in sets]
        groups = [*((f"set {k + 1} trace 0", runs[w]) for k, runs in enumerate(sets)),
                  ("trace 1", [traced[w], again])]
        records = [r for _, group in groups for r in group]
        out["workloads"][w] = {
            "end_to_end": e2e,
            "second_set_worse_by": drift(e2e[0], e2e[-1], metrics),
            "per_layer": {k: {"value": m["value"], "unit": m["unit"], "kind": m["kind"]}
                          for k, m in traced[w]["metrics"].items()},
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "failures": {f"{label} seed {r['provenance']['seed']}": r["failures"]
                         for label, group in groups for r in group if r["failed"]},
            "input": traced[w]["provenance"]["input"],
        }
    out["headline"] = headline(
        traced, {w: v["end_to_end"][0] for w, v in out["workloads"].items()})
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
