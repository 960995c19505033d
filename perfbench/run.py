"""Benchmark of nonortho: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep_csv --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from src/. Workloads
(see workloads.py for why each exists): sweep_csv, sweep_fine, mc_detect,
pointwise, or "all" to run each in turn.

Load model: a closed loop from a single client. Each repetition is one fresh
interpreter (client.py) that imports nonortho, times one repetition and
exits; the next starts only after it returns, and the program uses at most
--jobs 2. Repetitions continue until their timed walls sum to --seconds
(at least three).

--trace 0 reports the end-to-end metrics, medians over repetitions:
wall_s, work_per_s (rows/s for sweeps, trials/s for mc_detect, library
calls/s for pointwise), cpu_s (the client plus its pool workers), peak_rss_mb
(the largest of the client and any worker) and setup_s (interpreter start to
nonortho.cli imported and its parser built, over at least 15 launches).
--trace 1 runs one client for three rounds. Each round times one untraced
repetition, then records spans around public calls in every layer,
repeating the problem at --jobs 1 and with out=None / a discarding sink / a
path. The per-layer metrics are medians over rounds; layers the workload
does not exercise are probed at small sizes.

Every output is checked outside the timed region (checks.py); the last line
of stdout is one JSON object with correct, attempted, failed and metrics.
The full record, with provenance and spans, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BUDGET_S = 165.0        # one run must end within 180 s
MIN_REPS = 3
SETUP_SAMPLES = 15


# --- clients -------------------------------------------------------------------

def launch(spec: dict, deadline: float) -> dict:
    """Run one client to completion and return its reply.

    The client gets its own process group, so a timeout ends its pool
    workers too. A reply without timings carries an "error".
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "client.py"), repr(t0), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "client timed out"}
    try:
        reply = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"client exited {proc.returncode}: {err[-2000:]}"}
    if proc.returncode != 0:
        reply.setdefault("error", f"client exited {proc.returncode}")
    return reply


class Verifier:
    """Checks every output of one run against its oracle or golden value."""

    def __init__(self, workload: str, seed: int, sizes: dict, deadline: float,
                 tmp: str):
        self.workload = workload
        self.sizes = sizes
        self.tally = checks.Tally()
        self.pointwise = (checks.PointwiseOracle(seed, sizes)
                          if "pairs" in sizes else None)
        self.reference = None
        if workload == "mc_detect":
            # --jobs 1 output, to which every --jobs 2 run must be identical.
            reply = launch({"mode": "reference", "workload": workload,
                            "seed": seed, "sizes": sizes, "tmp": tmp}, deadline)
            runs = reply.get("outputs", {}).get("runs")
            checks.check_mc_runs(self.tally, runs, None, sizes["trials"])
            self.reference = runs

    def rep(self, outputs: dict | None) -> None:
        w, s, t = self.workload, self.sizes, self.tally
        if w == "sweep_csv":
            checks.check_cli_sweep(t, outputs, s["csv_step"])
        elif w == "sweep_fine":
            checks.check_sweep_summary(t, outputs and outputs["summary"],
                                       s["fine_step"], "sweep_fine")
        elif w == "mc_detect":
            checks.check_mc_runs(t, outputs and outputs["runs"], self.reference,
                                 s["trials"])
        else:
            self.pointwise.check(t, outputs)

    def trace(self, rounds: list | None) -> dict:
        """Check every round of a traced client; returns figures for the
        layers."""
        s, t = self.sizes, self.tally
        if rounds is None:
            t.fail_all(wl.ROUNDS * (9 + 2 * len(wl.MC_ROWS)), "traced client")
            return {}
        figures = {"max_abs_z": 0.0, "n2_max_err": 0.0, "nonzero_exits": 0}
        fine = wl.sweep_counts(s["fine_step"], 1)
        mc = wl.mc_counts(s["trials"])
        for r in rounds:
            self.rep(r["untraced"].pop("outputs"))
            out = r["traced"]
            u = out["sweep_csv"]
            checks.check_cli_sweep(t, u["cli"], s["csv_step"])
            figures["csv_bytes"] = u["cli"]["bytes"]
            for key in (f"path_jobs{wl.CSV_JOBS}", "path_jobs1", "sink"):
                t.add(checks.csv_matches(u[key], s["csv_step"]), f"csv {key}")
            for key in (f"path_jobs{wl.CSV_JOBS}", "path_jobs1", "sink", "none"):
                checks.check_sweep_summary(t, u[key]["summary"], s["csv_step"],
                                           f"summary {key}")
            f = out["sweep_fine"]
            checks.check_sweep_summary(t, f["summary"], s["fine_step"], "fine summary")
            t.add(f["chunks"] == fine["chunks"], "sweep chunks counted")
            figures.update(rows=f["summary"]["rows"], excluded=f["summary"]["excluded"],
                           chunks=f["chunks"])
            m = out["mc_detect"]
            figures["max_abs_z"] = max(figures["max_abs_z"], checks.check_mc_runs(
                t, m["runs"], self.reference, s["trials"]))
            for run, lib in zip(m["runs"], m["lib"]):
                detections = (json.loads(run["stdout"])["detections"]
                              if run["rc"] == 0 else None)
                t.add(lib[f"jobs{wl.MC_JOBS}"] == lib["jobs1"] == detections,
                      "simulate across jobs")
            t.add(sum(lib["chunks"] for lib in m["lib"]) == mc["chunks"],
                  "Monte Carlo chunks counted")
            t.add(all(lib["blocks_per_trial"] == wl.MC_BLOCKS_PER_TRIAL
                      for lib in m["lib"]), "Philox blocks per trial")
            figures.update(
                trials=sum(json.loads(run["stdout"])["trials"]
                           for run in m["runs"] if run["rc"] == 0),
                mc_chunks=sum(lib["chunks"] for lib in m["lib"]),
                philox_blocks=sum(lib["blocks_per_trial"] for lib in m["lib"]) * s["trials"])
            p = out["pointwise"]
            n2 = self.pointwise.check(t, p)
            t.add(p["n2_evals"] == wl.N2_EVALS_PER_CALL, "n2 evaluations counted")
            figures["n2_max_err"] = max(figures["n2_max_err"], n2["n2_max_err"])
            figures.update(n2_converged_frac=n2["n2_converged_frac"],
                           n2_calls=len(p["n2"]), n2_evals=p["n2_evals"])
            figures["nonzero_exits"] += sum(
                run["rc"] != 0 for run in [u["cli"], *m["runs"]])
        return figures


# --- metrics -------------------------------------------------------------------

def per_round(spans: list, name: str, **attrs) -> np.ndarray:
    """Total duration, in each round, of the spans with this name and these
    attributes."""
    out = np.zeros(wl.ROUNDS)
    for s in spans:
        if s["name"] == name and all(s.get(k) == v for k, v in attrs.items()):
            out[s["round"]] += s["end"] - s["start"]
    return out


def traced_op(workload: str, spans: list) -> np.ndarray:
    """Wall of the workload's own operation inside each traced round."""
    if workload == "sweep_csv":
        return per_round(spans, "cli.main", command="sweep")
    if workload == "sweep_fine":
        return per_round(spans, "unlock.conjecture_sweep", grid="fine")
    if workload == "mc_detect":
        return per_round(spans, "cli.main", command="crypto")
    return sum(per_round(spans, n) for n in POINTWISE_SPANS)


POINTWISE_SPANS = ("qstate.PureState2", "measures.n0_n1", "measures.n2",
                   "hidden.decompose", "unlock.unlock_report",
                   "hidden.closed_form", "crypto.exact")


def layer_metrics(workload: str, sizes: dict, spans: list, figures: dict,
                  untraced_walls: list) -> dict:
    """Per-layer metrics, (value, unit, how it was obtained), each the
    median over rounds; a derived value is the median of its per-round
    differences."""
    med = statistics.median

    def sweep(jobs, out):
        return per_round(spans, "unlock.conjecture_sweep", grid="csv", jobs=jobs, out=out)

    def each(name, **attrs):
        return med(per_round(spans, name, **attrs))

    pw = wl.pointwise_counts(sizes)
    points = sizes["grid"] ** 2
    draw = per_round(spans, "crypto.draw")
    sim1 = per_round(spans, "crypto.simulate", jobs=1)
    sim2 = per_round(spans, "crypto.simulate", jobs=wl.MC_JOBS)
    cli_over = (per_round(spans, "cli.main", command="sweep") - sweep(wl.CSV_JOBS, "path")
                + per_round(spans, "cli.main", command="crypto") - sim2)
    return {
        "unlock.format_s": (med(sweep(1, "sink") - sweep(1, "none")), "s", "derived"),
        "unlock.write_s": (each("unlock.write_alone"), "s", "measured"),
        "unlock.csv_bytes": (figures["csv_bytes"], "bytes", "measured"),
        "unlock.pool_overhead_s": (med(sweep(wl.CSV_JOBS, "path") - sweep(1, "path") / 2),
                                   "s", "derived"),
        "unlock.kernel_s": (each("unlock.conjecture_sweep", grid="fine"), "s", "measured"),
        "unlock.rows": (figures["rows"], "count", "computed"),
        "unlock.excluded": (figures["excluded"], "count", "computed"),
        "unlock.chunks": (figures["chunks"], "count", "computed"),
        "unlock.report_us": (1e6 * each("unlock.unlock_report") / points, "us", "measured"),
        "hidden.decompose_us": (1e6 * each("hidden.decompose") / points, "us", "measured"),
        "hidden.closed_form_us": (1e6 * each("hidden.closed_form") / pw["closed_form"],
                                  "us", "measured"),
        "hidden.calls": (pw["hidden"], "count", "computed"),
        "qstate.state_us": (1e6 * each("qstate.PureState2") / pw["qstate"], "us", "measured"),
        "measures.n2_ms": (1e3 * each("measures.n2") / pw["n2"], "ms", "measured"),
        "measures.n2_calls": (figures["n2_calls"], "count", "computed"),
        "measures.n2_converged_frac": (figures["n2_converged_frac"], "ratio", "measured"),
        "measures.n2_max_err": (figures["n2_max_err"], "bits", "measured"),
        "measures.n2_evals": (figures["n2_evals"], "count", "computed"),
        "measures.n01_us": (1e6 * each("measures.n0_n1") / pw["n01"], "us", "measured"),
        "crypto.draw_s": (med(draw), "s", "measured"),
        "crypto.branch_s": (med(sim1 - draw), "s", "derived"),
        "crypto.trials": (figures["trials"], "count", "computed"),
        "crypto.chunks": (figures["mc_chunks"], "count", "computed"),
        "crypto.philox_blocks": (figures["philox_blocks"], "count", "computed"),
        "crypto.max_abs_z": (figures["max_abs_z"], "sigma", "measured"),
        "crypto.pool_overhead_s": (med(sim2 - sim1 / 2), "s", "derived"),
        "crypto.exact_us": (1e6 * each("crypto.exact") / pw["exact"], "us", "measured"),
        "cli.overhead_s": (med(cli_over), "s", "derived"),
        "cli.calls": (sum(s["name"] == "cli.main" for s in spans), "count", "measured"),
        "cli.nonzero_exits": (figures["nonzero_exits"], "count", "measured"),
        "trace.overhead_s": (med(traced_op(workload, spans) - np.array(untraced_walls)),
                             "s", "derived"),
    }


# --- provenance ----------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(workload: str, seed: int, sizes: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            git_sha = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size").strip()
    return {
        "git_sha": git_sha, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(),
        "workload": workload, "seed": seed, "sizes": sizes,
        "input": input_size(workload, sizes),
    }


def input_size(workload: str, sizes: dict) -> str:
    if workload == "sweep_csv":
        step = sizes["csv_step"]
        return (f"{wl.sweep_counts(step, 1)['rows']} rows, p_step = z_step = {step}, "
                f"eps {wl.SWEEP_EPS}, CSV {checks.expected()['csv'][checks.step_key(step)]['bytes']} bytes")
    if workload == "sweep_fine":
        step = sizes["fine_step"]
        return f"{wl.sweep_counts(step, 1)['rows']} rows, p_step = z_step = {step}, out=None"
    if workload == "mc_detect":
        return f"{len(wl.MC_ROWS)} rows x {sizes['trials']} trials: {wl.MC_ROWS}"
    return (f"{sizes['pairs']} pairs, {sizes['grid']}x{sizes['grid']} (p, alpha_sq) "
            f"grid, {sizes['overlaps']} overlaps; {wl.pointwise_counts(sizes)['total']} calls")


# --- one run -------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + BUDGET_S
    sizes = wl.sizes_for(workload, trace)
    tmp = WORK / f"run-{os.getpid()}-{workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "sizes": sizes, "tmp": str(tmp)}
    try:
        verify = Verifier(workload, seed, sizes, deadline, spec["tmp"])
        record = {"provenance": provenance(workload, seed, sizes)}
        if trace:
            reply = launch({**spec, "mode": "trace"}, deadline)
            figures = verify.trace(reply.get("rounds"))
            if "error" in reply:
                raise RuntimeError(reply["error"])
            untraced = [r["untraced"] for r in reply["rounds"]]
            record.update(reps=untraced, spans=reply["spans"])
            metrics = layer_metrics(workload, sizes, reply["spans"], figures,
                                    [u["wall_s"] for u in untraced])
        else:
            reps = []
            while len(reps) < MIN_REPS or sum(r["wall_s"] for r in reps) < seconds:
                reply = launch({**spec, "mode": "rep"}, deadline)
                verify.rep(reply.pop("outputs", None))
                if "error" in reply:
                    if not reps:
                        raise RuntimeError(reply["error"])
                    break
                reps.append(reply)
            setups = [r["setup_s"] for r in reps]
            while len(setups) < SETUP_SAMPLES:
                reply = launch({**spec, "mode": "setup"}, deadline)
                if "setup_s" not in reply:
                    raise RuntimeError(reply["error"])
                setups.append(reply["setup_s"])
            wall = statistics.median(r["wall_s"] for r in reps)
            metrics = {
                "wall_s": (wall, "s", "measured"),
                "work_per_s": (wl.work_per_rep(workload, sizes) / wall, "1/s", "measured"),
                "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s", "measured"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                                "MB", "measured"),
                "setup_s": (statistics.median(setups), "s", "measured"),
            }
            record.update(reps=reps, setup_samples=setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    t = verify.tally
    record.update(metrics={k: {"value": v, "unit": u, "kind": kind}
                           for k, (v, u, kind) in metrics.items()},
                  attempted=t.attempted, failed=t.failed, failures=t.notes,
                  elapsed_s=time.perf_counter() - start)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    return record


def report(workload: str, record: dict) -> None:
    """Human-readable lines; the last stdout line is left to main()."""
    prov = record["provenance"]
    t_att, t_fail = record["attempted"], record["failed"]
    print(f"# {workload}: {wl.WORKLOADS[workload]}")
    print(f"# input: {prov['input']}; repetitions: {len(record['reps'])}")
    print(f"# provenance: {json.dumps({k: v for k, v in prov.items() if k != 'sizes'})}")
    print(f"# checks: {t_att} attempted, {t_fail} failed, "
          f"fail_frac {t_fail / max(t_att, 1):.6g}")
    for note in record["failures"]:
        print(f"#   failed: {note}")
    for name, m in record["metrics"].items():
        print(f"{workload:10s} {name:28s} {m['value']:>16.6g} {m['unit']:6s} {m['kind']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nonortho" / "__init__.py").is_file():
        print(f"error: the program is not here: {SRC / 'nonortho'} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        try:
            records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: no measurement: {exc}", file=sys.stderr)
            return 1
        report(name, records[name])
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    metrics = {(f"{w}.{k}" if len(names) > 1 else k): {"value": m["value"], "unit": m["unit"]}
               for w, r in records.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
