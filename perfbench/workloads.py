"""Workload definitions shared by the benchmark parent and its clients.

Imports numpy only, never nonortho: the parent uses this module to build
inputs and expected work counts without loading the program under test.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = {
    "sweep_csv": "default (p, z) grid written as CSV by the CLI at --jobs 2; "
                 "row formatting and the file write dominate",
    "sweep_fine": "fine grid, summary only, one process; the array kernel and "
                  "per-chunk reduction dominate and nothing is formatted",
    "mc_detect": "three intercept-resend Monte Carlo runs of 10^7 trials via "
                 "the CLI at --jobs 2; Philox draws and branch logic dominate",
    "pointwise": "scalar library calls one point at a time; n2 search and the "
                 "closed forms each take about half",
}

# Sizes of each workload's own problem. A traced run reports every per-layer
# metric that BENCHMARK.json names, so it also probes the other workloads'
# layers at PROBE sizes; sweep_csv probes the kernel on its own grid
# (out=None). A probed value describes the probe, not the workload.
FULL = {
    "sweep_csv": {"csv_step": 5e-4, "fine_step": 5e-4},
    "sweep_fine": {"fine_step": 5e-5},
    "mc_detect": {"trials": 10_000_000},
    "pointwise": {"pairs": 48, "grid": 100, "overlaps": 1000},
}
PROBE = {"csv_step": 5e-3, "fine_step": 1e-3, "trials": 1 << 17,
         "pairs": 4, "grid": 8, "overlaps": 16}
# Sizes of the benchmark's self-test.
TINY = {"csv_step": 0.05, "fine_step": 0.01, "trials": 20_000,
        "pairs": 2, "grid": 4, "overlaps": 4}

# (protocol, overlap, eavesdropper): the three valid Monte Carlo rows.
MC_ROWS = (("bb84", 0.5, "basis"), ("b92", 0.1, "basis"),
           ("b92", 0.1, "projector"))

# The benchmark's model of the program's work. A traced run reads the
# program's own counts (chunks processed, blocks per trial, objective
# evaluations per n2 call) and fails a check where they differ from these.
SWEEP_CHUNKS_PER_JOB = 8
SWEEP_SLACK = 1e-9
SWEEP_EPS = 1e-9
MC_CHUNK_TRIALS = 1 << 16
MC_BLOCKS_PER_TRIAL = 2
N2_EVALS_PER_CALL = 256 * 256 + 4 * 40  # grid scan plus 40 pattern rounds

CSV_JOBS = 2
MC_JOBS = 2
ROUNDS = 3              # rounds of a traced run; layers take the median


def sizes_for(workload: str, traced: bool) -> dict:
    """Problem sizes of one run: the workload's own, plus probes if traced."""
    if traced:
        return {**PROBE, **FULL[workload]}
    return dict(FULL[workload])


def sweep_summary(result) -> dict:
    """The summary fields of a SweepResult, named and ordered as the CLI
    prints them, unrounded."""
    return {
        "rows": result.rows,
        "excluded": result.excluded,
        "min_ratio_U": result.min_ratio_u,
        "argmin_p": result.argmin_p,
        "argmin_z": result.argmin_z,
        "count_ratio_E_below_1": result.count_ratio_e_below_1,
        "count_ratio_E_at_least_1": result.count_ratio_e_at_least_1,
        "witness_E_below_1": result.witness_e_below_1,
        "witness_E_at_least_1": result.witness_e_at_least_1,
    }


def mc_seeds(seed: int) -> list[int]:
    """Philox key of each Monte Carlo row, derived from the workload seed."""
    return [(len(MC_ROWS) * seed + k) % (1 << 64) for k in range(len(MC_ROWS))]


def pointwise_inputs(seed: int, sizes: dict) -> dict:
    """Seeded inputs of the pointwise workload, as plain floats.

    Pairs are uniform on the Bloch sphere (normalised Gaussian 4-vectors).
    The (p, alpha_sq) grid keeps p < 1, where every alpha_sq decomposes;
    phases are uniform. Overlaps lie strictly inside (0, 1).
    """
    rng = np.random.default_rng([seed % (1 << 63), 1])
    k = sizes["pairs"]
    parts = rng.standard_normal((2 * k, 4))
    parts /= np.linalg.norm(parts, axis=1, keepdims=True)
    g = sizes["grid"]
    m = sizes["overlaps"]
    return {
        "states": parts.tolist(),
        "p": (0.5 + 0.5 * (np.arange(g) + 0.5) / g).tolist(),
        "alpha_sq": np.linspace(0.5, 1.0, g).tolist(),
        "phases": rng.uniform(0.0, 2.0 * math.pi, (g, g, 2)).tolist(),
        "overlaps": ((np.arange(m) + rng.uniform(0.05, 0.95, m)) / m).tolist(),
    }


def sweep_counts(step: float, jobs: int) -> dict:
    """Rows and chunks of the square grid p_step = z_step = step on [1/2, 1].

    Grid positions follow SweepGrid: p_i = 1/2 + i step, and row i holds
    floor((p_i - 1/2) / step + slack) + 1 values of z.
    """
    n_p = int(math.floor(0.5 / step + SWEEP_SLACK)) + 1
    p = 0.5 + np.arange(n_p) * step
    rows = int(np.sum(np.floor((p - 0.5) / step + SWEEP_SLACK).astype(np.int64) + 1))
    chunk = max(1, math.ceil(n_p / (jobs * SWEEP_CHUNKS_PER_JOB)))
    return {"rows": rows, "chunks": math.ceil(n_p / chunk), "p_count": n_p}


def mc_counts(trials: int) -> dict:
    chunks = math.ceil(trials / MC_CHUNK_TRIALS)
    n = len(MC_ROWS)
    return {"trials": n * trials, "chunks": n * chunks,
            "philox_blocks": n * MC_BLOCKS_PER_TRIAL * trials}


def pointwise_counts(sizes: dict) -> dict:
    """Library calls made by one pointwise batch, by layer."""
    k, g, m = sizes["pairs"], sizes["grid"], sizes["overlaps"]
    counts = {
        "qstate": 2 * k,                      # PureState2 per state
        "n01": 2 * k,                         # n0 and n1 per pair
        "n2": k,
        "decompose": 2 * g * g,               # from_weights + decompose
        "report": g * g,
        "closed_form": 4 * g * g + 3 * g,     # 4 per point, 3 maxima per p
        "exact": 3 * m,                       # exact_enumeration per row
        "analytic": 3 * m,
    }
    counts["hidden"] = counts["decompose"] + counts["closed_form"]
    counts["total"] = sum(v for key, v in counts.items() if key != "hidden")
    return counts


def work_per_rep(workload: str, sizes: dict) -> int:
    """Work in one repetition: rows, trials or library calls."""
    if workload == "sweep_csv":
        return sweep_counts(sizes["csv_step"], CSV_JOBS)["rows"]
    if workload == "sweep_fine":
        return sweep_counts(sizes["fine_step"], 1)["rows"]
    if workload == "mc_detect":
        return mc_counts(sizes["trials"])["trials"]
    return pointwise_counts(sizes)["total"]

