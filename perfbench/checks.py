"""Output checks and independent oracles, run outside every timed region.

Each checked operation adds one attempt to a Tally and, if it fails, one
failure; fail_frac is failed / attempted. The oracles use numpy alone and
re-derive each quantity by another route than the program's: n2 by a dense
scan of the great circle through the two Bloch vectors, the pair and
ensemble values through the factorised overlap (p - z)(p + z - 1) / z(1 - z),
the ensemble maximum by a grid scan, and sweep work counts from integer grid
indices. Golden outputs recorded from the seed program are in expected.json.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

ATOL = 1e-12            # closed forms, enumeration, entropies (C02, C03)
RECON_TOL = 1e-10       # decomposition reconstruction (C05)
MAXIMUM_TOL = 1e-6      # ensemble maximum against a z-grid scan (C08)
N2_TOL = 1e-6           # n2 against its oracle (C12)
MC_MAX_ABS_Z = 5.0      # |zscore| bound per Monte Carlo row
OUT_PLACEHOLDER = "@OUT@"


class Tally:
    """Checked operations and the first few failures, by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.add_many(np.array([ok]), what)

    def add_many(self, ok, what: str) -> None:
        ok = np.asarray(ok, dtype=bool)
        self.attempted += ok.size
        bad = int(ok.size - np.count_nonzero(ok))
        self.failed += bad
        if bad and len(self.notes) < 20:
            self.notes.append(f"{what}: {bad} of {ok.size} failed, first at "
                              f"{int(np.argmin(ok))}")

    def fail_all(self, n: int, what: str) -> None:
        self.add_many(np.zeros(n, dtype=bool), what)


@functools.lru_cache(maxsize=None)
def expected() -> dict:
    """Golden outputs of the seed program, written by record_expected.py."""
    return json.loads((Path(__file__).parent / "expected.json").read_text())


def round12(value):
    """The CLI's output rounding: 12 significant digits, non-finite to null."""
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


def step_key(step: float) -> str:
    return repr(float(step))


def entropy(x):
    """Binary entropy in bits, elementwise, with 0 log 0 = 0."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.zeros_like(x)
    m = (x > 0.0) & (x < 1.0)
    out[m] = -(x[m] * np.log2(x[m]) + (1.0 - x[m]) * np.log2(1.0 - x[m]))
    return out


def hidden_overlap(p, z):
    """Squared overlap of the decomposition pair, factorised as
    (p - z)(p + z - 1) / (z (1 - z)), which equals 1 - p(1-p)/(z(1-z))."""
    p, z = np.asarray(p, dtype=float), np.asarray(z, dtype=float)
    return np.clip((p - z) * (p + z - 1.0) / (z * (1.0 - z)), 0.0, 1.0)


def ensemble_value(p, z):
    """N_ens for 1/2 <= z <= p < 1: the paired fraction 2(1-z) times n0."""
    ov = hidden_overlap(p, z)
    return 2.0 * (1.0 - np.asarray(z)) * (1.0 - 2.0 * np.abs(ov - 0.5))


# --- sweeps ------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def sweep_excluded(step: float) -> int:
    """Grid points with N_ens <= eps on the square grid, from indices.

    With p = 1/2 + i step and z = 1/2 + j step, the overlap is
    (i - j)(i + j) step^2 / (z (1 - z)), exact in the integers i, j; the
    row at p = 1 has N_ens = 0 throughout.
    """
    counts = wl.sweep_counts(step, 1)
    excluded = 0
    for i in range(counts["p_count"]):
        p = 0.5 + i * step
        nz = int(math.floor((p - 0.5) / step + wl.SWEEP_SLACK)) + 1
        if p >= 1.0:
            excluded += nz
            continue
        j = np.arange(nz, dtype=float)
        z = 0.5 + j * step
        ov = np.clip((i - j) * (i + j) * step * step / (z * (1.0 - z)), 0.0, 1.0)
        n_ens = 2.0 * (1.0 - z) * (1.0 - 2.0 * np.abs(ov - 0.5))
        excluded += int(np.count_nonzero(n_ens <= wl.SWEEP_EPS))
    return excluded


def check_sweep_summary(t: Tally, summary: dict | None, step: float,
                        what: str) -> None:
    """The summary matches the seed's at CLI precision, and its counts
    match the counts computed from the grid."""
    ok = summary is not None
    if ok:
        counts = wl.sweep_counts(step, 1)
        ok = (round12(summary) == expected()["sweep"][step_key(step)]
              and summary["rows"] == counts["rows"]
              and summary["excluded"] == sweep_excluded(step)
              and summary["rows"] == summary["excluded"]
              + summary["count_ratio_E_below_1"]
              + summary["count_ratio_E_at_least_1"])
    t.add(ok, what)


def csv_matches(out: dict, step: float) -> bool:
    """The digest of a CSV the program wrote equals the seed's."""
    exp = expected()["csv"][step_key(step)]
    return out["sha256"] == exp["sha256"] and out["bytes"] == exp["bytes"]


def check_cli_sweep(t: Tally, out: dict | None, step: float) -> None:
    """cli.main sweep: exit 0, stdout byte-identical to the seed's, CSV
    matching the seed's SHA-256."""
    if out is None:
        t.fail_all(1, "cli sweep")
        return
    exp = expected()["csv"][step_key(step)]
    stdout = exp["stdout"].replace(OUT_PLACEHOLDER, json.dumps(out["csv"])[1:-1])
    t.add(out["rc"] == 0 and out["stdout"] == stdout and csv_matches(out, step),
          "cli sweep")


# --- Monte Carlo ---------------------------------------------------------------

def mc_analytic(protocol: str, overlap: float, eve: str) -> float:
    """Detection probability: s(1-s), t(1-t), or t(1-t)/2 for the projector."""
    value = overlap * (1.0 - overlap)
    return value / 2.0 if (protocol, eve) == ("b92", "projector") else value


def check_mc_runs(t: Tally, runs: list | None, reference: list | None,
                  trials: int) -> float:
    """Each CLI run exits 0, reports the closed form and |z| within bound,
    and (given a --jobs 1 reference) is byte-identical to it. Returns the
    largest |zscore| seen."""
    if runs is None:
        t.fail_all(len(wl.MC_ROWS), "crypto")
        return math.nan
    worst = 0.0
    for k, (run, row) in enumerate(zip(runs, wl.MC_ROWS)):
        ok = run["rc"] == 0
        if ok:
            data = json.loads(run["stdout"])
            z = data["zscore"]
            ok = (z is not None and abs(z) <= MC_MAX_ABS_Z
                  and data["trials"] == trials
                  and abs(data["analytic"] - mc_analytic(*row)) <= ATOL
                  and data["detections"] == round(data["estimate"] * trials))
            worst = max(worst, abs(z)) if z is not None else math.inf
        if reference is not None:
            ok = ok and run["stdout"] == reference[k]["stdout"]
        t.add(ok, f"crypto row {k}")
    return worst


# --- pointwise -------------------------------------------------------------------

def bloch(amps: np.ndarray) -> np.ndarray:
    """Bloch vectors of rows (re_up, im_up, re_down, im_down)."""
    a = amps[:, 0] + 1j * amps[:, 1]
    b = amps[:, 2] + 1j * amps[:, 3]
    ab = np.conj(a) * b
    return np.stack([2.0 * ab.real, 2.0 * ab.imag,
                     np.abs(a) ** 2 - np.abs(b) ** 2], axis=1)


def n2_oracle(r1: np.ndarray, r2: np.ndarray) -> float:
    """Least total outcome entropy over measurement directions m.

    Both outcome probabilities are (1 + m.r_i)/2 and the minimum lies on the
    great circle through r1 and r2 (any circle through r1 if they are
    parallel). Scan that circle densely, then zoom in on the best local
    minima. f(t + pi) = f(t), so half the circle suffices.
    """
    e1 = r1 / np.linalg.norm(r1)
    w = r2 - (r2 @ e1) * e1
    if np.linalg.norm(w) < 1e-9:
        axis = np.eye(3)[int(np.argmin(np.abs(e1)))]
        w = axis - (axis @ e1) * e1
    e2 = w / np.linalg.norm(w)
    c = np.array([[r1 @ e1, r1 @ e2], [r2 @ e1, r2 @ e2]])

    def f(t):
        ct, st = np.cos(t), np.sin(t)
        return (entropy(0.5 * (1.0 + c[0, 0] * ct + c[0, 1] * st))
                + entropy(0.5 * (1.0 + c[1, 0] * ct + c[1, 1] * st)))

    n = 4096
    h = math.pi / n
    t = np.arange(n) * h
    v = f(t)
    local = np.flatnonzero((v <= np.roll(v, 1)) & (v <= np.roll(v, -1)))
    best = float(v.min())
    for k in local[np.argsort(v[local])][:4]:
        centre, half = t[k], h
        for _ in range(12):
            tt = np.linspace(centre - half, centre + half, 65)
            vv = f(tt)
            j = int(np.argmin(vv))
            centre, half = tt[j], 2.0 * half / 64
            best = min(best, float(vv[j]))
    return best


class PointwiseOracle:
    """Expected values for one seed's pointwise inputs, computed once."""

    def __init__(self, seed: int, sizes: dict):
        inp = wl.pointwise_inputs(seed, sizes)
        st = np.array(inp["states"])
        x, y = st[0::2], st[1::2]
        ax = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
        ay = y[:, 0] + 1j * y[:, 1], y[:, 2] + 1j * y[:, 3]
        ov = np.clip(np.abs(np.conj(ax[0]) * ay[0] + np.conj(ax[1]) * ay[1]) ** 2,
                     0.0, 1.0)
        self.n01 = np.stack([1.0 - 2.0 * np.abs(ov - 0.5), entropy(ov)], axis=1)
        rx, ry = bloch(x), bloch(y)
        self.n2 = np.array([n2_oracle(a, b) for a, b in zip(rx, ry)])

        g = len(inp["p"])
        self.p = np.repeat(np.array(inp["p"]), g)
        alpha = np.clip(np.tile(np.array(inp["alpha_sq"]), g), 0.5, 1.0)
        self.z = 2.0 * self.p * alpha + 1.0 - self.p - alpha
        self.p_row = np.array(inp["p"])
        pq = self.p_row * (1.0 - self.p_row)
        self.max_pair_exists = 1.0 - 8.0 * pq >= 0.0
        zz = np.linspace(0.0, 1.0, 10_001)[None, :] * (self.p_row[:, None] - 0.5) + 0.5
        self.max_ensemble = ensemble_value(self.p_row[:, None], zz).max(axis=1)
        self.branch_lt_half = pq > 0.125
        s = np.array(inp["overlaps"])
        self.detection = np.stack([s * (1.0 - s), s * (1.0 - s),
                                   s * (1.0 - s) / 2.0], axis=1)

    def check(self, t: Tally, out: dict | None) -> dict:
        """Check one batch; returns n2 accuracy figures for the trace."""
        if out is None:
            n = len(self.n2)
            g2, g, m = len(self.p), len(self.p_row), len(self.detection)
            t.fail_all(3 * n + 3 * g2 + g + 3 * m, "pointwise")
            return {}
        n01 = np.array(out["n01"], dtype=float)
        t.add_many(np.abs(n01 - self.n01) <= ATOL, "n0/n1")

        n2 = np.array(out["n2"], dtype=float)
        conv = np.array(out["n2_converged"], dtype=bool)
        err = n2 - self.n2
        t.add_many((err >= -1e-9) & (err <= N2_TOL), "n2 against its oracle")

        dec = np.array(out["dec"], dtype=float)
        z = dec[:, 0]
        phi1 = dec[:, 1:5:2] + 1j * dec[:, 2:5:2]
        phi2 = dec[:, 5:9:2] + 1j * dec[:, 6:9:2]
        rho = (z[:, None, None] * phi1[:, :, None] * np.conj(phi1[:, None, :])
               + (1.0 - z)[:, None, None] * phi2[:, :, None] * np.conj(phi2[:, None, :]))
        target = np.zeros_like(rho)
        target[:, 0, 0] = self.p
        target[:, 1, 1] = 1.0 - self.p
        recon = np.abs(rho - target).max(axis=(1, 2))
        t.add_many((recon <= RECON_TOL) & (np.abs(z - self.z) <= ATOL), "decompose")

        u_exp = entropy(z)
        i_exp = entropy(self.p)
        n_exp = ensemble_value(self.p, z)
        ok = []
        for k, (u, i, e, ne, ru, re, bpn) in enumerate(out["report"]):
            good = (abs(u - u_exp[k]) <= ATOL and abs(i - i_exp[k]) <= ATOL
                    and abs(e - (u_exp[k] - i_exp[k])) <= ATOL
                    and abs(ne - n_exp[k]) <= ATOL)
            if ne > wl.SWEEP_EPS:
                good = good and ru is not None and re is not None and (
                    abs(ru * ne - u) <= ATOL * max(1.0, u)
                    and abs(re * ne - e) <= ATOL * max(1.0, abs(e))
                    and bpn == 2.0 * ru)
            else:
                good = good and ru is None and re is None and bpn is None
            ok.append(good)
        t.add_many(ok, "unlock_report")

        forms = np.array(out["forms"], dtype=float)
        ov = hidden_overlap(self.p, z)
        expect = np.stack([self.z, ov, np.clip(1.0 - 2.0 * np.abs(ov - 0.5), 0.0, 1.0),
                           ensemble_value(self.p, z)], axis=1)
        t.add_many(np.all(np.abs(forms - expect) <= ATOL, axis=1), "closed forms")

        ok = []
        for k, (zmax, emax, branch) in enumerate(out["maxima"]):
            p = self.p_row[k]
            good = (zmax is not None) == bool(self.max_pair_exists[k])
            if zmax is not None:
                good = good and 0.5 <= zmax <= 1.0 and abs(
                    zmax * (1.0 - zmax) - 2.0 * p * (1.0 - p)) <= ATOL
            good = good and abs(emax - self.max_ensemble[k]) <= MAXIMUM_TOL
            good = good and (branch == "overlap_lt_half") == bool(self.branch_lt_half[k])
            ok.append(good)
        t.add_many(ok, "maxima")

        ex = np.array(out["exact"], dtype=float)
        exact, analytic = ex[:, 0::2], ex[:, 1::2]
        ok = ((np.abs(exact - analytic) <= ATOL)
              & (np.abs(analytic - self.detection) <= ATOL))
        ok[:, 2] &= np.abs(exact[:, 2] - exact[:, 1] / 2.0) <= ATOL
        t.add_many(ok.ravel(), "exact enumeration")
        return {"n2_max_err": float(np.max(np.abs(err))),
                "n2_converged_frac": float(np.mean(conv))}
