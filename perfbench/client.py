"""One benchmark client: a fresh interpreter that calls into nonortho.

run.py starts it as

    python3 perfbench/client.py <launch perf_counter> <spec JSON>

with src/ on PYTHONPATH, and reads one JSON object from the last line of
its stdout. The launch time gives setup_s: interpreter start until
nonortho.cli is imported and its parser is built. Every timed call goes
through a public function; checking the outputs is left to run.py.

Modes: "setup" exits after set-up; "rep" times one repetition of the
workload; "reference" runs the Monte Carlo rows at --jobs 1; "trace" runs
rounds of one untraced repetition followed by every layer section with
spans around the calls. A traced run also reads its work counts from the
program: chunks and objective evaluations are counted by wrapping the
program's own functions, in one-process calls only.
"""

import sys
import time

_LAUNCH = float(sys.argv[1])

from nonortho import cli  # noqa: E402  (the import is part of set-up)

cli.build_parser()
SETUP_S = time.perf_counter() - _LAUNCH

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from nonortho import crypto, hidden, measures, qstate, unlock  # noqa: E402

import workloads as wl  # noqa: E402


class Tracer:
    """Spans around calls into the program, kept in memory until exit."""

    def __init__(self):
        self.spans = []
        self.round = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "round": self.round,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NoTracer:
    """Tracing off: the same call sites, no clock reads, nothing kept."""

    @staticmethod
    def span(name, **attrs):
        return contextlib.nullcontext()


@contextlib.contextmanager
def counting(module, name, calls):
    """Append the arguments of every call of module.name to calls.

    Only for calls that stay in this process: a pool would have to pickle
    the wrapper. If the program no longer has that function, nothing is
    counted and the count's check in run.py fails, so the benchmark must
    follow the program.
    """
    fn = getattr(module, name, None)
    if fn is None:
        yield
        return

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, fn)


def call_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def digest(data):
    """SHA-256 and size of the bytes the program produced."""
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def digest_file(path):
    """Digest a CSV the program wrote, then remove it."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return {"sha256": None, "bytes": -1}
    path.unlink()
    return digest(data)


# --- the four workloads, each one repetition -------------------------------

def sweep_csv_op(tr, spec):
    """The CLI sweep; the caller digests the CSV outside the timed region."""
    step = repr(spec["sizes"]["csv_step"])
    path = str(Path(spec["tmp"]) / "cli_sweep.csv")
    with tr.span("cli.main", command="sweep", jobs=wl.CSV_JOBS):
        out = call_cli(["sweep", "--p-step", step, "--z-step", step,
                        "--out", path, "--jobs", str(wl.CSV_JOBS)])
    return {**out, "csv": path}


def with_csv_digest(out):
    return {**out, **digest_file(out["csv"])}


def sweep_fine_op(tr, spec):
    step = spec["sizes"]["fine_step"]
    grid = unlock.SweepGrid(p_step=step, z_step=step)
    with tr.span("unlock.conjecture_sweep", grid="fine", jobs=1, out="none"):
        result = unlock.conjecture_sweep(grid, out=None, jobs=1)
    return {"summary": wl.sweep_summary(result)}


def mc_op(tr, spec, jobs):
    trials = str(spec["sizes"]["trials"])
    runs = []
    for (protocol, overlap, eve), seed in zip(wl.MC_ROWS, wl.mc_seeds(spec["seed"])):
        with tr.span("cli.main", command="crypto", jobs=jobs):
            runs.append(call_cli([
                "crypto", "--protocol", protocol, "--overlap", repr(overlap),
                "--eve", eve, "--trials", trials, "--seed", str(seed),
                "--jobs", str(jobs)]))
    return {"runs": runs}


def pointwise_prepare(spec):
    """Seeded inputs as Python scalars, built before the timed region."""
    inp = wl.pointwise_inputs(spec["seed"], spec["sizes"])
    amps = [(complex(a, b), complex(c, d)) for a, b, c, d in inp["states"]]
    grid = [(p, a, ph[0], ph[1])
            for p, row in zip(inp["p"], inp["phases"])
            for a, ph in zip(inp["alpha_sq"], row)]
    return {"amps": amps, "p": inp["p"], "grid": grid,
            "overlaps": inp["overlaps"]}


def pointwise_warm(spec):
    """Call every pointwise function once, on probe-sized inputs."""
    pointwise_op(NoTracer, pointwise_prepare({**spec, "sizes": wl.PROBE}))


def pointwise_op(tr, prep):
    basis = crypto.EveStrategy.BASIS_INTERCEPT
    projector = crypto.EveStrategy.PROJECTOR_INTERCEPT
    with tr.span("qstate.PureState2"):
        states = [qstate.PureState2(a, b) for a, b in prep["amps"]]
    pairs = list(zip(states[0::2], states[1::2]))
    with tr.span("measures.n0_n1"):
        n01 = [(measures.n0(x, y), measures.n1(x, y)) for x, y in pairs]
    with tr.span("measures.n2"):
        n2s = [measures.n2(x, y) for x, y in pairs]
    with tr.span("hidden.decompose"):
        decs = [hidden.decompose(p, hidden.DecompositionParams.from_weights(a, f, g))
                for p, a, f, g in prep["grid"]]
    with tr.span("unlock.unlock_report"):
        reports = [unlock.unlock_report(pt[0], d.z)
                   for pt, d in zip(prep["grid"], decs)]
    with tr.span("hidden.closed_form"):
        forms = [(hidden.z_of_alpha(p, a), hidden.hidden_overlap(p, d.z),
                  hidden.pair_nonortho(p, d.z), hidden.ensemble_nonortho(p, d.z))
                 for (p, a, _, _), d in zip(prep["grid"], decs)]
        maxima = [(hidden.max_pair_z(p), hidden.max_ensemble(p),
                   hidden.max_ensemble_branch(p)) for p in prep["p"]]
    with tr.span("crypto.exact"):
        exact = []
        for s in prep["overlaps"]:
            four, two = crypto.BB84Spec(s), crypto.B92Spec(s)
            exact.append((
                crypto.exact_enumeration(four, basis),
                crypto.bb84_detection_analytic(four),
                crypto.exact_enumeration(two, basis),
                crypto.b92_detection_analytic(two, basis),
                crypto.exact_enumeration(two, projector),
                crypto.b92_detection_analytic(two, projector)))
    return n01, n2s, decs, reports, forms, maxima, exact


def pointwise_outputs(raw):
    """JSON-ready outputs of one pointwise batch, built after timing."""
    n01, n2s, decs, reports, forms, maxima, exact = raw

    def amps(s):
        return [s.a_up.real, s.a_up.imag, s.a_down.real, s.a_down.imag]

    return {
        "n01": n01,
        "n2": [r.value for r in n2s],
        "n2_converged": [r.converged for r in n2s],
        "dec": [[d.z, *amps(d.phi1), *amps(d.phi2)] for d in decs],
        "report": [[r.u_bits, r.i_bits, r.e_bits, r.n_ens, r.ratio_u,
                    r.ratio_e, r.bits_per_nbit] for r in reports],
        "forms": forms,
        "maxima": maxima,
        "exact": exact,
    }


# --- timing of one repetition ----------------------------------------------

def timed(fn):
    """Wall, CPU (this process plus reaped pool workers) and peak RSS."""
    s0 = resource.getrusage(resource.RUSAGE_SELF)
    c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    raw = fn()
    wall = time.perf_counter() - t0
    s1 = resource.getrusage(resource.RUSAGE_SELF)
    c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (s1.ru_utime - s0.ru_utime + s1.ru_stime - s0.ru_stime
           + c1.ru_utime - c0.ru_utime + c1.ru_stime - c0.ru_stime)
    peak_mb = max(s1.ru_maxrss, c1.ru_maxrss) / 1024.0
    return raw, {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb}


def run_rep(spec, tr):
    w = spec["workload"]
    if w == "pointwise":
        prep = pointwise_prepare(spec)
        pointwise_warm(spec)
        raw, stats = timed(lambda: pointwise_op(tr, prep))
        return pointwise_outputs(raw), stats
    if w == "sweep_csv":
        out, stats = timed(lambda: sweep_csv_op(tr, spec))
        return with_csv_digest(out), stats
    if w == "sweep_fine":
        return timed(lambda: sweep_fine_op(tr, spec))
    return timed(lambda: mc_op(tr, spec, wl.MC_JOBS))


# --- traced sections: every layer, separated by difference -----------------

class Sink:
    """A writer that keeps what it is given and does no I/O. Appending
    does not copy the text; the parts are joined after the timed call."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


def unlock_section(tr, spec):
    """The CSV sweep via the CLI, then the library at jobs 2 and 1 into a
    file, into a Sink and nowhere, then the same text written alone.

    A Sink, not a StringIO, is the no-write baseline: StringIO copies the
    text into its own buffer, which costs more than writing the file.
    """
    step = spec["sizes"]["csv_step"]
    tmp = Path(spec["tmp"])
    out = {"cli": with_csv_digest(sweep_csv_op(tr, spec))}
    grid = unlock.SweepGrid(p_step=step, z_step=step)
    for jobs in (wl.CSV_JOBS, 1):
        path = tmp / f"lib_jobs{jobs}.csv"
        with tr.span("unlock.conjecture_sweep", grid="csv", jobs=jobs, out="path"):
            result = unlock.conjecture_sweep(grid, out=str(path), jobs=jobs)
        out[f"path_jobs{jobs}"] = {**digest_file(path),
                                   "summary": wl.sweep_summary(result)}
    sink = Sink()
    with tr.span("unlock.conjecture_sweep", grid="csv", jobs=1, out="sink"):
        result = unlock.conjecture_sweep(grid, out=sink, jobs=1)
    text = "".join(sink.parts)
    out["sink"] = {**digest(text.encode()), "summary": wl.sweep_summary(result)}
    with tr.span("unlock.conjecture_sweep", grid="csv", jobs=1, out="none"):
        result = unlock.conjecture_sweep(grid, out=None, jobs=1)
    out["none"] = {"summary": wl.sweep_summary(result)}
    path = tmp / "write_alone.csv"
    with tr.span("unlock.write_alone"):
        path.write_text(text)
    path.unlink()
    return out


def sweep_fine_section(tr, spec):
    """The fine sweep, counting the chunks the program processes."""
    chunks = []
    with counting(unlock, "_sweep_chunk", chunks):
        out = sweep_fine_op(tr, spec)
    return {**out, "chunks": len(chunks)}


def draw_alone(ranges, seed):
    """The Philox stream of one Monte Carlo row, drawn in the chunks the
    program used, with the program's blocks and draws per trial."""
    for start, stop in ranges:
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(crypto._TRIAL_BLOCKS * start)
        np.random.Generator(bitgen).random((stop - start, crypto._TRIAL_DRAWS))


def crypto_section(tr, spec):
    """Each Monte Carlo row via the CLI, the library at jobs 2 and 1, and
    its random stream drawn alone. The jobs=1 call counts the program's
    chunks, whose trial ranges the lone draw follows."""
    trials = spec["sizes"]["trials"]
    out = mc_op(tr, spec, wl.MC_JOBS)
    lib = []
    for k, ((protocol, overlap, eve), seed) in enumerate(
            zip(wl.MC_ROWS, wl.mc_seeds(spec["seed"]))):
        make = crypto.BB84Spec if protocol == "bb84" else crypto.B92Spec

        def simulate(jobs):
            with tr.span("crypto.simulate", jobs=jobs, row=k):
                return crypto.simulate(make(overlap), crypto.EveStrategy(eve),
                                       trials=trials, seed=seed, jobs=jobs).detections

        chunks = []
        row = {f"jobs{wl.MC_JOBS}": simulate(wl.MC_JOBS)}
        with counting(crypto, "_chunk_worker", chunks):
            row["jobs1"] = simulate(1)
        ranges = [(task[4], task[5]) for (task,) in chunks]
        with tr.span("crypto.draw"):
            draw_alone(ranges, seed)
        lib.append({**row, "chunks": len(ranges),
                    "blocks_per_trial": crypto._TRIAL_BLOCKS})
    out["lib"] = lib
    return out


def n2_evals(x, y):
    """Objective evaluations the program makes in one n2 call, counted."""
    grids, points = [], []
    with counting(measures, "_objective_grid", grids), \
            counting(measures, "_objective_at", points):
        measures.n2(x, y)
    return sum(len(theta) * len(phi) for _, _, theta, phi in grids) + len(points)


def pointwise_section(tr, spec):
    prep = pointwise_prepare(spec)
    pointwise_warm(spec)
    out = pointwise_outputs(pointwise_op(tr, prep))
    a, b = prep["amps"][:2]
    out["n2_evals"] = n2_evals(qstate.PureState2(*a), qstate.PureState2(*b))
    return out


def run_trace(spec, tr):
    """ROUNDS rounds of: the workload's own repetition untraced, then every
    layer section traced, the workload's own first. Layers are separated
    by differences of spans, so each round runs its variants back to back
    and the parent takes medians over rounds."""
    sections = {
        "sweep_csv": unlock_section,
        "sweep_fine": sweep_fine_section,
        "mc_detect": crypto_section,
        "pointwise": pointwise_section,
    }
    order = [spec["workload"]] + [w for w in sections if w != spec["workload"]]
    rounds = []
    for r in range(wl.ROUNDS):
        tmp = Path(spec["tmp"]) / f"round{r}"
        tmp.mkdir()
        outputs, stats = run_rep({**spec, "tmp": str(tmp)}, NoTracer)
        tr.round = r
        traced = {}
        for w in order:
            with tr.span("section", workload=w):
                traced[w] = sections[w](tr, {**spec, "tmp": str(tmp)})
        rounds.append({"untraced": {"outputs": outputs, **stats}, "traced": traced})
    return rounds


def main():
    spec = json.loads(sys.argv[2])
    reply = {"setup_s": SETUP_S}
    try:
        if spec["mode"] == "rep":
            reply["outputs"], stats = run_rep(spec, NoTracer)
            reply.update(stats)
        elif spec["mode"] == "reference":
            reply["outputs"] = mc_op(NoTracer, spec, 1)
        elif spec["mode"] == "trace":
            tr = Tracer()
            reply["rounds"] = run_trace(spec, tr)
            reply["spans"] = tr.spans
    except (Exception, SystemExit):
        reply["error"] = traceback.format_exc()
    sys.stdout.write("\n" + json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
