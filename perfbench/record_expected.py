"""Record the golden outputs in expected.json from the program as it stands.

    python3 perfbench/record_expected.py

Run it from the repository root, only on a commit whose outputs are known
good: the checks compare every later commit against these values. It
records, for each grid step the benchmark uses, the CSV's SHA-256 and size
and the CLI's stdout for the sweep, and the sweep summary at CLI precision.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nonortho import cli, unlock  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    sizes = [*wl.FULL.values(), wl.PROBE, wl.TINY]
    csv_steps = sorted({s["csv_step"] for s in sizes if "csv_step" in s})
    fine_steps = sorted({s["fine_step"] for s in sizes if "fine_step" in s}
                        | set(csv_steps))
    tmp = ROOT / ".perfbench" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    expected = {"csv": {}, "sweep": {}}
    try:
        for step in csv_steps:
            path = str(tmp / "sweep.csv")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["sweep", "--p-step", repr(step), "--z-step", repr(step),
                               "--out", path, "--jobs", "1"])
            assert rc == 0
            data = Path(path).read_bytes()
            expected["csv"][checks.step_key(step)] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "stdout": buf.getvalue().replace(json.dumps(path)[1:-1],
                                                 checks.OUT_PLACEHOLDER),
            }
        for step in fine_steps:
            result = unlock.conjecture_sweep(
                unlock.SweepGrid(p_step=step, z_step=step), out=None, jobs=1)
            expected["sweep"][checks.step_key(step)] = checks.round12(wl.sweep_summary(result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = Path(__file__).parent / "expected.json"
    out.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
