"""Record the report fields that must stay bit-identical at the reference seed.

Run from the root of a source checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It writes perfbench/reference_seed0.json.  The benchmark compares those
fields whenever it runs at seed 0 with the full input sizes.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    workdir = run.WORK_DIR / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    recorded = {}
    for name in wl.REFERENCE_WORKLOADS:
        inputs = wl.make_inputs(name, wl.REFERENCE_SEED, workdir)
        argv = inputs.args + ["--jobs", str(wl.WORKLOADS[name].jobs)]
        proc = run._run([sys.executable, "-m", "rieszmatch.cli", *argv], 170.0, workdir)
        problems = wl.check_report(name, proc.stdout, inputs, None)
        if proc.returncode != 0 or problems:
            print(f"{name}: exit {proc.returncode}, {problems}\n{proc.stderr}", file=sys.stderr)
            return 1
        recorded[name] = wl.reference_fields(name, *wl.parse_report(proc.stdout))
    wl.REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
