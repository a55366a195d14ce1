"""Record the final-field references the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one solution of every input variant of the named workloads (all by
default) and writes their summaries to perfbench/reference.json.  Run it only
on a commit whose outputs are trusted; a run that fails its own checks is
not recorded.
"""
from __future__ import annotations

import json
import sys
import tempfile

import run


def main(names) -> int:
    run._load_program()
    from pathlib import Path
    from workloads import REFERENCE, VARIANTS, WORKLOADS

    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        table = {}
        for variant in range(VARIANTS):
            run.WORK.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                outcome = wl.solve(wl.setup(wl.inputs(variant)), Path(tmp))
                checked = wl.check(outcome, variant)
                summary = wl.summary(outcome)
            others = [m for m in checked.messages if "reference" not in m]
            if others:
                print(f"{name} variant {variant}: {others}", file=sys.stderr)
                return 1
            table[str(variant)] = summary
            print(f"{name} variant {variant} recorded", flush=True)
        doc[name] = table
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
