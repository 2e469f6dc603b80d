"""Record bench/reference.json from the current sources.

    python3 bench/record_reference.py

For every workload on the default seed 0 this runs the passes of a
default-length run and stores a digest of each distinct input's
polynomial content (see ``Workload.reference``).  run.py compares every
output whose input is named here, on any seed, so re-record only when
the values are meant to change.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads

SEED = 0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lf = run.fresh_import()
    out = {"seed": SEED, "seconds": run.DEFAULT_SECONDS, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(lf, SEED, run.OUT)
        passes = wl.passes()
        refs: dict[str, str] = {}
        for _ in range(math.ceil(run.DEFAULT_SECONDS / cls.PASS_S)):
            for item in next(passes):
                if item.name not in refs:
                    refs[item.name] = run.digest(wl.reference(item, wl.op(item)))
        out["workloads"][name] = dict(sorted(refs.items()))
        print(f"{name}: {len(refs)} inputs")
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
