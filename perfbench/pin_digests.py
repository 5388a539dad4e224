"""Write digests.json: the exact value of every large benchmark instance.

    python3 perfbench/pin_digests.py

Run from the repository root.  The values are taken with ``format_scalar``
from the program as it stands; re-pin only when a change to the program is
meant to change a value.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from sixvertex import instance, loopspace, matchgate  # noqa: E402
from sixvertex.scalar import format_scalar  # noqa: E402


def main() -> None:
    digests = {}
    fkt = workloads.FktGrid()
    for q in fkt.build(0):
        digests[f"{fkt.name}/{q.key}"] = format_scalar(workloads.answer(q).value)
    cross_k = workloads.SweepSmall().cross_k
    grid = instance.grid_patch(cross_k, cross_k)
    cross = instance.uniform_instance(grid, workloads.CROSS_LABEL)
    digests[f"cross-route/grid{cross_k}"] = format_scalar(matchgate.fkt_eval(cross))
    loops = workloads.LoopMedial()
    for q in loops.build(0):
        digests[f"{loops.name}/{q.key}"] = format_scalar(workloads.answer(q).value)
        both = instance.uniform_instance(q.inst.map, workloads.BOTH_METHODS_LABEL)
        medial_key = q.key.rsplit(".", 1)[0]
        value = loopspace.evaluate(both, profile_base=workloads.BOTH_METHODS_LABEL)
        digests[f"{loops.name}/{medial_key}.both_methods"] = format_scalar(value)
    workloads.DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
