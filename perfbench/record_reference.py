"""Record the reference digests for every input the workloads can draw.

Run once from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: the report digest of every engine
input of z2-wide, table-sweep and oracle-check, and the stdout digest of
every cli-cold invocation. It refuses to record an oracle input on which
``compare_reports`` finds a discrepancy or a CLI invocation that exits
nonzero. The digests are made by the worker's own check functions, one
untimed call per input.
"""

from __future__ import annotations

import json
import os
import sys

import worker
from workloads import OP_KIND, WORKLOADS, domain, input_id

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main() -> int:
    worker.import_package("orbitcohom.cli")
    oc = sys.modules["orbitcohom"]
    ref = {"engine": {}, "cli": {}}
    for workload in WORKLOADS:
        kind = OP_KIND[workload]
        table = ref["cli" if kind == "cli" else "engine"]
        for spec in domain(workload):
            op, check = worker.make_op(oc, kind, spec, False, [])
            digest = check(op())
            if digest.startswith("error:"):
                print(f"{workload} {input_id(spec)}: {digest}", file=sys.stderr)
                return 1
            key = input_id(spec)
            if table.setdefault(key, digest) != digest:
                print(f"{workload} {key}: digest differs between ops",
                      file=sys.stderr)
                return 1
        print(f"{workload}: {len(domain(workload))} inputs", flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
