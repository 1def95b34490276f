"""Record the corpus fingerprints and output digests.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a checkout, at the commit whose outputs become the
goldens.  For every workload and variant it builds the corpus, runs each
operation once, checks it against the invariants and
the CLI contract, and stores the digest of its output in ``recorded.json``.
Known-defect operations get no digest: their correct output is whatever the
fix prints.  Re-recording changes the workload; do it only on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def record(workloads, recorded: dict, workdir: Path, path: Path) -> None:
    import corpus
    import oracle

    for workload in workloads:
        fingerprints = recorded.setdefault("fingerprints", {})[workload] = {}
        digests = recorded.setdefault("digests", {})[workload] = {}
        for v in range(corpus.VARIANTS):
            bench = run.Bench(workload, 0, 0, False, {}, workdir)
            bench.variant = v
            bench.setup_once(None)
            fingerprints[str(v)] = bench.fingerprint
            table = digests[str(v)] = {}
            records = []
            for op in bench.ops:
                rec, out = bench.run_cli_op(op, 0, False)
                records.append(rec)
                if not op.defect:
                    table[op.id] = oracle.digest(out)
            bad = [r for r in records if r.reason and not r.defect]
            if bad:
                raise SystemExit(f"{workload} variant {v}: "
                                 + "; ".join(f"{r.op}: {r.reason}" for r in bad))
            print(f"{workload} variant {v}: {len(records)} ops, "
                  f"{sum(r.ms for r in records) / 1000:.1f} s", flush=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv) -> int:
    run.load_program()
    import corpus

    workloads = argv or list(corpus.WORKLOADS)
    path = run.RECORDED
    recorded = json.loads(path.read_text()) if path.exists() else {}
    record(workloads, recorded, run.WORKDIR / "record", path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
