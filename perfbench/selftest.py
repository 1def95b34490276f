"""Self-test of the benchmark on a tiny corpus (a few seconds).

    python3 perfbench/selftest.py

Checks that:
- an untraced run prints every end-to-end metric by name with its unit;
- a deliberately wrong golden digest is counted as a failed operation (in
  every round) and makes the run incorrect;
- a traced run prints every per-layer metric with its unit;
- the document invariants catch a wrong isomorphism, a listed map that is
  not a morphism, a hom list that repeats a map, and an isomorphic pair
  claimed non-isomorphic;
- ``bsl`` documents are exactly what ``algdual.generate.random_bsl`` gives;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from random import Random

import run

TINY_CLI = ("check-ibsl", "dual-ibsl", "check-bad-json", "hom-ibsl",
            "hom-igr", "iso-ibsl")
WRONG = "check-ibsl"


def tiny_run(workload, op_ids, trace, recorded, workdir):
    bench = run.Bench(workload, 1, 0, trace, recorded, workdir / workload)
    bench.ops = [op for op in bench.ops if op.id in op_ids]
    metrics, units, records, _ = run.measure(bench)
    table = io.StringIO()
    with contextlib.redirect_stderr(table):
        result = run.report(bench, metrics, units, records, {})
    return result, table.getvalue(), units


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result, table, units, names):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(result)}")
    expect(set(result["metrics"]) == set(names),
           f"metric names {sorted(result['metrics'])}")
    for name in names:
        expect(result["metrics"][name]["unit"] == units[name],
               f"unit of {name}")
        expect(any(line.split()[:1] == [name] and line.split()[-1] == units[name]
                   for line in table.splitlines()),
               f"{name} not printed with its unit")


def check_document_invariants(corpus_dir):
    import oracle

    docs = {name: json.loads((corpus_dir / f"{name}.json").read_text())
            for name in ("ibsl", "ibsl-r", "ibsl-other", "bsl")}
    iso = ("@ibsl", "@ibsl-r", "--kind", "ibsl")
    identity = " ".join(map(str, range(docs["ibsl"]["size"])))
    expect(not oracle.found_isomorphism(identity, iso, docs)
           or docs["ibsl"] == docs["ibsl-r"],
           "identity map accepted as an isomorphism onto a relabelling")
    # a constant map sends zero and one to the same element
    expect(not oracle.listed_homs(" ".join("0" * docs["ibsl"]["size"]), iso,
                                  docs),
           "constant map accepted as an ibsl morphism")
    constant = " ".join("0" * docs["bsl"]["size"])
    expect(not oracle.listed_homs(constant + "\n" + constant,
                                  ("@bsl", "@bsl", "--kind", "bsl"), docs),
           "repeated maps accepted as a strictly ordered hom list")
    expect(not oracle.proven_non_isomorphic(iso, docs),
           "isomorphic pair proven non-isomorphic")
    expect(oracle.proven_non_isomorphic(("@ibsl", "@ibsl-other", "--kind",
                                         "ibsl"), docs),
           "recorded non-isomorphic pair not separated")


def main() -> int:
    run.load_program()
    recorded = json.loads(run.RECORDED.read_text())
    workdir = run.WORKDIR / "selftest"

    import corpus

    v = corpus.variant("cli-mix", 1)
    wrong = copy.deepcopy(recorded)
    wrong["digests"]["cli-mix"][str(v)][WRONG] = "0" * 64
    result, table, units = tiny_run("cli-mix", TINY_CLI, False, wrong, workdir)
    check_metrics(result, table, units, run.E2E_UNITS)
    rounds = result["attempted"] // len(TINY_CLI)
    expect(result["failed"] == rounds and not result["correct"],
           f"wrong golden not counted: {result}")
    expect(f"FAILED: {WRONG}" in table and "digest mismatch" in table,
           "wrong golden not reported")
    expect(result["metrics"]["ok_ratio"]["value"] == 1 - 1 / len(TINY_CLI),
           "ok_ratio does not reflect the failure")

    result, table, units = tiny_run("cli-mix", TINY_CLI, True, recorded,
                                    workdir)
    check_metrics(result, table, units, run.LAYER_UNITS)
    expect(result["correct"] and result["failed"] == 0,
           f"traced run failed: {result}")

    check_document_invariants(workdir / "cli-mix" / "corpus")

    from algdual.generate import random_bsl

    bsl_sources = [(seed, fibers, atoms) for kind, seed, _, fibers, atoms
                   in corpus.LADDER.values() if kind == "dl"]
    bsl_sources += [(seed, 3, 3) for kind, seed, _ in
                    corpus.CLI_SOURCES.values() if kind == "dl"]
    for seed, fibers, atoms in bsl_sources:
        mine, _ = corpus.system_instance("dl", seed, fibers, atoms)
        theirs = random_bsl(Random(seed), fibers, atoms)
        expect(mine == theirs,
               "bsl documents differ from random_bsl")

    bare = workdir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py did not fail in a directory without the program")
    shutil.rmtree(bare)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
