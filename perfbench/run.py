"""algdual benchmark: seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is ``src/algdual``
next to this directory.  Set-up generates the workload's corpus with
``algdual.generate`` and checks it against the fingerprint recorded in
``recorded.json``; the timed phase then runs whole rounds of the workload's
operation list, one operation at a time, for about S seconds.  Every
output is checked (exit code, stderr, golden digest, invariants).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate run
that wraps algdual's public functions and prints per-layer metrics.  The last
line of stdout is the JSON result; a readable table and the run stamp go to
stderr, and the full record to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDED = HERE / "recorded.json"
WORKDIR = ROOT / ".perfbench_work"

# A set-up sample is the mean time of set-ups repeated until they took
# SETUP_BATCH_S in all (one, for a slow set-up), so that a sample of a fast
# set-up is not a single file-system hiccup.  A run takes SETUP_FIRST
# samples before the timed phase, and one more between two operations
# whenever SETUP_EVERY_S of phase time has passed.  The machine's speed
# drifts over a run, so samples spread over the whole run give a median
# that follows the same drift as the operations do.
SETUP_FIRST, SETUP_EVERY_S, SETUP_BATCH_S = 3, 8.0, 0.5
DEADLINE_S = 150        # stop starting operations after this much run time
OP_TIMEOUT_S = {"dual-ladder": 60.0, "cli-mix": 2.0}
MIN_ROUNDS = 3          # of an untraced run; a traced one needs no tail
# The tail is the highest percentile of a run's latencies that has
# TAIL_ABOVE samples above it: its rank is fixed from the top.  The rank of
# a fixed quantile moves with the number of rounds, and on `dual-ladder` p85
# falls on the edge between two bands of operations, `roundtrip` n=32 and
# `decompose` n=48 at about 1.4 s and `check` n=64 and `dual` n=32 at about
# 1.06 s, so it takes either band's value from run to run.  Ten from the top
# lies inside the 1.4 s band in a run of three to five rounds, and on
# `cli-mix`, in a run of four rounds or more, inside the band of the two
# IBSL `roundtrip`s (about 225 ms, below the `gen --size 0` timeouts).
TAIL_ABOVE = 10

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "ok_ratio": "1", "peak_rss_mb": "MB",
}
SPAN_METRICS = (
    "cli.command", "documents.load", "documents.check", "documents.dump",
    "algebra.validate", "algebra.hom_search", "algebra.iso_search",
    "systems.decompose", "systems.sum", "systems.system_check",
    "duality.hom_space", "duality.dual_build", "duality.gr_validate",
    "duality.double_dual", "lattices.decompose", "lattices.birkhoff",
)
COUNT_METRICS = (
    "algebra.validate_calls", "algebra.identity_checks", "algebra.homs_found",
    "algebra.iso_calls", "algebra.morphism_checks",
    "systems.system_check_calls", "duality.hom_space_points",
)
LAYER_UNITS = {
    "cli.startup_ms": "ms", "cli.import_ms": "ms",
    **{f"{name}_ms": "ms/op" for name in SPAN_METRICS},
    **{name: "count/op" for name in COUNT_METRICS},
    "algebra.validate_first_ratio": "1",
    "duality.hom_space_cache_hit_ratio": "1",
    "generate.ms": "ms",
    "trace.overhead_ratio": "1", "trace.unattributed_ms": "ms/op",
}


@dataclass
class OpRecord:
    op: str
    round: int
    ms: float
    reason: str | None      # None: correct
    traced: bool = False
    defect: bool = False
    spans_file: str = ""
    t_spawn: float = 0.0


def another_round(walls: list[float], seconds: float, min_rounds: int) -> bool:
    """Whole rounds only, at least ``min_rounds`` of them: start one more if
    that brings the phase closer to ``seconds`` (expected end within half a
    round of it)."""
    return (len(walls) < max(1, min_rounds)
            or sum(walls) + walls[-1] / 2 < seconds)


class BenchError(Exception):
    """The benchmark cannot run (missing sources, corpus drift)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ALGCTL_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 recorded: dict, workdir: Path):
        import corpus

        self.corpus = corpus
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace = trace
        self.recorded = recorded
        self.variant = corpus.variant(workload, seed)
        self.workdir = workdir
        self.env = child_env()
        self.timeout = OP_TIMEOUT_S[workload]
        self.ops = corpus.OPS[workload]
        self.goldens = recorded.get("digests", {}).get(workload, {}).get(
            str(self.variant))
        self.outputs = {}       # op id -> stdout of its latest run
        self.setup_s = []
        self.t_start = perf_counter()

    # -- set-up -------------------------------------------------------------

    def setup_sample(self, expected_fingerprint: str) -> float:
        """One set-up sample (see SETUP_BATCH_S), added to ``setup_s``;
        returns the seconds taken in all."""
        times = [self.setup_once(expected_fingerprint)]
        while sum(times) < SETUP_BATCH_S:
            times.append(self.setup_once(expected_fingerprint))
        self.setup_s.append(statistics.mean(times))
        return sum(times)

    def setup_once(self, expected_fingerprint: str | None) -> float:
        """Generate, check and write the corpus; returns the seconds
        taken."""
        t0 = perf_counter()
        docs, self.meta = self.corpus.build(self.workload, self.variant)
        fingerprint = self.corpus.fingerprint(docs)
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise BenchError(
                f"corpus fingerprint {fingerprint[:16]} of {self.workload} "
                f"variant {self.variant} differs from the recorded "
                f"{expected_fingerprint[:16]}: the generators changed, so the "
                "workload would silently change; re-record deliberately")
        corpus_dir = self.workdir / "corpus"
        shutil.rmtree(corpus_dir, ignore_errors=True)
        self.corpus.write(docs, corpus_dir)
        self.docs = docs
        self.fingerprint = fingerprint
        return perf_counter() - t0

    # -- subprocess workloads -------------------------------------------------

    def run_cli_op(self, op, rnd: int, traced: bool) -> tuple[OpRecord, bytes]:
        argv = self.corpus.cli_argv(op, self.variant)
        spans_file = ""
        if traced:
            spans_file = str(self.workdir / "spans" / f"{rnd}-{op.id}.jsonl")
            cmd = [sys.executable, str(HERE / "tracecli.py"), spans_file,
                   op.id, *argv]
        else:
            cmd = [sys.executable, "-m", "algdual.cli", *argv]
        t_spawn = time.monotonic()
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=self.timeout)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
        ms = (perf_counter() - t0) * 1000
        golden = None if self.goldens is None else self.goldens.get(op.id)
        reason = self.cli_check(op, proc.returncode, out, err, timed_out,
                                golden)
        self.outputs[op.id] = out
        twin = op.same_count_as
        if reason is None and twin and out.strip() != self.outputs.get(
                twin, b"").strip():
            reason = f"hom count differs from {twin}"
        return OpRecord(op.id, rnd, ms, reason, traced, op.defect,
                        spans_file, t_spawn), out

    def cli_check(self, op, code, out, err, timed_out, golden):
        import oracle

        if golden is None and not op.defect and self.goldens is not None:
            return "no recorded digest"
        docs = {}
        if set(op.checks) & oracle.DOC_CHECKS:
            docs = {arg[1:]: json.loads(self.docs[arg[1:]])
                    for arg in op.argv if arg.startswith("@")}
        return oracle.cli_outcome(op, code, out, err, timed_out,
                                  None if op.defect else golden, self.meta,
                                  docs)

    def run_cli_phase(self) -> tuple[list[OpRecord], list[float]]:
        """Whole rounds for about ``seconds`` of phase time.  Untraced, the
        set-up repeats between operations (see SETUP_EVERY_S) and its time
        is left out of the round walls.  With tracing, each operation runs
        untraced and then traced, so that the pair measures the tracing
        overhead under the same machine load."""
        if self.trace:
            (self.workdir / "spans").mkdir(exist_ok=True)
        records, walls = [], []
        last_setup = perf_counter()
        min_rounds = 1 if self.trace else MIN_ROUNDS
        while another_round(walls, self.seconds, min_rounds):
            t_round, paused = perf_counter(), 0.0
            for op in self.ops:
                if perf_counter() - self.t_start > DEADLINE_S:
                    break
                if not self.trace and perf_counter() - last_setup > SETUP_EVERY_S:
                    paused += self.setup_sample(self.fingerprint)
                    last_setup = perf_counter()
                for traced in (False, True) if self.trace else (False,):
                    records.append(self.run_cli_op(op, len(walls), traced)[0])
            walls.append(perf_counter() - t_round - paused)
            if perf_counter() - self.t_start > DEADLINE_S:
                break
        return records, walls


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float], above: int) -> tuple[float, float]:
    """The value with ``above`` values above it (the smallest, if there are
    fewer) and its quantile."""
    ordered = sorted(values)
    k = max(0, len(ordered) - above - 1)
    return ordered[k], (k + 1) / len(ordered)


def end_to_end(bench: Bench, records, walls) -> dict:
    ok = sum(r.reason is None for r in records)
    latencies = [r.ms for r in records]
    tail_ms, q = tail(latencies, TAIL_ABOVE)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    bench.tail_info = {"quantile": q, "samples": len(latencies),
                       "above": min(TAIL_ABOVE, len(latencies) - 1)}
    return {
        "setup_s": statistics.median(bench.setup_s),
        "ops_per_s": ok / sum(walls),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "ok_ratio": ok / len(records),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(bench: Bench, setup_spans, records) -> dict:
    import spans

    selfs = spans.self_times(setup_spans)[0]
    generate_ms = selfs["generate"]
    totals, counts = {}, {}
    hits = misses = 0
    startup, imports, unattributed = [], [], 0.0
    traced = [r for r in records if r.traced]

    def add(span_list, header_counts):
        own, top = spans.self_times(span_list)
        for name, ms in own.items():
            totals[name] = totals.get(name, 0.0) + ms
        for name, c in header_counts.items():
            counts[name] = counts.get(name, 0) + c
        return top

    # an operation killed by its timeout leaves no spans and is left out
    traced = [r for r in traced if os.path.exists(r.spans_file)]
    for rec in traced:
        header, span_list = spans.load(rec.spans_file)
        top = add(span_list, header["counts"])
        start_ms = (header["t_first"] - rec.t_spawn) * 1000
        startup.append(start_ms)
        imports.append(header["import_ms"])
        hits += header["cache"][0]
        misses += header["cache"][1]
        unattributed += rec.ms - start_ms - header["import_ms"] - top
    n = len(traced)
    out = {"cli.startup_ms": statistics.mean(startup),
           "cli.import_ms": statistics.mean(imports)}
    for name in SPAN_METRICS:
        out[f"{name}_ms"] = totals.get(name, 0.0) / n
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0) / n
    calls = counts.get("algebra.validate_calls", 0)
    out["algebra.validate_first_ratio"] = (
        counts.get("algebra.validate_first", 0) / calls if calls else 0.0)
    out["duality.hom_space_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    out["generate.ms"] = generate_ms
    out["trace.overhead_ratio"] = overhead(records)
    out["trace.unattributed_ms"] = unattributed / n
    return out


def overhead(records) -> float:
    """Traced wall over untraced wall, minus one, over the traced
    operations and their untraced twins."""
    plain = {(r.round, r.op): r.ms for r in records if not r.traced}
    paired = [(r.ms, plain[(r.round, r.op)]) for r in records
              if r.traced and os.path.exists(r.spans_file)]
    return sum(t for t, _ in paired) / sum(u for _, u in paired) - 1


# ---------------------------------------------------------------------------
# Run stamp and output
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(bench: Bench, metrics: dict, units: dict, records, stamp) -> dict:
    failed = [r for r in records if r.reason is not None]
    unexpected = [r for r in failed if not r.defect]
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    err = sys.stderr
    print(f"# {bench.workload}  seed {bench.seed}  variant {bench.variant}  "
          f"{'traced' if bench.trace else 'untraced'}", file=err)
    width = max(len(k) for k in metrics)
    for k, v in metrics.items():
        print(f"  {k:<{width}}  {v:14.4f}  {units[k]}", file=err)
    if not bench.trace:
        print(f"  {'fail_ratio':<{width}}  {len(failed) / len(records):14.4f}"
              f"  1  ({len(failed)} of {len(records)})", file=err)
        info = bench.tail_info
        print(f"  tail = p{info['quantile'] * 100:.4g} of {info['samples']} "
              f"samples, {info['above']} above", file=err)
    else:
        # one process per operation
        per_op = {k for k, u in units.items() if u == "ms/op"} - {
            "trace.unattributed_ms"} | {"cli.startup_ms", "cli.import_ms"}
        ranked = sorted(((metrics[k], k) for k in per_op), reverse=True)
        print("  largest self time per op: "
              + ", ".join(f"{k} {v:.1f}" for v, k in ranked[:3]), file=err)
    for r in failed:
        tag = "known defect" if r.defect else "FAILED"
        print(f"  {tag}: {r.op} (round {r.round}): {r.reason}", file=err)
    print("  stamp: " + json.dumps(stamp, sort_keys=True), file=err)
    out_dir = bench.workdir / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}.json"
    (out_dir / name).write_text(json.dumps(
        {**result, "stamp": stamp,
         "operations": [asdict(r) for r in records]}, indent=1))
    return result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dual-ladder", "cli-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    if not (SRC / "algdual" / "__init__.py").is_file():
        raise BenchError(f"no algdual sources at {SRC}; run from the root "
                         "of an algdual checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import algdual

    if Path(algdual.__file__).resolve().parent != SRC / "algdual":
        raise BenchError(f"imported algdual from {algdual.__file__}, "
                         f"not from {SRC}")


def measure(bench: Bench):
    """Set up, run the timed phase and compute the metrics of one run:
    end-to-end ones untraced, per-layer ones traced."""
    expected = bench.recorded["fingerprints"][bench.workload][str(bench.variant)]
    bench.workdir.mkdir(parents=True, exist_ok=True)
    if bench.trace:
        import spans

        recorder = spans.Recorder("setup")
        spans.install(recorder, [bench.corpus])
        bench.setup_once(expected)
        records, walls = bench.run_cli_phase()
        return per_layer(bench, recorder.spans, records), LAYER_UNITS, \
            records, walls
    for _ in range(SETUP_FIRST):
        bench.setup_sample(expected)
    records, walls = bench.run_cli_phase()
    return end_to_end(bench, records, walls), E2E_UNITS, records, walls


def main(argv=None) -> int:
    args = parse_args(argv)
    load_avg_start = os.getloadavg()
    try:
        load_program()
        recorded = json.loads(RECORDED.read_text())
        bench = Bench(args.workload, args.seed, args.seconds,
                      bool(args.trace), recorded, WORKDIR)
        metrics, units, records, walls = measure(bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    stamp = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_avg_start,
        "loadavg_end": os.getloadavg(),
        "commit": git_commit(),
        "seed": args.seed,
        "variant": bench.variant,
        "seconds": args.seconds,
        "setup_samples_s": bench.setup_s,
        "rounds": len(walls),
        "round_walls_s": walls,
        "op_timeout_s": bench.timeout,
        "fingerprint": bench.fingerprint,
        "tail": getattr(bench, "tail_info", None),
        "known_defects": list(bench.corpus.KNOWN_DEFECTS),
    }
    result = report(bench, metrics, units, records, stamp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
