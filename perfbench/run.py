#!/usr/bin/env python3
"""Layered benchmark of lrfix on a mid-size C-like grammar.

    python3 perfbench/run.py --workload burst --seed 1 --seconds 60 --trace 0

One process, one client, a closed loop: files are lexed and parsed one
after another through the library's public functions only.  Each run
generates its corpus from ``--seed`` (clean programs from ``gen.py``,
broken by ``lrfix.bench.mutate_corpus``), times set-up and every file,
checks every parse (``checks.py``), prints a readable report, a
``report:`` JSON line with every figure, and last one JSON line for the
benchmark driver: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

``--seconds`` sets the amount of work, not a deadline: a run measures
``files_per_s * seconds`` files (never fewer than 200, so that a p95 has
ten files beyond it), which takes about ``seconds`` on a 2-core x86
machine.  A fixed file set per seed keeps the counts exact and lets two
versions of the library be compared on the same files.  An untraced run
makes REPEATS passes over its files and keeps each file's fastest pass:
on a shared machine the same call can take half again as long from one
few-second stretch to the next, and passes far apart rarely all fall
in a slow one.  A traced run times the same files once each, three
ways: untraced, traced, and again through ``min_repair_sequences`` and
the panic recoverer.

Exit status: 0 when every check passed, 1 when the correctness gate
failed, 2 when the library cannot be loaded from ``src/`` beside this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]
try:
    import lrfix
except ImportError as e:
    print(f"perfbench: cannot import lrfix from {SRC}: {e}", file=sys.stderr)
    sys.exit(2)
if not Path(lrfix.__file__).resolve().is_relative_to(SRC.resolve()):
    print(f"perfbench: lrfix came from {lrfix.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

import gen  # noqa: E402
from checks import (  # noqa: E402
    GateError, check_canonical_agrees, check_file, check_grammar_pin, check_oracle,
)
from lrfix.bench import mutate_corpus  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    tokens: int          # mean tokens per generated program
    edits: int           # mutate_corpus edits per file
    files_per_s: float   # files measured per requested second


# Why these three: ``clean`` never enters recovery, so a change to the
# repair search must leave it flat; ``typo`` is the paper's setting,
# where search and lexer both show; ``burst`` packs errors close together
# so deep searches, expansion, ranking and the budget dominate.  Clean
# files cost ~10 ms each and carry no seed-to-seed tail, so clean
# measures about a third of --seconds; the others need every file they
# can get, because the few files that hit the budget move their figures
# from seed to seed.  BENCHMARK.json runs clean and burst only: typo's
# figures spread too far between seeds and runs to gate anything (see
# CHANGES.md), so it stays here for runs by hand.
WORKLOADS = {
    "clean": Workload(575, 0, 10.7),
    "typo": Workload(575, 3, 4.7),
    "burst": Workload(150, 4, 5.5),
}
MIN_FILES = 200
REPEATS = 3
SETUP_REPEATS = 7
WARMUP_FILES = 3
ORACLE_SAMPLE = 8

# Every end-to-end figure, with its unit.  The driver line carries the
# subset in GATED: recovery times exist only on files with errors and
# fail_pct is 0 on clean programs, while file_ms_p95 sits in the sparse
# tail of files with one hard location and moves by a quarter between
# seeds at 300 files, an eighth at 900 (ok_pct and tok_per_s still see
# that tail).
E2E_UNITS = {
    "setup_s": "s",
    "tok_per_s": "tok/s",
    "file_ms_p50": "ms",
    "file_ms_p95": "ms",
    "recovery_ms_p50": "ms",
    "recovery_ms_p95": "ms",
    "fail_pct": "%",
    "ok_pct": "%",
    "peak_rss_mb": "MB",
}
GATED = ["setup_s", "tok_per_s", "file_ms_p50", "ok_pct", "peak_rss_mb"]

# Every per-layer figure of a traced run, named by module.  The driver
# line leaves out LAYER_SOMETIMES_ZERO: times that are exactly 0 on a
# workload that never reaches that layer (recovery on clean programs,
# budget overshoot when no file runs out).
LAYER_UNITS = {
    "grammar.parse_s": "s",
    "lrtable.build_s": "s",
    "lrtable.states": "count",
    "lrtable.build_canonical_s": "s",
    "lrtable.states_canonical": "count",
    "lrtable.conflicts": "count",
    "lexer.spec_s": "s",
    "lexer.lex_s": "s",
    "lexer.tok_per_s": "tok/s",
    "parser.drive_s": "s",
    "parser.recovery_s": "s",
    "parser.budget_out_files": "count",
    "parser.overshoot_ms_max": "ms",
    "parser.error_locs": "count",
    "parser.mean_cost": "cost",
    "parser.skipped_pct": "%",
    "cpctplus.calls": "count",
    "cpctplus.found_ratio": "ratio",
    "cpctplus.search_ms_p50": "ms",
    "cpctplus.search_ms_p95": "ms",
    "cpctplus.success_configs": "count",
    "cpctplus.merges": "count",
    "cpctplus.sequences": "count",
    "cpctplus.sequences_max": "count",
    "cpctplus.unranked_s": "s",
    "cactus.pushes": "count",
    "panic.file_ms_p50": "ms",
    "panic.fail_pct": "%",
    "panic.skipped_pct": "%",
    "trace.overhead_pct": "%",
}
LAYER_SOMETIMES_ZERO = {
    "parser.recovery_s",
    "parser.overshoot_ms_max",
    "cpctplus.search_ms_p50",
    "cpctplus.search_ms_p95",
    "cpctplus.unranked_s",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pctl(xs: list[float], q: int):
    """The q-th percentile (inclusive method); None without samples."""
    if not xs:
        return None
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


@dataclass
class Tally:
    """What a pass over the corpus measured."""

    timeout_s: float
    files: int = 0
    tokens: int = 0
    lex_s: float = 0.0
    parse_s: float = 0.0
    recovery_s: float = 0.0
    file_ms: list = field(default_factory=list)
    recovery_ms: list = field(default_factory=list)   # files with >= 1 error
    failed_parses: int = 0
    budget_out: int = 0
    overshoot_ms_max: float = 0.0
    error_locs: int = 0
    costs: list = field(default_factory=list)
    skipped: int = 0

    def add(self, st, success: bool, lex_s: float, parse_s: float) -> None:
        """Count one file from its ``RunStats`` and times."""
        self.files += 1
        self.tokens += st.real_tokens
        self.lex_s += lex_s
        self.parse_s += parse_s
        self.recovery_s += st.recovery_time_s
        self.file_ms.append((lex_s + parse_s) * 1e3)
        if st.error_locations:
            self.recovery_ms.append(st.recovery_time_s * 1e3)
        if not success:
            self.failed_parses += 1
            if st.recovery_time_s >= self.timeout_s:
                self.budget_out += 1
        self.overshoot_ms_max = max(self.overshoot_ms_max, (st.recovery_time_s - self.timeout_s) * 1e3)
        self.error_locs += st.error_locations
        self.costs.extend(st.costs)
        self.skipped += st.skipped

    @property
    def tok_per_s(self) -> float:
        return self.tokens / (self.lex_s + self.parse_s)

    @property
    def fail_pct(self) -> float:
        return 100.0 * self.failed_parses / self.files

    @property
    def skipped_pct(self) -> float:
        return 100.0 * self.skipped / self.tokens


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, files: int | None, trace: bool):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.n_files = files or max(MIN_FILES, round(self.wl.files_per_s * seconds))
        self.params = lrfix.RecoveryParams()
        self.failed: set[int] = set()   # files on which the library raised
        self.replayed = 0
        self.oracle_checked = 0

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> dict:
        """Load grammar, lexer and merged tables SETUP_REPEATS times; keep
        the last and return the median time of each step."""
        y = (HERE / "clike.y").read_text(encoding="utf-8")
        lx = (HERE / "clike.l").read_text(encoding="utf-8")
        times = {"grammar": [], "lexer": [], "table": [], "total": []}
        for _ in range(SETUP_REPEATS):
            re.purge()  # LexSpec.parse compiles regexes; a fresh process has none cached
            t0 = perf_counter()
            grammar = lrfix.parse_grammar(y)
            t1 = perf_counter()
            lexspec = lrfix.LexSpec.parse(lx)
            t2 = perf_counter()
            table = lrfix.build_tables(grammar)
            t3 = perf_counter()
            for k, v in zip(times, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                times[k].append(v)
        canon_s = []
        for _ in range(SETUP_REPEATS if self.trace else 1):
            t0 = perf_counter()
            canonical = lrfix.build_tables(grammar, merge=False)
            canon_s.append(perf_counter() - t0)
        check_grammar_pin([table, canonical])
        self.lexspec, self.table, self.canonical = lexspec, table, canonical
        med = {k: statistics.median(v) for k, v in times.items()}
        med["canonical"] = statistics.median(canon_s)
        return med

    def corpus(self, n: int, stream: str) -> tuple[list[str], list[int] | None]:
        """``n`` programs from the seed; mutated unless the workload is clean.

        For clean programs the generator's token counts come back too.
        """
        rng = random.Random(f"{self.name}/{stream}/{self.seed}")
        progs = [gen.program(rng, self.wl.tokens) for _ in range(n)]
        if not self.wl.edits:
            return [s for s, _ in progs], [c for _, c in progs]
        files = mutate_corpus(
            [(str(i), s) for i, (s, _) in enumerate(progs)], self.lexspec,
            seed=rng.randrange(2**32), edits_per_file=self.wl.edits,
        )
        return [s for _, s in files], None

    # -- one file -------------------------------------------------------------------

    def run_file(self, src: str, recoverer: str = "cpctplus"):
        """Time lex + parse of one file; None if the library raised."""
        try:
            t0 = perf_counter()
            toks = self.lexspec.lex(src)
            t1 = perf_counter()
            result = lrfix.parse(self.table, toks, src, recoverer=recoverer, params=self.params)
            t2 = perf_counter()
        except Exception as e:  # a library error is a failed operation, not a crash
            print(f"perfbench: {recoverer} raised {type(e).__name__}: {e}", file=sys.stderr)
            return None
        return toks, result, t0, t1, t2

    def check(self, toks, result, src: str, expect_tokens: int | None, pool: list) -> None:
        if expect_tokens is not None:
            if result.stats.error_locations or not result.success:
                raise GateError("a clean program has a syntax error")
            if len(toks) - 1 != expect_tokens:
                raise GateError("the lexer and the generator disagree on a clean program")
            check_canonical_agrees(self.canonical, toks, src, result.success)
        self.replayed += check_file(self.table, toks, result, self.params, pool)

    def check_oracle(self, pool: list) -> None:
        rng = random.Random(f"{self.name}/oracle/{self.seed}")
        for stack, tok_ids, idx, rep in rng.sample(pool, min(ORACLE_SAMPLE, len(pool))):
            check_oracle(self.table, self.params, stack, tok_ids, idx, rep)
            self.oracle_checked += 1

    # -- passes -------------------------------------------------------------------------

    def warm_up(self) -> None:
        srcs, _ = self.corpus(WARMUP_FILES, "warmup")
        for src in srcs:
            self.run_file(src)

    def measure(self) -> dict:
        """The untraced run: end-to-end figures from each file's fastest pass.

        The first pass also checks every parse; later passes only time.
        """
        files, expect = self.corpus(self.n_files, "main")
        self.warm_up()
        best: list = [None] * len(files)   # (seconds, stats, success, lex_s, parse_s)
        pool: list = []
        for rep in range(REPEATS):
            for i, src in enumerate(files):
                got = self.run_file(src)
                if got is None:
                    self.failed.add(i)
                    continue
                toks, result, t0, t1, t2 = got
                if rep == 0:
                    self.check(toks, result, src, expect and expect[i], pool)
                if best[i] is None or t2 - t0 < best[i][0]:
                    best[i] = (t2 - t0, result.stats, result.success, t1 - t0, t2 - t1)
        tally = Tally(self.params.timeout_s)
        for b in best:
            if b is not None:
                tally.add(*b[1:])
        rss = peak_rss_mb()  # before the oracle, whose searches can take far more
        self.check_oracle(pool)
        return {"plain": tally, "peak_rss_mb": rss}

    def measure_traced(self) -> dict:
        """The traced run: each file untraced, traced, then unranked and panic."""
        files, expect = self.corpus(self.n_files, "main")
        self.warm_up()
        tracer = Tracer()
        plain, traced, panic = (Tally(self.params.timeout_s) for _ in range(3))
        pool: list = []
        rows = []
        unranked_s = 0.0
        for i, src in enumerate(files):
            got = self.run_file(src)
            if got is None:
                self.failed.add(i)
                continue
            toks, result, t0, t1, t2 = got
            plain.add(result.stats, result.success, t1 - t0, t2 - t1)
            self.check(toks, result, src, expect and expect[i], pool)

            n_calls = len(tracer.calls)
            fid, lid, pid = tracer.new_id(), tracer.new_id(), tracer.new_id()
            tracer.parent = pid
            with tracer.installed():
                got = self.run_file(src)
            if got is None:
                self.failed.add(i)
                continue
            toks, result, t0, t1, t2 = got
            tracer.record(fid, None, "file", t0, t2)
            tracer.record(lid, fid, "lexer.lex", t0, t1)
            tracer.record(pid, fid, "parser.parse", t1, t2)
            traced.add(result.stats, result.success, t1 - t0, t2 - t1)
            calls = tracer.calls[n_calls:]
            for call, rep in zip(calls, result.reports):
                out = call.outcome
                rows.append((self.name, i, rep.offset,
                             out.cost if out else "-", len(out.sequences) if out else 0,
                             out.success_configs if out else 0, out.merges if out else 0,
                             round(call.seconds * 1e3, 3)))
            for call in calls:
                t = perf_counter()
                lrfix.min_repair_sequences(self.table, call.stack, call.tok_ids, call.offset,
                                           self.params, budget_s=call.budget_s)
                unranked_s += perf_counter() - t

            pid = tracer.new_id()
            tracer.parent = pid
            with tracer.installed():
                got = self.run_file(src, recoverer="panic")
            if got is None:
                self.failed.add(i)
                continue
            toks, result, t0, t1, t2 = got
            tracer.record(pid, None, "parser.parse(panic)", t1, t2)
            panic.add(result.stats, result.success, t1 - t0, t2 - t1)
        rss = peak_rss_mb()
        self.check_oracle(pool)
        return {"plain": plain, "traced": traced, "panic": panic, "tracer": tracer,
                "rows": rows, "unranked_s": unranked_s, "peak_rss_mb": rss}

    # -- figures ------------------------------------------------------------------------

    def e2e(self, setup: dict, got: dict) -> dict:
        plain = got["plain"]
        return {
            "setup_s": setup["total"],
            "tok_per_s": plain.tok_per_s,
            "file_ms_p50": pctl(plain.file_ms, 50),
            "file_ms_p95": pctl(plain.file_ms, 95),
            "recovery_ms_p50": pctl(plain.recovery_ms, 50),
            "recovery_ms_p95": pctl(plain.recovery_ms, 95),
            "fail_pct": plain.fail_pct,
            "ok_pct": 100.0 - plain.fail_pct,
            "peak_rss_mb": got["peak_rss_mb"],
        }

    def layers(self, setup: dict, got: dict) -> dict:
        traced, plain, panic = got["traced"], got["plain"], got["panic"]
        calls = got["tracer"].calls
        found = [c.outcome for c in calls if c.outcome is not None]
        search_ms = [c.seconds * 1e3 for c in calls]
        return {
            "grammar.parse_s": setup["grammar"],
            "lrtable.build_s": setup["table"],
            "lrtable.states": self.table.n_states,
            "lrtable.build_canonical_s": setup["canonical"],
            "lrtable.states_canonical": self.canonical.n_states,
            "lrtable.conflicts": len(self.canonical.conflicts),
            "lexer.spec_s": setup["lexer"],
            "lexer.lex_s": traced.lex_s,
            "lexer.tok_per_s": traced.tokens / traced.lex_s,
            "parser.drive_s": traced.parse_s - traced.recovery_s,
            "parser.recovery_s": traced.recovery_s,
            "parser.budget_out_files": traced.budget_out,
            "parser.overshoot_ms_max": traced.overshoot_ms_max,
            "parser.error_locs": traced.error_locs,
            "parser.mean_cost": statistics.fmean(traced.costs) if traced.costs else 0.0,
            "parser.skipped_pct": traced.skipped_pct,
            "cpctplus.calls": len(calls),
            "cpctplus.found_ratio": len(found) / len(calls) if calls else 0.0,
            "cpctplus.search_ms_p50": pctl(search_ms, 50),
            "cpctplus.search_ms_p95": pctl(search_ms, 95),
            "cpctplus.success_configs": sum(o.success_configs for o in found),
            "cpctplus.merges": sum(o.merges for o in found),
            "cpctplus.sequences": sum(len(o.sequences) for o in found),
            "cpctplus.sequences_max": max((len(o.sequences) for o in found), default=0),
            "cpctplus.unranked_s": got["unranked_s"],
            "cactus.pushes": sum(c.pushes for c in calls if c.within_budget),
            "panic.file_ms_p50": pctl(panic.file_ms, 50),
            "panic.fail_pct": panic.fail_pct,
            "panic.skipped_pct": panic.skipped_pct,
            "trace.overhead_pct": 100.0 * (plain.tok_per_s / traced.tok_per_s - 1.0),
        }

    def write_trace(self, got: dict) -> Path:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        stem = f"{self.name}-seed{self.seed}"
        got["tracer"].write_spans(out / f"{stem}-spans.jsonl")
        path = out / f"{stem}-locations.tsv"
        with open(path, "w", encoding="utf-8") as f:
            f.write("workload\tfile\toffset\tcost\tsequences\tsuccess_configs\tmerges\tms\n")
            for row in got["rows"]:
                f.write("\t".join(str(x) for x in row) + "\n")
        return path


def show(title: str, values: dict, units: dict, samples: dict) -> None:
    print(title)
    for name, value in values.items():
        text = "-" if value is None else str(value) if isinstance(value, int) else f"{value:.6g}"
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:28s} {text:>12s} {units[name]}{n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--files", type=int, help="measure exactly this many files (for quick checks)")
    args = ap.parse_args(argv)

    bench = Bench(args.workload, args.seed, args.seconds, args.files, bool(args.trace))
    try:
        setup = bench.setup()
        got = bench.measure_traced() if args.trace else bench.measure()
    except GateError as e:
        print(f"perfbench: correctness gate failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.n_files,
                          "failed": len(bench.failed), "metrics": {}}))
        return 1

    plain: Tally = got["plain"]
    e2e = bench.e2e(setup, got)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "files": bench.n_files, "passes": 1 if args.trace else REPEATS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "timeout_s": bench.params.timeout_s,
        "sequences_replayed": bench.replayed, "oracle_locations": bench.oracle_checked,
        "samples": {"file_ms": len(plain.file_ms), "recovery_ms": len(plain.recovery_ms)},
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
    }
    print(f"perfbench {args.workload} seed={args.seed} files={bench.n_files} "
          f"nproc={report['nproc']} python={report['python']} timeout_s={bench.params.timeout_s}")
    show(f"end to end (untraced, fastest of {report['passes']} pass(es) per file)", e2e, E2E_UNITS,
         {"file_ms_p50": len(plain.file_ms), "file_ms_p95": len(plain.file_ms),
          "recovery_ms_p50": len(plain.recovery_ms), "recovery_ms_p95": len(plain.recovery_ms)})
    if args.trace:
        layers = bench.layers(setup, got)
        report["layers"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        report["traced_tok_per_s"] = got["traced"].tok_per_s
        path = bench.write_trace(got)
        show("per layer (traced)", layers, LAYER_UNITS,
             {"cpctplus.search_ms_p50": len(got["tracer"].calls),
              "cpctplus.search_ms_p95": len(got["tracer"].calls)})
        print(f"tracing overhead: {got['traced'].tok_per_s:.6g} tok/s traced vs "
              f"{plain.tok_per_s:.6g} untraced")
        print(f"slowest locations (all in {path.relative_to(HERE.parent)}):")
        print("  workload file offset cost sequences success_configs merges ms")
        for row in sorted(got["rows"], key=lambda r: -r[-1])[:5]:
            print("  " + " ".join(str(x) for x in row))
        final = {k: layers[k] for k in LAYER_UNITS if k not in LAYER_SOMETIMES_ZERO}
        units = LAYER_UNITS
    else:
        final = {k: e2e[k] for k in GATED}
        units = E2E_UNITS
    print("report: " + json.dumps(report))
    correct = not bench.failed
    print(json.dumps({
        "correct": correct,
        "attempted": bench.n_files,
        "failed": len(bench.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in final.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
