"""Corpus benchmark harness for the error-recovery strategies.

Runs a recoverer over a directory (or in-memory collection) of input
files, several repeats per file, and aggregates:

* per-run records — one per ``(file, repeat)`` — holding the recovery
  wall time, whether the whole file was repaired, how many error
  locations were hit, the repair costs (only when the whole file
  succeeded), and the percentage of real tokens discarded;
* a summary with mean/median recovery time, mean repair cost, failure
  rate, mean tokens-skipped percentage and the number of error
  locations in one pass over the corpus, plus optional bootstrap
  confidence intervals.

Timing covers recovery only: the parser's clock starts when a recoverer
is invoked, so lexing and table construction never pollute the numbers.
Failed and timed-out recovery runs still contribute their elapsed time.

A recoverer that "fixes" files mostly by throwing their contents away
looks great on failure rate, so summaries carry an ``excess_skipping``
flag raised when the mean tokens-skipped percentage crosses a
configurable threshold.

``mutate_corpus`` manufactures faulty inputs from clean ones by seeded
token-level edits, so desk-scale experiments are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .cli import non_negative_int, token_mismatch
from .grammar import Grammar, GrammarError, parse_grammar
from .lexer import LexError, LexSpec, LexSpecError
from .lrtable import build_tables
from .parser import RECOVERERS, ParserInternalError, RecoveryParams, parse

# Mean tokens-skipped percentage above which a recoverer is flagged as
# suspiciously deletion-happy.
DEFAULT_SKIP_THRESHOLD_PCT = 10.0


@dataclass
class BenchRecord:
    """One (file, repeat) benchmark run."""

    file: str
    repeat: int
    recoverer: str
    recovery_time_s: float
    success: bool
    error_locations: int
    costs: list[int]          # empty unless the whole file was repaired
    tokens_skipped_pct: float


CSV_COLUMNS = [f.name for f in dataclasses.fields(BenchRecord)]

# The figures a summary reports and ``bootstrap`` resamples, each computed
# from a non-empty list of runs.  The names are ``SummaryStats`` fields.
_FIGURES = {
    "mean_recovery_time_s": lambda runs: statistics.fmean(r.recovery_time_s for r in runs),
    "failure_rate_pct": lambda runs: 100.0 * sum(not r.success for r in runs) / len(runs),
    "tokens_skipped_pct": lambda runs: statistics.fmean(r.tokens_skipped_pct for r in runs),
    # One pass over the corpus, as the paper counts them: the mean over passes.
    "error_locations": lambda runs: (
        sum(r.error_locations for r in runs) * len({r.file for r in runs}) / len(runs)
    ),
}


def _mean_cost(runs: Sequence[BenchRecord]) -> Optional[float]:
    """Mean repair cost over every location of the given runs, or None
    when they hold no costs (failed runs record none)."""
    costs = [c for r in runs for c in r.costs]
    return statistics.fmean(costs) if costs else None


@dataclass
class SummaryStats:
    """Aggregate view of one recoverer over one corpus."""

    recoverer: str
    files: int
    runs: int
    mean_recovery_time_s: float
    median_recovery_time_s: float
    mean_cost: Optional[float]        # None when no run repaired a whole file
    failure_rate_pct: float
    tokens_skipped_pct: float         # mean of the per-run percentages
    error_locations: float            # per pass over the corpus
    skip_threshold_pct: float = DEFAULT_SKIP_THRESHOLD_PCT
    excess_skipping: bool = False
    intervals: Optional[dict[str, tuple[float, float]]] = None
    skipped_files: list[tuple[str, str]] = field(default_factory=list)


Corpus = Union[str, Path, Iterable[tuple[str, str]]]


def _load_corpus(corpus: Corpus) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Normalize a corpus to (name, text) pairs plus skip notes.

    A str/Path is read as a directory of files (sorted by name,
    non-recursive); anything else must already be (name, text) pairs.
    Unreadable files become skip notes, never crashes.
    """
    if isinstance(corpus, (str, Path)):
        root = Path(corpus)
        if not root.is_dir():
            raise NotADirectoryError(f"corpus directory not found: {root}")
        out: list[tuple[str, str]] = []
        skipped: list[tuple[str, str]] = []
        for p in sorted(root.iterdir()):
            if not p.is_file():
                continue
            try:
                out.append((p.name, p.read_text(encoding="utf-8")))
            except (OSError, UnicodeDecodeError) as e:
                skipped.append((p.name, f"unreadable: {e}"))
        return out, skipped
    return list(corpus), []


def run_corpus(
    corpus: Corpus,
    grammar: Grammar,
    lexspec: LexSpec,
    recoverer: str = "cpctplus",
    params: Optional[RecoveryParams] = None,
    repeats: int = 5,
    skip_threshold_pct: float = DEFAULT_SKIP_THRESHOLD_PCT,
) -> tuple[list[BenchRecord], SummaryStats]:
    """Benchmark one recoverer over a corpus.

    Returns one record per (file, repeat) plus a summary.  Unlexable and
    unreadable files are skipped and listed in ``summary.skipped_files``
    rather than counted as failures.
    """
    params = params or RecoveryParams()
    files, skipped = _load_corpus(corpus)
    table = build_tables(grammar)
    records: list[BenchRecord] = []
    for name, text in files:
        try:
            toks = lexspec.lex(text)
        except LexError as e:
            skipped.append((name, f"unlexable: {e}"))
            continue
        for r in range(repeats):
            result = parse(table, toks, text, recoverer=recoverer, params=params)
            st = result.stats
            records.append(
                BenchRecord(
                    file=name,
                    repeat=r,
                    recoverer=recoverer,
                    recovery_time_s=st.recovery_time_s,
                    success=result.success,
                    error_locations=st.error_locations,
                    costs=list(st.costs) if result.success else [],
                    tokens_skipped_pct=st.tokens_skipped_pct,
                )
            )

    summary = summarize(
        records,
        skip_threshold_pct=skip_threshold_pct,
        skipped_files=skipped,
        recoverer=recoverer,
    )
    return records, summary


def summarize(
    records: Sequence[BenchRecord],
    skip_threshold_pct: float = DEFAULT_SKIP_THRESHOLD_PCT,
    skipped_files: Optional[list[tuple[str, str]]] = None,
    recoverer: Optional[str] = None,
) -> SummaryStats:
    """Aggregate per-run records into a SummaryStats."""
    if recoverer is None:
        recoverer = records[0].recoverer if records else "?"
    figures = {name: figure(records) if records else 0.0 for name, figure in _FIGURES.items()}
    return SummaryStats(
        recoverer=recoverer,
        files=len({r.file for r in records}),
        runs=len(records),
        median_recovery_time_s=(
            statistics.median(r.recovery_time_s for r in records) if records else 0.0
        ),
        mean_cost=_mean_cost(records),
        skip_threshold_pct=skip_threshold_pct,
        excess_skipping=figures["tokens_skipped_pct"] > skip_threshold_pct,
        skipped_files=skipped_files or [],
        **figures,
    )


def write_csv(records: Sequence[BenchRecord], path: Union[str, Path]) -> None:
    """Write records with the fixed column set (costs semicolon-joined,
    success as 1/0)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow(
                [
                    r.file,
                    r.repeat,
                    r.recoverer,
                    f"{r.recovery_time_s:.6f}",
                    int(r.success),
                    r.error_locations,
                    ";".join(str(c) for c in r.costs),
                    f"{r.tokens_skipped_pct:.3f}",
                ]
            )


def _percentile(sorted_xs: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted sample."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    frac = pos - lo
    return sorted_xs[lo] * (1.0 - frac) + sorted_xs[hi] * frac


def bootstrap(
    records: Sequence[BenchRecord],
    iterations: int = 1000,
    confidence: float = 0.99,
    seed: int = 0,
) -> dict[str, tuple[float, float]]:
    """Percentile-bootstrap confidence intervals for the summary fields.

    Each iteration resamples one repeat per file (files are the unit of
    variation; repeats of one file are exchangeable) and recomputes each
    statistic.  The mean-cost statistic draws only from runs where the
    whole file was repaired, since failed runs record no costs.

    Returns ``{field: (low, high)}`` for ``mean_recovery_time_s``,
    ``failure_rate_pct``, ``tokens_skipped_pct``, ``error_locations`` and
    — when any run succeeded — ``mean_cost``.  Identical records give
    zero-width intervals; a lone record gives point intervals.
    """
    if not records:
        raise ValueError("bootstrap needs at least one record")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")

    by_file: dict[str, list[BenchRecord]] = {}
    for r in records:
        by_file.setdefault(r.file, []).append(r)
    groups = list(by_file.values())
    ok_groups = [
        [r for r in grp if r.success and r.costs] for grp in groups
    ]
    ok_groups = [g for g in ok_groups if g]

    rng = random.Random(seed)
    samples: dict[str, list[float]] = {name: [] for name in (*_FIGURES, "mean_cost")}
    for _ in range(iterations):
        picks = [grp[rng.randrange(len(grp))] for grp in groups]
        for name, figure in _FIGURES.items():
            samples[name].append(figure(picks))
        if ok_groups:
            cost_picks = [grp[rng.randrange(len(grp))] for grp in ok_groups]
            samples["mean_cost"].append(_mean_cost(cost_picks))

    alpha = (1.0 - confidence) / 2.0
    out = {}
    for field_name, xs in samples.items():
        if not xs:
            continue
        xs.sort()
        out[field_name] = (_percentile(xs, alpha), _percentile(xs, 1.0 - alpha))
    return out


def mutate_corpus(
    files: Iterable[tuple[str, str]],
    lexspec: LexSpec,
    seed: int = 0,
    edits_per_file: int = 2,
) -> list[tuple[str, str]]:
    """Derive a faulty corpus from clean inputs by token-level edits.

    Each file receives ``edits_per_file`` random edits — delete a token,
    duplicate an existing token's text into a random position, or swap
    two neighbours — and is re-rendered with single spaces between
    tokens.  The same seed over the same file list always produces the
    same corpus.  With ``edits_per_file=0`` files pass through untouched.
    """
    rng = random.Random(seed)
    out = []
    for name, text in files:
        if edits_per_file == 0:
            out.append((name, text))
            continue
        lexemes = [t.lexeme(text) for t in lexspec.lex(text)[:-1]]
        for _ in range(edits_per_file):
            if not lexemes:
                break
            op = rng.choice(("delete", "insert", "transpose"))
            if op == "delete":
                del lexemes[rng.randrange(len(lexemes))]
            elif op == "insert":
                donor = lexemes[rng.randrange(len(lexemes))]
                lexemes.insert(rng.randrange(len(lexemes) + 1), donor)
            elif len(lexemes) >= 2:
                i = rng.randrange(len(lexemes) - 1)
                lexemes[i], lexemes[i + 1] = lexemes[i + 1], lexemes[i]
        out.append((name, " ".join(lexemes) + "\n"))
    return out


def format_summary_table(summaries: Sequence[SummaryStats]) -> str:
    """Plain-text comparison table, one row per recoverer."""
    headers = [
        "recoverer",
        "files",
        "runs",
        "mean time (ms)",
        "median (ms)",
        "mean cost",
        "fail %",
        "skipped %",
        "error locs / pass",
    ]
    rows = []
    for s in summaries:
        rows.append(
            [
                s.recoverer,
                str(s.files),
                str(s.runs),
                f"{s.mean_recovery_time_s * 1e3:.3f}",
                f"{s.median_recovery_time_s * 1e3:.3f}",
                "-" if s.mean_cost is None else f"{s.mean_cost:.2f}",
                f"{s.failure_rate_pct:.1f}",
                f"{s.tokens_skipped_pct:.1f}",
                f"{s.error_locations:.1f}",
            ]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    for s in summaries:
        if s.intervals:
            for k, (lo, hi) in sorted(s.intervals.items()):
                if k == "mean_recovery_time_s":  # ms as in the table, 4 significant digits
                    bounds = f"[{lo * 1e3:.4g}, {hi * 1e3:.4g}] ms"
                else:
                    bounds = f"[{lo:.4f}, {hi:.4f}]"
                lines.append(f"{s.recoverer}: {k} 99% interval {bounds}")
        if s.excess_skipping:
            lines.append(
                f"warning: {s.recoverer} skipped {s.tokens_skipped_pct:.1f}% of "
                f"input on average (threshold {s.skip_threshold_pct:.1f}%) — "
                "its repairs may be degenerate"
            )
        for name, reason in s.skipped_files:
            lines.append(f"note: {s.recoverer} skipped {name} ({reason})")
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m lrfix.bench",
        description="Benchmark error-recovery strategies over a corpus.",
    )
    ap.add_argument("lexer")
    ap.add_argument("grammar")
    ap.add_argument("corpus", help="directory of input files")
    ap.add_argument(
        "--recoverer",
        action="append",
        choices=RECOVERERS,
        help="strategy to benchmark (repeatable; default: cpctplus)",
    )
    ap.add_argument("--repeats", type=_positive_int, default=5)
    ap.add_argument("--timeout", type=non_negative_int, default=500, metavar="MS")
    ap.add_argument("--csv", metavar="PATH", help="write per-run records here")
    ap.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        metavar="N",
        help="bootstrap iterations for 99%% intervals (0 = off)",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--skip-threshold",
        type=float,
        default=DEFAULT_SKIP_THRESHOLD_PCT,
        metavar="PCT",
        help="flag recoverers whose mean skipped-tokens %% exceeds this",
    )
    args = ap.parse_args(argv)

    def complain(msg: str) -> int:
        print(f"bench: {msg}", file=sys.stderr)
        return 2

    if not Path(args.corpus).is_dir():
        return complain(f"corpus directory not found: {args.corpus}")
    loaded = []
    for path, load in ((args.lexer, LexSpec.parse), (args.grammar, parse_grammar)):
        try:
            loaded.append(load(Path(path).read_text(encoding="utf-8")))
        except OSError as e:
            return complain(str(e))
        except (UnicodeDecodeError, LexSpecError, GrammarError) as e:
            return complain(f"{path}: {e}")
    lexspec, grammar = loaded
    mismatch = token_mismatch(lexspec, grammar, args.lexer, args.grammar)
    if mismatch:
        return complain(mismatch)

    params = RecoveryParams(timeout_s=args.timeout / 1000.0)
    all_records: list[BenchRecord] = []
    summaries = []
    for rec in args.recoverer or ["cpctplus"]:
        t0 = time.monotonic()
        try:
            records, summary = run_corpus(
                args.corpus,
                grammar,
                lexspec,
                recoverer=rec,
                params=params,
                repeats=args.repeats,
                skip_threshold_pct=args.skip_threshold,
            )
        except ParserInternalError as e:
            return complain(f"{rec}: parsing failed: {e}")
        wall = time.monotonic() - t0
        if args.bootstrap > 0 and records:
            summary.intervals = bootstrap(
                records, iterations=args.bootstrap, seed=args.seed
            )
        all_records.extend(records)
        summaries.append(summary)
        print(f"{rec}: {len(records)} runs in {wall:.2f}s", file=sys.stderr)

    if args.csv:
        write_csv(all_records, args.csv)
    print(format_summary_table(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
