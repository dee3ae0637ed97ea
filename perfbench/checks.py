"""The correctness gate: the benchmark reports figures only for parses
that pass these checks.

``parse()`` hands the live stack to the recoverer and mutates it
afterwards, so the stack at each error location is re-derived here by
driving the public single-step ``lr_step`` over the same tokens and
replaying each applied repair.  Every reported sequence is then replayed
from that stack.
"""

from __future__ import annotations

from lrfix import lr_step, min_repair_sequences, oracle_min_repairs, parse


class GateError(Exception):
    """A check failed: the run's figures cannot be trusted."""


def feed(table, stack: list[int], token: str) -> str:
    """Reduce under ``token`` until it shifts (pushed), accepts or errors."""
    while True:
        kind = lr_step(table, stack, token)[0]
        if kind != "reduce":
            return kind


def apply_sequence(table, stack: list[int], types: list[str], idx: int, seq) -> int:
    """Apply a repair sequence to ``stack`` from input position ``idx``;
    returns the new position.  Raises GateError if an edit cannot shift."""
    for r in seq:
        if r.kind == "delete":
            idx += 1
            continue
        token = r.token if r.kind == "insert" else types[idx]
        if r.kind == "shift":
            idx += 1
        if feed(table, stack, token) != "shift":
            raise GateError(f"{r} does not shift at input position {idx}")
    return idx


def replays(table, stack: list[int], types: list[str], idx: int, seq, n_shifts: int) -> bool:
    """Does ``seq`` apply and then let ``n_shifts`` real tokens shift (or
    the input be accepted)?"""
    stack = list(stack)
    try:
        idx = apply_sequence(table, stack, types, idx, seq)
    except GateError:
        return False
    for _ in range(n_shifts):
        kind = feed(table, stack, types[idx])
        if kind == "accept":
            return True
        if kind != "shift":
            return False
        idx += 1
    return True


def sequence_cost(seq, params) -> int:
    return sum(
        params.cost_of_insert(r.token) if r.kind == "insert" else 1
        for r in seq
        if r.kind != "shift"
    )


def check_file(table, toks, result, params, oracle_pool: list | None = None) -> int:
    """Check one ``cpctplus`` parse; returns the number of sequences replayed.

    At every location: the parse really was stuck there, every reported
    sequence replays and costs ``report.cost``, and ``applied`` is the
    first sequence.  A parse reported successful must then reach accept.
    Locations of cost <= 3 are appended to ``oracle_pool`` as
    ``(stack, tok_ids, idx, report)`` for ``check_oracle``.
    """
    types = [t.type for t in toks]
    index = {t.start: i for i, t in enumerate(toks)}
    stack = [0]
    idx = 0
    replayed = 0
    tok_ids = None
    for rep in result.reports:
        err = index.get(rep.offset)
        if err is None or err < idx:
            raise GateError(f"report at offset {rep.offset} is not at a token ahead of the parse")
        while idx < err:
            if feed(table, stack, types[idx]) != "shift":
                raise GateError(f"the parse stops before the report at offset {rep.offset}")
            idx += 1
        probe = list(stack)
        if feed(table, probe, types[idx]) != "error":
            raise GateError(f"no syntax error at offset {rep.offset}")
        stack = probe  # reductions on the error token happen before the recoverer runs
        if not rep.success:
            if result.success:
                raise GateError("a failed location in a parse reported successful")
            return replayed
        if not rep.sequences or rep.applied != rep.sequences[0]:
            raise GateError(f"applied is not the first sequence at offset {rep.offset}")
        for seq in rep.sequences:
            if sequence_cost(seq, params) != rep.cost:
                raise GateError(f"sequence {seq} does not cost {rep.cost} at offset {rep.offset}")
            if not replays(table, stack, types, idx, seq, params.n_shifts):
                raise GateError(f"sequence {seq} does not replay at offset {rep.offset}")
            replayed += 1
        if oracle_pool is not None and rep.cost <= 3:
            if tok_ids is None:
                tok_ids = [table.token_index[t] for t in types]
            oracle_pool.append((list(stack), tok_ids, idx, rep))
        idx = apply_sequence(table, stack, types, idx, rep.applied)
    if result.success:
        while idx < len(types):
            kind = feed(table, stack, types[idx])
            if kind == "accept":
                return replayed
            if kind != "shift":
                raise GateError("a parse reported successful does not accept")
            idx += 1
        raise GateError("a parse reported successful runs past end of input")
    return replayed


# The exhaustive search at a cost-3 location can take seconds; this budget
# is there so that "equal to the oracle" is never decided by a timeout.
ORACLE_BUDGET_S = 60.0


def check_oracle(table, params, stack, tok_ids, idx, report) -> None:
    """``min_repair_sequences`` with a generous budget equals the oracle,
    and the reported sequences are among them."""
    raw = min_repair_sequences(table, stack, tok_ids, idx, params, budget_s=ORACLE_BUDGET_S)
    ref = oracle_min_repairs(table, stack, tok_ids, idx, n_shifts=params.n_shifts)
    if raw is None or ref is None or (raw.cost, raw.sequences) != ref:
        raise GateError(f"search and oracle disagree at offset {report.offset}")
    if raw.cost != report.cost or not {tuple(s) for s in report.sequences} <= raw.sequences:
        raise GateError(f"reported sequences at offset {report.offset} are not minimum-cost")


def check_grammar_pin(tables) -> None:
    """Each table records exactly the dangling-else conflict, resolved to shift."""
    for table in tables:
        cs = table.conflicts
        if not (len(cs) == 1 and cs[0].kind == "shift/reduce" and cs[0].token == "else"
                and cs[0].chosen.startswith("shift")):
            raise GateError(f"conflicts changed: {[c.describe() for c in cs]}")


def check_canonical_agrees(canonical, toks, src: str, merged_success: bool) -> None:
    if parse(canonical, toks, src, recoverer="none").success != merged_success:
        raise GateError("merged and canonical tables disagree on a clean file")
