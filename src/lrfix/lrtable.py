"""LR(1) state graphs and action/goto tables.

States are built in one worklist pass from full LR(1) items (production,
dot position, and a lookahead set per kernel item).  A lookahead set is an
int bitmask with one bit per terminal; ``closure_of()`` and ``dump()``
turn masks back into token names only when called.  Before the pass, each
nonterminal B's closure is worked out once: every nonterminal whose
productions it adds, the lookaheads those get whatever B's are, and
whether B's own lookaheads reach them.  Closing a kernel is then one pass
over its items, with no fixpoint, and the added items keep the order in
which a breadth-first walk from the kernel meets them.

Every successor kernel is looked up in one dict: by its core (the items
without their lookaheads) by default, by the whole kernel with its
lookaheads when ``merge=False``.  It joins the first candidate that passes
Pager's weak-compatibility test, i.e. a state whose cores coincide and
whose merge cannot manufacture a conflict that neither side had.  Without
merging the only candidate is an identical kernel, so every canonical
LR(1) state stays distinct.  A state whose lookaheads grow is still visited
again, so the closure kept from its last visit is the closure of its final
kernel.

For a grammar whose canonical table has no conflicts, not even ones that
binding levels settle, both modes accept exactly the same inputs and
merging only shrinks the automaton.  Otherwise they can differ, because
conflicts are resolved on merged lookaheads: with ``%left 'a'`` and
``A: 'a' A 'a' | 'a' 'a';`` the merged table rejects ``a a a a``, which
the canonical one accepts.

After construction the states are renumbered breadth-first from the start
state.  Each state's outgoing edges are visited largest-target-first
(measured by the target's closure size), breaking ties in favour of rule
edges over token edges and then by declaration order.  The numbering is
therefore a pure function of the grammar text.

Conflicts are resolved the way Yacc resolves them: shift/reduce first
consults declared binding levels (a later %left/%right/%nonassoc line
binds tighter; at equal level %left reduces, %right shifts, %nonassoc
turns the cell into an error), and otherwise shifts with a warning;
reduce/reduce keeps the production declared earlier, with a warning.
Warnings go to ``StateTable.conflicts``; each cell that binding levels
settled goes to ``StateTable.resolved``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .grammar import EOF, Grammar, Production

# Internal name for the synthetic start rule.  It never appears in user
# grammars (grammar.py forbids defining it) and never shows up in tables.
AUG_RULE = "^"

# Action cells are packed into ints: 0 is error, 1 is accept, and the low
# two bits otherwise distinguish shift (2) from reduce (3) with the
# state/production number in the high bits.
ERROR_CELL = 0
ACCEPT_CELL = 1


def shift_cell(state: int) -> int:
    return (state << 2) | 2


def reduce_cell(prod: int) -> int:
    return (prod << 2) | 3


def cell_kind(cell: int) -> str:
    if cell == ERROR_CELL:
        return "error"
    if cell == ACCEPT_CELL:
        return "accept"
    return "shift" if cell & 3 == 2 else "reduce"


def cell_arg(cell: int) -> int:
    return cell >> 2


@dataclass
class Conflict:
    kind: str          # "shift/reduce" or "reduce/reduce"
    state: int
    token: str
    chosen: str
    discarded: str

    def describe(self) -> str:
        return (
            f"{self.kind} conflict in state {self.state} on {self.token!r}: "
            f"kept {self.chosen}, dropped {self.discarded}"
        )


@dataclass
class Resolution:
    """A shift/reduce conflict that binding levels settled."""

    state: int
    token: str
    chosen: str        # "shift to N", the reduced production, or "error"
    level: int         # the binding level that decided: the higher of the two


# (production, dot) -> lookaheads as a bitmask over StateGraph.terminals:
# a kernel or a closure.
_Items = dict[tuple[int, int], int]


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _weakly_compatible(existing: _Items, incoming: _Items) -> bool:
    """Pager's test, assuming equal cores.

    Merging is safe when, for every pair of kernel items, either the cross
    lookahead intersections are empty (the merge cannot create a new
    clash) or one side already had the two lookahead sets overlapping (any
    clash was already present before merging).
    """
    for a, b in combinations(incoming, 2):
        c_a, c_b = incoming[a], incoming[b]
        d_a, d_b = existing[a], existing[b]
        if (c_a & d_b) or (c_b & d_a):
            if not (c_a & c_b) and not (d_a & d_b):
                return False
    return True


class StateGraph:
    def __init__(self, grammar: Grammar, merged: bool):
        self.grammar = grammar
        self.merged = merged
        # Augmented production list: user productions plus ^ -> start.
        self.productions: list[Production] = list(grammar.productions)
        self.aug_index = len(self.productions)
        self.productions.append(Production(self.aug_index, AUG_RULE, (grammar.start,)))
        # Bit i of a lookahead mask stands for terminals[i].
        self.terminals: list[str] = list(grammar.token_decl_order) + [EOF]
        # Filled by _build:
        self.states: list[_Items] = []  # kernels
        self.edges: list[dict[str, int]] = []
        self._closures: list[_Items] = []
        self._build()

    # -- grammar analysis ---------------------------------------------------

    def _analyse(self) -> None:
        """Per-grammar tables that make a closure one pass over its kernel.

        ``_after[item]`` is the symbol after the dot and the item that
        shifting it leads to.  ``_expands[item]``, for an item whose dot
        precedes a nonterminal B, is B with FIRST and nullability of what
        follows B.  ``_reach[B]`` lists every nonterminal C whose
        productions B's closure holds, with the lookaheads C gets there
        whatever B's own are, and whether B's own lookaheads reach C too.
        """
        g = self.grammar
        bit = {t: 1 << i for i, t in enumerate(self.terminals)}
        first = dict.fromkeys(g.rules, 0)
        nullable: set[str] = set()
        changed = True
        while changed:
            changed = False
            for p in g.productions:
                f = first[p.lhs]
                all_nullable = True
                for sym in p.rhs:
                    if g.is_token(sym):
                        f |= bit[sym]
                        all_nullable = False
                        break
                    f |= first[sym]
                    if sym not in nullable:
                        all_nullable = False
                        break
                if f != first[p.lhs]:
                    first[p.lhs] = f
                    changed = True
                if all_nullable and p.lhs not in nullable:
                    nullable.add(p.lhs)
                    changed = True

        self._after: dict[tuple[int, int], tuple[str, tuple[int, int]]] = {}
        self._expands: dict[tuple[int, int], tuple[str, int, bool]] = {}
        for p in self.productions:
            # FIRST and nullability of rhs[dot:], from the right.
            tail_first, tail_nullable = 0, True
            nxt = (p.index, len(p.rhs))
            for dot in range(len(p.rhs) - 1, -1, -1):
                item, sym = (p.index, dot), p.rhs[dot]
                self._after[item] = (sym, nxt)
                if g.is_token(sym):
                    tail_first, tail_nullable = bit[sym], False
                else:
                    self._expands[item] = (sym, tail_first, tail_nullable)
                    if sym in nullable:
                        tail_first |= first[sym]
                    else:
                        tail_first, tail_nullable = first[sym], False
                nxt = item

        # The closure of B alone, once per grammar: a placeholder bit above
        # every terminal stands for B's own lookaheads.
        own = 1 << len(self.terminals)
        self._reach: dict[str, tuple[tuple[str, int, bool], ...]] = {}
        for b in g.rules:
            las = {b: own}
            work = [b]
            while work:
                c = work.pop()
                for q in g.rules[c]:
                    step = self._expands.get((q, 0))
                    if step is None:
                        continue
                    d, f, tail_nullable = step
                    cont = f | las[c] if tail_nullable else f
                    old = las.get(d)
                    if old is None or cont & ~old:
                        las[d] = (old or 0) | cont
                        work.append(d)
            self._reach[b] = tuple((c, m & ~own, bool(m & own)) for c, m in las.items())
        # For closure item order: each nonterminal's productions as items at
        # dot 0, and the nonterminals those items expand, in production order.
        self._starts = {r: tuple((q, 0) for q in qs) for r, qs in g.rules.items()}
        self._heads = {
            r: tuple(self._expands[item][0] for item in items if item in self._expands)
            for r, items in self._starts.items()
        }

    # -- state construction ---------------------------------------------------

    def _closure(self, kernel: _Items) -> _Items:
        """The kernel's items, then every production its closure adds.

        The added items come in the order a breadth-first walk from the
        kernel meets them, and items of one nonterminal share its lookaheads.
        """
        las: dict[str, int] = {}
        order: list[str] = []
        for item, la in kernel.items():
            step = self._expands.get(item)
            if step is not None:
                b, f, tail_nullable = step
                order.append(b)
                cont = f | la if tail_nullable else f
                for c, spont, own in self._reach[b]:
                    las[c] = las.get(c, 0) | (spont | cont if own else spont)
        order = list(dict.fromkeys(order))
        seen = set(order)
        for c in order:
            for d in self._heads[c]:
                if d not in seen:
                    seen.add(d)
                    order.append(d)
        items = dict(kernel)
        for c in order:
            la = las[c]
            for item in self._starts[c]:
                items[item] = la
        return items

    def _build(self) -> None:
        self._analyse()

        def key_of(kernel: _Items) -> frozenset:
            return frozenset(kernel) if self.merged else frozenset(kernel.items())

        start = {(self.aug_index, 0): 1 << (len(self.terminals) - 1)}  # EOF's bit
        kernels: list[_Items] = [start]
        closures: list[_Items] = [{}]
        edges: list[dict[str, int]] = [{}]
        lookup: dict[frozenset, list[int]] = {key_of(start): [0]}
        work = deque([0])
        queued = {0}
        after = self._after

        while work:
            i = work.popleft()
            queued.discard(i)
            # A state is re-queued whenever its lookaheads grow, so the
            # closure from its last visit is the closure of its final kernel.
            closures[i] = closure = self._closure(kernels[i])
            # Group closure items by the symbol after the dot.
            moves: dict[str, _Items] = {}
            for item, las in closure.items():
                step = after.get(item)
                if step is not None:
                    sym, nxt = step
                    moves.setdefault(sym, {})[nxt] = las
            edges[i] = {}
            for sym, kernel in moves.items():
                candidates = lookup.setdefault(key_of(kernel), [])
                grew = True
                for j in candidates:
                    existing = kernels[j]
                    for item, las in kernel.items():
                        if las & ~existing[item]:
                            break
                    else:
                        # Adding no lookahead passes Pager's test: with
                        # c_a <= d_a, c_a & d_b implies d_a & d_b.
                        grew = False
                        break
                    if _weakly_compatible(existing, kernel):
                        existing.update({item: las | existing[item] for item, las in kernel.items()})
                        break
                else:
                    j = len(kernels)
                    candidates.append(j)
                    kernels.append(kernel)
                    closures.append({})
                    edges.append({})
                if grew and j not in queued:
                    queued.add(j)
                    work.append(j)
                edges[i][sym] = j

        self._finalize(kernels, closures, edges)

    # -- renumbering ----------------------------------------------------------

    def _finalize(
        self, kernels: list[_Items], closures: list[_Items], edges: list[dict[str, int]]
    ) -> None:
        g = self.grammar
        rule_ord = {r: i for i, r in enumerate(g.rules)}
        tok_ord = {t: i for i, t in enumerate(g.token_decl_order)}
        tok_ord[EOF] = len(g.token_decl_order)

        def edge_key(sym_target: tuple[str, int]):
            sym, target = sym_target
            if g.is_rule(sym):
                kind, ordinal = 0, rule_ord[sym]
            else:
                kind, ordinal = 1, tok_ord[sym]
            return (-len(closures[target]), kind, ordinal)

        # Number states in BFS order from the start state.  Merging can
        # strand a state every edge to which was later redirected; such
        # unreachable states get no number and are dropped here.
        order: dict[int, int] = {0: 0}
        bfs = deque([0])
        while bfs:
            i = bfs.popleft()
            for sym, target in sorted(edges[i].items(), key=edge_key):
                if target not in order:
                    order[target] = len(order)
                    bfs.append(target)

        # ``order`` was filled in new-number order.
        self.states = [kernels[old] for old in order]
        self.edges = [{sym: order[t] for sym, t in edges[old].items()} for old in order]
        self._closures = [closures[old] for old in order]

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.states)

    def _names(self, las: int) -> frozenset[str]:
        """The terminals in a lookahead mask."""
        return frozenset(self.terminals[i] for i in _bits(las))

    def closure_of(self, state: int) -> dict[tuple[int, int], frozenset[str]]:
        return {item: self._names(las) for item, las in self._closures[state].items()}

    def item_str(self, item: tuple[int, int], las: frozenset[str]) -> str:
        prod_i, dot = item
        p = self.productions[prod_i]
        body = list(p.rhs)
        body.insert(dot, ".")
        las_s = ", ".join(sorted(las))
        return f"{p.lhs}: {' '.join(body)}  {{{las_s}}}"

    def dump(self) -> str:
        lines: list[str] = []
        for i in range(len(self.states)):
            lines.append(f"State {i}")
            closure = self._closures[i]
            kernel = self.states[i]
            for item in sorted(closure):
                mark = "" if item in kernel else "    "
                lines.append(f"    {mark}{self.item_str(item, self._names(closure[item]))}")
            for sym, t in sorted(self.edges[i].items(), key=lambda e: e[1]):
                lines.append(f"  {sym} -> {t}")
        return "\n".join(lines) + "\n"


class StateTable:
    """Dense action/goto tables plus everything needed to run them."""

    def __init__(self, graph: StateGraph):
        self.graph = graph
        g = graph.grammar
        self.grammar = g
        self.tokens: list[str] = list(graph.terminals)
        self.token_index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}
        self.eof = self.token_index[EOF]
        self.rule_names: list[str] = list(g.rules)
        self.rule_index: dict[str, int] = {r: i for i, r in enumerate(self.rule_names)}
        self.productions = graph.productions
        self.prod_arity: list[int] = [len(p.rhs) for p in self.productions]
        self.prod_rule: list[int] = [
            self.rule_index.get(p.lhs, -1) for p in self.productions
        ]
        self.n_states = len(graph)
        self.conflicts: list[Conflict] = []
        self.resolved: list[Resolution] = []
        self.act: list[list[int]] = []
        self.goto: list[list[int]] = []
        # Per state, the terminals other than EOF whose action is not an
        # error, ascending: the only ones a repair can insert there.
        self.live_terms: list[tuple[int, ...]] = []
        self._fill()

    # -- construction -----------------------------------------------------------

    def _fill(self) -> None:
        g = self.grammar
        graph = self.graph
        n_tok = len(self.tokens)
        n_rule = len(self.rule_names)
        # A complete item is a kernel item or an empty production at dot 0.
        empty = [(p.index, 0) for p in graph.productions if not p.rhs]
        for s in range(self.n_states):
            row = [ERROR_CELL] * n_tok
            grow = [-1] * n_rule
            # Per token: at most one shift, written at once; any number of reduces.
            reduces: dict[int, list[int]] = {}
            for sym, t in graph.edges[s].items():
                if g.is_rule(sym):
                    grow[self.rule_index[sym]] = t
                else:
                    row[self.token_index[sym]] = shift_cell(t)
            closure = graph._closures[s]
            complete = [*graph.states[s].items(), *((i, closure[i]) for i in empty if i in closure)]
            accept_on_eof = False
            for (prod_i, dot), las in complete:
                if prod_i == graph.aug_index:
                    accept_on_eof = dot == 1  # ^: start .
                elif dot == len(graph.productions[prod_i].rhs):
                    for tok_i in _bits(las):  # bit i is self.tokens[i]
                        reduces.setdefault(tok_i, []).append(prod_i)
            # A lone reduce is written here; the rest goes to _resolve in
            # token order, the order of its reports.
            if accept_on_eof:
                reduces.setdefault(self.eof, [])
            for tok_i in sorted(reduces):
                reds, accept = reduces[tok_i], accept_on_eof and tok_i == self.eof
                shift = cell_arg(row[tok_i]) if row[tok_i] else None
                if len(reds) == 1 and shift is None and not accept:
                    row[tok_i] = reduce_cell(reds[0])
                else:
                    row[tok_i] = self._resolve(s, tok_i, shift, sorted(reds), accept)
            self.act.append(row)
            self.goto.append(grow)
            self.live_terms.append(tuple(t for t in range(self.eof) if row[t] != ERROR_CELL))

    def _resolve(
        self, state: int, tok_i: int, shift: int | None, reds: list[int], accept: bool
    ) -> int:
        tok = self.tokens[tok_i]
        g = self.grammar
        chosen_red: int | None = None
        if reds:
            chosen_red = reds[0]
            for other in reds[1:]:
                self.conflicts.append(
                    Conflict(
                        "reduce/reduce", state, tok,
                        str(self.productions[chosen_red]), str(self.productions[other]),
                    )
                )
        if accept:
            if chosen_red is not None:
                self.conflicts.append(
                    Conflict(
                        "reduce/reduce", state, tok,
                        "accept", str(self.productions[chosen_red]),
                    )
                )
            return ACCEPT_CELL
        if shift is None:
            return reduce_cell(chosen_red)
        # Shift/reduce: consult binding levels when both sides have one.
        tok_prec = g.assoc.get(tok)
        prod_prec = g.production_prec(self.productions[chosen_red])
        if tok_prec is not None and prod_prec is not None:
            (_, prod_level), (kind, tok_level) = prod_prec, tok_prec
            if prod_level > tok_level or (prod_level == tok_level and kind == "left"):
                cell, chosen = reduce_cell(chosen_red), str(self.productions[chosen_red])
            elif prod_level < tok_level or kind == "right":
                cell, chosen = shift_cell(shift), f"shift to {shift}"
            else:  # nonassoc at equal level: neither parse is right
                cell, chosen = ERROR_CELL, "error"
            self.resolved.append(Resolution(state, tok, chosen, max(prod_level, tok_level)))
            return cell
        self.conflicts.append(
            Conflict(
                "shift/reduce", state, tok,
                f"shift to {shift}", str(self.productions[chosen_red]),
            )
        )
        return shift_cell(shift)

    # -- friendly lookups ---------------------------------------------------------

    def action(self, state: int, token: str):
        cell = self.act[state][self.token_index[token]]
        kind = cell_kind(cell)
        if kind in ("shift", "reduce"):
            return (kind, cell_arg(cell))
        return (kind,)

    def goto_state(self, state: int, rule: str) -> int:
        return self.goto[state][self.rule_index[rule]]

    def conflict_summary(self) -> str:
        sr = sum(1 for c in self.conflicts if c.kind == "shift/reduce")
        rr = len(self.conflicts) - sr
        return f"{sr} shift/reduce, {rr} reduce/reduce"


def build_tables(grammar: Grammar, merge: bool = True) -> StateTable:
    return StateTable(StateGraph(grammar, merged=merge))
