"""Reading and writing Yacc-style grammar files.

Supported surface: ``%start``, ``%token``, ``%left``, ``%right``,
``%nonassoc``, ``%prec``, ``%avoid_insert``, ``%%`` section separators,
C-style and C++-style comments, quoted literal tokens (auto-declared on
first use), epsilon alternatives, and semantic action blocks ``{ ... }``
(parsed for balance, then discarded — this toolkit builds parse trees
itself).  ``%union`` and ``<type>`` tags are rejected with a clear error
because they only make sense with user-supplied actions.

Grammars are validated on construction: every name appearing in a rule
body must be a declared token, a quoted literal, or a rule defined
somewhere in the file.  The end-of-file token is implicit and cannot be
referenced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


EOF = "$"  # implicit end-of-input token type; reserved


class GrammarError(Exception):
    """A problem in the grammar file itself, with a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


@dataclass(frozen=True)
class Production:
    index: int
    lhs: str
    rhs: tuple[str, ...]
    prec: str | None = None  # token named by %prec, if any

    def __str__(self) -> str:
        body = " ".join(self.rhs) if self.rhs else "%empty"
        return f"{self.lhs}: {body}"


@dataclass
class Grammar:
    start: str
    productions: list[Production]
    rules: dict[str, list[int]]            # rule name -> production indices
    token_decl_order: list[str]            # tokens in declaration order
    literals: set[str]                     # subset of tokens declared by quoting
    assoc: dict[str, tuple[str, int]]      # token -> (assoc kind, binding level)
    avoid_insert: set[str] = field(default_factory=set)
    # Derived from token_decl_order once, so that is_token is one lookup.
    tokens: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.tokens = frozenset(self.token_decl_order)

    # -- convenience -------------------------------------------------------

    def is_token(self, name: str) -> bool:
        return name in self.tokens

    def is_rule(self, name: str) -> bool:
        return name in self.rules

    def prods_of(self, rule: str) -> list[Production]:
        return [self.productions[i] for i in self.rules[rule]]

    def production_prec(self, prod: Production) -> tuple[str, int] | None:
        """Binding level of a production: %prec override, else the last token
        in its body that has a declared level."""
        if prod.prec is not None:
            return self.assoc.get(prod.prec)
        for sym in reversed(prod.rhs):
            if self.is_token(sym) and sym in self.assoc:
                return self.assoc[sym]
        return None


# ---------------------------------------------------------------------------
# Scanner for the grammar file itself.

# A bare token or rule name, in grammar files and lexer files alike.
_IDENT_RE = re.compile(r"[A-Za-z_.][A-Za-z_0-9.]*")

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>/\*.*?\*/|//[^\n]*)
    | (?P<sep>%%)
    | (?P<directive>%[A-Za-z_][A-Za-z_0-9]*)
    | (?P<ident>""" + _IDENT_RE.pattern + r""")
    | (?P<literal>'(?:[^'\\]|\\.)+')
    | (?P<punct>[:|;])
    | (?P<lbrace>\{)
    | (?P<tag><[A-Za-z_][A-Za-z_0-9]*>)
    """,
    re.VERBOSE | re.DOTALL,
)

_ESCAPES = {"\\n": "\n", "\\t": "\t", "\\\\": "\\", "\\'": "'"}
_QUOTED = {c: esc for esc, c in _ESCAPES.items()}  # pretty() writes no raw control character


def _unquote(lit: str) -> str:
    body = lit[1:-1]
    out = []
    i = 0
    while i < len(body):
        if body[i] == "\\" and i + 1 < len(body):
            out.append(_ESCAPES.get(body[i : i + 2], body[i + 1]))
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)


def _scan(src: str):
    """Return the list of (kind, text, line) triples; actions and %{...%}
    blocks are consumed here so the parser below never sees them."""
    toks = []
    pos = 0
    line = 1
    n = len(src)
    while pos < n:
        if src.startswith("%{", pos):
            end = src.find("%}", pos)
            if end < 0:
                raise GrammarError("unterminated %{ block", line)
            line += src.count("\n", pos, end)
            pos = end + 2
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise GrammarError(f"unexpected character {src[pos]!r}", line)
        kind = m.lastgroup
        text = m.group()
        if kind == "lbrace":
            # Skip a balanced action block, ignoring braces inside quotes
            # and comments well enough for realistic grammars.
            depth = 0
            i = pos
            while i < n:
                c = src[i]
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth == 0:
                        break
                elif c in "'\"":
                    q = c
                    i += 1
                    while i < n and src[i] != q:
                        if src[i] == "\\":
                            i += 1
                        i += 1
                elif src.startswith("/*", i):
                    i = src.find("*/", i)
                    if i < 0:
                        raise GrammarError("unterminated comment in action", line)
                    i += 1
                i += 1
            if depth != 0:
                raise GrammarError("unbalanced { } in action", line)
            line += src.count("\n", pos, i + 1)
            pos = i + 1
            continue
        if kind not in ("ws", "comment"):
            toks.append((kind, text, line))
        line += text.count("\n")
        pos = m.end()
    toks.append(("eof", "", line))
    return toks


# ---------------------------------------------------------------------------
# Parser for the declarations/rules sections.

_ASSOC_DIRECTIVES = {"%left": "left", "%right": "right", "%nonassoc": "nonassoc"}


def parse_grammar(src: str) -> Grammar:
    toks = _scan(src)
    i = 0

    def peek():
        return toks[i]

    def take():
        nonlocal i
        t = toks[i]
        i += 1
        return t

    start: str | None = None
    token_decl_order: list[str] = []
    token_set: set[str] = set()
    literals: set[str] = set()
    assoc: dict[str, tuple[str, int]] = {}
    avoid_insert: set[str] = set()
    level = 0

    def declare(name: str, line: int, quoted: bool):
        if name == EOF:
            raise GrammarError(f"token name {EOF!r} is reserved for end-of-input", line)
        if name not in token_set:
            token_set.add(name)
            token_decl_order.append(name)
            if quoted:
                literals.add(name)

    def token_name(kind: str, text: str, line: int, auto: bool) -> str:
        if kind == "ident":
            name = text
            quoted = False
        elif kind == "literal":
            name = _unquote(text)
            quoted = True
        else:
            raise GrammarError(f"expected a token name, got {text!r}", line)
        if auto:
            declare(name, line, quoted)
        return name

    # -- declarations ------------------------------------------------------
    while True:
        kind, text, line = peek()
        if kind == "sep":
            take()
            break
        if kind == "eof":
            raise GrammarError("missing %% separator", line)
        if kind == "directive":
            take()
            if text == "%union":
                raise GrammarError(
                    "%union is not supported: semantic actions are discarded, "
                    "so value types have no meaning here",
                    line,
                )
            if text == "%start":
                k, t, l = take()
                if k != "ident":
                    raise GrammarError("%start needs a rule name", l)
                start = t
            elif text == "%token":
                while peek()[0] in ("ident", "literal"):
                    k, t, l = take()
                    token_name(k, t, l, auto=True)
            elif text in _ASSOC_DIRECTIVES:
                level += 1
                a = _ASSOC_DIRECTIVES[text]
                while peek()[0] in ("ident", "literal"):
                    k, t, l = take()
                    name = token_name(k, t, l, auto=True)
                    if name in assoc:
                        raise GrammarError(f"token {name!r} already has a binding level", l)
                    assoc[name] = (a, level)
            elif text == "%avoid_insert":
                while peek()[0] in ("ident", "literal"):
                    k, t, l = take()
                    avoid_insert.add(token_name(k, t, l, auto=False))
            elif text == "%prec":
                raise GrammarError("%prec belongs after a rule body, not here", line)
            else:
                raise GrammarError(f"unknown directive {text}", line)
        elif kind == "tag":
            raise GrammarError("<type> tags are not supported (no %union)", line)
        else:
            raise GrammarError(f"unexpected {text!r} before %%", line)

    # -- rules ---------------------------------------------------------------
    productions: list[Production] = []
    rules: dict[str, list[int]] = {}
    pending: list[tuple[str, list[str], str | None, int]] = []

    while True:
        kind, text, line = peek()
        if kind in ("eof", "sep"):
            break  # trailing user code after a second %% is ignored
        if kind != "ident":
            raise GrammarError(f"expected a rule name, got {text!r}", line)
        lhs = text
        take()
        k, t, l = take()
        if not (k == "punct" and t == ":"):
            raise GrammarError(f"expected ':' after rule name {lhs!r}", l)
        while True:  # one alternative per iteration
            body: list[str] = []
            prec: str | None = None
            while True:
                k, t, l = peek()
                if k == "ident":
                    take()
                    body.append(t)
                elif k == "literal":
                    take()
                    body.append(token_name(k, t, l, auto=True))
                elif k == "directive" and t == "%prec":
                    take()
                    k2, t2, l2 = take()
                    prec = token_name(k2, t2, l2, auto=False)
                elif k == "tag":
                    raise GrammarError("<type> tags are not supported (no %union)", l)
                else:
                    break
            pending.append((lhs, body, prec, line))
            k, t, l = take()
            if k == "punct" and t == "|":
                continue
            if k == "punct" and t == ";":
                break
            raise GrammarError(f"expected '|' or ';' in rule {lhs!r}, got {t!r}", l)

    rule_names = {lhs for lhs, _, _, _ in pending}
    if not rule_names:
        raise GrammarError("grammar has no rules")

    for lhs, body, prec, line in pending:
        if lhs in token_set:
            raise GrammarError(f"{lhs!r} is declared as a token but defined as a rule", line)
        for sym in body:
            if sym not in token_set and sym not in rule_names:
                raise GrammarError(
                    f"{sym!r} in rule {lhs!r} is neither a declared token nor a rule",
                    line,
                )
        if prec is not None:
            if prec not in token_set:
                raise GrammarError(f"%prec {prec!r} is not a declared token", line)
            if prec not in assoc:
                raise GrammarError(f"%prec {prec!r} has no declared binding level", line)
        idx = len(productions)
        productions.append(Production(idx, lhs, tuple(body), prec))
        rules.setdefault(lhs, []).append(idx)

    if start is None:
        start = pending[0][0]
    if start not in rules:
        raise GrammarError(f"%start rule {start!r} is not defined")
    # Binding levels only matter relative to each other; compress them to
    # 1..n so that an empty %left/%right line cannot leave a gap.
    used_levels = sorted({lvl for _, lvl in assoc.values()})
    rank = {lvl: i + 1 for i, lvl in enumerate(used_levels)}
    assoc = {t: (kind, rank[lvl]) for t, (kind, lvl) in assoc.items()}
    for name in avoid_insert:
        if name not in token_set:
            raise GrammarError(f"%avoid_insert {name!r} is not a declared token")

    return Grammar(
        start=start,
        productions=productions,
        rules=rules,
        token_decl_order=token_decl_order,
        literals=literals,
        assoc=assoc,
        avoid_insert=avoid_insert,
    )


# ---------------------------------------------------------------------------
# Pretty-printer.  parse_grammar(pretty(g)) reproduces g exactly.

def _emit_token(g: Grammar, name: str) -> str:
    if name in g.literals:
        return "'" + "".join(_QUOTED.get(c, c) for c in name) + "'"
    return name


def _emit_sym(g: Grammar, name: str) -> str:
    return _emit_token(g, name) if g.is_token(name) else name


def pretty(g: Grammar) -> str:
    out: list[str] = [f"%start {g.start}"]
    # One %token line fixes the declaration order of every token; the
    # binding-level lines below then re-mention tokens harmlessly.  This
    # keeps declaration order and level order independent, so any parsed
    # grammar survives a round trip.
    if g.token_decl_order:
        out.append("%token " + " ".join(_emit_token(g, t) for t in g.token_decl_order))
    by_level: dict[int, tuple[str, list[str]]] = {}
    for t in g.token_decl_order:
        if t in g.assoc:
            kind, lvl = g.assoc[t]
            by_level.setdefault(lvl, (kind, []))[1].append(t)
    for lvl in sorted(by_level):
        kind, names = by_level[lvl]
        out.append(f"%{kind} " + " ".join(_emit_token(g, t) for t in names))
    if g.avoid_insert:
        ordered = [t for t in g.token_decl_order if t in g.avoid_insert]
        out.append("%avoid_insert " + " ".join(_emit_token(g, t) for t in ordered))
    out.append("%%")
    for lhs, idxs in g.rules.items():
        alts = []
        for i in idxs:
            p = g.productions[i]
            body = " ".join(_emit_sym(g, s) for s in p.rhs)
            if p.prec is not None:
                body = (body + " " if body else "") + f"%prec {_emit_token(g, p.prec)}"
            alts.append(body)
        joined = ("\n" + " " * len(lhs) + "| ").join(a if a else "" for a in alts)
        out.append(f"{lhs}: {joined}\n{' ' * len(lhs)};")
    return "\n".join(out) + "\n"
