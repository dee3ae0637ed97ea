"""A small lex-style tokenizer driven by a rule file.

The rule file holds one rule per line: a regular expression, whitespace,
then either a token name (bare or quoted) or a lone ``;`` meaning "match
and discard".  Blank lines and lines starting with ``#`` are ignored.

Tokenizing scans left to right, always taking the longest match; ties go
to the earliest rule in the file.  Rules whose pattern is a plain literal
(no regex metacharacter, and no backslash before a letter, digit or
underscore) are matched by looking the next input character up in a
table, and only the other rules run as regular expressions; the
longest-match and earliest-rule semantics are the same either way.  Any
stretch of input no rule matches raises :class:`LexError` — the file is
rejected as a whole rather than guessed at.  A zero-width end-of-input
token is appended to every successful result.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .grammar import EOF, _unquote


class LexError(Exception):
    def __init__(self, message: str, offset: int, line: int, col: int):
        self.offset = offset
        self.line = line
        self.col = col
        super().__init__(f"line {line} col {col}: {message}")


class LexSpecError(Exception):
    """A problem in the rule file, with its line number."""


@dataclass(frozen=True)
class Token:
    """A lexed token: a type plus the source span it covers.

    Tokens synthesized during error repair carry ``inserted=True`` and a
    zero-width span at the point of the error; they have a type but no
    text of their own.
    """

    type: str
    start: int
    end: int
    inserted: bool = False

    def lexeme(self, src: str) -> str:
        return "" if self.inserted else src[self.start : self.end]


class LineIndex:
    """Offset -> 1-based (line, col) lookups over one source text."""

    def __init__(self, src: str):
        self._starts = [0] + [m.end() for m in re.finditer(r"\n", src)]

    def line_col(self, offset: int) -> tuple[int, int]:
        i = bisect_right(self._starts, offset) - 1
        return i + 1, offset - self._starts[i] + 1


_NAME_RE = re.compile(r"[A-Za-z_.][A-Za-z_0-9.]*$")
# A plain literal: no regex metacharacter, and every backslash escapes a
# character that is not a letter, digit or underscore.
_LITERAL_RE = re.compile(r"(?:[^.^$*+?{}\[\]|()\\]|\\\W)+")


def _literal_of(rx: re.Pattern) -> str | None:
    """The string ``rx`` matches if it is a plain literal, else None.

    Conservative: a pattern with a flag beyond the default, a
    metacharacter, or an escaped letter, digit or underscore (a class,
    an anchor or a back-reference) stays a regex.
    """
    if not isinstance(rx.pattern, str) or rx.flags != re.UNICODE:
        return None
    if not _LITERAL_RE.fullmatch(rx.pattern):
        return None
    return re.sub(r"\\(.)", r"\1", rx.pattern, flags=re.DOTALL)


class LexSpec:
    def __init__(self, rules: list[tuple[re.Pattern, str | None]]):
        self.rules = rules
        # Literal rules by first character, longest first; each entry is
        # (literal, length, rule index, token).  A literal repeated by a
        # later rule can never win a tie, so only its first rule is kept.
        self._literals: dict[str, list[tuple[str, int, int, str | None]]] = {}
        self._regexes: list[tuple[re.Pattern, int, str | None]] = []
        seen: set[str] = set()
        for i, (rx, name) in enumerate(rules):
            lit = _literal_of(rx)
            if lit is None:
                self._regexes.append((rx, i, name))
            elif lit not in seen:
                seen.add(lit)
                self._literals.setdefault(lit[0], []).append((lit, len(lit), i, name))
        for entries in self._literals.values():
            entries.sort(key=lambda e: -e[1])

    @classmethod
    def parse(cls, text: str) -> "LexSpec":
        rules: list[tuple[re.Pattern, str | None]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.rsplit(None, 1)
            if len(parts) != 2:
                raise LexSpecError(f"line {lineno}: expected 'pattern NAME' or 'pattern ;'")
            pattern, name = parts
            try:
                rx = re.compile(pattern)
            except re.error as e:
                raise LexSpecError(f"line {lineno}: bad pattern: {e}") from None
            if rx.match(""):
                raise LexSpecError(
                    f"line {lineno}: pattern {pattern!r} can match the empty "
                    "string, which would stall the tokenizer"
                )
            if name == ";":
                token: str | None = None
            elif name.startswith("'") and name.endswith("'") and len(name) >= 3:
                token = _unquote(name)
            elif _NAME_RE.match(name):
                token = name
            else:
                raise LexSpecError(f"line {lineno}: bad token name {name!r}")
            if token == EOF:
                raise LexSpecError(f"line {lineno}: token name {EOF!r} is reserved")
            rules.append((rx, token))
        if not rules:
            raise LexSpecError("no rules in lexer file")
        return cls(rules)

    def token_names(self) -> list[str]:
        seen: list[str] = []
        for _, name in self.rules:
            if name is not None and name not in seen:
                seen.append(name)
        return seen

    def lex(self, src: str) -> list[Token]:
        toks: list[Token] = []
        literals = self._literals
        regexes = self._regexes
        no_literals: list = []
        pos = 0
        n = len(src)
        while pos < n:
            best_len = 0
            best_rule = len(self.rules)
            best_name: str | None = None
            for lit, length, i, name in literals.get(src[pos], no_literals):
                if src.startswith(lit, pos):
                    best_len, best_rule, best_name = length, i, name
                    break
            for rx, i, name in regexes:
                m = rx.match(src, pos)
                if m is not None:
                    length = m.end() - pos
                    if length > best_len or (length == best_len and i < best_rule):
                        best_len, best_rule, best_name = length, i, name
            if best_len == 0:
                line, col = LineIndex(src).line_col(pos)
                raise LexError(f"no rule matches {src[pos:pos+10]!r}", pos, line, col)
            if best_name is not None:
                toks.append(Token(best_name, pos, pos + best_len))
            pos += best_len
        toks.append(Token(EOF, n, n))
        return toks
