"""A small lex-style tokenizer driven by a rule file.

The rule file holds one rule per line: a regular expression, whitespace,
then either a token name (bare or quoted) or a lone ``;`` meaning "match
and discard".  Blank lines and lines starting with ``#`` are ignored.

Tokenizing scans left to right, always taking the longest match; ties go
to the earliest rule in the file.  Every rule is looked up by the next
input character: when the spec is built, each rule is filed, in rule
order, under the characters a match of it can start with, read off the
parsed pattern, and at each position only the rules filed under that
character run.  A pattern whose first characters that reading cannot pin
down (a flag, a negated or category class such as ``[^x]`` or ``\\d``,
``.``, a lookaround, a back-reference, a pattern that can match empty,
...) is filed under every character instead.  Skipping a rule that
cannot match changes nothing, so the longest-match and earliest-rule
semantics are the same as trying every rule everywhere.  Any stretch of
input no rule matches raises :class:`LexError` — the file is rejected as
a whole rather than guessed at.  A zero-width end-of-input token is
appended to every successful result.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple

try:
    from re import _parser as _sre  # Python 3.11+
except ImportError:  # Python 3.10; importing sre_parse warns on 3.11+
    import sre_parse as _sre

from .grammar import EOF, _IDENT_RE, _unquote


class LexError(Exception):
    def __init__(self, message: str, offset: int, line: int, col: int):
        self.offset = offset
        self.line = line
        self.col = col
        super().__init__(f"line {line} col {col}: {message}")


class LexSpecError(Exception):
    """A problem in the rule file, with its line number."""


class Token(NamedTuple):
    """A lexed token: a type plus the source span it covers.

    Tokens synthesized during error repair carry ``inserted=True`` and a
    zero-width span at the point of the error; they have a type but no
    text of their own.  Being a named tuple, a token is immutable,
    hashable and equal to a plain tuple of its fields, e.g.
    ``Token("INT", 0, 2) == ("INT", 0, 2, False)``.
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


# POSSESSIVE_REPEAT and ATOMIC_GROUP are new in Python 3.11.
_REPEATS = {_sre.MAX_REPEAT, _sre.MIN_REPEAT, getattr(_sre, "POSSESSIVE_REPEAT", None)}
_ATOMIC_GROUP = getattr(_sre, "ATOMIC_GROUP", None)
_MAX_RANGE = 256


def _first_chars(rx: re.Pattern) -> frozenset[str] | None:
    """The characters a non-empty match of ``rx`` can start with, or None
    for "any character".

    Conservative: a flag beyond the default, a scoped flag, a negated or
    category class, a class range wider than 256 characters, ``.``, an
    anchor, a lookaround, a back-reference, a pattern that can match
    empty, or anything else the walk does not know gives None.
    """
    if not isinstance(rx.pattern, str) or rx.flags != re.UNICODE:
        return None
    try:
        chars, nullable = _first_of_seq(_sre.parse(rx.pattern, rx.flags).data)
    except Exception:  # an unknown construct, or a parser internal that moved
        return None
    return None if nullable else frozenset(map(chr, chars))


def _first_of_seq(items) -> tuple[set[int], bool]:
    """First code points of a parsed sequence, and whether it can match empty."""
    first: set[int] = set()
    for op, av in items:
        chars, nullable = _first_of_item(op, av)
        first |= chars
        if not nullable:
            return first, False
    return first, True


def _first_of_item(op, av) -> tuple[set[int], bool]:
    if op is _sre.LITERAL:
        return {av}, False
    if op is _sre.IN:
        chars: set[int] = set()
        for kind, arg in av:
            if kind is _sre.LITERAL:
                chars.add(arg)
            elif kind is _sre.RANGE and arg[1] - arg[0] < _MAX_RANGE:
                chars.update(range(arg[0], arg[1] + 1))
            else:
                raise ValueError(f"no finite first set for {kind}")
        return chars, False
    if op is _sre.BRANCH:
        first: set[int] = set()
        nullable = False
        for alt in av[1]:
            chars, alt_nullable = _first_of_seq(alt)
            first |= chars
            nullable = nullable or alt_nullable
        return first, nullable
    if op is _sre.SUBPATTERN:
        _, add_flags, del_flags, sub = av
        if add_flags or del_flags:
            raise ValueError("scoped flags")
        return _first_of_seq(sub)
    if op in _REPEATS:
        low, _, sub = av
        chars, nullable = _first_of_seq(sub)
        return chars, nullable or low == 0
    if op is _ATOMIC_GROUP:
        return _first_of_seq(av)
    raise ValueError(f"no finite first set for {op}")


class LexSpec:
    def __init__(self, rules: list[tuple[re.Pattern, str | None]]):
        self.rules = rules
        # ``_at[c]`` lists, in rule order, each (pattern, token) whose match
        # can start with ``c``, plus those in ``_anywhere``, which may start
        # with any character; a character not in ``_at`` gets ``_anywhere``
        # alone.
        self._anywhere: list[tuple[re.Pattern, str | None]] = []
        self._at: dict[str, list[tuple[re.Pattern, str | None]]] = {}
        for entry in rules:
            chars = _first_chars(entry[0])
            if chars is None:
                self._anywhere.append(entry)
                for entries in self._at.values():
                    entries.append(entry)
            else:
                for c in chars:
                    self._at.setdefault(c, list(self._anywhere)).append(entry)

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
            elif _IDENT_RE.fullmatch(name):
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
        new = tuple.__new__  # Token(...) without NamedTuple's __new__ call
        at = self._at
        anywhere = self._anywhere
        pos = 0
        n = len(src)
        while pos < n:
            # Only a strictly longer match replaces the best so far, so a
            # tie stays with the earliest rule.
            best_end = pos
            best_name: str | None = None
            for rx, name in at.get(src[pos], anywhere):
                m = rx.match(src, pos)
                if m is not None and m.end() > best_end:
                    best_end = m.end()
                    best_name = name
            if best_end == pos:
                line, col = LineIndex(src).line_col(pos)
                raise LexError(f"no rule matches {src[pos:pos+10]!r}", pos, line, col)
            if best_name is not None:
                toks.append(new(Token, (best_name, pos, best_end, False)))
            pos = best_end
        toks.append(Token(EOF, n, n))
        return toks
