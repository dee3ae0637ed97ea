import re
import string
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrfix import LexError, LexSpec, LexSpecError, LineIndex
from lrfix.lexer import Token, _first_chars

from conftest import lexspec_of


def types(spec, text):
    return [t.type for t in spec.lex(text)]


def test_calc_lexing():
    spec = lexspec_of("calc")
    assert types(spec, "12 + (3 * 4)") == ["INT", "+", "(", "INT", "*", "INT", ")", "$"]


def test_lexemes_and_offsets():
    spec = lexspec_of("calc")
    src = "10 + 2"
    toks = spec.lex(src)
    assert [t.lexeme(src) for t in toks] == ["10", "+", "2", ""]
    assert (toks[0].start, toks[0].end) == (0, 2)
    eof = toks[-1]
    assert eof.type == "$" and eof.start == eof.end == len(src)


def test_longest_match_wins():
    spec = LexSpec.parse("a 'A'\naa 'AA'\n")
    assert types(spec, "aaa") == ["AA", "A", "$"]


def test_earliest_rule_breaks_ties():
    # 'class' is also a valid ID; the keyword rule is listed first
    spec = lexspec_of("mini_java")
    assert types(spec, "class classy") == ["class", "ID", "$"]


def test_skip_rules_drop_text():
    spec = LexSpec.parse("[0-9]+ 'N'\n[ \\t]+ ;\n# comment line\n")
    assert types(spec, " 1  2 ") == ["N", "N", "$"]


def test_lex_error_position():
    spec = lexspec_of("calc")
    with pytest.raises(LexError) as e:
        spec.lex("1 +\n@ 2")
    assert (e.value.line, e.value.col) == (2, 1)
    assert e.value.offset == 4


@pytest.mark.parametrize(
    "spec_text",
    [
        "[0-9+ 'N'",        # broken regex
        "x* 'X'",           # may match empty
        "a '$'",            # reserved name
        "justapattern",     # no name field
        "[0-9]+ 9INT",      # bad token name
        "# a comment\n",    # no rules
    ],
)
def test_bad_specs_rejected(spec_text):
    with pytest.raises(LexSpecError):
        LexSpec.parse(spec_text)


def test_inserted_token_has_no_lexeme():
    t = Token("INT", 3, 3, inserted=True)
    assert t.lexeme("0123456") == ""


def test_token_is_an_immutable_value():
    t = Token("INT", 0, 2)
    with pytest.raises(AttributeError):
        t.start = 1
    assert t == Token("INT", 0, 2) == ("INT", 0, 2, False)
    assert hash(t) == hash(Token("INT", 0, 2))
    assert len({t, Token("INT", 0, 2), Token("INT", 0, 2, inserted=True)}) == 2


def test_line_index_basics():
    li = LineIndex("ab\ncd\n\nx")
    assert li.line_col(0) == (1, 1)
    assert li.line_col(2) == (1, 3)   # the newline itself
    assert li.line_col(3) == (2, 1)
    assert li.line_col(6) == (3, 1)   # empty line
    assert li.line_col(7) == (4, 1)


@given(st.text(alphabet="a\n", max_size=80), st.data())
def test_line_index_matches_naive_count(text, data):
    li = LineIndex(text)
    offset = data.draw(st.integers(0, max(0, len(text))))
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    assert li.line_col(offset) == (line, col)


def reference_lex(rules, src):
    """The lexer without first-character dispatch: every rule tried at
    every position, longest match wins, ties go to the earliest rule."""
    toks = []
    pos = 0
    while pos < len(src):
        best_len = -1
        best_name = None
        for rx, name in rules:
            m = rx.match(src, pos)
            if m is not None and m.end() - pos > best_len:
                best_len = m.end() - pos
                best_name = name
        if best_len <= 0:
            line, col = LineIndex(src).line_col(pos)
            raise LexError(f"no rule matches {src[pos:pos+10]!r}", pos, line, col)
        if best_name is not None:
            toks.append(Token(best_name, pos, pos + best_len))
        pos += best_len
    toks.append(Token("$", len(src), len(src)))
    return toks


def assert_lexes_like_reference(spec, src):
    def outcome(lex):
        try:
            return [(t.type, t.start, t.end) for t in lex(src)]
        except LexError as e:
            return ("error", e.offset, e.line, e.col, str(e))

    assert outcome(spec.lex) == outcome(lambda s: reference_lex(spec.rules, s))


# Literals that are prefixes of each other, keywords an ID regex also
# matches, a literal listed twice, a literal skip rule and escaped
# literals, each with some text it matches.  Drawn in any order, so the
# ID regex sometimes precedes a keyword and takes the tie.  The regexes
# after the skip rule exercise the first-character walk: an optional
# prefix, a group alternation and a nullable repeat before a literal,
# then patterns that must fall back to being tried at every character.
RULE_POOL = [
    (r"\+ '+'", ["+"]),
    (r"\+= '+='", ["+="]),
    (r"\+\+ '++'", ["++"]),
    (r"\+ 'PLUS'", ["+"]),
    (r"= '='", ["="]),
    (r"== '=='", ["=="]),
    (r"\. ;", ["."]),
    (r"\.\. 'DOTS'", [".."]),
    (r"\| '|'", ["|"]),
    (r"\|\| '||'", ["||"]),
    (r"if 'if'", ["if"]),
    (r"in 'in'", ["in"]),
    (r"int 'int'", ["int"]),
    (r"i 'I'", ["i"]),
    (r"[a-z]+ 'ID'", ["if", "int", "i", "fab"]),
    (r"[0-9]+ 'NUM'", ["0", "19"]),
    (r"[+=]+ 'OPS'", ["+", "=+", "++="]),
    (r"[ \n]+ ;", [" ", "\n"]),
    (r"-?[0-9]+ 'SNUM'", ["-7", "42"]),
    (r"(?:ab|c)+ 'ABC'", ["ab", "c", "cab"]),
    (r"(x|y)*z 'XYZ'", ["z", "xz", "yxz"]),
    (r"[^ \n]+ 'WORD'", ["w", "@q"]),
    (r"\d+ 'DIGITS'", ["7"]),
    (r"(?i:if) 'IF'", ["IF", "iF"]),
    (r"(?=a)[a-z]+ 'AWORD'", ["ab"]),
    (r". 'ANY'", ["%"]),
]


@given(st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=10), st.data())
def test_first_character_dispatch_lexes_like_trying_every_rule(rules, data):
    spec = LexSpec.parse("\n".join(line for line, _ in rules))
    # Runs of text the drawn rules match, so that ties between
    # equal-length matches come up often; sometimes an '@', which no
    # rule matches, somewhere in them.
    pieces = data.draw(st.lists(st.sampled_from([x for _, xs in rules for x in xs]), max_size=12))
    if data.draw(st.booleans()):
        pieces.insert(data.draw(st.integers(0, len(pieces))), "@")
    assert_lexes_like_reference(spec, "".join(pieces))


def test_clike_regexes_have_finite_first_characters():
    # A silent fallback to trying a rule at every character would show here.
    spec = lexspec_of("clike")
    regexes = {
        r"[A-Za-z_][A-Za-z0-9_]*": string.ascii_letters + "_",
        r"[0-9]+": string.digits,
        r'"[^"\\\n]*"': '"',
        r"//[^\n]*": "/",
        r"/\*([^*]|\*+[^*/])*\*+/": "/",
        r"[ \t\n]+": " \t\n",
    }
    assert len(spec.rules) == 47
    for rx, _ in spec.rules:
        # Every other rule is a literal, possibly escaped: its first character.
        first = regexes.get(rx.pattern, rx.pattern.lstrip("\\")[:1])
        assert _first_chars(rx) == frozenset(first), rx.pattern
    assert spec._anywhere == []


@pytest.mark.parametrize(
    "pattern, first",
    [
        (r"-?[0-9]+", "-" + string.digits),
        (r"(?:ab|c)+", "ac"),
        (r"(x|y)*z", "xyz"),
        (r"(?:ab)|c*d", "acd"),
        pytest.param(
            r"(?>ab)|c*+d", "acd",
            marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="new in Python 3.11"),
        ),
        ("[\x00-\xff]", "".join(map(chr, range(256)))),
        ("[^ \n]+", None),                   # negated class
        (r"\d+", None),                      # category
        (r"(?i:if)", None),                  # scoped flag
        (r"(?=a)[a-z]+", None),              # lookahead
        (r".", None),                        # any character
        (r"(a)\1", "a"),                     # back-reference after the first character
        (r"(a)?\1b", None),                  # back-reference where a match can start
        (r"^a", None),                       # anchor
        (r"a*", None),                       # matches empty
        ("[\u0100-\u0300]", None),           # range wider than 256 characters
    ],
)
def test_first_characters_or_fallback(pattern, first):
    assert _first_chars(re.compile(pattern)) == (None if first is None else frozenset(first))
    assert _first_chars(re.compile(pattern, re.IGNORECASE)) is None


@pytest.mark.parametrize(
    "rx",
    [
        re.compile(r"\n"),            # an escaped letter (here a newline)
        re.compile(r"a\b"),           # an anchor
        re.compile(r"\_"),            # escaped underscore: kept a regex, conservatively
        re.compile("if", re.IGNORECASE),
        re.compile(r"a{2}"),
        re.compile(r"a]"),
        re.compile(r"a*"),            # matches empty: tried everywhere, never wins
    ],
)
def test_patterns_with_regex_syntax_lex_like_trying_every_rule(rx):
    spec = LexSpec([(rx, "X"), (re.compile("[ \n]+"), None)])
    for src in ["\n", "a", "IF if", "aa", "a]", "_"]:
        assert_lexes_like_reference(spec, src)
