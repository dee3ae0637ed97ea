"""Seeded generator of clean programs in the C-like language of clike.y.

Every program is built from the grammar's own productions, so it parses
without error; ``Gen.tokens`` counts the tokens emitted, which the
benchmark compares with what the lexer finds to catch rendering slips
(two operators run together into a third, say).
"""

from __future__ import annotations

import random

VARS = ["i", "j", "k", "n", "len", "buf", "count", "node", "next", "head",
        "tmp", "sum", "x", "y", "p", "q", "value", "result", "size", "data",
        "key", "lo", "hi", "mid", "acc", "cur", "prev", "flag"]
FUNCS = ["init", "push", "pop", "lookup", "hash", "insert", "update",
         "release", "parse", "emit", "scan", "visit", "resize", "compare",
         "swap", "reduce", "step", "check"]
STRUCTS = ["node", "list", "table", "entry", "point", "buffer", "state"]
FIELDS = ["next", "prev", "key", "value", "len", "cap", "x", "y", "data",
          "count", "flags", "left", "right"]
STRINGS = ['"ok"', '"error: %d"', '"%s=%d"', '""', '"done"', '"bad input"']
SCALARS = ["int", "char"]

BINARY = ["+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||"]
UNARY = ["-", "!", "*", "&"]
ASSIGN = ["=", "+=", "-="]

# Tokens rendered without a space before / after them.
_TIGHT_BEFORE = {";", ",", ")", "]", ".", "->", "++", "--"}
_TIGHT_AFTER = {"(", "[", ".", "->"}


class Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.out: list[str] = []
        self.line: list[str] = []
        self.indent = 0
        self.tokens = 0
        self.tight_next = False

    # -- rendering --------------------------------------------------------------

    def tok(self, text: str, tight: bool = False) -> None:
        """Emit one token; ``tight`` glues it to the previous one."""
        if self.line and not (tight or self.tight_next or text in _TIGHT_BEFORE):
            self.line.append(" ")
        self.line.append(text)
        self.tokens += 1
        self.tight_next = text in _TIGHT_AFTER

    def nl(self) -> None:
        if self.line:
            self.out.append("    " * self.indent + "".join(self.line))
            self.line = []
        self.tight_next = False

    def comment(self) -> None:
        self.nl()
        self.out.append("    " * self.indent + "// " + " ".join(
            self.rng.choice(VARS) for _ in range(self.rng.randint(2, 6))))

    # -- expressions --------------------------------------------------------------

    def primary(self) -> None:
        r = self.rng.random()
        if r < 0.55:
            self.tok(self.rng.choice(VARS))
        elif r < 0.85:
            self.tok(str(self.rng.choice([0, 1, 2, 8, 10, 16, 64, 255, 1024])))
        else:
            self.tok(self.rng.choice(STRINGS))

    def postfix(self, depth: int) -> None:
        self.tok(self.rng.choice(VARS))
        for _ in range(self.rng.choice([0, 0, 0, 1, 1, 2])):
            r = self.rng.random()
            if r < 0.3:
                self.tok("[", tight=True)
                self.expr(depth + 1)
                self.tok("]")
            elif r < 0.6:
                self.tok(self.rng.choice([".", "->"]))
                self.tok(self.rng.choice(FIELDS))
            elif r < 0.8:
                self.call_args(depth)
            else:
                self.tok(self.rng.choice(["++", "--"]))
                return

    def call_args(self, depth: int) -> None:
        self.tok("(", tight=True)
        for a in range(self.rng.choice([0, 1, 1, 2, 2, 3])):
            if a:
                self.tok(",")
            self.expr(depth + 1)
        self.tok(")")

    def call(self, depth: int) -> None:
        self.tok(self.rng.choice(FUNCS))
        self.call_args(depth)

    def expr(self, depth: int = 0) -> None:
        r = self.rng.random()
        if depth >= 3 or r < 0.35:
            self.primary()
        elif r < 0.5:
            self.postfix(depth)
        elif r < 0.6:
            self.call(depth)
        elif r < 0.68:
            op = self.rng.choice(UNARY)
            self.tok(op)
            # A unary operator hugs a plain operand; before another
            # operator it keeps its space so that "- -x" is not "--x".
            self.tight_next = True
            if self.rng.random() < 0.7:
                self.primary()
            else:
                self.tok("(")
                self.expr(depth + 1)
                self.tok(")")
        elif r < 0.78:
            self.tok("(")
            self.expr(depth + 1)
            self.tok(")")
        else:
            self.expr(depth + 1)
            self.tok(self.rng.choice(BINARY))
            self.expr(depth + 1)

    # -- statements ---------------------------------------------------------------

    def type_(self) -> None:
        if self.rng.random() < 0.2:
            self.tok("struct")
            self.tok(self.rng.choice(STRUCTS))
            self.tok("*")
        else:
            self.tok(self.rng.choice(SCALARS))
            if self.rng.random() < 0.2:
                self.tok("*")

    def var_decl(self) -> None:
        self.type_()
        self.tok(self.rng.choice(VARS))
        r = self.rng.random()
        if r < 0.6:
            self.tok("=")
            self.expr()
        elif r < 0.75:
            self.tok("[", tight=True)
            self.tok(str(self.rng.choice([4, 8, 16, 32, 256])))
            self.tok("]")
        self.tok(";")
        self.nl()

    def block(self, depth: int, n_stmts: int) -> None:
        self.tok("{")
        self.nl()
        self.indent += 1
        for _ in range(n_stmts):
            self.stmt(depth + 1)
        self.indent -= 1
        self.tok("}")
        self.nl()

    def body(self, depth: int) -> None:
        """A loop or branch body: usually a block, sometimes one statement."""
        if depth >= 3 or self.rng.random() < 0.25:
            self.nl()
            self.indent += 1
            if self.rng.random() < 0.3:
                self.stmt(depth + 2)  # unbraced nesting: real dangling elses
            else:
                self.simple_stmt()
            self.indent -= 1
        else:
            self.block(depth, self.rng.randint(1, 4))

    def simple_stmt(self) -> None:
        r = self.rng.random()
        if r < 0.45:
            self.postfix(1)
            self.tok(self.rng.choice(ASSIGN))
            self.expr()
        elif r < 0.75:
            self.call(1)
        elif r < 0.85:
            self.tok(self.rng.choice(VARS))
            self.tok(self.rng.choice(["++", "--"]))
        elif r < 0.95:
            self.tok("return")
            self.expr()
        else:
            self.tok(self.rng.choice(["break", "continue"]))
        self.tok(";")
        self.nl()

    def stmt(self, depth: int) -> None:
        r = self.rng.random()
        if depth >= 4 or r < 0.4:
            self.simple_stmt()
        elif r < 0.52:
            self.var_decl()
        elif r < 0.7:
            self.tok("if")
            self.tok("(")
            self.expr()
            self.tok(")")
            self.body(depth)
            if self.rng.random() < 0.45:
                self.tok("else")
                if self.rng.random() < 0.3:
                    self.stmt(depth + 1)  # "else if" chains and friends
                else:
                    self.body(depth)
        elif r < 0.8:
            self.tok("while")
            self.tok("(")
            self.expr()
            self.tok(")")
            self.body(depth)
        elif r < 0.92:
            v = self.rng.choice(VARS)
            self.tok("for")
            self.tok("(")
            self.tok(v)
            self.tok("=")
            self.tok("0")
            self.tok(";")
            self.tok(v)
            self.tok("<")
            self.expr(2)
            self.tok(";")
            self.tok(v)
            self.tok("++")
            self.tok(")")
            self.body(depth)
        elif r < 0.97:
            self.block(depth, self.rng.randint(1, 3))
        else:
            if self.rng.random() < 0.5:
                self.comment()
            self.tok(";")
            self.nl()

    # -- top level ----------------------------------------------------------------

    def struct_decl(self) -> None:
        self.tok("struct")
        self.tok(self.rng.choice(STRUCTS))
        self.tok("{")
        self.nl()
        self.indent += 1
        for f in self.rng.sample(FIELDS, self.rng.randint(1, 4)):
            self.type_()
            self.tok(f)
            if self.rng.random() < 0.2:
                self.tok("[", tight=True)
                self.tok(str(self.rng.choice([4, 16, 64])))
                self.tok("]")
            self.tok(";")
            self.nl()
        self.indent -= 1
        self.tok("}")
        self.tok(";")
        self.nl()

    def function(self, budget: int) -> None:
        if self.rng.random() < 0.3:
            self.tok("void")
        else:
            self.type_()
        self.tok(self.rng.choice(FUNCS))
        self.tok("(", tight=True)
        for a in range(self.rng.randint(0, 3)):
            if a:
                self.tok(",")
            self.type_()
            self.tok(self.rng.choice(VARS))
        self.tok(")")
        self.tok("{")
        self.nl()
        self.indent += 1
        stop = self.tokens + budget
        while self.tokens < stop:
            self.stmt(1)
        self.indent -= 1
        self.tok("}")
        self.nl()
        self.out.append("")


# Functions are added until a program reaches its goal size, and the last
# one overshoots the goal by about this many tokens on average.
_OVERSHOOT = 50


def program(rng: random.Random, target_tokens: int) -> tuple[str, int]:
    """One clean program of ``target_tokens`` tokens on average (±20%).

    Returns the source text and the number of tokens in it.
    """
    g = Gen(rng)
    goal = int(target_tokens * rng.uniform(0.8, 1.2)) - _OVERSHOOT
    for _ in range(rng.randint(0, 2)):
        g.struct_decl()
    for _ in range(rng.randint(0, 2)):
        g.var_decl()
    g.out.append("")
    while g.tokens < goal:
        if rng.random() < 0.1:
            g.comment()
            g.nl()
        g.function(min(goal - g.tokens, rng.randint(40, 160)))
    return "\n".join(g.out) + "\n", g.tokens
