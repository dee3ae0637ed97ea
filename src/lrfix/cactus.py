"""Immutable parent-pointer stacks.

Many alternative stacks that share long common prefixes can be kept
without copying as a *cactus*: each node holds one value and a pointer to
its parent, and pushing returns a fresh node while the old stack remains
valid.  Many stacks therefore share structure, and push/pop are O(1).
The repair search keeps its stacks as interned ints instead (see
``cpctplus._Search``); nothing in the library uses this module, and the
benchmark's tracer still counts ``Cactus.push`` calls.

Nodes cache their depth and a running content hash so that two stacks
built along different paths compare equal (and hash equal) whenever they
hold the same values in the same order.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional


class Cactus:
    """One node of an immutable stack; the node *is* the stack top."""

    __slots__ = ("value", "parent", "depth", "_hash")

    def __init__(self, value: Any = None, parent: Optional["Cactus"] = None):
        self.value = value
        self.parent = parent
        if parent is None:
            # The root is an empty sentinel; its value is ignored.
            self.depth = 0
            self._hash = hash(())
        else:
            self.depth = parent.depth + 1
            self._hash = hash((parent._hash, value))

    def push(self, value: Any) -> "Cactus":
        return Cactus(value, self)

    def pop(self) -> "Cactus":
        if self.parent is None:
            raise IndexError("pop from empty stack")
        return self.parent

    def peek(self) -> Any:
        if self.parent is None:
            raise IndexError("peek at empty stack")
        return self.value

    def drop(self, n: int) -> "Cactus":
        """Pop ``n`` values at once."""
        node = self
        for _ in range(n):
            node = node.pop()
        return node

    def __len__(self) -> int:
        return self.depth

    def __iter__(self) -> Iterator[Any]:
        """Yield values bottom-first, i.e. in push order."""
        out = []
        node = self
        while node.parent is not None:
            out.append(node.value)
            node = node.parent
        return iter(reversed(out))

    def as_list(self) -> list:
        return list(self)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Cactus):
            return NotImplemented
        if self.depth != other.depth or self._hash != other._hash:
            return False
        a, b = self, other
        while a is not b:
            if a.parent is None:  # both roots reached together (depths equal)
                return True
            if a.value != b.value:
                return False
            a, b = a.parent, b.parent
        return True

    def __repr__(self) -> str:
        return f"Cactus({self.as_list()!r})"
