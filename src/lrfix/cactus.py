"""A stub kept only for ``perfbench/tracer.py``.

The repair search keeps its stacks as interned ints (see
``cpctplus._Search``) and nothing calls ``Cactus.push``.  The tracer
still reads, replaces and restores that attribute to fill its
``cactus.pushes`` layer, which therefore reads 0.  Item 24 of the
roadmap, a PR that may change the benchmark, deletes this stub together
with that patch.
"""


class Cactus:
    def push(self, value):
        raise NotImplementedError("nothing in lrfix builds Cactus stacks")
