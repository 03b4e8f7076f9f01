"""Call tracing by rebinding names, from outside the program.

A ``Tracer`` replaces module or class attributes with wrappers that record
calls, inclusive time, self time (inclusive minus the time of traced calls
made inside it) and the exceptions that escaped.  ``restore()`` puts every
original object back.  Nothing under ``src/`` knows about it.
"""

from __future__ import annotations

import time
from collections import Counter


class Stat:
    """Aggregates of one span name since the last ``Tracer.reset``."""

    __slots__ = ("calls", "total", "self_time", "amount", "raised", "samples")

    def __init__(self, keep: bool = False):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.amount = 0
        self.raised = Counter()
        self.samples = [] if keep else None   # (seconds, amount) per call

    def clear(self) -> None:
        self.calls = self.amount = 0
        self.total = self.self_time = 0.0
        self.raised.clear()
        if self.samples is not None:
            self.samples.clear()


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []     # child time of each open span
        self.saved: list[tuple] = []      # (owner, attr, original) in wrap order

    def stat(self, name: str) -> Stat:
        """The named aggregates; empty if nothing was wrapped under it."""
        return self.stats.get(name) or Stat()

    def reset(self) -> None:
        for st in self.stats.values():
            st.clear()

    def wrap(self, owner, attr: str, name: str, *, timed: bool = True,
             keep: bool = False, measure=None) -> None:
        """Rebind ``owner.attr`` (a module or class attribute) to a wrapper
        that records under ``name``.  Several attributes may share a name.

        ``timed=False`` only counts calls, for functions called hundreds of
        thousands of times where two clock reads per call would dominate.
        ``keep`` stores one sample per call; ``measure(result)`` is added to
        the stat's ``amount``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        st = self.stats.setdefault(name, Stat(keep))
        stack = self._stack
        clock = time.perf_counter

        if timed:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                amount = None
                try:
                    result = fn(*args, **kwargs)
                    if measure is not None:
                        amount = measure(result)
                        st.amount += amount
                    return result
                except BaseException as exc:
                    st.raised[type(exc).__name__] += 1
                    raise
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    st.calls += 1
                    st.total += dt
                    st.self_time += dt - child
                    if st.samples is not None:
                        st.samples.append((dt, amount))
                    if stack:
                        stack[-1] += dt
        else:
            def wrapper(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        self.saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, most recent first."""
        while self.saved:
            owner, attr, raw = self.saved.pop()
            setattr(owner, attr, raw)
