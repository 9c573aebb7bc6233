"""Nested spans around patched callables, aggregated as they close.

A span opens when a wrapped function is called and closes when it returns
or raises. Spans nest along the call stack. Each closing span adds to the
statistics of its (name, parent name) key: calls, total time, and self time,
which is its duration minus the time its child spans cover. Summing over
keys therefore never counts a nanosecond twice.

Hooks run outside every span: ``before`` just ahead of the call, ``after``
just behind it. Their time is charged neither to the wrapped span nor to
its parent's self time, but to ``hook_s``; the traced run's overhead over
the untraced run still shows it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.hook_s = 0.0
        self.missing: list[str] = []
        self._names = [ROOT]
        self._child = [0.0]
        self._patches: list[tuple] = []

    # --- spans ---------------------------------------------------------------

    def _close(self, name: str, parent: str, dt: float):
        self._names.pop()
        inner = self._child.pop()
        st = self.stats.get((name, parent))
        if st is None:
            st = self.stats[(name, parent)] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - inner
        self._child[-1] += dt

    def _hook_time(self, dt: float):
        self._child[-1] += dt
        self.hook_s += dt

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` inside a span. ``name`` is a string, or a callable that
        picks the span name from ``(args, kwargs)``. ``before(args, kwargs)``
        returns a token that ``after(args, kwargs, result, token)`` gets."""
        names, child = self._names, self._child

        def traced(*args, **kwargs):
            token = None
            if before is not None:
                h0 = perf_counter()
                token = before(args, kwargs)
                self._hook_time(perf_counter() - h0)
            span = name if isinstance(name, str) else name(args, kwargs)
            parent = names[-1]
            names.append(span)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, parent, perf_counter() - t0)
            if after is not None:
                h0 = perf_counter()
                after(args, kwargs, result, token)
                self._hook_time(perf_counter() - h0)
            return result

        return traced

    def take(self) -> "Summary":
        """Return and reset the statistics gathered since the last take."""
        out = Summary(dict(self.stats), dict(self.counts), self.hook_s)
        self.stats.clear()
        self.counts.clear()
        self.hook_s = 0.0
        return out

    # --- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name, before=None, after=None):
        """Replace ``owner.attr`` (a module or class attribute) by its traced
        form. A name that does not exist is recorded in ``missing`` and left
        alone, so its span reports 0 calls."""
        if not hasattr(owner, attr):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        own = vars(owner)
        saved = (owner, attr, attr in own, own.get(attr))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, before, after))
        self._patches.append(saved)

    def unpatch(self):
        """Restore every patched attribute, the last patched first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Summary:
    """One ``take()``'s statistics. Lookups sum over the keys whose name
    matches and, when ``parent`` is given, whose parent matches."""

    def __init__(self, stats: dict, counts: dict, hook_s: float):
        self.stats = stats
        self.counts = counts
        self.hook_s = hook_s

    def _sum(self, idx: int, name: str, parent: str | None):
        return sum(v[idx] for (n, p), v in self.stats.items() if n == name and parent in (None, p))

    def calls(self, name: str, parent: str | None = None) -> int:
        return self._sum(0, name, parent)

    def total(self, name: str, parent: str | None = None) -> float:
        return self._sum(1, name, parent)

    def self_s(self, name: str, parent: str | None = None) -> float:
        return self._sum(2, name, parent)

    def count(self, key: str) -> float:
        return self.counts.get(key, 0.0)
