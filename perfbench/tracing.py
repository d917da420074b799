"""Spans recorded from outside the program, and the layer table.

The traced run wraps public functions of each ``repro`` layer — at the
class level (``patch(ReorderBuffer, "push", ...)``) or where a module
looks a function up (``patch(repro.stream.engine, "project_savings",
...)``) — so the program itself is never edited and never switches on
its own ``--obs`` spans.  Every span keeps its name, start, end,
parent and thread; spans stay in memory and are turned into a layer
table when the run ends.

A layer's self time is its span's duration minus its child spans'
durations.  Summed over every span under a root, plus the root's own
self time (the ``unattributed`` row), the self times add up to the
root's wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: (span id, parent id or 0, name, start, end, thread id)
Span = Tuple[int, int, str, float, float, int]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: Cleared by :meth:`paused`: patched calls then record nothing.
        self.enabled = True

    # -- recording ---------------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> Tuple[int, int, List[int]]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, stack

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span(name):`` records one span."""
        return _SpanContext(self, name)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``before(args)`` runs inside the span before the call and
        ``after(args, result)`` after it returns, for counters read
        where the work happens.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent, stack = tracer._enter()
            t0 = time.perf_counter()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, t0, t1, threading.get_ident())
                )

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block (a correctness check) without recording it."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def iterate(self, items: Iterable, name: str) -> Iterator:
        """Yield from ``items``, one span around each ``next()``."""
        it = iter(items)
        while True:
            with self.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.sid, self.parent, self.stack = self.tracer._enter()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.t0, t1,
             threading.get_ident())
        )


# -- the layer table ----------------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {sid: t1 - t0 for sid, _, _, t0, t1, _ in spans}
    for _, parent, _, t0, t1, _ in spans:
        if parent in own:
            own[parent] -= t1 - t0
    return own


def busy_times(
    spans: List[Span], *, skip: Optional[str] = None
) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """(outermost durations, all durations) per span name.

    A span nested in a span of its own name counts among the calls but
    not in the busy time.  Spans under a span named ``skip`` count in
    neither.
    """
    by_id = {span[0]: span for span in spans}
    busy: Dict[str, List[float]] = defaultdict(list)
    calls: Dict[str, List[float]] = defaultdict(list)
    for _, parent, name, t0, t1, _ in spans:
        outermost = True
        while parent:
            above = by_id[parent]
            if above[2] == skip:
                break
            outermost = outermost and above[2] != name
            parent = above[1]
        else:
            calls[name].append(t1 - t0)
            if outermost:
                busy[name].append(t1 - t0)
    return busy, calls


def layer_rows(
    spans: List[Span], root: str
) -> Tuple[float, Dict[str, Tuple[float, float, int]], float]:
    """(root wall, {layer: (self s, inclusive s, calls)}, unattributed s).

    Covers every span that descends from a span named ``root``.
    Inclusive time counts only the outermost span of a name on a path,
    so a recursive layer is not counted twice.
    """
    own = self_times(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    wall = unattributed = 0.0
    rows: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for span in spans:
        if span[2] != root:
            continue
        wall += span[4] - span[3]
        unattributed += own[span[0]]
        todo = [(child, frozenset()) for child in children[span[0]]]
        while todo:
            (sid, _, name, t0, t1, _), open_names = todo.pop()
            row = rows[name]
            row[0] += own[sid]
            row[2] += 1
            if name not in open_names:
                row[1] += t1 - t0
            inner = open_names | {name}
            todo.extend((child, inner) for child in children[sid])
    return wall, {k: tuple(v) for k, v in rows.items()}, unattributed


def render_table(
    title: str, wall: float, rows: Dict[str, tuple], unattributed: float
) -> str:
    """Layer rows by self time; they plus ``unattributed`` sum to ``wall``."""
    lines = [
        title,
        f"  {'layer':<28} {'self s':>10} {'share':>7} {'incl s':>10} "
        f"{'calls':>8}",
    ]
    ordered = sorted(rows.items(), key=lambda kv: -kv[1][0])
    for name, (self_s, incl_s, calls) in ordered:
        share = 100.0 * self_s / wall if wall else 0.0
        lines.append(
            f"  {name:<28} {self_s:>10.4f} {share:>6.1f}% {incl_s:>10.4f} "
            f"{calls:>8d}"
        )
    share = 100.0 * unattributed / wall if wall else 0.0
    lines.append(
        f"  {'unattributed':<28} {unattributed:>10.4f} {share:>6.1f}%"
    )
    total = unattributed + sum(r[0] for r in rows.values())
    lines.append(
        f"  {'sum of rows':<28} {total:>10.4f}   (traced wall "
        f"{wall:.4f} s)"
    )
    return "\n".join(lines)
