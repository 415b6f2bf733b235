"""Outside-in tracing: spans around the calls into each layer's public functions.

The benchmark does not instrument the program.  Instead :class:`Tracer`
replaces a public function (or method) with a wrapper that records a span
around every call, and puts the original back afterwards.  A function is
replaced wherever a loaded ``repro`` module holds it under some name, so
``from .x import f`` bindings inside the program are covered too.  A target
the program no longer has is skipped; its metrics then read 0.

A span is ``(id, parent, name, start_ns, end_ns, query_id, attrs)``.  Spans
stay in memory and are written out by :meth:`Tracer.dump` at the end of a
run.  A span's self time is its duration minus the durations of its
children; children of one span never overlap, because each workload runs
one client thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, int, int, int, Optional[Dict[str, Any]]]

# Span tuple fields.
ID, PARENT, NAME, START, END, QUERY, ATTRS = range(7)


class Tracer:
    """Collects spans from the benchmark's own code and from wrapped functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.query_id = 0
        #: Wrappers record spans only while this is set; otherwise they
        #: pass straight through, so traced and untraced reads can alternate.
        self.active = True
        self._next_id = 1
        # Open spans: [id, name] pairs, innermost last.
        self._stack: List[List[Any]] = []
        self._restore: List[Callable[[], None]] = []

    # -- spans ----------------------------------------------------------------------

    def open(self, name: str) -> Tuple[int, int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([span_id, name])
        return span_id, parent, time.perf_counter_ns()

    def close(
        self, token: Tuple[int, int, int], name: str, attrs: Optional[Dict[str, Any]] = None
    ) -> int:
        end = time.perf_counter_ns()
        span_id, parent, start = token
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end, self.query_id, attrs))
        return end - start

    # -- wrapping public functions --------------------------------------------------

    def _wrapper(
        self,
        original: Callable[..., Any],
        name: str,
        describe: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]],
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][1] == name):
                # Tracing is paused, or this is a recursive call (plan_to_json
                # descends this way) inside a span that already covers it.
                return original(*args, **kwargs)
            token = tracer.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                attrs = describe(args, kwargs, result) if describe is not None else None
                tracer.close(token, name, attrs)

        return traced

    def wrap_function(
        self,
        original: Optional[Callable[..., Any]],
        name: str,
        describe: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> bool:
        """Trace every call of ``original`` through any ``repro`` module binding."""
        if original is None:
            return False
        wrapper = self._wrapper(original, name, describe)
        bound = []
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    bound.append((module, attribute))

        def restore() -> None:
            for module, attribute in bound:
                if getattr(module, attribute, None) is wrapper:
                    setattr(module, attribute, original)

        self._restore.append(restore)
        return bool(bound)

    def wrap_method(
        self,
        owner: Optional[type],
        method: str,
        name: str,
        describe: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> bool:
        """Trace every call of ``owner.method`` (instances look it up on the class)."""
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            return False
        wrapper = self._wrapper(original, name, describe)
        setattr(owner, method, wrapper)
        self._restore.append(lambda: setattr(owner, method, original))
        return True

    def uninstall(self) -> None:
        """Put every wrapped function back.  Idempotent."""
        while self._restore:
            self._restore.pop()()

    # -- output ---------------------------------------------------------------------

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        """Write the header and one JSON object per span (JSON lines)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                record = {
                    "id": span[ID],
                    "parent": span[PARENT],
                    "name": span[NAME],
                    "start_ns": span[START],
                    "end_ns": span[END],
                    "query": span[QUERY],
                }
                if span[ATTRS]:
                    record["attrs"] = span[ATTRS]
                handle.write(json.dumps(record) + "\n")


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Span id -> self time in ns (duration minus the children's durations)."""
    own = {span[ID]: span[END] - span[START] for span in spans}
    for span in spans:
        if span[PARENT] in own:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def per_root(spans: List[Span], root_name: str) -> List[Tuple[Span, Dict[str, int], Dict[str, int]]]:
    """For each root span called ``root_name``: (root, self ns by name, calls by name).

    The sums cover the root's whole subtree, the root included.
    """
    own = self_times(spans)
    parent_of = {span[ID]: span[PARENT] for span in spans}
    roots = {span[ID]: span for span in spans if span[NAME] == root_name}
    totals: Dict[int, Dict[str, int]] = {root_id: {} for root_id in roots}
    calls: Dict[int, Dict[str, int]] = {root_id: {} for root_id in roots}
    for span in spans:
        node = span[ID]
        while node and node not in roots:
            node = parent_of.get(node, 0)
        if not node:
            continue
        bucket = totals[node]
        bucket[span[NAME]] = bucket.get(span[NAME], 0) + own[span[ID]]
        counted = calls[node]
        counted[span[NAME]] = counted.get(span[NAME], 0) + 1
    return [(roots[root_id], totals[root_id], calls[root_id]) for root_id in roots]
