"""Span-based structured tracing for protocol conversations.

A :class:`Span` covers one protocol conversation — a membership
handshake, a roaming verification, a report→verdict→ledger append, a
backhaul forward — with sim-time ``start``/``end``, an outcome
``status`` and free-form tags.  Spans form a tree through
``parent_id``, so a roaming verify started while processing a
sequence-2 registration shows up as a child of that registration.

The same stream carries point events: zero-duration ``ok`` spans such
as ``transport.send`` and every
:meth:`~repro.sim.process.Process.trace` call, whose category is the
span name and whose detail is the tags.  A trace point is therefore
kept exactly when spans are, and exported by the same JSONL writer.

A disabled tracer swaps its methods for no-ops at construction time,
so instrumented code pays one attribute lookup and a C-level call — or,
on the hottest paths, just an ``enabled`` attribute check — and keeps
nothing.  This module deliberately imports nothing from ``repro.sim`` or
``repro.runtime`` (the kernel imports *it*), and the clock is
duck-typed: anything with a ``now`` attribute works.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, TextIO


class Span:
    """One recorded conversation: identity, interval, outcome, tags."""

    __slots__ = ("span_id", "parent_id", "name", "actor", "start", "end", "status", "tags")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        actor: str,
        start: float,
        tags: dict[str, Any] | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.actor = actor
        self.start = start
        self.end: float | None = None
        self.status: str | None = None
        self.tags: dict[str, Any] = tags if tags is not None else {}

    @property
    def duration(self) -> float | None:
        """Sim-time duration, or ``None`` while the span is open."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "actor": self.actor,
            "start": self.start,
            "end": self.end,
            "status": self.status if self.status is not None else "open",
            "tags": self.tags,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(#{self.span_id} {self.name!r} actor={self.actor!r} "
            f"[{self.start}..{self.end}] {self.status or 'open'})"
        )


#: Shared sentinel returned by a disabled tracer.  Instrumented code can
#: hold and "finish" it freely; it never records anything.
NOOP_SPAN = Span(0, None, "noop", "", 0.0)
NOOP_SPAN.end = 0.0
NOOP_SPAN.status = "noop"


def _begin_disabled(
    name: str, actor: str, parent: Span | None = None, **tags: Any
) -> Span:
    return NOOP_SPAN


def _finish_disabled(span: Span, status: str = "ok", **tags: Any) -> None:
    return None


def _event_disabled(name: str, actor: str, status: str = "ok", **tags: Any) -> Span:
    return NOOP_SPAN


class SpanTracer:
    """Records spans against a simulation clock.

    ``enabled`` is a plain attribute (not a property) so hot paths can
    guard instrumentation with a single attribute read.
    """

    def __init__(self, clock: Any, enabled: bool = True) -> None:
        self.enabled = enabled
        self._clock = clock
        self._next_id = 1
        self._spans: list[Span] = []
        if not enabled:
            # Replace the bound methods so disabled tracing costs one
            # no-op call, no branches.
            self.begin = _begin_disabled  # type: ignore[method-assign]
            self.finish = _finish_disabled  # type: ignore[method-assign]
            self.event = _event_disabled  # type: ignore[method-assign]

    def begin(
        self, name: str, actor: str, parent: Span | None = None, **tags: Any
    ) -> Span:
        """Open a span at the current sim time; returns the handle."""
        span = Span(
            self._next_id,
            parent.span_id if parent is not None and parent.span_id else None,
            name,
            actor,
            self._clock.now,
            tags if tags else None,
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def finish(self, span: Span, status: str = "ok", **tags: Any) -> None:
        """Close ``span`` with an outcome.  Idempotent: duplicated
        deliveries may race to finish the same span; the first wins."""
        if span.end is not None:
            return
        span.end = self._clock.now
        span.status = status
        if tags:
            span.tags.update(tags)

    def event(self, name: str, actor: str, status: str = "ok", **tags: Any) -> Span:
        """Record a zero-duration span (a point event, e.g. a transport
        send) at the current sim time."""
        span = self.begin(name, actor, **tags)
        span.end = span.start
        span.status = status
        return span

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self._spans if s.name == name]

    def by_actor(self, actor: str) -> list[Span]:
        return [s for s in self._spans if s.actor == actor]

    def roots(self) -> list[Span]:
        return [s for s in self._spans if s.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def open_spans(self) -> list[Span]:
        return [s for s in self._spans if s.end is None]

    # -- export --------------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self._spans]

    def to_jsonl(self) -> str:
        """One JSON object per span, in begin order.  Tag values JSON
        cannot encode are written as their ``str``."""
        return "".join(
            json.dumps(d, sort_keys=True, default=str) + "\n" for d in self.to_dicts()
        )

    def save_jsonl(self, fileobj: TextIO) -> int:
        text = self.to_jsonl()
        fileobj.write(text)
        return len(self._spans)


#: Shared always-off tracer, for components constructed without a
#: simulator (isolated unit tests with stub meshes).  A disabled tracer
#: never reads its clock, so ``None`` is safe here.
DISABLED_TRACER = SpanTracer(None, enabled=False)
