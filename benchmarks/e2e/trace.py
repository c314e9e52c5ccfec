"""In-memory span tracing installed from outside ``src/``.

The end-to-end numbers are measured with none of this active.  A traced
run rebinds *public* callables — instance attributes of the objects the
benchmark built, names imported into a ``repro`` module, and (for objects
the program re-creates behind our back) one class attribute — with timing
proxies that record a span per call.  Nothing under ``src/`` is edited;
:meth:`Tracer.uninstall` puts every original back.

A span is ``{id, name, start, end, parent, request_id}``.  ``parent`` is
the span that caused it: the innermost open span of the same thread or
asyncio task (a :class:`~contextvars.ContextVar`), an explicit parent
handed across a thread boundary, or the run's root.  A layer's *self
time* is its span's duration minus the part of that interval its child
spans cover (children on two threads may overlap; the cover is their
union), so self times of a tree sum to its root's duration.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable


class Tracer:
    """Span recorder plus the proxies that feed it."""

    def __init__(self) -> None:
        #: Closed spans, in closing order.
        self.spans: list[dict[str, Any]] = []
        #: Counts taken at the same boundaries as the spans.
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None
        )
        #: ``(id, request_id)`` of the run's root span while it is open;
        #: spans with no open ancestor in their own context hang off it.
        self.root: tuple[int, str | None] | None = None
        #: Parents in transit between threads, keyed by whatever object
        #: both sides of the hand-off can see.
        self.handoff: dict[Any, tuple[int, str | None] | None] = {}
        self._undo: list[tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------

    def current(self) -> tuple[int, str | None] | None:
        """``(id, request_id)`` of the innermost open span here."""
        return self._current.get() or self.root

    @contextmanager
    def span(self, name: str, request_id: str | None = None,
             parent: tuple[int, str | None] | None = None, root: bool = False):
        """Record one span; yields ``(id, request_id)`` for hand-offs.

        Outside a :meth:`run` (set-up, warm-up, tear-down) nothing is
        recorded and ``None`` is yielded.
        """
        if self.root is None and not root:
            yield None
            return
        parent = parent or self.current()
        if request_id is None and parent is not None:
            request_id = parent[1]
        me = (next(self._ids), request_id)
        token = self._current.set(me)
        start = time.perf_counter()
        try:
            yield me
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append({
                "id": me[0], "name": name, "start": start, "end": end,
                "parent": parent[0] if parent else None,
                "request_id": request_id,
            })

    @contextmanager
    def run(self, name: str):
        """The root span of one timed run; every other span nests in it."""
        with self.span(name, root=True) as me:
            self.root = me
            try:
                yield me
            finally:
                self.root = None

    # -- proxies ---------------------------------------------------------

    def wrap(
        self, owner: Any, attr: str, name: str | Callable[..., str], *,
        parent: Callable[..., tuple | None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Rebind ``owner.attr`` to a proxy recording a span per call.

        ``name`` may be a callable of the call's arguments (one proxy,
        several layers: the kernel dispatcher).  ``parent(*args)`` hands
        in a parent recorded on another thread; ``after(result, *args)``
        takes the counts that belong to the same boundary.  While no run
        is open (golden check, tear-down) neither spans nor counts are taken.
        """
        original = getattr(owner, attr)

        def open_span(args, kwargs):
            return self.span(
                name(*args, **kwargs) if callable(name) else name,
                parent=parent(*args, **kwargs) if parent else None)

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def proxy(*args, **kwargs):
                # One span per item: the time the consumer spends between
                # items is the consumer's, not the iterator's.
                it = original(*args, **kwargs)
                while True:
                    with open_span(args, kwargs) as me:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    if me and after:
                        after(item, *args, **kwargs)
                    yield item
        else:
            @functools.wraps(original)
            def proxy(*args, **kwargs):
                with open_span(args, kwargs) as me:
                    result = original(*args, **kwargs)
                if me and after:
                    after(result, *args, **kwargs)
                return result

        self.rebind(owner, attr, proxy)

    def rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        """Point ``owner.attr`` at ``replacement`` until :meth:`uninstall`."""
        self._undo.append(
            (owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every rebound name back (instance overrides are deleted)."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        return self_times(self.spans)

    def layer_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        own = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += own[s["id"]]
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


def covered(span: dict, children: list[dict]) -> float:
    """Length of the part of ``span`` its children cover (their union,
    clipped to the span)."""
    total = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(child["start"], reach)
        hi = min(child["end"], span["end"])
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    return {
        s["id"]: (s["end"] - s["start"]) - covered(s, children[s["id"]])
        for s in spans
    }


# --------------------------------------------------------------------------
# Where the proxies go.  Span names are layer (= module) names; the
# per-layer metric ``<span>_s`` is the summed self time of that span.
# --------------------------------------------------------------------------

def install_write_path(tracer: Tracer, plane, store) -> None:
    """validate -> WAL append -> fsync -> fold -> close -> sink -> checkpoint,
    around one :class:`~repro.streaming.DurablePlane` and its store."""
    from repro.streaming import durability

    counts = tracer.counts
    wal = plane.wal
    tracer.wrap(wal, "append_batch", "streaming.durability.wal_append")
    tracer.wrap(wal, "append_note", "streaming.durability.wal_append")
    tracer.wrap(wal, "sync", "streaming.durability.wal_sync")
    tracer.wrap(plane, "checkpoint", "streaming.durability.checkpoint")
    tracer.wrap(plane.plane, "ingest", "streaming.window.fold")
    tracer.wrap(plane.plane, "close_ready", "streaming.window.close")
    tracer.wrap(plane.sink, "write", "streaming.sink.write")
    for method in ("ingest_dataset", "append_days", "overwrite_days"):
        tracer.wrap(store, method, "columnar.partstore.append")

    # WAL bytes are counted where the record payload is built; the frame
    # header is the format's fixed overhead per record.
    encode = durability.encode_batch

    def counting_encode(batch):
        payload = encode(batch)
        if tracer.root is not None:
            counts["wal_bytes"] += len(payload) + durability.HEADER_BYTES
        return payload

    tracer.rebind(durability, "encode_batch", counting_encode)


def install_read_path(tracer: Tracer, service=None) -> None:
    """store decode -> kernels -> relational load/select -> serialise ->
    frame codec, for the batch runner and (given one) a query service."""
    from repro.columnar import outofcore
    from repro.columnar.partstore import PartitionedTable
    from repro.relational import executor as relational_executor
    from repro.serve import executor as serve_executor
    from repro.serve import protocol

    counts = tracer.counts

    def decoded(result, *args, **kwargs):
        counts["columnar.partstore.bytes_decoded"] += sum(
            m.nbytes for m in result[1].values())

    # Tables are re-opened (new objects) on every commit, so this one
    # proxy sits on the class rather than on an instance.
    tracer.wrap(PartitionedTable, "read_matrices",
                "columnar.partstore.read_matrices", after=decoded)
    def block(item, *args, **kwargs):
        counts["columnar.outofcore.blocks"] += 1

    for module in (outofcore, serve_executor):
        tracer.wrap(module, "iter_consumer_blocks",
                    "columnar.outofcore.block_iter", after=block)
    if service is None:
        return

    kernel_span = {
        "histogram": "batched.histogram", "threeline": "batched.threeline",
        "par": "batched.par", "similarity": "core.similarity",
    }
    tracer.wrap(serve_executor, "run_task_reference",
                lambda dataset, task, *a, **k: kernel_span[task.value])
    for name in ("normalize_rows", "cosine_similarity_block", "rank_row"):
        tracer.wrap(serve_executor, name, "core.similarity")

    def loaded(result, db, dataset, *args, **kwargs):
        counts["relational.rows_loaded"] += dataset.n_consumers * dataset.n_hours

    tracer.wrap(serve_executor, "load_dataset", "relational.load", after=loaded)
    tracer.wrap(serve_executor, "parse_select", "sql.parse")
    tracer.wrap(relational_executor, "execute_select", "relational.select")
    tracer.wrap(serve_executor, "serialize_task_results", "serve.executor.serialize")

    # A query changes threads between admission (event loop) and
    # execution (worker): its cancel token is the one object both public
    # calls see, so it carries the client's request span across.
    handoff = tracer.handoff
    offer = service.admission.offer

    def linking_offer(tenant, query):
        handoff[id(query.token)] = handoff.get(tenant)
        return offer(tenant, query)

    tracer.rebind(service.admission, "offer", linking_offer)
    tracer.wrap(service.executor, "run_task", "serve.executor.task",
                parent=lambda task, token: handoff.pop(id(token), None))
    tracer.wrap(service.executor, "run_sql", "serve.executor.sql",
                parent=lambda sql, token, *a, **k: handoff.pop(id(token), None))

    def framed(result, *args, **kwargs):
        counts["serve.protocol.frames_out"] += 1
        counts["serve.protocol.bytes_out"] += len(result)

    tracer.wrap(protocol, "encode_frame", "serve.protocol.encode", after=framed)
    tracer.wrap(protocol, "decode_payload", "serve.protocol.decode")
