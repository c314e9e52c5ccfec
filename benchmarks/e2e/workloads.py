"""The four workloads: set-up, timed part, golden check, tear-down.

Every workload drives only public entry points of ``repro`` and receives
its inputs from :mod:`gen`.  All of them share one life cycle (``setup``
-> ``run`` -> ``verify`` -> ``teardown``, async so the two that talk to
the query service can stay inside one event loop) and one result shape:
``samples`` (latency lists in ms), ``totals`` (sums), ``attempted`` /
``failed`` operation counts and ``failures`` (what failed, in words).

Why these four: ``batch_tasks`` is the paper's own workload and touches
only store decode + kernels; ``ingest_backfill`` touches only the write
path; ``serve_hot`` is the read path with the cache doing its job;
``fresh_mixed`` is the same store, cache and executor used the other way
round — written while read, every answer cold.  An optimisation to one
layer has a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.columnar import outofcore
from repro.columnar.partstore import PartitionedStore
from repro.core.benchmark import BenchmarkSpec, Task, run_task_reference
from repro.core.validation import (
    ValidationFailure,
    assert_identical_task_results,
    compare_par,
    compare_similarity,
)
from repro.exceptions import StreamingError
from repro.serve import QueryService, ServeClient, ServeConfig
from repro.serve.admission import AdmissionConfig
from repro.serve.executor import serialize_task_results
from repro.streaming import DurablePlane, StoreSink
from repro.streaming.durability import verify_no_duplicate_rows
from repro.timeseries.series import Dataset

import gen
import trace

PER_CONSUMER = (Task.HISTOGRAM, Task.THREELINE, Task.PAR)
ALL_TASKS = PER_CONSUMER + (Task.SIMILARITY,)

#: Span (and ``<span>_s`` metric) each task's kernel time is booked to.
KERNEL_SPAN = {
    Task.HISTOGRAM: "batched.histogram",
    Task.THREELINE: "batched.threeline",
    Task.PAR: "batched.par",
    Task.SIMILARITY: "core.similarity",
}

#: Budget the out-of-core runner blocks the at-rest table under.
BATCH_MEMORY_BUDGET = 64 << 20
#: Per-request budget; generous, so that no request of these mixes fails.
DEADLINE_MS = 120_000


def golden(data: Dataset, task: Task) -> dict:
    """The reference every answer is checked against: the loop kernels
    over the generator's own arrays (never over what the store returns)."""
    return run_task_reference(data, task, BenchmarkSpec(kernel="loop"))


def wire(task: Task, results: dict) -> dict:
    """Task results as they look after crossing the JSON wire."""
    return json.loads(json.dumps(serialize_task_results(task, results)))


def rows_of(data: Dataset, rows: np.ndarray) -> Dataset:
    return Dataset(
        [data.consumer_ids[i] for i in rows],
        data.consumption[rows], data.temperature[rows],
    )


class Workload:
    name = ""
    #: Concurrent driver lanes; a traced run's self times sum to
    #: ``lanes`` x its wall time.
    lanes = 1

    def __init__(self, seed: int, size: dict, seconds: float,
                 workdir: Path, tracer: trace.Tracer | None = None) -> None:
        self.seed = seed
        self.size = size
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.totals: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._dir: Path | None = None

    # -- helpers ---------------------------------------------------------

    def fresh_dir(self) -> Path:
        self._dir = self.workdir / self.name
        shutil.rmtree(self._dir, ignore_errors=True)
        self._dir.mkdir(parents=True)
        return self._dir

    def span(self, name: str, request_id: str | None = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, request_id)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, label: str, compare, *args) -> None:
        """One golden comparison; a mismatch is a failed operation."""
        self.attempted += 1
        try:
            compare(*args)
        except (ValidationFailure, StreamingError) as exc:
            self.fail(f"golden mismatch: {label}: {str(exc)[:200]}")

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    # -- life cycle ------------------------------------------------------

    async def setup(self) -> None:
        raise NotImplementedError

    def instrument(self) -> None:
        """Install the trace proxies (traced runs only, after set-up)."""
        raise NotImplementedError

    async def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)

    # -- the end-to-end slots, filled in by each workload ----------------

    def end_to_end(self) -> dict[str, float]:
        """``op_ms_p50``, ``heavy_ms_p50`` and ``throughput``."""
        raise NotImplementedError

    def ops(self) -> int:
        """How many ops (the unit of ``cpu_ms_per_op``) the timed part
        completed."""
        raise NotImplementedError


def p50(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


# --------------------------------------------------------------------------
# batch_tasks
# --------------------------------------------------------------------------

class BatchTasks(Workload):
    """The paper's four tasks over the at-rest table; closed loop, one
    thread.  Store decode and kernels do all the work."""

    name = "batch_tasks"

    async def setup(self) -> None:
        self.data = gen.cohort(self.seed, self.size["meters"], self.size["days"])
        self.store = PartitionedStore(self.fresh_dir() / "store")
        self.table = self.store.ingest_dataset(self.data, name=gen.TABLE)
        # Lazy imports and BLAS start-up are paid once per process, not
        # per pass: let them happen on a sliver before the clock starts.
        sliver = rows_of(self.data, np.arange(min(64, self.size["meters"])))
        for task in ALL_TASKS:
            self._kernel(task, sliver.consumer_ids, sliver.consumption,
                         sliver.temperature)

    def instrument(self) -> None:
        trace.install_read_path(self.tracer)

    def _kernel(self, task: Task, ids, consumption, temperature) -> dict:
        with self.span(KERNEL_SPAN[task]):
            return run_task_reference(
                Dataset(list(ids), consumption, temperature), task,
                BenchmarkSpec(kernel="batched"),
            )

    async def run(self) -> None:
        t0 = time.perf_counter()
        deadline = t0 + self.seconds
        n_pass = 0
        while n_pass == 0 or time.perf_counter() < deadline:
            with self.span("loadgen.pass", f"pass-{n_pass}"):
                results, task_ms = {}, []
                t_pass = time.perf_counter()
                for task in PER_CONSUMER:
                    t = time.perf_counter()
                    results[task] = outofcore.run_blocked(
                        self.table,
                        lambda ids, m, task=task: self._kernel(
                            task, ids, m["consumption"], m["temperature"]),
                        memory_budget_bytes=BATCH_MEMORY_BUDGET,
                    )
                    task_ms.append((time.perf_counter() - t) * 1e3)
                t = time.perf_counter()
                ids, m = self.table.read_matrices(columns=["consumption"])
                cons = m["consumption"]
                results[Task.SIMILARITY] = self._kernel(
                    Task.SIMILARITY, ids, cons, np.broadcast_to(0.0, cons.shape))
                task_ms.append((time.perf_counter() - t) * 1e3)
            self.samples["pass_ms"].append((time.perf_counter() - t_pass) * 1e3)
            self.samples["slowest_task_ms"].append(max(task_ms))
            self.attempted += len(ALL_TASKS)
            n_pass += 1
        self.totals["wall_s"] = time.perf_counter() - t0
        self.results = results

    def verify(self) -> None:
        rows = gen.sample_rows(self.seed, self.size["meters"], self.size["sampled"])
        sample = rows_of(self.data, rows)
        for task in PER_CONSUMER:
            got = {cid: self.results[task].get(cid) for cid in sample.consumer_ids}
            compare = compare_par if task is Task.PAR else (
                lambda a, b, task=task: assert_identical_task_results(task, a, b))
            self.check(task.value, compare, got, golden(sample, task))
        self.check("similarity", compare_similarity,
                   self.results[Task.SIMILARITY], golden(self.data, Task.SIMILARITY))

    def ops(self) -> int:
        return len(self.samples["pass_ms"])

    def end_to_end(self) -> dict[str, float]:
        readings = self.data.consumption.size * self.ops()
        return {
            "op_ms_p50": p50(self.samples["pass_ms"]),
            "heavy_ms_p50": p50(self.samples["slowest_task_ms"]),
            "throughput": readings / self.totals["wall_s"],
        }


# --------------------------------------------------------------------------
# ingest_backfill
# --------------------------------------------------------------------------

class DurableFeed(Workload):
    """What the two ingesting workloads share: the generated stream, a
    durable plane whose sink commits closed windows to the store, and
    the bookkeeping of one tick."""

    feed_open = False

    def open_feed(self, n_windows: int) -> None:
        self.wdays = self.size["window_days"]
        self.data = gen.cohort(self.seed, self.size["meters"], n_windows * self.wdays)
        self.ticks = gen.ticks(self.data, self.seed)
        root = self.fresh_dir()
        self.store = PartitionedStore(root / "store")
        self.plane = DurablePlane(
            self.data.consumer_ids, gen.stream_config(self.wdays),
            run_dir=root / "run", sink=StoreSink(self.store, gen.TABLE), sync=True,
        )
        self.feed_open = True

    def tick(self, i: int) -> list:
        """Ingest tick ``i``; returns the windows it closed."""
        with self.span("loadgen.tick", f"tick-{i}"):
            t = time.perf_counter()
            emitted = self.plane.ingest(self.ticks[i], seq=i)
            ms = (time.perf_counter() - t) * 1e3
        self.samples["close_ms" if emitted else "tick_ms"].append(ms)
        self.totals["readings"] += len(self.ticks[i])
        self.totals["revisions"] += sum(1 for r in emitted if r.revision)
        self.attempted += 1
        return emitted

    def close_feed(self) -> None:
        if self.feed_open:
            self.plane.close()
            self.feed_open = False

    def measure_store(self) -> None:
        table = self.store.open(gen.TABLE)
        self.totals["store_bytes_per_reading"] = (
            table.compressed_bytes() / max(1, table.n_rows))

    def ops(self) -> int:
        return len(self.samples["tick_ms"]) + len(self.samples["close_ms"])

    async def teardown(self) -> None:
        self.close_feed()
        await super().teardown()


class IngestBackfill(DurableFeed):
    """Day-ticks replayed as fast as accepted through the durable plane
    into the store; closed loop, one thread, no query served."""

    name = "ingest_backfill"

    async def setup(self) -> None:
        self.open_feed(max(2, int(self.seconds * self.size["windows_per_second"])))
        self.windows_done = 0

    def instrument(self) -> None:
        trace.install_write_path(self.tracer, self.plane, self.store)

    async def run(self) -> None:
        t0 = time.perf_counter()
        deadline = t0 + self.seconds
        # Whole windows only, so every run ends on a closed window.
        for window in range(len(self.ticks) // self.wdays):
            if window and time.perf_counter() >= deadline:
                break
            for day in range(self.wdays):
                self.tick(window * self.wdays + day)
            self.windows_done += 1
        with self.span("loadgen.close"):
            self.close_feed()
        self.totals["wall_s"] = time.perf_counter() - t0

    def verify(self) -> None:
        hours = self.windows_done * self.wdays * 24
        self.expect(len(self.plane.emitted) == self.windows_done,
                    f"{len(self.plane.emitted)} windows emitted, "
                    f"{self.windows_done} replayed")
        table = self.store.open(gen.TABLE)
        self.check("no duplicate rows", verify_no_duplicate_rows, table, hours)
        _ids, stored = table.read_matrices()
        for column in ("consumption", "temperature"):
            source = getattr(self.data, column)[:, :hours]
            same = stored[column].shape == source.shape and np.array_equal(
                stored[column].view(np.uint64),
                np.ascontiguousarray(source).view(np.uint64))
            self.expect(same, f"stored {column} is not bit-equal to its source")
        self.measure_store()

    def end_to_end(self) -> dict[str, float]:
        return {
            "op_ms_p50": p50(self.samples["tick_ms"]),
            "heavy_ms_p50": p50(self.samples["close_ms"]),
            "throughput": self.totals["readings"] / self.totals["wall_s"],
        }


# --------------------------------------------------------------------------
# the two served workloads
# --------------------------------------------------------------------------

def serve_config() -> ServeConfig:
    """Service defaults, except a token bucket no closed-loop client of
    these mixes can empty (a refusal would be a failed operation)."""
    return ServeConfig(admission=AdmissionConfig(rate_per_s=1e4, burst=1e4))


class Served(Workload):
    """What ``serve_hot`` and ``fresh_mixed`` share: a query service on
    loopback, its clients, and the golden checks on what it answers."""

    service = None
    clients = ()

    async def boot(self, n_clients: int) -> None:
        self.service = QueryService(self.store, gen.TABLE, serve_config())
        await self.service.start()
        self.clients = [
            await ServeClient.connect("127.0.0.1", self.service.port)
            for _ in range(n_clients)
        ]
        self.sent = self.finals = 0

    def end_of_warm_up(self) -> None:
        """Samples and cache counts from here on are the timed part's."""
        self.samples.clear()
        self.warm = {**self.service.cache.stats(),
                     "blocks": self.service.executor.blocks_executed}

    def end_of_run(self) -> None:
        self.cache = {k: v - self.warm[k]
                      for k, v in self.service.cache.stats().items()}
        self.blocks = self.service.executor.blocks_executed - self.warm["blocks"]

    async def ask(self, lane: int, label: str, op: str, params: dict):
        """One request on one lane, with the bookkeeping every answer
        gets: ledger, failure count, latency sample."""
        self.sent += 1
        self.attempted += 1
        tenant = self.tenants[lane]
        with self.span("serve.client.request", f"{tenant}#{self.sent}") as me:
            if me:
                self.tracer.handoff[tenant] = me
            response = await self.clients[lane].request(
                op, params, tenant=tenant, deadline_ms=DEADLINE_MS,
                allow_stale=False)
        self.finals += 1
        if not response.ok or response.stale:
            self.fail(f"{label}: status={response.status} "
                      f"reason={response.reason} stale={response.stale}")
            return response
        total_ms = response.total_s * 1e3
        self.samples[f"{label}_ms"].append(total_ms)
        timings = response.final.get("timings", {})
        self.samples["queue_ms"].append(timings.get("queue_ms", 0.0))
        self.samples["wire_ms"].append(total_ms - timings.get("total_ms", 0.0))
        self.samples["ttfr_ms"].append(response.ttfr_s * 1e3)
        return response

    def check_task_answer(self, data: Dataset, task: Task, served: dict) -> None:
        """A served task answer against the loop reference: equal after
        the JSON round trip, PAR within the kernels' stated tolerance."""
        want = wire(task, golden(data, task))
        if task is Task.PAR:
            def compare(a, b):
                if a.keys() != b.keys():
                    raise ValidationFailure("consumer sets differ")
                for cid in a:
                    if not np.allclose(a[cid]["profile"], b[cid]["profile"],
                                       rtol=1e-6, atol=1e-8):
                        raise ValidationFailure(f"{cid}: profiles differ")
        elif task is Task.SIMILARITY:
            def compare(a, b):
                compare_similarity(
                    {c: [tuple(p) for p in v] for c, v in a.items()},
                    {c: [tuple(p) for p in v] for c, v in b.items()})
        else:
            def compare(a, b):
                if a != b:
                    raise ValidationFailure("answers differ")
        self.check(f"served {task.value}", compare, served, want)

    def check_group_answer(self, data: Dataset, rows: list) -> None:
        want = dict(zip(data.consumer_ids, data.consumption.mean(axis=1)))
        got = {cid: value for cid, value in rows}
        same = got.keys() == want.keys() and all(
            np.isclose(got[c], want[c], rtol=1e-9, atol=0.0) for c in want)
        self.expect(same, "golden mismatch: GROUP BY averages differ")

    async def check_ledgers(self) -> None:
        """Every frame sent was answered once, on both sides of the wire."""
        self.sent += 1
        stats = await self.clients[0].request("stats")
        self.finals += 1
        self.stats = stats.result
        balanced = (
            self.sent == self.finals
            and stats.result["requests_received"] == self.sent
            # The stats frame reports itself as received, not yet sent.
            and stats.result["responses_sent"] == self.sent - 1
        )
        self.expect(balanced, f"ledgers do not balance: client {self.sent}/"
                              f"{self.finals}, server {stats.result}")

    async def teardown(self) -> None:
        for client in self.clients:
            await client.close()
        if self.service is not None:
            await self.service.stop()
        self.clients, self.service = (), None
        await super().teardown()


TASK_PARAMS = {task.value: ("task", {"task": task.value}) for task in ALL_TASKS}
SQL_GROUP = ("sql", {"sql": gen.SQL_GROUP})
SQL_COUNT = ("sql", {"sql": gen.SQL_COUNT})


class ServeHot(Served):
    """Two closed-loop clients over an unchanging table: five repeated
    queries (cache hits) and three never-repeated point SELECTs (misses
    on warm views) per cycle of eight."""

    name = "serve_hot"
    lanes = 2
    tenants = ("analyst", "ops")

    #: One cycle, in order; ``sql_point`` draws a fresh literal each time.
    CYCLE = ("histogram", "sql_point", "threeline", "sql_point",
             "par", "sql_point", "similarity", "sql_group")
    REPEATED = {**TASK_PARAMS, "sql_group": SQL_GROUP}

    async def setup(self) -> None:
        self.data = gen.cohort(self.seed, self.size["meters"], self.size["days"])
        self.points = gen.point_queries(self.seed, self.data, self.size["points"])
        self.store = PartitionedStore(self.fresh_dir() / "store")
        self.store.ingest_dataset(self.data, name=gen.TABLE)
        await self.boot(n_clients=2)
        for label, (op, params) in self.REPEATED.items():
            await self.ask(0, f"warm_{label}", op, params)
        self.first: dict[str, object] = {}
        self.end_of_warm_up()

    def instrument(self) -> None:
        trace.install_read_path(self.tracer, self.service)

    async def _lane(self, lane: int, deadline: float) -> None:
        # The second client starts half a cycle in, so the two do not
        # ask for the same large frame at the same moment by design.
        order = self.CYCLE[4 * lane:] + self.CYCLE[:4 * lane]
        while self.points and (
            not self.samples[f"cycle{lane}_ms"] or time.perf_counter() < deadline
        ):
            t_cycle = time.perf_counter()
            with self.span("loadgen.cycle", f"{self.tenants[lane]}-cycle"):
                for label in order:
                    if label == "sql_point":
                        sql, want = self.points.pop()
                        response = await self.ask(lane, label, "sql", {"sql": sql})
                        if response.ok and response.rows != [[want]]:
                            self.fail(f"golden mismatch: {sql!r} -> {response.rows}")
                    else:
                        response = await self.ask(lane, label, *self.REPEATED[label])
                        if response.ok:
                            self.first.setdefault(label, response)
            self.samples[f"cycle{lane}_ms"].append(
                (time.perf_counter() - t_cycle) * 1e3)

    async def run(self) -> None:
        t0 = time.perf_counter()
        await asyncio.gather(*(
            self._lane(lane, t0 + self.seconds) for lane in range(self.lanes)))
        self.totals["wall_s"] = time.perf_counter() - t0
        self.totals["ok"] = len(self.samples["queue_ms"])
        self.end_of_run()
        await self.check_ledgers()

    def verify(self) -> None:
        for task in ALL_TASKS:
            self.check_task_answer(
                self.data, task, self.first[task.value].result["results"])
        self.check_group_answer(self.data, self.first["sql_group"].rows)

    def ops(self) -> int:
        return int(self.totals["ok"])

    def end_to_end(self) -> dict[str, float]:
        cycles = self.samples["cycle0_ms"] + self.samples["cycle1_ms"]
        return {
            # Anything finer than a whole cycle depends on how the two
            # clients' large frames happen to interleave in that run.
            "op_ms_p50": p50(cycles) / len(self.CYCLE),
            "heavy_ms_p50": p50(cycles),
            "throughput": self.totals["ok"] / self.totals["wall_s"],
        }


class FreshMixed(Served, DurableFeed):
    """A writer thread ticks on a fixed schedule (open loop) through a
    durable plane whose sink shares the service's store; each time a tick
    closes a window one client refreshes six panels, all of them cold."""

    name = "fresh_mixed"
    lanes = 2
    tenants = ("dashboard",)

    PANELS = {**TASK_PARAMS, "sql_count": SQL_COUNT, "sql_group": SQL_GROUP}

    async def setup(self) -> None:
        self.period = self.size["tick_period_s"]
        self.pre = self.size["preloaded_windows"]
        # The schedule holds the whole windows that fit in the run.
        self.windows = max(1, int(
            self.seconds / (self.period * self.size["window_days"])))
        self.open_feed(self.pre + self.windows)
        for i in range(self.pre * self.wdays):
            self.plane.ingest(self.ticks[i], seq=i)
        await self.boot(n_clients=1)
        for label, (op, params) in self.PANELS.items():
            await self.ask(0, f"warm_{label}", op, params)
        self.last: dict[str, object] = {}
        self.end_of_warm_up()

    def instrument(self) -> None:
        trace.install_write_path(self.tracer, self.plane, self.store)
        trace.install_read_path(self.tracer, self.service)

    def _writer(self, t0: float, closed: asyncio.Queue, loop) -> None:
        first = self.pre * self.wdays
        for k in range(self.windows * self.wdays):
            due = t0 + k * self.period
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.samples["lag_ms"].append((time.perf_counter() - due) * 1e3)
            emitted = self.tick(first + k)
            if emitted:
                hours = (emitted[-1].day0 + emitted[-1].n_days) * 24
                loop.call_soon_threadsafe(closed.put_nowait, (due, hours))
        loop.call_soon_threadsafe(closed.put_nowait, None)

    def _covers(self, label: str, response, hours: int) -> bool:
        """Does this answer provably include the window that just closed?"""
        if label == "histogram":
            counts = next(iter(response.result["results"].values()))["counts"]
            return sum(counts) == hours
        if label == "sql_count":
            return response.rows == [[self.size["meters"] * hours]]
        return True  # the other panels: fresh because not from the cache

    async def _refresher(self, closed: asyncio.Queue) -> None:
        while (item := await closed.get()) is not None:
            due, hours = item
            t_start = time.perf_counter()
            with self.span("loadgen.refresh", f"refresh-{hours // 24}d"):
                for n, (label, (op, params)) in enumerate(self.PANELS.items()):
                    response = await self.ask(0, f"cold_{label}", op, params)
                    t_recv = time.perf_counter()
                    if response.ok and (response.final.get("cached")
                                        or not self._covers(label, response, hours)):
                        self.fail(f"{label}: answer does not cover {hours} h "
                                  f"(cached={response.final.get('cached')})")
                    if n == 0:
                        self.samples["fresh_first_ms"].append((t_recv - due) * 1e3)
                    self.last[label] = response
                self.samples["refresh_all_ms"].append((t_recv - due) * 1e3)
            self.totals["refresh_s"] += t_recv - t_start
            self.hours_served = hours

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        closed: asyncio.Queue = asyncio.Queue()
        t0 = time.perf_counter()
        await asyncio.gather(
            asyncio.to_thread(self._writer, t0, closed, loop),
            self._refresher(closed),
        )
        self.totals["wall_s"] = time.perf_counter() - t0
        self.end_of_run()
        await self.check_ledgers()

    def verify(self) -> None:
        served = Dataset(
            self.data.consumer_ids,
            self.data.consumption[:, :self.hours_served],
            self.data.temperature[:, :self.hours_served],
        )
        for task in ALL_TASKS:
            self.check_task_answer(
                served, task, self.last[task.value].result["results"])
        self.check_group_answer(served, self.last["sql_group"].rows)
        self.expect(len(self.samples["refresh_all_ms"]) == self.windows,
                    f"{len(self.samples['refresh_all_ms'])} refreshes for "
                    f"{self.windows} closed windows")
        # Validity, not speed: a generator that ran a whole tick late
        # was not an open loop any more.
        lag = max(self.samples["lag_ms"])
        self.expect(lag < self.period * 1e3,
                    f"invalid run: load generator lagged {lag:.0f} ms")
        self.measure_store()

    def end_to_end(self) -> dict[str, float]:
        return {
            "op_ms_p50": p50(self.samples["fresh_first_ms"]),
            "heavy_ms_p50": p50(self.samples["refresh_all_ms"]),
            # Open loop: the arrival rate is the schedule's, so the rate
            # that can move is panel answers per second of refreshing.
            "throughput": len(self.PANELS) * len(self.samples["refresh_all_ms"])
            / self.totals["refresh_s"],
        }


WORKLOADS = {w.name: w for w in (BatchTasks, IngestBackfill, ServeHot, FreshMixed)}
