"""Input generator: everything a workload feeds the program comes from here.

``--seed`` reaches this module and nothing else; the program under test
only ever sees the arrays, batches and SQL strings built below.  The
input traps that would otherwise make a run flake are closed here:

* point-SQL literals are drawn **without replacement** — random ids that
  repeat would silently turn a planned cache miss into a hit;
* the served table is always named ``readings`` (the SQL subset's FROM);
* durable planes get the ``repair`` ladder (they refuse ``strict``);
* window lengths in ``run.SIZES`` are at least 8 days (the plane refuses
  windows PAR cannot fit on).
"""

from __future__ import annotations

import numpy as np

from repro.datagen.seed import SeedConfig, make_seed_dataset
from repro.streaming import ReadingBatch, StreamConfig, day_ticks, shuffle_batch
from repro.timeseries.series import Dataset

#: The table every workload writes and serves.
TABLE = "readings"

#: The repeated (cacheable) SQL panel.
SQL_GROUP = (
    "SELECT household_id, AVG(consumption) AS avg_load "
    "FROM readings GROUP BY household_id"
)
SQL_COUNT = "SELECT COUNT(*) AS n FROM readings"


def cohort(seed: int, n_meters: int, n_days: int) -> Dataset:
    return make_seed_dataset(
        SeedConfig(n_consumers=n_meters, n_hours=n_days * 24, seed=seed)
    )


def ticks(data: Dataset, seed: int) -> list[ReadingBatch]:
    """``data`` as one shuffled arrival batch per day, materialised so no
    generation work happens on the clock."""
    return [
        shuffle_batch(batch, seed=seed * 100_003 + day)
        for day, batch in enumerate(day_ticks(data, 0))
    ]


def stream_config(window_days: int) -> StreamConfig:
    """Tumbling windows that close on their own last tick."""
    return StreamConfig(
        window_days=window_days, allowed_lateness_hours=0, on_late="repair"
    )


def point_queries(seed: int, data: Dataset, count: int) -> list[tuple[str, float]]:
    """``count`` selective SELECTs with pairwise distinct fingerprints,
    each with the consumption value it must return."""
    n, hours = data.consumption.shape
    rng = np.random.default_rng(seed + 17)
    cells = rng.choice(n * hours, size=min(count, n * hours), replace=False)
    out = []
    for cell in cells:
        row, hour = divmod(int(cell), hours)
        sql = (
            "SELECT consumption FROM readings WHERE household_id = "
            f"'{data.consumer_ids[row]}' AND hour = {hour}"
        )
        out.append((sql, float(data.consumption[row, hour])))
    return out


def sample_rows(seed: int, n: int, k: int) -> np.ndarray:
    """Sorted indices of the consumers the golden reference recomputes."""
    rng = np.random.default_rng(seed + 29)
    return np.sort(rng.choice(n, size=min(k, n), replace=False))
