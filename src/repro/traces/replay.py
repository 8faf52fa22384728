"""Replaying external request logs as allocation scenarios.

The paper's evaluation generates synthetic demand (commuters, time zones,
mobility); production gateways log *real* requests. This module closes the
gap: a request log — CSV, JSONL, or a saved ``.npz`` trace — becomes a
registered scenario (``"replay"``) that drops into every figure, sweep,
comparison and queue path and can be scored against OPT like any synthetic
workload.

Three pieces:

* **readers** — :func:`iter_records` streams ``(round, key)`` records from
  CSV/JSONL files with configurable column/field names, or from a saved
  ``.npz`` trace;
* **node mapping** — deterministic :func:`make_mapper` strategies placing
  raw source keys (server names, user ids, IPs) onto substrate nodes:
  ``hash`` (stable sha256 bucket), ``round_robin`` (first-appearance
  order), ``table`` (explicit mapping), or ``none`` (keys already are node
  indices);
* **scenario** — :class:`TraceReplayScenario`, streaming the file lazily
  (O(round) memory) through its ``stream``, cycling, padding or erroring
  when the log is shorter than the horizon.

File-backed scenarios carry a content fingerprint (sha256 + size, memoized
per ``(path, mtime, size)``) that the result cache folds into its keys, so
editing a log in place invalidates cached results.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.api.registry import register_scenario
from repro.topology.substrate import Substrate
from repro.workload.base import Scenario, Trace

__all__ = [
    "TraceReplayScenario",
    "iter_records",
    "rounds_from_records",
    "make_mapper",
    "file_digest",
    "replay_stats",
]

_FORMATS = ("csv", "jsonl", "npz")
_MAPPINGS = ("hash", "round_robin", "table", "none")
_EXTENDS = ("cycle", "pad", "error")

_SUFFIX_FORMATS = {
    ".csv": "csv",
    ".jsonl": "jsonl",
    ".ndjson": "jsonl",
    ".npz": "npz",
}


def infer_format(path: "str | Path") -> str:
    """The log format implied by ``path``'s suffix."""
    suffix = Path(path).suffix.lower()
    try:
        return _SUFFIX_FORMATS[suffix]
    except KeyError:
        raise ValueError(
            f"cannot infer log format from suffix {suffix!r} of {path}; "
            f"pass format= explicitly (one of {_FORMATS})"
        ) from None


# -- content identity ------------------------------------------------------------

_DIGEST_CACHE: "dict[tuple[str, int, int], dict]" = {}


def file_digest(path: "str | Path") -> dict:
    """Content identity of a log file: ``{name, sha256, size}``.

    Memoized per ``(resolved path, mtime_ns, size)`` so repeated cache-key
    computations over a sweep hash each file once; touching the file's
    content re-hashes it.
    """
    resolved = Path(path).resolve()
    stat = resolved.stat()
    cache_key = (str(resolved), stat.st_mtime_ns, stat.st_size)
    cached = _DIGEST_CACHE.get(cache_key)
    if cached is not None:
        return dict(cached)
    digest = hashlib.sha256()
    with open(resolved, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    entry = {
        "name": resolved.name,
        "sha256": digest.hexdigest(),
        "size": stat.st_size,
    }
    _DIGEST_CACHE[cache_key] = entry
    return dict(entry)


# -- node mapping ----------------------------------------------------------------


def _hash_key(key) -> int:
    """A stable non-negative integer for any raw source key."""
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _HashMapper:
    """sha256 bucket: same key → same node, independent of arrival order."""

    name = "hash"

    def __init__(self, targets: np.ndarray) -> None:
        self.targets = targets

    def __call__(self, key) -> int:
        return int(self.targets[_hash_key(key) % self.targets.size])


class _RoundRobinMapper:
    """First-appearance order: the k-th distinct key gets the k-th node."""

    name = "round_robin"

    def __init__(self, targets: np.ndarray) -> None:
        self.targets = targets
        self.assigned: "dict[object, int]" = {}

    def __call__(self, key) -> int:
        node = self.assigned.get(key)
        if node is None:
            node = int(self.targets[len(self.assigned) % self.targets.size])
            self.assigned[key] = node
        return node


class _TableMapper:
    """Explicit raw-key → node-index table; unknown keys are errors."""

    name = "table"

    def __init__(self, table: Mapping, n_nodes: int) -> None:
        self.table = {str(k): int(v) for k, v in table.items()}
        for raw, node in self.table.items():
            if not 0 <= node < n_nodes:
                raise ValueError(
                    f"mapping table sends {raw!r} to node {node}, outside "
                    f"the substrate's 0..{n_nodes - 1}"
                )

    def __call__(self, key) -> int:
        try:
            return self.table[str(key)]
        except KeyError:
            raise ValueError(
                f"log key {key!r} is not in the mapping table "
                f"({len(self.table)} entries)"
            ) from None


class _IdentityMapper:
    """Keys already are node indices (saved traces, pre-mapped logs)."""

    name = "none"

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes

    def __call__(self, key) -> int:
        try:
            node = int(key)
        except (TypeError, ValueError):
            raise ValueError(
                f"mapping 'none' expects integer node indices, got {key!r}; "
                f"use mapping='hash'/'round_robin'/'table' for raw keys"
            ) from None
        if not 0 <= node < self.n_nodes:
            raise ValueError(
                f"log node index {node} outside the substrate's "
                f"0..{self.n_nodes - 1}"
            )
        return node


def make_mapper(
    mapping: str,
    targets: np.ndarray,
    table: "Mapping | None" = None,
    n_nodes: "int | None" = None,
):
    """A deterministic ``key -> node index`` callable for ``mapping``.

    ``targets`` is the array of eligible node indices (normally the
    substrate's access points); ``table`` is required for (and only for)
    the ``"table"`` strategy; ``n_nodes`` bounds table/identity results
    (defaults to ``targets.max() + 1``). The total-function property —
    every key maps to a valid node or raises — is what the property tests
    pin down.
    """
    if mapping not in _MAPPINGS:
        raise ValueError(f"unknown mapping {mapping!r}; expected one of {_MAPPINGS}")
    if n_nodes is None:
        n_nodes = int(targets.max()) + 1
    if mapping == "table":
        if not table:
            raise ValueError("mapping 'table' needs a non-empty table= mapping")
        return _TableMapper(table, n_nodes=n_nodes)
    if table:
        raise ValueError(f"table= is only meaningful with mapping='table', not {mapping!r}")
    if mapping == "hash":
        return _HashMapper(targets)
    if mapping == "round_robin":
        return _RoundRobinMapper(targets)
    return _IdentityMapper(n_nodes=n_nodes)


# -- readers ---------------------------------------------------------------------


def _parse_round(value, where: str):
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: round value {value!r} is not numeric") from None


def _iter_csv(path: Path, node_field: str, round_field: "str | None"):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return
        if node_field not in reader.fieldnames:
            raise ValueError(
                f"{path.name}: no column {node_field!r} "
                f"(columns: {', '.join(reader.fieldnames)})"
            )
        has_round = round_field is not None and round_field in reader.fieldnames
        for i, row in enumerate(reader):
            raw_round = row[round_field] if has_round else None
            yield _parse_round(raw_round, f"{path.name} row {i}"), row[node_field]


def _iter_jsonl(path: Path, node_field: str, round_field: "str | None"):
    with open(path, encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path.name} line {i + 1}: invalid JSON ({exc})") from None
            if node_field not in record:
                raise ValueError(f"{path.name} line {i + 1}: no field {node_field!r}")
            raw_round = record.get(round_field) if round_field else None
            yield _parse_round(raw_round, f"{path.name} line {i + 1}"), record[node_field]


def _iter_npz(path: Path):
    trace = Trace.load(path)
    for t, requests in enumerate(trace):
        for node in requests:
            yield float(t), int(node)


def iter_records(
    path: "str | Path",
    format: "str | None" = None,
    node_field: str = "node",
    round_field: "str | None" = "round",
) -> Iterator[tuple]:
    """Stream ``(round_value, raw_key)`` records from a request log.

    ``round_value`` is a float (or ``None`` when the log has no round
    column — pair with ``requests_per_round``); ``raw_key`` is the
    unmapped source key. The file is read lazily, one record at a time.
    """
    path = Path(path)
    format = format or infer_format(path)
    if format not in _FORMATS:
        raise ValueError(f"unknown log format {format!r}; expected one of {_FORMATS}")
    if format == "csv":
        yield from _iter_csv(path, node_field, round_field)
    elif format == "jsonl":
        yield from _iter_jsonl(path, node_field, round_field)
    else:
        yield from _iter_npz(path)


def rounds_from_records(
    records: Iterable[tuple],
    mapper,
    round_duration: "float | None" = None,
    requests_per_round: "int | None" = None,
    sort: bool = False,
    limit: "int | None" = None,
    where: str = "replay log",
) -> Iterator[np.ndarray]:
    """Group mapped records into per-round int64 arrays.

    The round index of a record is, in order of precedence:
    ``record_position // requests_per_round`` when ``requests_per_round``
    is set; ``round_value // round_duration`` when ``round_duration`` is
    set (timestamp logs); the integer ``round_value`` otherwise. Gaps
    between indices become empty rounds. Round indices must be
    nondecreasing unless ``sort=True`` (which materialises the records —
    ``repro-experiments trace convert --sort`` does this once, offline).
    """
    if requests_per_round is not None and requests_per_round < 1:
        raise ValueError(f"requests_per_round must be >= 1, got {requests_per_round}")
    if round_duration is not None and round_duration <= 0:
        raise ValueError(f"round_duration must be > 0, got {round_duration}")

    def round_index(position: int, round_value) -> int:
        if requests_per_round is not None:
            return position // requests_per_round
        if round_value is None:
            raise ValueError(
                f"{where}: records carry no round value; set round_field= "
                f"to the right column or requests_per_round= to batch them"
            )
        if round_duration is not None:
            return int(round_value // round_duration)
        return int(round_value)

    indexed = (
        (round_index(position, round_value), mapper(key))
        for position, (round_value, key) in enumerate(records)
    )
    if sort:
        indexed = iter(sorted(indexed, key=lambda pair: pair[0]))

    current: "int | None" = None
    nodes: "list[int]" = []
    produced = 0

    def flush():
        nonlocal nodes
        arr = np.asarray(nodes, dtype=np.int64)
        nodes = []
        return arr

    for r, node in indexed:
        if current is None:
            current = r
        elif r < current:
            raise ValueError(
                f"{where}: round indices go backwards ({r} after {current}); "
                f"sort the log first (repro-experiments trace convert --sort)"
            )
        while r > current:
            yield flush()
            produced += 1
            if limit is not None and produced >= limit:
                return
            current += 1
        nodes.append(node)
    if current is not None and (limit is None or produced < limit):
        yield flush()


# -- the scenario ----------------------------------------------------------------


@register_scenario("replay")
@dataclass
class TraceReplayScenario(Scenario):
    """Replay an external request log as an allocation scenario.

    Args:
        substrate: substrate network the log is mapped onto.
        path: the log file (CSV, JSONL, or a saved ``.npz`` trace).
        format: log format; inferred from the suffix when ``None``.
        node_field: CSV column / JSONL field holding the source key.
        round_field: CSV column / JSONL field holding the round index or
            timestamp (ignored for ``.npz``).
        round_duration: when set, ``round_field`` values are timestamps and
            each round spans this many time units.
        requests_per_round: when set, ignore round values and batch the log
            into fixed-size rounds in file order.
        mapping: node-mapping strategy (``hash``, ``round_robin``,
            ``table``, ``none``); defaults to ``none`` for ``.npz`` logs
            (already node indices) and ``hash`` otherwise.
        table: raw-key → node-index mapping for ``mapping='table'``.
        extend: what to do when the log is shorter than the horizon —
            ``cycle`` (repeat from the start; default), ``pad`` (empty
            rounds), or ``error``.
        limit: use at most this many rounds of the log per pass.
    """

    kind = "replay"

    substrate: Substrate
    path: str = ""
    format: "str | None" = None
    node_field: str = "node"
    round_field: "str | None" = "round"
    round_duration: "float | None" = None
    requests_per_round: "int | None" = None
    mapping: "str | None" = None
    table: "Mapping | None" = None
    extend: str = "cycle"
    limit: "int | None" = None
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("replay needs a path= to the request log")
        self.format = self.format or infer_format(self.path)
        if self.format not in _FORMATS:
            raise ValueError(
                f"unknown log format {self.format!r}; expected one of {_FORMATS}"
            )
        if self.mapping is None:
            self.mapping = "none" if self.format == "npz" else "hash"
        if self.mapping not in _MAPPINGS:
            raise ValueError(
                f"unknown mapping {self.mapping!r}; expected one of {_MAPPINGS}"
            )
        if self.extend not in _EXTENDS:
            raise ValueError(
                f"unknown extend mode {self.extend!r}; expected one of {_EXTENDS}"
            )
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
        self.scenario_name = (
            f"replay({Path(self.path).name},map={self.mapping})"
        )

    def _make_mapper(self):
        return make_mapper(
            self.mapping,
            self.substrate.access_points,
            self.table,
            n_nodes=self.substrate.n,
        )

    def _iter_file_rounds(self, mapper) -> Iterator[np.ndarray]:
        records = iter_records(
            self.path, self.format, self.node_field, self.round_field
        )
        yield from rounds_from_records(
            records,
            mapper,
            round_duration=self.round_duration,
            requests_per_round=self.requests_per_round,
            limit=self.limit,
            where=Path(self.path).name,
        )

    def stream(self, horizon: int, rng: "np.random.Generator | None" = None):
        """Yield replayed rounds lazily; ``rng`` is unused (replay is
        deterministic) but accepted for protocol compatibility."""
        mapper = self._make_mapper()  # shared across passes: round_robin
        # assignments from the first pass are reused when cycling.
        emitted = 0
        while emitted < horizon:
            produced = 0
            for requests in self._iter_file_rounds(mapper):
                if requests.size:
                    n = self.substrate.n
                    low, high = int(requests.min()), int(requests.max())
                    if low < 0 or high >= n:
                        raise ValueError(
                            f"{Path(self.path).name}: mapped node {high if high >= n else low} "
                            f"outside the substrate's 0..{n - 1}"
                        )
                yield requests
                emitted += 1
                produced += 1
                if emitted >= horizon:
                    return
            if produced == 0:
                raise ValueError(f"{Path(self.path).name}: replay log has no rounds")
            if self.extend == "error":
                raise ValueError(
                    f"{Path(self.path).name}: log has {produced} rounds but the "
                    f"horizon needs {horizon} (extend='error')"
                )
            if self.extend == "pad":
                while emitted < horizon:
                    yield np.empty(0, dtype=np.int64)
                    emitted += 1
                return
            # extend == "cycle": re-read the file from the start.

    def metadata(self) -> dict:
        """The mapping, the extend mode and the log file's digest."""
        return {
            "scenario": self.kind,
            "mapping": self.mapping,
            "extend": self.extend,
            "substrate": self.substrate.name,
            **file_digest(self.path),
        }


def _replay_fingerprint(params) -> "dict | None":
    """Content identity for cache keys: the log file's digest."""
    path = params.get("path")
    if not path:
        return None
    return {"scenario": "replay", **file_digest(path)}


TraceReplayScenario.content_fingerprint = staticmethod(_replay_fingerprint)


# -- CLI support -----------------------------------------------------------------


def replay_stats(rounds: Iterable[np.ndarray], top: int = 5) -> dict:
    """Summary statistics of a round sequence (for ``trace stats``)."""
    n_rounds = 0
    total = 0
    nonempty = 0
    sizes: "list[int]" = []
    counts: "dict[int, int]" = {}
    max_node = -1
    for requests in rounds:
        n_rounds += 1
        size = int(requests.size)
        sizes.append(size)
        total += size
        if size:
            nonempty += 1
            max_node = max(max_node, int(requests.max()))
            for node, count in zip(*np.unique(requests, return_counts=True)):
                counts[int(node)] = counts.get(int(node), 0) + int(count)
    busiest = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top]
    return {
        "rounds": n_rounds,
        "total_requests": total,
        "nonempty_rounds": nonempty,
        "distinct_nodes": len(counts),
        "max_node": max_node,
        "requests_per_round": {
            "min": min(sizes) if sizes else 0,
            "max": max(sizes) if sizes else 0,
            "mean": round(total / n_rounds, 3) if n_rounds else 0.0,
        },
        "busiest_nodes": [{"node": node, "requests": count} for node, count in busiest],
    }
