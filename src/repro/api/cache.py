"""Disk cache for sweep results, keyed on the spec that produced them.

Because a :class:`~repro.api.specs.SweepSpec` is pure data — every input of
the computation, including replicate counts and the master seed, round-trips
through ``spec.to_dict()`` — the spec dict is a complete cache key: two runs
with equal spec dicts are guaranteed bit-identical (the execution backend
provably does not affect results). :class:`ResultCache` exploits that to
memoize results on disk at two granularities:

* **sweep entries** — a whole
  :class:`~repro.experiments.runner.FigureResult`, keyed on the
  :class:`~repro.api.specs.SweepSpec` (:meth:`~ResultCache.load` /
  :meth:`~ResultCache.store`)::

      cache = ResultCache("~/.cache/repro-experiments")
      result = run_sweep(spec, cache=cache)      # simulates, stores
      again = run_sweep(spec, cache=cache)       # loads; again == result

* **point entries** — the raw per-replicate samples of a single sweep
  point, keyed on the point's concrete :class:`ExperimentSpec` plus its
  seed coordinates (:meth:`~ResultCache.load_point` /
  :meth:`~ResultCache.store_point`). ``run_sweep`` probes these per point
  and only recomputes the misses, which is what makes interrupted sweeps
  resumable and ``--shard I/N`` fan-out possible: N processes fill disjoint
  points of one shared cache directory, and a final pass assembles the
  figure from the warm cache. A point's replicate seeds depend only on the
  sweep seed and the point's task offset (see
  :func:`~repro.experiments.runner.spawn_tasks`), so the entry records
  ``(sweep_seed, spawn_start, runs)`` next to the experiment dict — the
  complete provenance of the stored samples.

* **point-extension entries** — one adaptive top-up batch of replicates
  beyond a point's initial block (:meth:`~ResultCache.load_point_extension`
  / :meth:`~ResultCache.store_point_extension`), keyed on the experiment
  plus ``(sweep_seed, point_index, start, runs)``. Top-up seeds depend only
  on the sweep seed and the absolute replicate position (see
  :func:`~repro.experiments.runner.spawn_point_extension_tasks`), so any
  adaptive sweep whose schedule revisits the same coordinates — a resumed
  run, another shard, a refined grid — reuses the batch instead of
  re-simulating it. Plain point entries carry no replication metadata at
  all, so replication-unaware and adaptive sweeps running the same code
  share them: a point warmed by a plain sweep counts toward an adaptive
  target as the initial block, and vice versa. (As with every entry kind,
  sharing is per installed code version — keys embed the source
  fingerprint, so upgrading the package re-simulates rather than replaying
  results from different code.)

Paired comparisons (:attr:`~repro.api.specs.SweepSpec.comparison`) add no
entry kind of their own: the payload is pure arithmetic over the very same
replicate samples, so a comparison-carrying sweep reuses every point and
point-extension entry of a plain run unchanged (only its *sweep* entry —
which embeds the comparison in the result — gets a distinct key).

Every key is a SHA-256 over the canonical (sorted-keys) JSON of the payload
identity plus the package version, a fingerprint of the installed package's
source files and a cache schema number — so upgrading the code, *editing*
it in an editable install, or changing the storage format all invalidate
stale entries instead of serving them.
Entries live one JSON file per key, fanned out over two-hex-digit
subdirectories, and each file carries the full spec dict for verification:
a hash collision or hand-edited file is treated as a miss, never served.

Writes are atomic (temp file + rename), so a crashed or parallel run cannot
leave a truncated entry behind; concurrent writers of the same key are
last-writer-wins, and every reader sees a complete entry. The cache never
prunes on its own — :meth:`~ResultCache.prune` (also
``repro-experiments cache prune``) trims by age or entry count, and
:meth:`~ResultCache.stats` / :meth:`~ResultCache.clear` round out the
maintenance surface.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from repro.api.specs import ExperimentSpec, SweepSpec
    from repro.experiments.runner import FigureResult

__all__ = ["ResultCache", "scenario_content_fingerprint"]

#: Bump to invalidate every existing cache entry on a storage-format change.
CACHE_SCHEMA = 1

#: Process-wide memo of :func:`_code_fingerprint` (the sources cannot
#: change meaningfully within one interpreter: modules are already loaded).
_FINGERPRINT: "str | None" = None


def _code_fingerprint() -> str:
    """A digest of the installed ``repro`` sources.

    ``__version__`` alone cannot invalidate the cache under an editable
    install (the README's own workflow), where code edits never bump the
    version: a result computed before an algorithm edit must not be served
    after it. Hashing every package source file (~a few hundred KB, once
    per process) closes that hole.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).resolve().parent
        for source in sorted(root.rglob("*.py")):
            digest.update(str(source.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def scenario_content_fingerprint(kind: str, params: "Mapping | None") -> object:
    """The content identity of a scenario's external inputs, or ``None``.

    Spec dicts identify a scenario by name and parameters — enough for the
    synthetic generators, but a file-backed scenario (``replay``) also
    depends on the *content* of the file its ``path`` parameter points to.
    Factories declare that dependency by exposing a ``content_fingerprint``
    attribute: a callable taking the params mapping and returning a
    JSON-safe value (digest, size, …) or ``None`` when the parameters pull
    in no external content. Wrapper scenarios (``overlay``, ``streaming``)
    delegate to their parts, so a replay nested anywhere in a composition
    still invalidates on file edits.

    Unknown scenario names return ``None`` — the spec will fail loudly at
    build time; key computation should not be the place that errors.
    """
    from repro.api.registry import SCENARIOS, UnknownNameError

    try:
        factory = SCENARIOS.resolve(kind)
    except UnknownNameError:
        return None
    fingerprint = getattr(factory, "content_fingerprint", None)
    if fingerprint is None:
        return None
    return fingerprint(dict(params or {}))


def _experiment_content(experiment: "ExperimentSpec") -> object:
    """Content extras of one experiment's scenario (``None`` when absent)."""
    scenario = experiment.scenario
    return scenario_content_fingerprint(scenario.kind, scenario.params)


class ResultCache:
    """A content-addressed store of figure results under one root directory.

    Args:
        root: directory holding the entries (created on first store).

    Attributes:
        hits/misses/stores: sweep-entry counters over this instance's
            lifetime — the CLI reports them and tests assert a re-run did
            not re-simulate.
        point_hits/point_misses/point_stores: the same counters for point
            entries; ``point_hits`` is how many sweep points a resumed run
            loaded instead of recomputing.
        extension_hits/extension_misses/extension_stores: the counters for
            adaptive top-up batches (point-extension entries).
    """

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.point_hits = 0
        self.point_misses = 0
        self.point_stores = 0
        self.extension_hits = 0
        self.extension_misses = 0
        self.extension_stores = 0

    # -- keys -------------------------------------------------------------------

    def _identity(self, **payload) -> dict:
        """The environment half of every key: schema + version + code."""
        import repro

        return {
            "schema": CACHE_SCHEMA,
            "version": repro.__version__,
            "code": _code_fingerprint(),
            **payload,
        }

    @staticmethod
    def _digest(payload: Mapping) -> str:
        from repro.api.specs import canonical_key

        return canonical_key(payload)

    def key_for(self, spec: "SweepSpec") -> str:
        """The stable cache key of ``spec``: SHA-256 of its canonical JSON.

        Includes the package version and a source fingerprint so code
        upgrades *and* in-place edits invalidate rather than replay stale
        results. File-backed scenarios additionally contribute a content
        digest of their input files (collected across every sweep point),
        so editing a replayed log invalidates the entry; specs without
        external content keep their historical keys unchanged.
        """
        payload = {"sweep": spec.to_dict()}
        content = []
        if spec.values:
            for x in spec.values:
                entry = _experiment_content(spec.experiment_at(x))
                if entry is not None and entry not in content:
                    content.append(entry)
        else:
            entry = _experiment_content(spec.experiment)
            if entry is not None:
                content.append(entry)
        if content:
            payload["content"] = content
        return self._digest(self._identity(**payload))

    def key_for_point(
        self,
        experiment: "ExperimentSpec",
        sweep_seed: int,
        spawn_start: int,
        runs: int,
    ) -> str:
        """The key of one sweep point's replicate samples.

        ``experiment`` is the *concrete* spec at the point (parameter
        already substituted), identified by its canonical content key;
        ``(sweep_seed, spawn_start, runs)`` pin the exact child seeds its
        replicates consumed. Together those determine the samples bit for
        bit, so any sweep whose point lands on the same coordinates — a
        rerun, another shard, or a grid extended at the tail — shares the
        entry. File-backed scenarios fold their input files' content
        digest into the key (see :func:`scenario_content_fingerprint`).
        """
        return self._unit(
            "point", experiment, sweep_seed, {"spawn_start": spawn_start}, runs
        )[0]

    def key_for_point_extension(
        self,
        experiment: "ExperimentSpec",
        sweep_seed: int,
        point_index: int,
        start: int,
        runs: int,
    ) -> str:
        """The key of one adaptive top-up batch at one sweep point.

        ``(point_index, start, runs)`` pin the batch's replicate positions
        ``start .. start + runs`` within point ``point_index``'s extension
        stream; together with the experiment content key and the sweep seed
        they determine the samples bit for bit (see
        :func:`~repro.experiments.runner.spawn_point_extension_tasks`).
        """
        return self._unit(
            "point-extension", experiment, sweep_seed,
            {"point_index": point_index, "start": start}, runs,
        )[0]

    def path_for_key(self, key: str) -> Path:
        """Where the entry with ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def path_for(self, spec: "SweepSpec") -> Path:
        """Where ``spec``'s entry lives (whether or not it exists yet)."""
        return self.path_for_key(self.key_for(spec))

    # -- load/store -------------------------------------------------------------

    def load(self, spec: "SweepSpec") -> "FigureResult | None":
        """The cached result of ``spec``, or ``None`` on a miss.

        Corrupt entries and spec-dict mismatches (hash collisions, edited
        files) count as misses — the caller re-simulates and overwrites.
        """
        from repro.experiments.runner import FigureResult

        path = self.path_for(spec)
        data = self._read(path)
        if data is None:
            self.misses += 1
            return None
        if data.get("schema") != CACHE_SCHEMA or data.get("sweep") != spec.to_dict():
            self.misses += 1
            return None
        try:
            result = FigureResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, spec: "SweepSpec", result: "FigureResult") -> Path:
        """Persist ``result`` under ``spec``'s key; returns the entry path."""
        import repro

        path = self.path_for(spec)
        payload = {
            "schema": CACHE_SCHEMA,
            "version": repro.__version__,
            "kind": "sweep",
            "key": self.key_for(spec),
            "sweep": spec.to_dict(),
            "result": result.to_dict(),
        }
        self._write(path, payload)
        self.stores += 1
        return path

    def load_point(
        self,
        experiment: "ExperimentSpec",
        sweep_seed: int,
        spawn_start: int,
        runs: int,
    ) -> "list[dict[str, float]] | None":
        """The cached replicate samples of one sweep point, or ``None``.

        Returns the ``runs`` per-replicate sample mappings in replicate
        order — exactly what the point's tasks produced. Corrupt entries,
        spec-dict mismatches and sample-count mismatches are misses.
        """
        return self._load_unit(
            "point", experiment, sweep_seed, {"spawn_start": spawn_start}, runs
        )

    def store_point(
        self,
        experiment: "ExperimentSpec",
        sweep_seed: int,
        spawn_start: int,
        runs: int,
        samples: "Sequence[Mapping[str, float]]",
    ) -> Path:
        """Persist one sweep point's replicate samples; returns the path."""
        return self._store_unit(
            "point", experiment, sweep_seed, {"spawn_start": spawn_start}, runs,
            samples,
        )

    def load_point_extension(
        self,
        experiment: "ExperimentSpec",
        sweep_seed: int,
        point_index: int,
        start: int,
        runs: int,
    ) -> "list[dict[str, float]] | None":
        """One cached adaptive top-up batch, or ``None`` on a miss.

        Mirrors :meth:`load_point` for the extension stream: corrupt
        entries, coordinate mismatches and malformed or non-finite sample
        blocks are misses.
        """
        return self._load_unit(
            "point-extension", experiment, sweep_seed,
            {"point_index": point_index, "start": start}, runs,
        )

    def store_point_extension(
        self,
        experiment: "ExperimentSpec",
        sweep_seed: int,
        point_index: int,
        start: int,
        runs: int,
        samples: "Sequence[Mapping[str, float]]",
    ) -> Path:
        """Persist one adaptive top-up batch; returns the entry path."""
        return self._store_unit(
            "point-extension", experiment, sweep_seed,
            {"point_index": point_index, "start": start}, runs, samples,
        )

    # -- the replicate-unit codec: point and point-extension entries ----------
    #
    # Both kinds hold a block of ``runs`` replicate samples of one experiment
    # and differ only in their kind string and the coordinates pinning the
    # block's seeds.

    #: unit kind → the prefix of its ``*_hits``/``*_misses``/``*_stores``
    _COUNTERS = {"point": "point", "point-extension": "extension"}

    def _unit(
        self, kind: str, experiment: "ExperimentSpec", sweep_seed: int,
        coordinates: Mapping, runs: int,
    ) -> "tuple[str, dict]":
        """A unit's key and its coordinate fields, in entry order."""
        fields = {
            "sweep_seed": int(sweep_seed),
            **{name: int(value) for name, value in coordinates.items()},
            "runs": int(runs),
        }
        payload = {"kind": kind, "experiment": experiment.cache_key(), **fields}
        content = _experiment_content(experiment)
        if content is not None:
            payload["content"] = content
        return self._digest(self._identity(**payload)), fields

    def _count(self, kind: str, event: str) -> None:
        counter = f"{self._COUNTERS[kind]}_{event}"
        setattr(self, counter, getattr(self, counter) + 1)

    def _load_unit(
        self, kind: str, experiment: "ExperimentSpec", sweep_seed: int,
        coordinates: Mapping, runs: int,
    ) -> "list[dict[str, float]] | None":
        key, fields = self._unit(kind, experiment, sweep_seed, coordinates, runs)
        data = self._read(self.path_for_key(key))
        samples = None
        if (
            data is not None
            and data.get("schema") == CACHE_SCHEMA
            and data.get("kind") == kind
            and data.get("experiment") == experiment.to_dict()
            and all(data.get(name) == value for name, value in fields.items())
        ):
            samples = self._decode_samples(data.get("samples"), runs)
        self._count(kind, "misses" if samples is None else "hits")
        return samples

    def _store_unit(
        self, kind: str, experiment: "ExperimentSpec", sweep_seed: int,
        coordinates: Mapping, runs: int,
        samples: "Sequence[Mapping[str, float]]",
    ) -> Path:
        import repro

        if len(samples) != int(runs):
            raise ValueError(f"{len(samples)} samples for runs={runs}")
        key, fields = self._unit(kind, experiment, sweep_seed, coordinates, runs)
        path = self.path_for_key(key)
        payload = {
            "schema": CACHE_SCHEMA,
            "version": repro.__version__,
            "kind": kind,
            "key": key,
            "experiment": experiment.to_dict(),
            **fields,
            "samples": [
                {str(name): float(value) for name, value in sample.items()}
                for sample in samples
            ],
        }
        self._write(path, payload)
        self._count(kind, "stores")
        return path

    @staticmethod
    def _decode_samples(samples, runs: int) -> "list[dict[str, float]] | None":
        """Validate a stored sample block; ``None`` marks the entry corrupt.

        A block must be a list of exactly ``runs`` name → float mappings
        with *finite* values: a NaN/inf smuggled in by a truncated write or
        a hand edit would otherwise flow into mean/CI arithmetic (which now
        rejects non-finite input loudly) — corrupt entries must read as
        misses instead.
        """
        try:
            if not isinstance(samples, list) or len(samples) != int(runs):
                raise ValueError(samples)
            decoded = [
                {str(name): float(value) for name, value in sample.items()}
                for sample in samples
            ]
            for sample in decoded:
                for value in sample.values():
                    if not math.isfinite(value):
                        raise ValueError(value)
        except (AttributeError, TypeError, ValueError):
            return None
        return decoded

    @staticmethod
    def _read(path: Path) -> "dict | None":
        """Parse one entry file; anything but a JSON object is ``None``.

        The cache directory is shared by uncoordinated processes, so a
        missing, truncated, hand-edited or foreign file must read as a
        miss for this one key — never an exception that bricks every
        reader of the directory.
        """
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _write(self, path: Path, payload: Mapping) -> None:
        """Atomic publish: a parallel run or crash never exposes a torn file.

        Concurrent writers of one key each write a private temp file and
        rename it over the destination — the POSIX rename is atomic, so the
        last writer wins and readers only ever see complete entries.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name, suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # Insertion order is preserved deliberately (no sort_keys):
                # a FigureResult's series dict is ordered by policy
                # declaration, and sorting it here would make a warm load
                # return columns in a different order than the fresh
                # computation it memoizes. Payload construction is
                # deterministic, so file bytes stay reproducible anyway.
                json.dump(payload, handle, indent=1)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- maintenance ------------------------------------------------------------

    def entries(self) -> "Iterator[Path]":
        """Every entry file currently in the cache (any kind, any schema).

        The directory is shared by uncoordinated processes: buckets (or the
        root itself) may vanish between listing and descent when a
        concurrent ``clear``/``prune`` runs, and in-flight atomic writes
        leave ``*.tmp`` files that are not entries. Both are skipped, never
        raised — :meth:`stats` and :meth:`prune` must work on a live cache.
        """
        try:
            buckets = sorted(self.root.iterdir())
        except OSError:  # root missing or deleted mid-listing
            return
        for bucket in buckets:
            if not (bucket.is_dir() and len(bucket.name) == 2):
                continue
            try:
                files = sorted(bucket.glob("*.json"))
            except OSError:  # bucket deleted between iterdir and glob
                continue
            # checked as the consumer resumes: a file listed here may be
            # deleted before then
            yield from (path for path in files if path.exists())

    def stats(self) -> dict:
        """A summary of what is on disk: entry/byte counts per entry kind."""
        kinds: dict[str, int] = {}
        total_bytes = 0
        count = 0
        for path in self.entries():
            count += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
            data = self._read(path)
            kind = "corrupt" if data is None else data.get("kind", "sweep")
            kinds[str(kind)] = kinds.get(str(kind), 0) + 1
        return {
            "root": str(self.root),
            "entries": count,
            "bytes": total_bytes,
            "kinds": dict(sorted(kinds.items())),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            removed += self._remove(path)
        return removed

    def prune(
        self,
        max_entries: "int | None" = None,
        max_age: "float | None" = None,
    ) -> int:
        """Trim the cache; returns how many entries were removed.

        ``max_age`` (seconds) drops entries whose file modification time is
        older than that; ``max_entries`` then drops the oldest entries until
        at most that many remain. Either bound may be given alone. Entries
        that vanish mid-prune (a concurrent prune or clear) are skipped, not
        errors — the cache directory is shared by design.
        """
        if max_entries is None and max_age is None:
            raise ValueError("prune needs max_entries and/or max_age")
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        aged: "list[tuple[float, Path]]" = []
        for path in self.entries():
            try:
                aged.append((path.stat().st_mtime, path))
            except OSError:
                continue
        aged.sort()  # oldest first
        removed = 0
        if max_age is not None:
            cutoff = time.time() - max_age
            while aged and aged[0][0] < cutoff:
                removed += self._remove(aged.pop(0)[1])
        if max_entries is not None and len(aged) > max_entries:
            for _mtime, path in aged[: len(aged) - max_entries]:
                removed += self._remove(path)
        return removed

    def _remove(self, path: Path) -> int:
        """Unlink one entry, tolerating concurrent removal; 1 if removed."""
        try:
            path.unlink()
        except OSError:
            return 0
        return 1

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r})"
