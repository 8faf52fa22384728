"""Command-line experiment runner: ``python -m repro.experiments``.

Modes:

* **figure regeneration** — rerun a registered reproduction by id::

      python -m repro.experiments fig03            # quick-scale reproduction
      python -m repro.experiments fig15 --paper    # exact caption parameters
      python -m repro.experiments fig03 --workers 4 --runs 10
      python -m repro.experiments rocketfuel --json
      python -m repro.experiments --list

* **declarative runs** — compose any registered policy/scenario/topology
  triple (plus derived metrics) without writing code::

      python -m repro.experiments run --policy onth --scenario commuter \\
          --topology erdos_renyi:n=200 --horizon 200
      python -m repro.experiments run --policy onth --policy onbr \\
          --topology erdos_renyi:n=100 --sweep scenario.sojourn=5,10,20 \\
          --runs 5 --workers 4 --json
      python -m repro.experiments run --policy onth --topology line:n=5 \\
          --metric cost_ratio_vs:reference=OPT --sweep scenario.sojourn=2,5

* **reports and the work queue** — ``report`` renders figures into a
  publishable EXPERIMENTS.md (``--bundle`` adds a repro bundle that
  ``run --from-bundle`` replays); ``enqueue`` publishes a ``run`` sweep as
  queue tasks that ``worker`` processes drain and ``serve`` answers over
  HTTP::

      python -m repro.experiments report fig03 --out EXPERIMENTS.md
      python -m repro.experiments worker --queue q.db --cache-dir cache/

* **inventory** — print every registered component with its parameters::

      python -m repro.experiments list
      python -m repro.experiments list metrics

* **cache maintenance** — inspect or trim a ``--cache-dir``::

      python -m repro.experiments cache stats --cache-dir ~/.cache/repro
      python -m repro.experiments cache prune --cache-dir ~/.cache/repro \\
          --max-entries 5000 --max-age 604800
      python -m repro.experiments cache clear --cache-dir ~/.cache/repro

* **trace tooling** — validate, summarise or convert external request logs
  for the ``replay`` scenario::

      python -m repro.experiments trace validate requests.csv
      python -m repro.experiments trace stats requests.jsonl --json
      python -m repro.experiments trace convert requests.csv \\
          --out requests.npz --nodes 50 --mapping hash
      python -m repro.experiments run --policy onth --topology line:n=5 \\
          --scenario replay:path=requests.csv

Quick scale shrinks network sizes, horizons and run counts to keep any
single figure under roughly a minute while preserving its qualitative
shape; ``--paper`` uses the caption parameters registered next to each
figure function. ``--workers N`` fans sweep replicates out over N processes
(results are bit-identical to the serial run), ``--runs`` overrides the
replicate count at any scale and ``--json`` emits the machine-readable
result including the resolved spec. ``--cache-dir DIR`` memoizes results on
disk keyed on the spec (``--no-cache`` bypasses an enabled cache): whole
sweeps *and* every individual sweep point, always both, so an interrupted
or partially invalidated sweep resumes from the per-point entries instead
of restarting; stderr reports ``cache hit`` or ``cache miss`` for the
sweep. ``--shard I/N`` computes only every N-th sweep point starting at
the I-th (1-based) into the shared cache directory — run the N shards as N
independent processes or CI jobs, then rerun without ``--shard`` to
assemble the full figure from the warm cache, bit-identical to a serial
run.

Confidence-aware replication (both modes): ``--ci LEVEL`` attaches
per-point confidence intervals to the result (``±`` halfwidth columns in
tables, shaded bands with ``--plot``); ``--target-halfwidth X`` (absolute)
or ``X%`` (relative to the mean) additionally makes replication adaptive —
every sweep point tops up replicates, cache-first, until its CI meets the
target or hits ``--max-runs`` — and the per-point replicate counts are
reported on stderr. ``--ci-method bootstrap`` swaps the Student-t interval
for a BCa bootstrap.

Paired comparisons (both modes): ``--compare BASELINE`` reports, next to
the marginal series, the *paired* per-replicate difference of every other
series against the ``BASELINE`` series (``--compare-mode ratio`` for
ratios) with a paired confidence interval — policies share each
replicate's trace, so these intervals are far tighter than the marginal
ones. Combined with ``--target-halfwidth``, adaptive replication stops as
soon as the paired intervals (not the marginal ones) meet the target —
same conclusions, fewer simulated replicates. Comparisons reuse the exact
replicate samples (and cache entries) of a plain run.

Each flag group is defined once and shared by the parsers that take it;
the spec flags default to the :class:`CostSpec`/:class:`ExperimentSpec`
fields. Every user error raises :class:`CLIError`, which :func:`main`
prints as one ``error: ...`` line before returning exit status 2. The
CLI checks its flags only: whether a spec can run is decided by the one
pre-flight in :mod:`repro.api` that ``run``, ``run --from-bundle``,
``report``, ``enqueue`` and the service's ``POST /sweep`` all pass
through, so a bad value anywhere in the spec, such as ``--topology
line:n=-3``, ends as ``error: experiment.topology: n must be >= 1, got
-3`` before any replicate runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sqlite3
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.analysis.stats import CI_METHODS, COMPARISON_MODES
from repro.api.cache import ResultCache
from repro.api.execution import ProcessPoolBackend
from repro.api.registry import (
    FIGURES,
    METRICS,
    POLICIES,
    SCENARIOS,
    TOPOLOGIES,
    FigureEntry,
    UnknownNameError,
    list_metrics,
    list_policies,
    list_scenarios,
    list_topologies,
)
from repro.api.specs import (
    ComparisonSpec,
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    parse_component,
    parse_value,
)
from repro.experiments.reporting import format_figure

#: The execution options a sweep figure forwards to ``run_sweep`` through
#: its ``**run`` keywords.
_RUN_OPTIONS = ("backend", "cache", "shard", "replication", "comparison")

#: What opening a queue database or serving on it can raise.
_QUEUE_ERRORS = (sqlite3.Error, OSError, ValueError)


class CLIError(Exception):
    """A user error: :func:`main` prints it on one line and exits 2."""


@contextmanager
def _user_errors(*kinds, prefix: str = "", suffix: str = ""):
    """Re-raise ``kinds`` escaping the block as :class:`CLIError`."""
    try:
        yield
    except kinds as error:
        raise CLIError(f"{prefix}{error}{suffix}") from error


def _queue_errors(path: str):
    """The one error path of ``enqueue``/``worker`` opening a queue."""
    return _user_errors(*_QUEUE_ERRORS, prefix=f"cannot open queue {path!r}: ")


def _default(cls, name: str):
    """The dataclass default of field ``name`` of spec class ``cls``."""
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


def _backend_for(args):
    """The backend ``--workers``/``--queue`` select (None = serial).

    The two flags claim the same decision, so passing both is an error
    rather than silently preferring one.
    """
    queue, workers = args.queue, args.workers
    if queue is not None and workers is not None:
        raise CLIError(
            "--queue and --workers are mutually exclusive: the queue "
            "backend already fans out to every worker process on the "
            "queue file"
        )
    if queue is not None:
        from repro.api.execution import QueueBackend

        return QueueBackend(queue)
    return None if workers is None or workers == 1 else ProcessPoolBackend(workers)


def _checked(convert, valid, rule: str, flag: "str | None" = None):
    """An argparse type: ``convert(text)``, which must satisfy ``valid``.

    A bad value is argparse's usage error (exit 2). With ``flag`` it is a
    :class:`CLIError` instead, which argparse lets through to :func:`main`:
    the queue commands report every bad input on one line.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            if flag is None:
                raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
            raise CLIError(f"{flag} must be {rule}, got {text!r}")
        return value

    return parse


#: argparse type for counts that must be >= 1 (``--runs``, ``--workers``,
#: ...): ``--runs 0`` is a flag error, not a traceback out of the sweep.
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")

#: argparse type for ``--seed``: numpy seeds must be non-negative.
_seed = _checked(int, lambda v: v >= 0, ">= 0", "--seed")


def _parse_queue(text: str) -> str:
    """argparse type for ``--queue PATH``: the queue database file.

    Rejects the obviously-wrong shapes up front (empty, an existing
    directory) with a one-line flag error; everything else is handed to
    the broker, whose own failures the commands turn into exit 2.
    """
    value = text.strip()
    if not value:
        raise argparse.ArgumentTypeError("queue path must not be empty")
    if Path(value).expanduser().is_dir():
        raise argparse.ArgumentTypeError(
            f"queue path {text!r} is a directory; pass a database file path"
        )
    return value


def _cache_for(args) -> "ResultCache | None":
    """The result cache selected by ``--cache-dir`` / ``--no-cache``.

    ``--shard`` writes into a shared cache, so it needs one.
    """
    if args.no_cache or not args.cache_dir:
        if args.shard is not None:
            raise CLIError(
                "--shard needs a shared --cache-dir (without --no-cache)"
            )
        return None
    return ResultCache(args.cache_dir)


def _shard_pair(text: str) -> "tuple[int, int]":
    index, count = text.split("/")  # exactly one slash, else ValueError
    return (int(index) - 1, int(count))


#: argparse type for ``--shard I/N`` (1-based): returns 0-based (I-1, N).
_parse_shard = _checked(
    _shard_pair, lambda v: 0 <= v[0] < v[1], "I/N with 1 <= I <= N (e.g. 1/4)"
)


def _add_scale_flags(parser: argparse.ArgumentParser) -> None:
    """Figure scale: ``--paper``/``--seed``/``--runs`` (figure mode, report)."""
    parser.add_argument(
        "--paper", action="store_true",
        help="use the exact caption parameters instead of the quick scale",
    )
    parser.add_argument(
        "--seed", type=_seed, default=None, help="override the master seed"
    )
    parser.add_argument(
        "--runs", type=_positive_int, default=None,
        help="override the replicate count per sweep point",
    )


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    """Where replicates execute: ``--workers N`` or ``--queue PATH``."""
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="run sweep replicates on N worker processes (default: serial)",
    )
    parser.add_argument(
        "--queue", type=_parse_queue, default=None, metavar="PATH",
        help=(
            "run sweep replicates through the work queue at PATH (see the "
            "'worker' subcommand): this process drains blocks itself and "
            "any workers on the same queue file help; incompatible with "
            "--workers"
        ),
    )


def _add_output_flags(
    parser: argparse.ArgumentParser, what: str = "the result",
    plot: bool = False,
) -> None:
    """``--json`` (emitting ``what``) and, with ``plot``, ``--plot``."""
    parser.add_argument(
        "--json", action="store_true", help=f"emit {what} as JSON"
    )
    if plot:
        parser.add_argument(
            "--plot", action="store_true",
            help="also render the series as an ASCII chart",
        )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=(
            "memoize results on disk under DIR, keyed on the spec — whole "
            "sweeps and individual sweep points; an identical re-run loads "
            "instead of simulating, a partial one resumes"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass --cache-dir (force a fresh simulation, store nothing)",
    )
    parser.add_argument(
        "--shard", type=_parse_shard, default=None, metavar="I/N",
        help=(
            "compute only every N-th sweep point starting at the I-th "
            "(1-based) into the shared --cache-dir; run all N shards as "
            "independent processes, then rerun without --shard to assemble"
        ),
    )


#: argparse type for ``--ci``: a confidence level in (0, 1).
_parse_ci_level = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


def _halfwidth_pair(text: str) -> "tuple[float, bool]":
    raw = text.strip()
    relative = raw.endswith("%")
    value = float(raw[:-1] if relative else raw)
    return (value / 100.0 if relative else value, relative)


#: argparse type for ``--target-halfwidth X[%]``: (value, relative). The
#: chained comparison also rejects NaN, whose comparisons are all false.
_parse_halfwidth = _checked(
    _halfwidth_pair, lambda v: 0 < v[0] < math.inf,
    "a positive finite number or percentage (e.g. 50 or 5%)",
)


#: --max-runs fallback when adaptive replication is requested without one.
DEFAULT_MAX_RUNS = 30


def _add_confidence_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ci", type=_parse_ci_level, default=None, metavar="LEVEL",
        help=(
            "attach per-point confidence intervals at LEVEL (e.g. 0.95) to "
            "the result: ± columns in tables, shaded bands with --plot"
        ),
    )
    parser.add_argument(
        "--target-halfwidth", type=_parse_halfwidth, default=None,
        metavar="X[%]",
        help=(
            "adaptive replication: top every sweep point up with extra "
            "replicates until its CI halfwidth is <= X (absolute) or X%% "
            "of the mean (with the %% suffix), capped by --max-runs"
        ),
    )
    parser.add_argument(
        "--max-runs", type=int, default=None, metavar="N",
        help=(
            "adaptive replication cap per point "
            f"(default {DEFAULT_MAX_RUNS} when --target-halfwidth is set)"
        ),
    )
    parser.add_argument(
        "--ci-method", choices=CI_METHODS,
        default=_default(ReplicationSpec, "method"),
        help="interval estimator: Student-t (default) or BCa bootstrap",
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help=(
            "report paired comparisons of every other series against the "
            "BASELINE series (policies share each replicate's trace, so "
            "paired intervals are much tighter than marginal ones); with "
            "--target-halfwidth, adaptive replication stops on the paired "
            "halfwidths instead of the marginal ones"
        ),
    )
    parser.add_argument(
        "--compare-mode", choices=COMPARISON_MODES,
        default=_default(ComparisonSpec, "mode"),
        help=(
            "paired statistic: per-replicate difference contrast-baseline "
            "(default) or ratio contrast/baseline"
        ),
    )


def _comparison_for(args) -> "ComparisonSpec | None":
    """The :class:`ComparisonSpec` requested by ``--compare``."""
    if args.compare is None:
        return None
    return ComparisonSpec(
        baseline=args.compare,
        mode=args.compare_mode,
        ci_level=(
            _default(ComparisonSpec, "ci_level") if args.ci is None else args.ci
        ),
        method=args.ci_method,
    )


def _replication_for(args) -> "ReplicationSpec | None":
    """The :class:`ReplicationSpec` requested by the confidence flags."""
    target, level = args.target_halfwidth, args.ci
    if target is None and level is None:
        return None
    halfwidth, relative = target if target is not None else (None, False)
    max_runs = args.max_runs
    if halfwidth is not None and max_runs is None:
        max_runs = DEFAULT_MAX_RUNS
    return ReplicationSpec(
        ci_level=(
            _default(ReplicationSpec, "ci_level") if level is None else level
        ),
        target_halfwidth=halfwidth,
        relative=relative,
        max_runs=max_runs,
        method=args.ci_method,
    )


def _validate_confidence_args(args) -> None:
    """Surface bad confidence-flag combinations before anything simulates.

    Flags that would be silently dead are hard errors: a user passing
    ``--max-runs`` without ``--target-halfwidth`` (or ``--ci-method``
    without any confidence flag) believes adaptivity is active when
    nothing would happen.
    """
    target, level, compare = args.target_halfwidth, args.ci, args.compare
    runs, max_runs = args.runs, args.max_runs
    if max_runs is not None and target is None:
        raise CLIError(
            "--max-runs only caps adaptive replication; it needs "
            "--target-halfwidth"
        )
    if (
        args.ci_method != _default(ReplicationSpec, "method")
        and target is None
        and level is None
        and compare is None
    ):
        raise CLIError(
            "--ci-method has no effect without --ci, --target-halfwidth or "
            "--compare"
        )
    if args.compare_mode != _default(ComparisonSpec, "mode") and compare is None:
        raise CLIError("--compare-mode has no effect without --compare")
    with _user_errors(ValueError):
        _replication_for(args)  # ReplicationSpec validation (levels, caps)
        _comparison_for(args)   # ComparisonSpec validation (baseline, mode)
    if (
        target is not None
        and runs is not None
        and max_runs is not None
        and max_runs < runs
    ):
        raise CLIError(f"--max-runs ({max_runs}) must be >= --runs ({runs})")


def _print_cache_status(cache: ResultCache, specs) -> None:
    """The whole-sweep cache hit/miss line printed to stderr after a run."""
    status = "hit" if cache.hits else "miss"
    keys = " ".join(cache.key_for(spec)[:12] for spec in specs)
    print(f"cache {status} {keys} in {cache.root}", file=sys.stderr)


def _point_stats_line(cache: ResultCache) -> str:
    """The per-point hit/miss summary printed to stderr after a sweep.

    Derived purely from the cache counters: every sweep point is probed
    exactly once per cached run, so hits + misses is the point total and
    misses not recomputed here belong to other shards.
    """
    total = cache.point_hits + cache.point_misses
    pending = cache.point_misses - cache.point_stores
    line = (
        f"points: {cache.point_hits}/{total} cached, "
        f"{cache.point_stores} computed"
    )
    if pending > 0:
        line += f", {pending} left to other shards"
    if cache.extension_hits or cache.extension_stores:
        line += (
            f"; top-up batches: {cache.extension_hits} cached, "
            f"{cache.extension_stores} computed"
        )
    return line


def _print_result(
    result, args, cache, elapsed: float, extra: dict, footer: str,
    emit_json: bool = True,
) -> "dict | None":
    """Print a finished figure or ``run`` sweep.

    Stats lines go to stderr; then either the ``--json`` payload (the
    result dict, ``extra`` and the elapsed time; returned, and printed when
    ``emit_json``) or the table, the ``--plot`` charts and ``footer``.
    """
    if cache is not None and (cache.point_hits or cache.point_misses):
        print(_point_stats_line(cache), file=sys.stderr)
    counts = [int(n) for n in getattr(result, "counts", ())]
    if counts:
        low, high = min(counts), max(counts)
        spread = str(low) if low == high else f"{low}-{high}"
        print(
            f"replicates/point: {spread} "
            f"(total {sum(counts)} across {len(counts)} points)",
            file=sys.stderr,
        )
    if args.json:
        if args.plot:
            print("note: --plot is ignored with --json", file=sys.stderr)
        payload = {
            **result.to_dict(), **extra, "elapsed_seconds": round(elapsed, 3),
        }
        if emit_json:
            print(json.dumps(payload, indent=2))
        return payload
    print(format_figure(result))
    if args.plot:
        from repro.experiments.plotting import (
            render_comparison_chart,
            render_figure_chart,
        )

        print()
        print(render_figure_chart(result))
        if result.has_comparisons:
            print()
            print(render_comparison_chart(result))
    print(f"  ({elapsed:.1f}s, {footer})")
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a figure/table of the paper's evaluation.",
        epilog=(
            "There is also a declarative subcommand composing any registered "
            "policy/scenario/topology triple: "
            "'python -m repro.experiments run --help'."
        ),
    )
    parser.add_argument(
        "figure",
        nargs="?",
        help="figure id (fig01..fig19, rocketfuel, abl-*); see --list",
    )
    _add_scale_flags(parser)
    _add_backend_flags(parser)
    _add_output_flags(parser, plot=True)
    parser.add_argument(
        "--list", action="store_true", help="list available figure ids"
    )
    _add_cache_flags(parser)
    _add_confidence_flags(parser)
    return parser


#: The cost, horizon and routing flags of ``run``/``enqueue``: flag ->
#: (spec class, field, type or choices, help). Defaults are the spec
#: dataclass defaults; spec_from_args builds CostSpec from the CostSpec rows.
_SPEC_FLAGS = {
    "--horizon": (ExperimentSpec, "horizon", int, "rounds to simulate"),
    "--routing": (
        ExperimentSpec, "routing", ("nearest", "load-aware", "load_aware"),
        "request routing strategy",
    ),
    "--beta": (CostSpec, "migration", float, "migration cost β"),
    "--creation": (CostSpec, "creation", float, "creation cost c"),
    "--run-active": (
        CostSpec, "run_active", float, "per-round active running cost",
    ),
    "--run-inactive": (
        CostSpec, "run_inactive", float, "per-round inactive running cost",
    ),
    "--load": (
        CostSpec, "load", ("linear", "quadratic", "power"), "server load model",
    ),
    "--load-exponent": (
        CostSpec, "load_exponent", float, "exponent for --load power",
    ),
}


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    """The flags composing a declarative :class:`SweepSpec`.

    Shared verbatim between ``run`` (execute now) and ``enqueue`` (publish
    onto a work queue) so the two commands describe identical sweeps —
    same defaults, same cache keys.
    """
    parser.add_argument(
        "--policy", action="append", required=True, metavar="KIND[:PARAMS]",
        help=(
            "policy to run (repeatable); the reserved param 'label' names "
            f"the result series; known: {', '.join(list_policies())}"
        ),
    )
    parser.add_argument(
        "--scenario", default="commuter", metavar="KIND[:PARAMS]",
        help=f"demand scenario; known: {', '.join(list_scenarios())}",
    )
    parser.add_argument(
        "--topology", default="erdos_renyi:n=100", metavar="KIND[:PARAMS]",
        help=f"substrate topology; known: {', '.join(list_topologies())}",
    )
    parser.add_argument(
        "--metric", action="append", default=None, metavar="KIND[:PARAMS]",
        help=(
            "derived result metric (repeatable; default: total_cost per "
            "policy); the reserved param 'label' renames/prefixes the "
            f"series; known: {', '.join(list_metrics())}"
        ),
    )
    for flag, (cls, field, kind, text) in _SPEC_FLAGS.items():
        parser.add_argument(
            flag, default=_default(cls, field), help=text,
            **({"choices": kind} if isinstance(kind, tuple) else {"type": kind}),
        )
    parser.add_argument(
        "--sweep", default=None, metavar="PARAM=V1,V2,...",
        help=(
            "sweep a spec parameter, e.g. scenario.sojourn=5,10,20 or "
            "topology.n=100,200 (default: single point)"
        ),
    )
    parser.add_argument(
        "--runs", type=_positive_int, default=3, help="replicates per point"
    )
    parser.add_argument("--seed", type=_seed, default=0, help="master seed")


def build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments run",
        description=(
            "Run any registered policy/scenario/topology combination from a "
            "declarative spec. Component arguments take the form "
            "kind[:key=value,...], e.g. erdos_renyi:n=200,p=0.02."
        ),
    )
    _add_spec_flags(parser)
    _add_backend_flags(parser)
    _add_output_flags(parser, "the result (with the resolved spec)", plot=True)
    _add_cache_flags(parser)
    _add_confidence_flags(parser)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = _SUBCOMMANDS.get(argv[0]) if argv else None
    try:
        if command is not None:
            return command(argv[1:])
        return figure_command(argv)
    except CLIError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def figure_command(argv: "list[str]") -> int:
    """Figure mode: regenerate one registered figure, or ``all``."""
    args = build_parser().parse_args(argv)
    _cache_for(args)  # --shard without a cache fails before anything runs
    backend = _backend_for(args)
    _validate_confidence_args(args)

    if args.list or not args.figure:
        for name, entry in FIGURES.items():
            print(f"{name:<14} {_entry_doc(entry)}")
        return 0

    every = args.figure.lower() == "all"
    names = [name for name, _entry in FIGURES.items()] if every else [args.figure]
    subcommands = ", ".join(sorted(_SUBCOMMANDS))
    with _user_errors(
        UnknownNameError,
        suffix=f"; use --list, or one of the subcommands: {subcommands}",
    ):
        keys = [FIGURES.primary(name) for name in names]

    started = time.perf_counter()
    footer = "paper scale" if args.paper else "quick scale"
    caches = [_cache_for(args) for _key in keys]  # per-figure counters
    payloads = []
    for i, (key, kwargs, captured, result, elapsed) in enumerate(
        _run_figures(keys, args, backend, caches)
    ):
        if i and not args.json:
            print()
        cache = kwargs.get("cache")
        if cache is not None and captured:
            _print_cache_status(cache, [spec for spec, _result in captured])
        params = {
            k: v.to_dict() if isinstance(v, (ReplicationSpec, ComparisonSpec)) else v
            for k, v in kwargs.items()
            # execution/orchestration knobs, not figure parameters
            if k not in ("backend", "cache", "shard")
        }
        payloads.append(_print_result(
            result, args, cache, elapsed, {"params": params}, footer, not every
        ))
    if every:
        summary = (
            f"regenerated {len(keys)} experiments in "
            f"{time.perf_counter() - started:.0f}s"
        )
        if args.json:
            print(json.dumps(payloads, indent=2))
            print(summary, file=sys.stderr)
        else:
            print(f"\n{summary}")
    return 0


def _figure_kwargs(key: str, args, cache, backend) -> "dict":
    """The keyword arguments figure ``key`` takes from CLI flags.

    Sweep figures take the execution options through ``**run``; flags a
    figure does not accept are noted on stderr and dropped. A ``--max-runs``
    below the figure's replicate count -- ``--runs``, else its scale's
    ``runs``, else the function's default -- is a :class:`CLIError`.
    """
    fn, quick = FIGURES.resolve(key)
    kwargs = {} if args.paper else dict(quick)
    parameters = inspect.signature(fn).parameters
    takes_run = any(p.kind is p.VAR_KEYWORD for p in parameters.values())
    replication = _replication_for(args)
    for flag, option, value in (
        ("seed", "seed", args.seed),
        ("runs", "runs", args.runs),
        ("backend", "workers/--queue", backend),
        ("cache", "cache-dir", cache),
        ("shard", "shard", args.shard),
        ("replication", "ci/--target-halfwidth", replication),
        ("comparison", "compare", _comparison_for(args)),
    ):
        if value is None:
            continue
        if flag in parameters or (takes_run and flag in _RUN_OPTIONS):
            kwargs[flag] = value
        else:
            print(f"note: {key} does not take --{option}; ignored",
                  file=sys.stderr)
    runs = kwargs.get("runs", getattr(parameters.get("runs"), "default", None))
    adaptive = "replication" in kwargs and replication.adaptive
    if adaptive and isinstance(runs, int) and (
        replication.initial_runs(runs) > replication.max_runs
    ):
        raise CLIError(
            f"--max-runs ({replication.max_runs}) is below {key}'s replicate "
            f"count ({runs}); raise --max-runs or lower --runs"
        )
    return kwargs


def _run_figures(keys, args, backend, caches):
    """Run the figures ``keys``, each over its cache, as ``args`` asks.

    The one figure runner of figure mode and ``report``. Every figure's
    kwargs are built, and so checked, before the first figure runs. Yields
    ``(key, kwargs, captured sweeps, result, elapsed seconds)`` per figure.
    """
    from repro.api.experiment import capture_sweeps

    plans = [_figure_kwargs(k, args, c, backend) for k, c in zip(keys, caches)]
    for key, kwargs in zip(keys, plans):
        started = time.perf_counter()
        # A typo'd --compare baseline only surfaces once the figure's series
        # exist, and so does a value only a running replicate rejects (both
        # ValueErrors); an optimizer figure without the [opt] extra names the
        # install.
        with _user_errors(ValueError, ImportError), capture_sweeps() as captured:
            result = FIGURES.resolve(key).fn(**kwargs)
        yield key, kwargs, captured, result, time.perf_counter() - started


# ---------------------------------------------------------------------------
# The declarative `run` subcommand
# ---------------------------------------------------------------------------


def _parse_sweep(text: str) -> "tuple[str, tuple]":
    """Parse ``--sweep param=v1,v2,...`` into (parameter path, values)."""
    param, eq, tail = text.partition("=")
    param = param.strip()
    values = tuple(
        parse_value(item) for item in tail.split(",") if item.strip()
    )
    if not eq or not param or not values:
        raise ValueError(
            f"malformed --sweep {text!r}; expected param=v1,v2,... "
            "(e.g. scenario.sojourn=5,10,20)"
        )
    return param, values


def spec_from_args(args) -> SweepSpec:
    """Build the :class:`SweepSpec` described by ``run`` subcommand flags."""

    def labelled(cls, items):
        # "label" is reserved for the series name, so same-name variants can
        # be disambiguated from the CLI: --policy onth:cache_size=5,label=ONTH-5
        # (for --metric it renames/prefixes the series)
        specs = []
        for item in items:
            kind, params = parse_component(item)
            label = params.pop("label", None)
            specs.append(cls(kind, params, label=label))
        return tuple(specs)

    policies = labelled(PolicySpec, args.policy)
    metrics = labelled(MetricSpec, args.metric or ())
    topo_kind, topo_params = parse_component(args.topology)
    scen_kind, scen_params = parse_component(args.scenario)
    experiment = ExperimentSpec(
        topology=TopologySpec(topo_kind, topo_params),
        scenario=ScenarioSpec(scen_kind, scen_params),
        policies=policies,
        costs=CostSpec(**{
            field: getattr(args, flag[2:].replace("-", "_"))
            for flag, (cls, field, _kind, _help) in _SPEC_FLAGS.items()
            if cls is CostSpec
        }),
        horizon=args.horizon,
        routing=args.routing,
        seed=args.seed,
        **({"metrics": metrics} if metrics else {}),
    )
    parameter, values = (None, ("total cost",))
    if args.sweep:
        parameter, values = _parse_sweep(args.sweep)
    return SweepSpec(
        experiment=experiment,
        parameter=parameter,
        values=values,
        runs=args.runs,
        seed=args.seed,
        figure="run",
        replication=_replication_for(args),
        comparison=_comparison_for(args),
    )


def _validated_spec(args) -> SweepSpec:
    """The sweep a ``run``/``enqueue`` call describes, its flags checked.

    Rejects flag combinations that would be silently ignored; whether the
    spec itself can run is :func:`~repro.api.experiment.run_sweep`'s and
    :func:`~repro.queue.worker.enqueue_sweep`'s pre-flight to decide.
    """
    _validate_confidence_args(args)
    if args.load != "power" and args.load_exponent != _default(
        CostSpec, "load_exponent"
    ):
        raise CLIError(
            f"--load-exponent only shapes --load power; it has no effect "
            f"with --load {args.load}"
        )
    with _user_errors(ValueError):
        return spec_from_args(args)


def build_from_bundle_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments run --from-bundle",
        description=(
            "Replay every SweepSpec of a repro bundle (written by the "
            "'report' subcommand's --bundle flag) through run_sweep. With "
            "the warm cache the report ran over, nothing re-simulates and "
            "the results are bit-identical to the bundled report."
        ),
    )
    parser.add_argument(
        "--from-bundle", dest="from_bundle", required=True, metavar="DIR",
        help="bundle directory holding MANIFEST.json + specs/*.json",
    )
    _add_backend_flags(parser)
    _add_output_flags(parser, "one array with every replayed result (+ its spec)")
    _add_cache_flags(parser)
    return parser


def _replay_bundle(path: str, backend, cache):
    """Replay every sweep of the repro bundle at ``path`` through ``cache``.

    The one bundle replay of ``run --from-bundle`` and ``report
    --from-bundle``. Yields ``(key, spec, result)`` per bundled sweep, and
    notes on stderr when the bundle was built from other package sources.
    """
    from repro.api.cache import _code_fingerprint
    from repro.api.experiment import run_sweep
    from repro.experiments.report import load_bundle

    with _user_errors(ValueError):
        manifest, pairs = load_bundle(path)
    fingerprint = manifest.get("environment", {}).get("code_fingerprint")
    if fingerprint is not None and fingerprint != _code_fingerprint():
        print(
            "note: the bundle was built from different package sources "
            "(code fingerprint mismatch); sweeps recompute from the "
            "current code instead of loading the bundled cache keys",
            file=sys.stderr,
        )
    for key, spec in pairs:
        with _user_errors(ValueError):
            result = run_sweep(spec, backend=backend, cache=cache)
        yield key, spec, result


def _run_from_bundle(argv: "list[str]") -> int:
    """``run --from-bundle DIR``: replay a repro bundle's sweeps."""
    args = build_from_bundle_parser().parse_args(argv)
    if args.shard is not None:
        raise CLIError(
            "bundle replay renders complete sweeps; --shard is not "
            "supported here"
        )
    replayed = _replay_bundle(
        args.from_bundle, _backend_for(args), _cache_for(args)
    )
    payloads = []
    count = 0
    for count, (key, spec, result) in enumerate(replayed, 1):
        if args.json:
            payloads.append({**result.to_dict(), "key": key, "spec": spec.to_dict()})
        else:
            if count > 1:
                print()
            print(format_figure(result))
    if args.json:
        print(json.dumps(payloads, indent=2))
    else:
        print(f"\nreplayed {count} sweeps from {args.from_bundle}")
    return 0


def run_command(argv: "list[str]") -> int:
    """Entry point of ``python -m repro.experiments run ...``."""
    from repro.api.experiment import run_sweep

    if "--from-bundle" in argv:
        return _run_from_bundle(argv)

    args = build_run_parser().parse_args(argv)
    cache = _cache_for(args)
    backend = _backend_for(args)
    spec = _validated_spec(args)

    started = time.perf_counter()
    # run_sweep's pre-flight rejects a spec that cannot run with one
    # ValueError; so does a running replicate for what only it can see,
    # such as --compare against a metric-derived series name or a round no
    # capacity can pack
    with _user_errors(ValueError):
        result = run_sweep(spec, backend=backend, cache=cache, shard=args.shard)
    elapsed = time.perf_counter() - started
    if cache is not None:
        _print_cache_status(cache, [spec])
    if args.queue:
        backend_label = f"queue {args.queue}"
    elif args.workers and args.workers > 1:
        backend_label = f"{args.workers} workers"
    else:
        backend_label = "serial"
    _print_result(
        result, args, cache, elapsed, {"spec": spec.to_dict()},
        f"backend={backend_label}",
    )
    return 0


# ---------------------------------------------------------------------------
# The `report` subcommand: publishable EXPERIMENTS.md + repro bundles
# ---------------------------------------------------------------------------


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report",
        description=(
            "Render a publishable EXPERIMENTS.md: each requested figure as "
            "a CI-annotated table plus chart, paired-comparison columns and "
            "an every-vs-every paired comparison matrix, replicate counts, "
            "cache provenance and environment capture. --bundle DIR "
            "additionally writes a self-contained repro bundle (spec JSONs "
            "+ cache manifest + versions) that 'run --from-bundle DIR' "
            "replays and 'report --from-bundle DIR' re-renders — "
            "byte-identically from the same warm cache."
        ),
    )
    parser.add_argument(
        "figures", nargs="*", metavar="FIGURE",
        help="figure ids to render (fig01..fig19, rocketfuel, abl-*)",
    )
    _add_scale_flags(parser)
    _add_backend_flags(parser)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the markdown to PATH instead of stdout",
    )
    parser.add_argument(
        "--bundle", default=None, metavar="DIR",
        help=(
            "also write a self-contained repro bundle under DIR: "
            "MANIFEST.json (environment + cache manifest), specs/*.json "
            "and the rendered EXPERIMENTS.md"
        ),
    )
    parser.add_argument(
        "--from-bundle", dest="from_bundle", default=None, metavar="DIR",
        help=(
            "re-render from a bundle's spec JSONs instead of figure ids "
            "(byte-identical from the same warm cache)"
        ),
    )
    parser.add_argument(
        "--no-matrices", dest="matrices", action="store_false", default=True,
        help="skip the per-figure paired comparison matrices",
    )
    _add_cache_flags(parser)
    _add_confidence_flags(parser)
    return parser


def report_command(argv: "list[str]") -> int:
    """Entry point of ``python -m repro.experiments report ...``."""
    from repro.experiments.report import (
        ReportSection,
        capture_environment,
        render_report,
        write_bundle,
    )

    args = build_report_parser().parse_args(argv)
    for conflict, message in (
        (args.shard is not None,
         "reports render complete figures; run the shards first, then "
         "report without --shard over the shared cache"),
        (args.from_bundle and args.figures,
         "--from-bundle re-renders the bundled specs; figure ids cannot "
         "be combined with it"),
        (args.from_bundle and args.bundle,
         "--bundle cannot be combined with --from-bundle (that bundle "
         "already exists)"),
        (not args.from_bundle and not args.figures,
         "name at least one figure to report, or --from-bundle DIR"),
    ):
        if conflict:
            raise CLIError(message)
    backend = _backend_for(args)
    _validate_confidence_args(args)

    cache = _cache_for(args)
    if args.from_bundle:
        sections = [
            ReportSection(key, spec, result)
            for key, spec, result in _replay_bundle(args.from_bundle, backend, cache)
        ]
    else:
        with _user_errors(UnknownNameError):
            keys = [FIGURES.primary(name) for name in args.figures]
        sections = []
        runs = _run_figures(keys, args, backend, [cache] * len(keys))
        for key, _kwargs, captured, _result, _elapsed in runs:
            if not captured:
                print(f"note: {key} runs no sweeps; skipped", file=sys.stderr)
                continue
            for index, (spec, result) in enumerate(captured):
                section_key = key if len(captured) == 1 else f"{key}-{index + 1}"
                sections.append(ReportSection(section_key, spec, result))
    if not sections:
        raise CLIError("nothing to report (no sweeps ran)")

    environment = capture_environment()
    text = render_report(
        sections,
        cache=cache,
        backend=backend,
        environment=environment,
        matrices=args.matrices,
    )
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(sections)} sections)", file=sys.stderr)
    else:
        print(text, end="")
    if args.bundle:
        manifest_path = write_bundle(
            args.bundle,
            sections,
            cache=cache,
            environment=environment,
            report_text=text,
        )
        print(
            f"wrote repro bundle under {manifest_path.parent}",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# The `cache` subcommand: maintenance of a --cache-dir
# ---------------------------------------------------------------------------


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cache",
        description=(
            "Inspect or trim a result cache directory (the --cache-dir of "
            "the figure and run commands)."
        ),
    )
    parser.add_argument(
        "action", choices=("stats", "clear", "prune"),
        help=(
            "stats: entry/byte counts per kind; clear: delete every entry; "
            "prune: trim by --max-entries / --max-age"
        ),
    )
    parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the cache directory to operate on",
    )
    parser.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="prune: keep at most N entries (oldest removed first)",
    )
    parser.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="prune: remove entries older than SECONDS (by file mtime)",
    )
    _add_output_flags(parser, "the outcome")
    return parser


def cache_command(argv: "list[str]") -> int:
    """Entry point of ``python -m repro.experiments cache ...``."""
    args = build_cache_parser().parse_args(argv)
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        payload = cache.stats()
    elif args.action == "clear":
        payload = {"root": str(cache.root), "removed": cache.clear()}
    else:  # prune
        if args.max_entries is None and args.max_age is None:
            raise CLIError("prune needs --max-entries and/or --max-age")
        with _user_errors(ValueError):
            removed = cache.prune(
                max_entries=args.max_entries, max_age=args.max_age
            )
        payload = {"root": str(cache.root), "removed": removed}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


# ---------------------------------------------------------------------------
# The trace subcommand: validate / stats / convert request logs
# ---------------------------------------------------------------------------


class _DenseMapper:
    """First-appearance dense indices — inspection without a substrate.

    Negative integer keys are rejected rather than remapped: such a log can
    never replay with ``mapping=none`` (the simulator refuses negative node
    indices), so hiding them behind dense renumbering would make ``validate``
    pass on a log that ``run`` rejects.
    """

    name = "dense"

    def __init__(self) -> None:
        self.assigned: "dict[object, int]" = {}

    def __call__(self, key) -> int:
        node = self.assigned.get(key)
        if node is None:
            try:
                raw = int(key)
            except (TypeError, ValueError):
                raw = 0
            if raw < 0:
                raise ValueError(f"negative node key {key!r} in request log")
            node = len(self.assigned)
            self.assigned[key] = node
        return node


def _identity_key(key) -> int:
    """``mapping='none'`` without ``--nodes``: keys must be node indices >= 0."""
    node = int(key)
    if node < 0:
        raise ValueError(f"negative node key {key!r} in request log")
    return node


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments trace",
        description=(
            "Validate, summarise or convert an external request log "
            "(CSV/JSONL/saved .npz trace) for replay through the 'replay' "
            "scenario: repro-experiments run --scenario "
            "replay:path=requests.csv ..."
        ),
    )
    parser.add_argument(
        "action", choices=("validate", "stats", "convert"),
        help=(
            "validate: parse the whole log and report problems; stats: "
            "per-round and per-node summaries; convert: write a mapped "
            ".npz trace ready for replay:path=OUT,mapping=none"
        ),
    )
    parser.add_argument("log", metavar="LOG", help="the request log file")
    parser.add_argument(
        "--out", metavar="OUT", default=None,
        help="convert: the output .npz path (required)",
    )
    parser.add_argument(
        "--format", choices=("csv", "jsonl", "npz"), default=None,
        help="log format (default: inferred from the suffix)",
    )
    parser.add_argument(
        "--node-field", default="node", metavar="NAME",
        help="CSV column / JSONL field holding the source key (default: node)",
    )
    parser.add_argument(
        "--round-field", default="round", metavar="NAME",
        help=(
            "CSV column / JSONL field holding the round index or timestamp "
            "(default: round)"
        ),
    )
    parser.add_argument(
        "--round-duration", type=float, default=None, metavar="SECONDS",
        help="treat round values as timestamps, one round per SECONDS",
    )
    parser.add_argument(
        "--requests-per-round", type=_positive_int, default=None, metavar="N",
        help="ignore round values and batch the log into N-request rounds",
    )
    parser.add_argument(
        "--mapping", choices=("hash", "round_robin", "table", "none"),
        default=None,
        help=(
            "convert: node-mapping strategy onto --nodes (default: none "
            "for .npz, hash otherwise)"
        ),
    )
    parser.add_argument(
        "--nodes", type=_positive_int, default=None, metavar="N",
        help="convert: map source keys onto nodes 0..N-1",
    )
    parser.add_argument(
        "--sort", action="store_true",
        help="convert: sort records by round index first (materialises the log)",
    )
    parser.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="use at most the first N rounds",
    )
    parser.add_argument(
        "--top", type=_positive_int, default=5, metavar="N",
        help="stats: how many busiest nodes to report (default 5)",
    )
    _add_output_flags(parser, "the outcome")
    return parser


def _trace_rounds(args, mapper, sort: bool = False):
    from repro.traces.replay import iter_records, rounds_from_records

    records = iter_records(
        args.log, args.format, args.node_field, args.round_field
    )
    return rounds_from_records(
        records,
        mapper,
        round_duration=args.round_duration,
        requests_per_round=args.requests_per_round,
        sort=sort,
        limit=args.limit,
        where=args.log,
    )


def trace_command(argv: "list[str]") -> int:
    """Entry point of ``python -m repro.experiments trace ...``."""
    from repro.traces.replay import file_digest, make_mapper, replay_stats
    from repro.workload.base import Trace

    args = build_trace_parser().parse_args(argv)

    try:
        if args.action == "convert":
            if args.out is None:
                raise CLIError("convert needs --out OUT.npz")
            mapping = args.mapping
            if mapping is None:
                from repro.traces.replay import infer_format

                fmt = args.format or infer_format(args.log)
                mapping = "none" if fmt == "npz" else "hash"
            if mapping != "none" and args.nodes is None:
                raise CLIError(f"mapping {mapping!r} needs --nodes N to map onto")
            if args.nodes is not None:
                mapper = make_mapper(mapping, np.arange(args.nodes), n_nodes=args.nodes)
            else:
                mapper = _identity_key  # mapping == "none": keys already node indices
            rounds = tuple(_trace_rounds(args, mapper, sort=args.sort))
            trace = Trace(
                rounds,
                scenario_name=f"replay({args.log})",
                metadata={
                    "scenario": "replay",
                    "converted_from": file_digest(args.log),
                    "mapping": mapping,
                },
            )
            written = trace.save(args.out)
            payload = {
                "ok": True,
                "out": str(written),
                **replay_stats(rounds, top=args.top),
            }
        else:
            rounds = _trace_rounds(args, _DenseMapper())
            payload = {"ok": True, "log": args.log, **replay_stats(rounds, top=args.top)}
            if args.action == "validate":
                payload.pop("busiest_nodes")
    except (ValueError, OSError) as error:
        if not args.json:
            raise CLIError(str(error)) from error
        print(json.dumps({"ok": False, "error": str(error)}, indent=2))
        return 2

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


# ---------------------------------------------------------------------------
# The queue subcommands: enqueue / worker / serve
# ---------------------------------------------------------------------------


def _add_queue_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--queue`` file and ``--cache-dir`` of the queue commands."""
    parser.add_argument(
        "--queue", type=_parse_queue, required=True, metavar="PATH",
        help="the shared queue database file (created on first use)",
    )
    parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help=(
            "the shared result cache directory; workers commit replicate "
            "samples here and the final figure assembles from it"
        ),
    )


def _seconds(flag: str, positive: bool = False):
    """argparse type for a duration ``flag``: finite seconds >= 0 (or > 0)."""
    return _checked(
        float, lambda v: (v > 0 if positive else v >= 0) and v < math.inf,
        f"{'>' if positive else '>='} 0 and finite", flag,
    )


def build_enqueue_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments enqueue",
        description=(
            "Publish a declarative sweep onto a work queue as per-point "
            "tasks (same spec flags as 'run'); 'worker' processes on the "
            "same --queue/--cache-dir execute them and assemble the "
            "figure. A warm cache answers immediately without enqueueing "
            "anything."
        ),
    )
    _add_spec_flags(parser)
    _add_confidence_flags(parser)
    _add_queue_flags(parser)
    parser.add_argument(
        "--requeue", action="store_true",
        help="re-create the job if a previous identical one failed",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print the figure result",
    )
    parser.add_argument(
        "--poll", type=_seconds("--poll"), default=0.5, metavar="SECONDS",
        help="status poll interval with --wait (default 0.5)",
    )
    _add_output_flags(parser, "job state (and, with --wait, the result)")
    return parser


def enqueue_command(argv: "list[str]") -> int:
    """Entry point of ``python -m repro.experiments enqueue ...``."""
    from repro.queue.broker import Broker
    from repro.queue.worker import enqueue_sweep

    args = build_enqueue_parser().parse_args(argv)
    spec = _validated_spec(args)
    cache = ResultCache(args.cache_dir)
    with _queue_errors(args.queue):
        broker = Broker(args.queue)
    # a spec the pre-flight rejects is the user's error, not the queue's
    with _user_errors(*_QUEUE_ERRORS):
        state = enqueue_sweep(broker, cache, spec, requeue=args.requeue)

    if args.wait and not state.get("cached"):
        while state is not None and state["status"] not in ("done", "failed"):
            time.sleep(args.poll)
            state = broker.job_state(state["job"])
        if state is None:
            print("error: job vanished from the queue", file=sys.stderr)
            return 1

    if state["status"] == "failed":
        print(f"error: job failed: {state.get('error')}", file=sys.stderr)
        return 1

    result = cache.load(spec) if state["status"] == "done" else None
    if args.json:
        payload = dict(state)
        if result is not None and (args.wait or state.get("cached")):
            payload["result"] = result.to_dict()
        print(json.dumps(payload, indent=2))
        return 0
    if state.get("cached"):
        print(f"cache hit {state['job'][:12]}; nothing enqueued",
              file=sys.stderr)
    else:
        pending = state["tasks"].get("pending", 0)
        verb = "enqueued" if state.get("created") else "already queued"
        print(
            f"job {state['job'][:12]} {verb}: {pending} pending task(s) "
            f"on {args.queue}",
            file=sys.stderr,
        )
    if result is not None and (args.wait or state.get("cached")):
        print(format_figure(result))
    return 0


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments worker",
        description=(
            "Drain a work queue: lease tasks, run them into the shared "
            "cache, assemble finished figures. Run any number of these "
            "against one --queue/--cache-dir; killed workers' leases "
            "expire and their tasks are re-served."
        ),
    )
    _add_queue_flags(parser)
    parser.add_argument(
        "--poll", type=_seconds("--poll"), default=0.5, metavar="SECONDS",
        help="sleep between polls when the queue is empty (default 0.5)",
    )
    parser.add_argument(
        "--ttl", type=_seconds("--ttl", positive=True), default=None, metavar="SECONDS",
        help="lease lifetime; a silent worker's task re-serves after this",
    )
    parser.add_argument(
        "--max-tasks", type=_positive_int, default=None, metavar="N",
        help="exit after executing N tasks (default: unlimited)",
    )
    parser.add_argument(
        "--idle-exit", type=_seconds("--idle-exit"), default=None,
        metavar="SECONDS",
        help="exit after the queue stayed empty this long (default: never)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-task log lines"
    )
    return parser


def worker_command(argv: "list[str]") -> int:
    """Entry point of ``python -m repro.experiments worker ...``."""
    from repro.queue.broker import DEFAULT_TTL, Broker, default_worker_id
    from repro.queue.worker import worker_loop

    args = build_worker_parser().parse_args(argv)
    ttl = args.ttl if args.ttl is not None else DEFAULT_TTL
    worker_id = default_worker_id()
    log = None if args.quiet else (
        lambda message: print(f"[{worker_id}] {message}", file=sys.stderr)
    )
    with _queue_errors(args.queue):
        broker = Broker(args.queue, ttl=ttl)
    try:
        executed = worker_loop(
            broker,
            ResultCache(args.cache_dir),
            poll=args.poll,
            ttl=ttl,
            max_tasks=args.max_tasks,
            idle_exit=args.idle_exit,
            worker_id=worker_id,
            log=log,
        )
    except KeyboardInterrupt:
        print(f"[{worker_id}] interrupted", file=sys.stderr)
        return 130
    if log is not None:
        log(f"exiting after {executed} task(s)")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description=(
            "Serve sweep results over HTTP: POST /sweep with a SweepSpec "
            "JSON answers warm specs from the cache instantly and queues "
            "cold ones for the workers; GET /jobs/<id> polls to "
            "completion."
        ),
    )
    _add_queue_flags(parser)
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", default=8765,
        type=_checked(int, lambda v: 0 <= v <= 65535, "in 0..65535", "--port"),
        help="bind port (default 8765; 0 = pick)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=0, metavar="N",
        help=(
            "also drain the queue with N in-process worker threads "
            "(default 0: rely on external 'worker' processes)"
        ),
    )
    return parser


def serve_command(argv: "list[str]") -> int:
    """Entry point of ``python -m repro.experiments serve ...``."""
    from repro.queue.service import ResultsServer

    args = build_serve_parser().parse_args(argv)
    prefix = f"cannot serve on {args.host}:{args.port}: "
    with _user_errors(*_QUEUE_ERRORS, prefix=prefix):
        server = ResultsServer(
            (args.host, args.port), args.queue, args.cache_dir
        )
    if args.workers:
        server.start_workers(args.workers)
    print(
        f"serving results on {server.url} "
        f"(queue {args.queue}, cache {args.cache_dir}, "
        f"{args.workers} in-process worker(s)) — Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


# ---------------------------------------------------------------------------
# The `list` subcommand: the full component inventory
# ---------------------------------------------------------------------------

#: family name -> (registry, drop the leading parameter from signatures?).
#: Scenario factories take the substrate first and metrics the evaluation
#: context — neither is a user-settable parameter.
_FAMILIES = {
    "policies": (POLICIES, False),
    "scenarios": (SCENARIOS, True),
    "topologies": (TOPOLOGIES, False),
    "figures": (FIGURES, False),
    "metrics": (METRICS, True),
}


def _entry_target(entry):
    """The callable behind a registry entry (figures wrap theirs)."""
    return entry.fn if isinstance(entry, FigureEntry) else entry


def _entry_signature(entry, drop_first: bool) -> str:
    """A printable parameter signature for one registry entry."""
    try:
        signature = inspect.signature(_entry_target(entry))
    except (TypeError, ValueError):
        return "(...)"
    parameters = list(signature.parameters.values())
    if drop_first and parameters:
        parameters = parameters[1:]
    return str(
        signature.replace(
            parameters=parameters, return_annotation=inspect.Signature.empty
        )
    )


def _entry_doc(entry) -> str:
    """The first docstring line of one registry entry (may be empty)."""
    doc = (inspect.getdoc(_entry_target(entry)) or "").strip()
    return doc.splitlines()[0] if doc else ""


def build_list_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments list",
        description=(
            "List every registered policy/scenario/topology/figure/metric "
            "with its parameter signature."
        ),
    )
    parser.add_argument(
        "family",
        nargs="?",
        choices=tuple(_FAMILIES),
        help="restrict the inventory to one component family",
    )
    return parser


def list_command(argv: "list[str]") -> int:
    """Entry point of ``python -m repro.experiments list ...``."""
    args = build_list_parser().parse_args(argv)
    selected = (args.family,) if args.family else tuple(_FAMILIES)
    for position, family in enumerate(selected):
        registry, drop_first = _FAMILIES[family]
        if position:
            print()
        print(f"{family}:")
        for name, entry in registry.items():
            print(f"  {name}{_entry_signature(entry, drop_first)}")
            doc = _entry_doc(entry)
            if doc:
                print(f"      {doc}")
    return 0


#: first-positional subcommands; anything else is treated as a figure id.
_SUBCOMMANDS = {
    "run": run_command,
    "list": list_command,
    "cache": cache_command,
    "trace": trace_command,
    "enqueue": enqueue_command,
    "worker": worker_command,
    "serve": serve_command,
    "report": report_command,
}


if __name__ == "__main__":
    raise SystemExit(main())
