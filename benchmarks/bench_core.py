#!/usr/bin/env python
"""Perf + bit-identity harness for the two round sources of ``simulate``.

:func:`repro.core.simulator.simulate` routes a materialised trace through a
shared :class:`~repro.core.batch.DistanceGather` (span routing, gather
windows, the memoised epoch scan) and a streamed copy of the same
rounds round by round (``route_requests``, plain ``RequestBatch``
windows). The ``batched`` column times the former, the ``scalar`` column
the latter, on five points:

* ``fig03-n400-trio`` / ``fig03-n1000-trio`` — the paper's Figure 3 shape:
  the ONTH/ONBR-fixed/ONBR-dyn trio sharing one commuter trace per
  replicate, at the sweep's n=400 point and the 1000-node headline point.
* ``fig08-n200-trio`` — the paper's Figure 8 shape: the trio at n=200,
  T=10, horizon 900, on one commuter trace each for λ = 1, 5 and 20. Each
  trace repeats its day, so the gathered runs replay recurring days
  (:meth:`~repro.core.policy.AllocationPolicy.recurrence_key`) while the
  streamed runs play every round: the bit-identity gate checks the replay.
* ``routing-core-n1000-static`` — a static policy at n=1000, isolating the
  round loop (span routing + shared gather) from epoch evaluation.
* ``onconf-wfa-n200`` — ONCONF and WFA (one server each) at n=200, whose
  ``decide`` keeps no request window, so only routing differs.

Every point also checks *bit-identity*: all ten ledger columns of the
gathered runs must equal the streamed runs exactly, which is the invariant
that lets ``simulate`` pick its round source from the input type alone.

On speedup expectations: bit-identity pins every reduction to the
per-round path's exact summand sequences. Both sources run the same
one-pass epoch scan. The gathered path removes redundant distance gathers
(the streamed path re-gathers columns per round and per epoch window),
memoises each decision across sibling policies and recurring windows,
replays a periodic trace's recurring days, and — under the default linear
load with a power-of-two strength, where every
load sum is exact — skips the assignment work behind the load term.

Each point is timed in pairs: one run of each source, back to back, the
order alternating from pair to pair so a second-run bias cancels. A
point's speedup is the median of its per-pair speedups, so a burst of
load on a shared host moves one pair, not the result; each side's
seconds are its median. The committed gate floors below sit well under
the measured speedups, with CI-noise headroom.

Usage::

    python benchmarks/bench_core.py [OUTPUT.json]

Writes ``BENCH_core.json`` (or OUTPUT) and exits non-zero when a gate
fails: any ledger divergence, or a speedup under its floor.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.api.registry import resolve_policy
from repro.core.batch import DistanceGather
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi
from repro.workload.commuter import CommuterScenario, default_period_for

LEDGER_FIELDS = (
    "latency_cost", "load_cost", "running_cost", "migration_cost",
    "creation_cost", "migrations", "creations", "n_active",
    "n_inactive", "n_requests",
)

#: The fig03 trio: one shared commuter trace, three policies.
TRIO = (
    ("onth", {}),
    ("onbr", {}),
    ("onbr-dyn", {"dynamic_threshold": True}),
)

#: ONCONF and WFA, one server each (k=2 would exceed ONCONF's enumeration
#: budget at n=200).
ONE_SERVER_PAIR = (
    ("onconf", {"max_servers": 1}),
    ("wfa", {"max_servers": 1}),
)

#: (name, n, horizon, the sojourn λ of each replicate trace, policies,
#: timing pairs, floor). Every trace has the size-coupled day length T(n).
#: Floors are far enough under the measured speedups to absorb CI machine
#: noise while still catching a path regression. ONCONF/WFA spend their
#: time in ``decide``, so the gathered path there must only not be slower;
#: its true ratio sits near 1.0x, within a shared host's swing of the
#: floor, so it gets the most pairs.
POINTS = (
    ("fig03-n400-trio", 400, 300, (10, 10), TRIO, 5, 1.3),
    ("fig03-n1000-trio", 1000, 300, (10,), TRIO, 5, 1.4),
    ("fig08-n200-trio", 200, 900, (1, 5, 20), TRIO, 5, 4.0),
    ("routing-core-n1000-static", 1000, 3000, (10,), (("static", {}),), 7, 2.0),
    ("onconf-wfa-n200", 200, 300, (10,), ONE_SERVER_PAIR, 9, 0.9),
)

SEED = 20110330


def _build_policy(name: str, kwargs: dict, substrate):
    if name == "static":
        return resolve_policy("static")(Configuration((substrate.center,), ()))
    if name == "onbr-dyn":
        return resolve_policy("onbr")(**kwargs)
    return resolve_policy(name)(**kwargs)


def _runs_identical(scalar_runs, batched_runs) -> bool:
    return all(
        np.array_equal(getattr(a, field), getattr(b, field))
        for a, b in zip(scalar_runs, batched_runs)
        for field in LEDGER_FIELDS
    )


def _bench_point(name, n, horizon, sojourns, policies, pairs, floor):
    rng = np.random.default_rng(SEED)
    substrate = erdos_renyi(n=n, p=min(1.0, 4.0 / n), seed=rng)
    substrate.distances  # materialise outside the timed region
    costs = CostModel.paper_default()
    period = default_period_for(n)
    traces = [
        CommuterScenario(substrate, period=period, sojourn=sojourn).generate(
            horizon, rng
        )
        for sojourn in sojourns
    ]

    def run_scalar():
        return [
            simulate(substrate, _build_policy(pname, kwargs, substrate),
                     iter(trace.rounds), costs, seed=np.random.default_rng(0))
            for trace in traces
            for pname, kwargs in policies
        ]

    def run_batched():
        out = []
        for trace in traces:
            gather = DistanceGather(substrate, costs, trace)
            for pname, kwargs in policies:
                out.append(simulate(
                    substrate, _build_policy(pname, kwargs, substrate),
                    trace, costs, seed=np.random.default_rng(0),
                    gather=gather,
                ))
        return out

    # Alternating pairs: even pairs run the streamed source first, odd
    # pairs the gathered one.
    elapsed = {run_scalar: [], run_batched: []}
    runs = {}
    for pair in range(pairs):
        order = (run_scalar, run_batched) if pair % 2 == 0 else (run_batched, run_scalar)
        for fn in order:
            start = time.perf_counter()
            runs[fn] = fn()
            elapsed[fn].append(time.perf_counter() - start)
    pair_speedups = np.array(elapsed[run_scalar]) / np.array(elapsed[run_batched])
    speedup = float(np.median(pair_speedups))
    scalar_seconds = float(np.median(elapsed[run_scalar]))
    batched_seconds = float(np.median(elapsed[run_batched]))
    scalar_runs, batched_runs = runs[run_scalar], runs[run_batched]

    replicates = len(traces) * len(policies)
    rounds = replicates * horizon
    return {
        "substrate_nodes": n,
        "horizon": horizon,
        "traces": len(traces),
        "sojourns": list(sojourns),
        "policies": [pname for pname, _ in policies],
        "replicates": replicates,
        "timing_pairs": pairs,
        "scalar": {
            "seconds": round(scalar_seconds, 4),
            "rounds_per_sec": round(rounds / scalar_seconds, 1),
            "replicates_per_sec": round(replicates / scalar_seconds, 2),
        },
        "batched": {
            "seconds": round(batched_seconds, 4),
            "rounds_per_sec": round(rounds / batched_seconds, 1),
            "replicates_per_sec": round(replicates / batched_seconds, 2),
        },
        "speedup": round(speedup, 3),
        "pair_speedups": [round(float(x), 3) for x in pair_speedups],
        "speedup_floor": floor,
        "speedup_ok": speedup >= floor,
        "bit_identical": _runs_identical(scalar_runs, batched_runs),
    }


def run() -> dict:
    points = {}
    for name, *args in POINTS:
        points[name] = _bench_point(name, *args)
    return {
        "seed": SEED,
        "scenario": "commuter",
        "points": points,
        "all_bit_identical": all(p["bit_identical"] for p in points.values()),
        "all_speedups_ok": all(p["speedup_ok"] for p in points.values()),
    }


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    output = argv[0] if argv else "BENCH_core.json"
    payload = run()
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for name, point in payload["points"].items():
        print(
            f"{name}: scalar {point['scalar']['seconds']*1e3:.0f}ms, "
            f"batched {point['batched']['seconds']*1e3:.0f}ms "
            f"({point['speedup']:.2f}x, floor {point['speedup_floor']}x, "
            f"bit_identical={point['bit_identical']}) -> {output}"
        )
    if not payload["all_bit_identical"]:
        print("FAIL: gathered ledgers diverged from streamed ones",
              file=sys.stderr)
        return 1
    if not payload["all_speedups_ok"]:
        print("FAIL: gathered speedup under its committed floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
