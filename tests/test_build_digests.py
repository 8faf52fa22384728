"""Every substrate and trace build pinned bit for bit, RNG state included.

Each registered topology generator is built over ten seeds and hashed:
its ``Link`` tuple, its link arrays, its CSR adjacency (``indptr``,
``indices``, ``data``, dtypes included), its distance matrix and the
generator's RNG state after the build, so a later draw (the trace's)
starts where it always did. Each
registered scenario (the cases of ``test_scenario_contract.py``, on their
shared 16-node substrate) is generated over three seeds and hashed: every
round and the RNG state after ``generate``.

The digests in ``tests/data/golden_builds.json`` were recorded before
substrates and traces moved to array storage, from the equal ``Link``
tuples and per-round arrays. Regenerate them (only when a build change is
intended) with::

    PYTHONPATH=src python tests/test_build_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.topology.generators import erdos_renyi, grid, line, random_tree, ring, star
from repro.topology.rocketfuel import att_like_topology, load_rocketfuel
from test_scenario_contract import CASES as SCENARIO_CASES
from test_scenario_contract import build as build_scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_builds.json"
SEEDS = range(10)
SCENARIO_SEEDS = range(3)
HORIZON = 40

#: A small Rocketfuel ``weights`` file: a parallel edge, a self-edge and
#: names in first-appearance order exercise the loader's normalisation.
ROCKETFUEL_TEXT = """\
# a b latency
Seattle,+WA Denver,+CO 12.5
Denver,+CO Chicago,+IL 9.0
Chicago,+IL NewYork,+NY 8.25
NewYork,+NY Atlanta,+GA 7.0
Atlanta,+GA Dallas,+TX 6.5
Dallas,+TX Denver,+CO 7.75
Denver,+CO Seattle,+WA 11.0
Chicago,+IL Chicago,+IL 1.0
Dallas,+TX Seattle,+WA 15.0
"""


#: case name -> builder taking the seeded generator.
TOPOLOGY_CASES = {
    **{
        f"erdos_renyi:n={n}": (lambda n: lambda rng: erdos_renyi(n, seed=rng))(n)
        for n in (1, 2, 5, 100, 200, 1000)
    },
    **{
        f"erdos_renyi:n={n},p=0": (
            lambda n: lambda rng: erdos_renyi(n, p=0.0, seed=rng)
        )(n)
        for n in (1, 2, 5, 100)
    },
    "line:n=7": lambda rng: line(7, seed=rng),
    "line:n=7,unit_latency=false": lambda rng: line(7, seed=rng, unit_latency=False),
    "ring:n=9,unit_latency=false": lambda rng: ring(9, seed=rng, unit_latency=False),
    "star:n=6,unit_latency=false": lambda rng: star(6, seed=rng, unit_latency=False),
    "grid:3x4,unit_latency=false": lambda rng: grid(3, 4, seed=rng, unit_latency=False),
    "random_tree:n=1": lambda rng: random_tree(1, seed=rng),
    "random_tree:n=40": lambda rng: random_tree(40, seed=rng),
    "att:backbone": lambda rng: att_like_topology(seed=rng, access_routers=False),
    "att": lambda rng: att_like_topology(seed=rng),
}


def _update(h, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def substrate_digest(substrate, rng: np.random.Generator) -> str:
    """SHA-256 of a substrate's links, adjacency, distances and ``rng``'s state."""
    h = hashlib.sha256()
    h.update(repr(substrate.links).encode())
    links = substrate.link_arrays
    for arr in (links.u, links.v, links.latency, links.bandwidth):
        _update(h, arr)
    adjacency = substrate._adjacency
    for arr in (adjacency.indptr, adjacency.indices, adjacency.data):
        _update(h, arr)
    _update(h, substrate.distances)
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


def trace_digest(trace, rng: np.random.Generator) -> str:
    """SHA-256 of every round's size and requests, and ``rng``'s state."""
    h = hashlib.sha256()
    for requests in trace:
        h.update(np.int64(requests.size).tobytes())
        h.update(np.ascontiguousarray(requests, dtype=np.int64).tobytes())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


def build_topology(case: str, seed: int, tmp_path: Path):
    """The substrate of one case and the generator it drew from."""
    rng = np.random.default_rng(seed)
    if case == "rocketfuel":
        path = tmp_path / "weights.intra"
        path.write_text(ROCKETFUEL_TEXT)
        return load_rocketfuel(path, seed=rng), rng
    return TOPOLOGY_CASES[case](rng), rng


def generate_scenario(case: str, seed: int):
    """The ``HORIZON``-round trace of one scenario case and its generator."""
    rng = np.random.default_rng(seed)
    return build_scenario(case).generate(HORIZON, rng), rng


ALL_TOPOLOGIES = sorted([*TOPOLOGY_CASES, "rocketfuel"])


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden["topologies"]) == ALL_TOPOLOGIES
    assert sorted(golden["scenarios"]) == sorted(SCENARIO_CASES)


@pytest.mark.parametrize("case", ALL_TOPOLOGIES)
def test_substrate_build_matches_golden(case, golden, tmp_path):
    digests = [
        substrate_digest(*build_topology(case, seed, tmp_path)) for seed in SEEDS
    ]
    assert digests == golden["topologies"][case]


@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_trace_generation_matches_golden(case, golden):
    digests = [trace_digest(*generate_scenario(case, seed)) for seed in SCENARIO_SEEDS]
    assert digests == golden["scenarios"][case]


@pytest.mark.parametrize("case", ALL_TOPOLOGIES)
def test_links_equal_the_link_arrays(case, tmp_path):
    substrate, _ = build_topology(case, 0, tmp_path)
    links = substrate.link_arrays
    rows = zip(
        links.u.tolist(), links.v.tolist(),
        links.latency.tolist(), links.bandwidth.tolist(),
    )
    assert [
        (link.u, link.v, link.latency, link.bandwidth) for link in substrate.links
    ] == list(rows)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "topologies": {
                case: [
                    substrate_digest(*build_topology(case, seed, Path(tmp)))
                    for seed in SEEDS
                ]
                for case in ALL_TOPOLOGIES
            },
            "scenarios": {
                case: [
                    trace_digest(*generate_scenario(case, seed))
                    for seed in SCENARIO_SEEDS
                ]
                for case in sorted(SCENARIO_CASES)
            },
        }
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
