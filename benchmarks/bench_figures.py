"""The paper's qualitative claims, one check per registered paper figure.

Each case runs one figure of §V at the scale its registry entry gives it:
the entry's ``quick`` overrides by default, the figure function's own
(caption) defaults with ``REPRO_BENCH_SCALE=paper``. The check then asserts
the figure's expected shape on the result.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.api.registry import FIGURES

#: Paper-scale parameters that differ from the figure function's defaults.
#: fig12's bench has run a larger network than ``figure12``'s defaults.
PAPER_OVERRIDES = {"fig12": dict(n=200, horizon=500, max_servers=14)}


def check_fig01(result):
    """ONTH trajectory, dynamic load: servers track the demand fan-out."""
    linear = result.series["servers (linear load)"]
    quadratic = result.series["servers (quadratic load)"]
    demand = result.series["requests/round"]
    # shape: quadratic load provisions at least as many servers at peak
    assert max(quadratic) >= max(linear)
    # shape: server count rises above its start as the demand fans out
    assert max(linear) > linear[0]
    # shape: demand actually swings (dynamic load)
    assert max(demand) > min(demand)


def check_fig02(result):
    """ONTH trajectory, static load: a steady count, more for quadratic load."""
    linear = np.asarray(result.series["servers (linear load)"])
    quadratic = np.asarray(result.series["servers (quadratic load)"])
    demand = np.asarray(result.series["requests/round"])
    # static load: constant volume per round
    assert np.unique(demand).size == 1
    # quadratic load requires more servers (paper's explicit claim)
    assert quadratic.max() >= linear.max()
    # steady state: the two halves have the same server-count profile (the
    # count follows the daily spread cycle but does not drift; see
    # EXPERIMENTS.md for the divergence note vs the paper's flat profile)
    half = linear.size // 2
    first, second = linear[:half], linear[half: 2 * half]
    assert abs(first.mean() - second.mean()) <= 0.35 * max(first.mean(), 1.0)
    assert second.max() <= linear.max()


def check_fig03(result):
    """Cost vs network size, commuter dynamic load: ONTH below both ONBRs."""
    onth = sum(result.y("ONTH"))
    onbr = sum(result.y("ONBR-fixed"))
    assert onth <= onbr * 1.05  # ONTH wins overall
    # cost grows with network size for every algorithm
    for name in result.series_names:
        ys = result.y(name)
        assert ys[-1] > ys[0]


def check_fig04(result):
    """Like Figure 3 but with static load (fixed request volume)."""
    assert sum(result.y("ONTH")) <= sum(result.y("ONBR-fixed")) * 1.05
    for name in result.series_names:
        assert result.y(name)[-1] > result.y(name)[0]


def check_fig05(result):
    """Like Figure 3 but for the time zone scenario (p = 50%)."""
    assert sum(result.y("ONTH")) <= sum(result.y("ONBR-fixed")) * 1.05
    for name in result.series_names:
        assert result.y(name)[-1] > result.y(name)[0]


def check_fig06(result):
    """ONBR cost components, β > c: access dominates and grows with n."""
    access = result.y("access")
    moves = result.y("migration+creation")
    running = result.y("running")
    total = result.y("total")
    # access dominates at the largest size and grows with n
    assert access[-1] > access[0]
    assert access[-1] > running[-1]
    assert access[-1] > moves[-1]
    # components sum to the total at every point
    for i in range(len(total)):
        assert access[i] + running[i] + moves[i] == pytest.approx(total[i])


def check_fig07(result):
    """Cost vs T, static load: cost rises with T, ONTH best throughout."""
    assert sum(result.y("ONTH")) <= sum(result.y("ONBR-fixed")) * 1.05
    # cost rises with T (the volume 2^(T/2) grows with the day length)
    for name in result.series_names:
        assert result.y(name)[-1] > result.y(name)[0]


def check_fig08(result):
    """Cost vs λ, commuter dynamic load: roughly λ-independent, ONTH best."""
    assert sum(result.y("ONTH")) <= sum(result.y("ONBR-fixed")) * 1.05
    # roughly λ-independent: spread within 3x of the mean for each series
    for name in result.series_names:
        ys = np.asarray(result.y(name))
        assert ys.max() <= 3.0 * ys.mean()


def check_fig09(result):
    """Cost vs λ, commuter static load (as Figure 8)."""
    assert sum(result.y("ONTH")) <= sum(result.y("ONBR-fixed")) * 1.05
    for name in result.series_names:
        ys = np.asarray(result.y(name))
        assert ys.max() <= 3.0 * ys.mean()


def check_fig10(result):
    """Cost vs λ, time zones: falls slightly with λ, ONTH best."""
    assert sum(result.y("ONTH")) <= sum(result.y("ONBR-fixed")) * 1.05
    # mild downward trend for ONTH: last point no dearer than the first
    onth = result.y("ONTH")
    assert onth[-1] <= onth[0] * 1.15


def check_fig11(result):
    """ONTH/OPT on 5-node lines: fairly low competitive ratios."""
    for name in result.series_names:
        ys = result.y(name)
        assert all(v >= 1.0 - 1e-9 for v in ys)  # OPT is a true lower bound
        assert max(ys) <= 5.0                    # "fairly low" ratios


def check_fig12(result):
    """OFFSTAT's fleet-size curve: a dip at kopt."""
    curve = np.asarray(result.y("total cost"))
    kopt = int(np.argmin(curve)) + 1
    assert curve.min() < curve[0]          # more than one server pays off
    assert curve[-1] > curve.min()         # oversizing hurts
    assert f"kopt = {kopt}" in result.notes


def check_fig13(result):
    """OFFSTAT and OPT vs λ, β < c: costs fall, OFFSTAT ≥ OPT everywhere."""
    offstat, opt = result.y("OFFSTAT"), result.y("OPT")
    assert all(o >= p - 1e-9 for o, p in zip(offstat, opt))
    # λ = horizon is a static pattern: cheapest point for OPT
    assert opt[-1] == min(opt)


def check_fig14(result):
    """OFFSTAT and OPT vs λ with β = 400 > c = 40."""
    offstat, opt = result.y("OFFSTAT"), result.y("OPT")
    assert all(o >= p - 1e-9 for o, p in zip(offstat, opt))
    assert opt[-1] == min(opt)


def check_fig15(result):
    """OFFSTAT/OPT vs λ, dynamic load: a hump, larger for β > c."""
    for name in ("β<c", "β>c"):
        ys = result.y(name)
        assert all(v >= 1.0 - 1e-9 for v in ys)
        # hump: some interior point beats the static extreme (λ = horizon)
        assert max(ys[:-1]) > ys[-1]
        # static extreme: flexibility worthless, ratio back near 1
        assert ys[-1] <= 1.1
    # β > c profits more from flexibility (the paper's observation)
    assert sum(result.y("β>c")) >= sum(result.y("β<c"))


def check_fig16(result):
    """OFFSTAT/OPT vs λ, static load: back to 1 for static patterns."""
    for name in ("β<c", "β>c"):
        ys = result.y(name)
        assert all(v >= 1.0 - 1e-9 for v in ys)
        assert ys[-1] <= 1.1  # static pattern: ratio returns to ~1
    assert sum(result.y("β>c")) >= sum(result.y("β<c"))


def check_fig17(result):
    """OFFSTAT/OPT vs λ, time zones: rises early, declines with slow dynamics."""
    for name in ("β<c", "β>c"):
        ys = result.y(name)
        assert all(v >= 1.0 - 1e-9 for v in ys)
        # decline toward low dynamics: the λ=horizon point is below the peak
        assert ys[-1] < max(ys)


def _pre_saturation(result) -> list:
    # On 5-node graphs the fan-out saturates at T = 4 (2^(T/2) = 4 <= 5
    # access points); the paper's "ratio grows with T" claim is checked on
    # the pre-saturation prefix, after which the pattern stops widening.
    return [i for i, T in enumerate(result.x_values) if 2 ** (T // 2) <= 5]


def check_fig18(result):
    """OFFSTAT/OPT vs T, dynamic load: grows with T, more for β > c."""
    pre_saturation = _pre_saturation(result)
    for name in ("β<c", "β>c"):
        ys = result.y(name)
        assert all(v >= 1.0 - 1e-9 for v in ys)
        if len(pre_saturation) >= 2:
            # ratio grows (or holds) with T until the fan-out saturates
            assert ys[pre_saturation[-1]] >= ys[pre_saturation[0]] - 0.05
    assert sum(result.y("β>c")) >= sum(result.y("β<c"))


def check_fig19(result):
    """OFFSTAT/OPT vs T, static load: grows with T until saturation."""
    pre_saturation = _pre_saturation(result)
    for name in ("β<c", "β>c"):
        ys = result.y(name)
        assert all(v >= 1.0 - 1e-9 for v in ys)
        if len(pre_saturation) >= 2:
            assert ys[pre_saturation[-1]] >= ys[pre_saturation[0]] - 0.05


def check_rocketfuel(result):
    """AS-7018 totals: OFFSTAT < ONTH < 2x OFFSTAT, ONTH < ONBR.

    The paper's AT&T map gives OFFSTAT 26063.8, ONTH 44176.3 and ONBR
    111470.3; the order is checked on the synthetic AT&T-like substrate.
    """
    offstat = result.y("OFFSTAT")[0]
    onth = result.y("ONTH")[0]
    onbr = result.y("ONBR")[0]
    assert offstat <= onth            # static offline beats online ONTH
    assert onth <= 2.0 * offstat      # "a factor less than two higher"
    assert onth <= onbr * 1.05        # ONTH beats ONBR


#: figure id -> its check (``check_fig01`` ... ``check_rocketfuel``).
CHECKS = {
    name[len("check_"):]: check
    for name, check in sorted(globals().items()) if name.startswith("check_")
}


def test_every_paper_figure_has_a_check():
    registered = {
        name for name, _entry in FIGURES.items()
        if name.startswith("fig") or name == "rocketfuel"
    }
    paper = {f"fig{i:02d}" for i in range(1, 20)} | {"rocketfuel"}
    assert set(CHECKS) == registered == paper


@pytest.mark.parametrize(
    "key", [pytest.param(key, marks=pytest.mark.figure(key)) for key in CHECKS]
)
def test_figure_claims(key, benchmark, bench_scale, figure_report):
    fn, quick = FIGURES.resolve(key)
    params = quick if bench_scale == "quick" else PAPER_OVERRIDES.get(key, {})
    result = run_once(benchmark, lambda: fn(**params))
    figure_report(result)
    CHECKS[key](result)
