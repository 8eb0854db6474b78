"""Multi-operator sharing scenarios.

Four arrangements of M operators over one region:

- ``NoSharing``: independent deployments, each operator transmits in its
  own orthogonal license band, UEs attach only to their home operator.
- ``Spectrum``: same deployments, all licenses pooled into one band shared
  by everyone, so every base station can interfere with every user.
- ``SpectrumInfra``: pooled spectrum and co-located towers; every
  operator's base stations sit at operator 0's positions. Every operator
  therefore also gets operator 0's BS count, so B is M times that count
  rather than the sum of the operators' own draws (drop 0 of the default
  config: 56 radios instead of 61).
- ``SpectrumAccess``: pooled spectrum plus partial roaming; each operator
  opens a fraction of its base stations to all foreign users.

Deployments depend only on the master seed and the operator index, never
on the scenario kind, so kinds are directly comparable drop by drop, and
`build_scenario` draws them once per drop for every requested kind.
Every sharing rule has one builder, `realize_scenario`, shared by the drop
engine (`build_scenario`) and the coordination-gap instances: where the
BSs stand (`Scenario.co_located`: SpectrumInfra's towers), which BSs may
serve a UE and which interfere with it. The rules are kept as labels,
each BS's and UE's operator and whether SpectrumAccess opened the BS to
foreign UEs (`open_bs`); the drop engine reads per-link access and
co-channel flags from them (`access_at`, `cochannel_at`) for the live
links of a link table, and the (B, U) masks are built only on demand,
for gap instances and tests.
`stack_drops` lays several drops of one kind side by side, as the block
engine's link tables do. Under ``SpectrumAccess`` at the default
``access_share_fraction=1.0`` every BS is open to every UE, so a gap
instance's search ranges over all of its unblocked BSs. At the default
config that stays within the search's limits; three operators on a
0.2 km region can exceed them, and the ``gap`` command then exits with 4.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .geometry import Region, deploy_operator, mix_seed

SCENARIO_KINDS = ("NoSharing", "Spectrum", "SpectrumInfra", "SpectrumAccess")


@dataclass(frozen=True)
class Scenario:
    """A sharing configuration: who pools spectrum and who may roam where."""

    kind: str
    num_operators: int = 2
    license_bandwidth_hz: float = 5e8
    access_share_fraction: float = 1.0   # used by SpectrumAccess only

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; expected one of {SCENARIO_KINDS}")
        if self.num_operators < 1:
            raise ValueError("num_operators must be >= 1")
        if not (math.isfinite(self.license_bandwidth_hz) and self.license_bandwidth_hz > 0):
            raise ValueError("license bandwidth must be finite and > 0")
        if not 0.0 <= self.access_share_fraction <= 1.0:
            raise ValueError("access_share_fraction must be in [0, 1]")

    @property
    def total_bandwidth_hz(self) -> float:
        """System bandwidth W: the union of all operator licenses."""
        return self.license_bandwidth_hz * self.num_operators

    @property
    def pool_hz(self) -> float:
        """Bandwidth of the pool each BS transmits in.

        NoSharing keeps M orthogonal pools of one license each; every sharing
        kind collapses them into a single pool of the full bandwidth W.
        """
        if self.kind == "NoSharing":
            return float(self.license_bandwidth_hz)
        return float(self.total_bandwidth_hz)

    @property
    def co_located(self) -> bool:
        """Every operator's radios stand on operator 0's towers (SpectrumInfra only)."""
        return self.kind == "SpectrumInfra"


def shared_bs_selection(n: int, fraction: float, seed: int) -> np.ndarray:
    """Indices of the round(fraction * n) BSs an operator opens to foreign UEs.

    The subset is a prefix of one seeded permutation, so selections are
    nested: a larger fraction opens a superset of a smaller one.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    k = int(round(fraction * n))
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:k])


@dataclass
class RealizedScenario:
    """One drop of a scenario (or a block of drops side by side): positions,
    owners and the sharing rules as labels.

    Operators are concatenated in id order into flat BS/UE arrays. A BS
    serves its own operator's UEs, and foreign ones where `open_bs` says
    so; which BS transmits in which UE's pool follows from the kind and
    the operator labels. `access_at` and `cochannel_at` read both rules
    at given links; `access_bu` and `cochannel_bu` are the dense (B, U)
    masks, built on demand.
    """

    scenario: Scenario
    bs_xy: np.ndarray = field(repr=False)         # (B, 2) km
    ue_xy: np.ndarray = field(repr=False)         # (U, 2) km
    bs_operator: np.ndarray = field(repr=False)   # (B,)
    ue_operator: np.ndarray = field(repr=False)   # (U,)
    open_bs: np.ndarray = field(repr=False)       # (B,) bool: b also serves foreign UEs

    def access_at(self, bs: np.ndarray, ue: np.ndarray) -> np.ndarray:
        """Per link (bs[i], ue[i]): may the BS serve the UE."""
        return (self.bs_operator.take(bs) == self.ue_operator.take(ue)) | self.open_bs.take(bs)

    def cochannel_at(self, bs: np.ndarray, ue: np.ndarray) -> np.ndarray:
        """Per link (bs[i], ue[i]): does the BS transmit in the UE's pool,
        the own operator's under NoSharing and the one shared pool otherwise."""
        if self.scenario.kind == "NoSharing":
            return self.bs_operator.take(bs) == self.ue_operator.take(ue)
        return np.ones(np.shape(bs), dtype=bool)

    def _dense(self, rule) -> np.ndarray:
        n_bs, n_ue = len(self.bs_operator), len(self.ue_operator)
        bs, ue = np.divmod(np.arange(n_bs * n_ue), max(n_ue, 1))
        return rule(bs, ue).reshape(n_bs, n_ue)

    @property
    def access_bu(self) -> np.ndarray:
        """(B, U) bool: b may serve u."""
        return self._dense(self.access_at)

    @property
    def cochannel_bu(self) -> np.ndarray:
        """(B, U) bool: b transmits in u's pool."""
        return self._dense(self.cochannel_at)


def stack_drops(parts: Sequence[RealizedScenario]) -> RealizedScenario:
    """Several drops of one scenario side by side, as one block: positions
    and labels concatenated in drop order, so drop d's BS and UE indices
    are offset by the counts of the drops before it. Its per-link flags
    read the links of a block link table, where no link crosses a drop;
    its dense masks pair every BS with every UE of the block, which is
    meaningful for one drop only. One part is copied like several."""
    return RealizedScenario(
        parts[0].scenario,
        *(np.concatenate([getattr(p, name) for p in parts])
          for name in ("bs_xy", "ue_xy", "bs_operator", "ue_operator", "open_bs")))


def realize_scenario(scenario: Scenario, bs_xy, ue_xy, n_bs_per_operator,
                     ue_operator, seed: int) -> RealizedScenario:
    """Apply the sharing rules of `scenario` to concrete positions.

    Operator m owns the next n_bs_per_operator[m] rows of `bs_xy`. Under a
    co-located kind (`Scenario.co_located`) every operator mounts its
    radios on operator 0's towers: `bs_xy` becomes operator 0's rows
    repeated M times and every operator gets operator 0's count; every
    other kind keeps `bs_xy`. A UE may always use its home operator's BSs;
    under SpectrumAccess, operator m also opens its `shared_bs_selection`,
    drawn from mix_seed(seed, M + m), to every foreign UE (the `open_bs`
    label; at M = 1 no foreign UE can use them). A BS interferes with a UE
    when both are in the same pool: the own operator's under NoSharing,
    every BS otherwise (`RealizedScenario.cochannel_at`).
    """
    m_ops = scenario.num_operators
    counts = [int(n) for n in n_bs_per_operator]
    if scenario.co_located:
        bs_xy = np.tile(bs_xy[:counts[0]], (m_ops, 1))
        counts = [counts[0]] * m_ops
    bs_operator = np.repeat(np.arange(m_ops), counts)
    open_bs = np.zeros(len(bs_operator), dtype=bool)
    if scenario.kind == "SpectrumAccess":
        for m, start in enumerate(np.cumsum([0, *counts[:-1]])):
            open_bs[start + shared_bs_selection(
                counts[m], scenario.access_share_fraction, mix_seed(seed, m_ops + m))] = True
    return RealizedScenario(scenario, bs_xy, ue_xy, bs_operator, np.asarray(ue_operator), open_bs)


def build_scenario(
    scenarios: Sequence[Scenario],
    region: Region,
    bs_density_per_km2: float,
    ue_density_per_km2: float,
    seed: int,
) -> list[RealizedScenario]:
    """Draw all operators once from Poisson point processes and realize
    every scenario in `scenarios` on that one draw, in the given order.

    Operator m's point processes use mix_seed(seed, m); its shared-BS
    selection (SpectrumAccess) uses mix_seed(seed, M + m). Neither depends
    on the scenario kind, so the scenarios must agree on M. The operators'
    BSs are concatenated once and every kind is realized on that array by
    `realize_scenario`, which holds every sharing rule, co-location
    included: every kind that is not `co_located` has the drawn geometry,
    hence the same link table.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    m_ops = scenarios[0].num_operators
    if any(s.num_operators != m_ops for s in scenarios):
        raise ValueError("scenarios realized on one draw need the same num_operators")
    drawn = [deploy_operator(bs_density_per_km2, ue_density_per_km2, region,
                             mix_seed(seed, m))
             for m in range(m_ops)]
    bs_xy = np.concatenate([bs for bs, _ in drawn])
    ue_xy = np.concatenate([ue for _, ue in drawn])
    n_bs = [len(bs) for bs, _ in drawn]
    ue_operator = np.repeat(np.arange(m_ops), [len(ue) for _, ue in drawn])
    return [realize_scenario(scn, bs_xy, ue_xy, n_bs, ue_operator, seed)
            for scn in scenarios]
