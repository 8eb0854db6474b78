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
on the scenario kind, so kinds are directly comparable drop by drop.
Access rights have one builder, `access_matrix`, shared by the drop engine
and the coordination-gap instances. Under ``SpectrumAccess`` at the default
``access_share_fraction=1.0`` every BS is open to every UE, so a gap
instance that draws 5 or more BSs in total (up to 3 per operator) exceeds
the search's limit of 4 accessible BSs per UE and the ``gap`` command exits
with code 4.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Deployment, Region, deploy_operator, mix_seed

SCENARIO_KINDS = ("NoSharing", "Spectrum", "SpectrumInfra", "SpectrumAccess")


def validate_kind(kind: str) -> str:
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
    return kind


@dataclass(frozen=True)
class Scenario:
    """A sharing configuration: who pools spectrum and who may roam where."""

    kind: str
    num_operators: int = 2
    license_bandwidth_hz: float = 5e8
    access_share_fraction: float = 1.0   # used by SpectrumAccess only

    def __post_init__(self):
        validate_kind(self.kind)
        if self.num_operators < 1:
            raise ValueError("num_operators must be >= 1")
        if self.license_bandwidth_hz <= 0:
            raise ValueError("license bandwidth must be > 0")
        if not 0.0 <= self.access_share_fraction <= 1.0:
            raise ValueError("access_share_fraction must be in [0, 1]")

    @property
    def total_bandwidth_hz(self) -> float:
        """System bandwidth W: the union of all operator licenses."""
        return self.license_bandwidth_hz * self.num_operators


@dataclass(frozen=True)
class SpectrumPools:
    """Frequency pools and the operator -> pool map.

    NoSharing keeps M orthogonal pools of one license each; every sharing
    kind collapses them into a single pool of the full bandwidth W.
    """

    pool_hz: float
    pool_of_operator: np.ndarray   # (M,) pool index per operator

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "SpectrumPools":
        m = scenario.num_operators
        if scenario.kind == "NoSharing":
            return cls(float(scenario.license_bandwidth_hz), np.arange(m, dtype=np.int64))
        return cls(float(scenario.total_bandwidth_hz), np.zeros(m, dtype=np.int64))

    @property
    def n_pools(self) -> int:
        return int(self.pool_of_operator.max()) + 1

    @property
    def total_bandwidth_hz(self) -> float:
        return self.pool_hz * self.n_pools

    def cochannel_mask(self, bs_operator, ue_operator) -> np.ndarray:
        """(B, U) bool: BS b transmits in UE u's pool (interference structure)."""
        pool_b = self.pool_of_operator[np.asarray(bs_operator)]
        pool_u = self.pool_of_operator[np.asarray(ue_operator)]
        return pool_b[:, None] == pool_u[None, :]


@dataclass
class AccessMatrix:
    """allowed[op, b] marks BS b as a legal serving choice for operator op's UEs."""

    allowed: np.ndarray   # (M, B) bool

    def for_ues(self, ue_operator) -> np.ndarray:
        """Expand to a (B, U) mask for a concrete UE population."""
        return self.allowed[np.asarray(ue_operator)].T


def co_locate(deployments: list[Deployment]) -> list[Deployment]:
    """Move every operator's BSs onto operator 0's sites (UEs untouched)."""
    if not deployments:
        return deployments
    shared_sites = deployments[0].bs_xy
    return [
        Deployment(d.operator_id, shared_sites, d.ue_xy,
                   d.bs_density_per_km2, d.ue_density_per_km2)
        for d in deployments
    ]


def access_matrix(scenario: Scenario, n_bs_per_operator, seed: int) -> AccessMatrix:
    """Access rights for BSs concatenated in operator order.

    Operator m owns the next n_bs_per_operator[m] BSs. Home-operator BSs are
    always accessible. Under SpectrumAccess, operator m also opens its
    `shared_bs_selection`, drawn from mix_seed(seed, M + m), to every
    foreign operator.
    """
    m_ops = scenario.num_operators
    counts = [int(n) for n in n_bs_per_operator]
    bs_operator = np.repeat(np.arange(m_ops), counts)
    allowed = np.arange(m_ops)[:, None] == bs_operator[None, :]
    if scenario.kind == "SpectrumAccess":
        offsets = np.cumsum([0, *counts])
        for m in range(m_ops):
            opened = shared_bs_selection(
                counts[m], scenario.access_share_fraction, mix_seed(seed, m_ops + m))
            foreign = np.arange(m_ops) != m
            allowed[np.ix_(foreign, offsets[m] + opened)] = True
    return AccessMatrix(allowed)


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
    """One drop of a scenario: deployments, access rights, spectrum pools.

    Operators are concatenated in id order into flat BS/UE arrays;
    `access_bu` and `cochannel_bu` are the (B, U) expansions used by the
    allocation stage.
    """

    scenario: Scenario
    region: Region
    deployments: list[Deployment]
    access: AccessMatrix
    pools: SpectrumPools
    bs_xy: np.ndarray = field(repr=False)        # (B, 2) km
    ue_xy: np.ndarray = field(repr=False)        # (U, 2) km
    bs_operator: np.ndarray = field(repr=False)  # (B,)
    ue_operator: np.ndarray = field(repr=False)  # (U,)

    @property
    def kind(self) -> str:
        return self.scenario.kind

    @property
    def n_operators(self) -> int:
        return len(self.deployments)

    @property
    def n_bs(self) -> int:
        return len(self.bs_xy)

    @property
    def n_ue(self) -> int:
        return len(self.ue_xy)

    @property
    def pool_bandwidth_hz(self) -> float:
        """Bandwidth of the pool each BS transmits in."""
        return self.pools.pool_hz

    @property
    def access_bu(self) -> np.ndarray:
        return self.access.for_ues(self.ue_operator)

    @property
    def cochannel_bu(self) -> np.ndarray:
        return self.pools.cochannel_mask(self.bs_operator, self.ue_operator)

    def operator_bs_indices(self, operator_id: int) -> np.ndarray:
        return np.flatnonzero(self.bs_operator == operator_id)


def build_scenario(
    scenario: Scenario,
    region: Region,
    bs_density_per_km2: float,
    ue_density_per_km2: float,
    seed: int,
) -> RealizedScenario:
    """Draw all operators and assemble access rights and spectrum pools.

    Operator m's point processes use mix_seed(seed, m); its shared-BS
    selection (SpectrumAccess) uses mix_seed(seed, M + m). Neither depends
    on the scenario kind.
    """
    m_ops = scenario.num_operators
    deployments = [
        deploy_operator(m, bs_density_per_km2, ue_density_per_km2, region,
                        mix_seed(seed, m))
        for m in range(m_ops)
    ]
    if scenario.kind == "SpectrumInfra":
        deployments = co_locate(deployments)

    bs_xy = np.concatenate([d.bs_xy for d in deployments], axis=0)
    ue_xy = np.concatenate([d.ue_xy for d in deployments], axis=0)
    bs_operator = np.concatenate(
        [np.full(d.n_bs, d.operator_id, dtype=np.int64) for d in deployments])
    ue_operator = np.concatenate(
        [np.full(d.n_ue, d.operator_id, dtype=np.int64) for d in deployments])

    access = access_matrix(scenario, [d.n_bs for d in deployments], seed)
    return RealizedScenario(
        scenario, region, deployments, access,
        SpectrumPools.for_scenario(scenario),
        bs_xy, ue_xy, bs_operator, ue_operator)
