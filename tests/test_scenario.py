"""Sharing scenario construction: pools, access rights, co-location."""
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mmwshare.geometry import Region, mix_seed
from mmwshare.scenario import (SCENARIO_KINDS, Scenario, build_scenario,
                               realize_scenario, shared_bs_selection, stack_drops)

UNIT = Region(1.0, 1.0)


def realize(scenario, n_bs_per_operator, ue_operator, seed=0):
    """Realize a scenario at dummy positions (the masks ignore them)."""
    n_bs, n_ue = sum(n_bs_per_operator), len(ue_operator)
    return realize_scenario(scenario, np.zeros((n_bs, 2)), np.zeros((n_ue, 2)),
                            n_bs_per_operator, np.asarray(ue_operator), seed)


def operator_bs_indices(real, m):
    return np.flatnonzero(real.bs_operator == m)


def test_kind_validation():
    for k in SCENARIO_KINDS:
        assert Scenario(k).kind == k
    with pytest.raises(ValueError):
        Scenario("Roaming")
    with pytest.raises(ValueError):
        Scenario("nosharing")
    with pytest.raises(ValueError):
        Scenario("Spectrum", num_operators=0)
    with pytest.raises(ValueError):
        Scenario("SpectrumAccess", access_share_fraction=1.5)
    for bad in (0.0, -5e8, math.nan, math.inf):
        with pytest.raises(ValueError):
            Scenario("Spectrum", license_bandwidth_hz=bad)


def test_total_bandwidth():
    assert Scenario("NoSharing", num_operators=4).total_bandwidth_hz == 2e9
    assert Scenario("Spectrum", num_operators=2,
                    license_bandwidth_hz=4e8).total_bandwidth_hz == 8e8


def test_pools_unshared():
    sc = Scenario("NoSharing", num_operators=3)
    assert sc.pool_hz == 5e8
    # three disjoint pools: each operator's BSs reach only its own UEs
    real = realize(sc, [1, 1, 1], [0, 1, 2])
    assert_array_equal(real.cochannel_bu, np.eye(3, dtype=bool))


def test_pools_shared():
    for kind in ("Spectrum", "SpectrumInfra", "SpectrumAccess"):
        sc = Scenario(kind, num_operators=3)
        assert sc.pool_hz == 1.5e9
        assert np.all(realize(sc, [1, 1, 1], [0, 1, 2]).cochannel_bu)


def test_pools_conserve_bandwidth_exactly():
    for m in (1, 2, 3, 4, 5, 7):
        for kind in SCENARIO_KINDS:
            sc = Scenario(kind, num_operators=m, license_bandwidth_hz=5e8)
            # one BS and one UE per operator: the distinct co-channel rows
            # are the pools
            mask = realize(sc, [1] * m, list(range(m))).cochannel_bu
            n_pools = len(np.unique(mask, axis=0))
            assert sc.pool_hz * n_pools == sc.total_bandwidth_hz


def test_cochannel_mask():
    bs_counts = [2, 1]   # BS operators 0, 0, 1
    ue_op = [0, 1, 1, 0]
    mask = realize(Scenario("NoSharing"), bs_counts, ue_op).cochannel_bu
    # own-operator links only when pools are disjoint
    assert_array_equal(mask, [[True, False, False, True],
                              [True, False, False, True],
                              [False, True, True, False]])
    shared = realize(Scenario("Spectrum"), bs_counts, ue_op).cochannel_bu
    assert shared.shape == (3, 4)
    assert np.all(shared)


def test_access_matrix_expansion():
    # one (B, U) column per UE: its operator's row of access rights
    own = realize(Scenario("NoSharing"), [2, 1], [0, 1, 1])
    assert_array_equal(own.access_bu, [[True, False, False],
                                       [True, False, False],
                                       [False, True, True]])
    # SpectrumAccess at 0.5: operator 0 opens round(1.0) = 1 of its 2 BSs,
    # drawn from mix_seed(seed, M + 0); operator 1 opens round(0.5) = 0
    seed = 4
    real = realize(Scenario("SpectrumAccess", access_share_fraction=0.5),
                   [2, 1], [0, 1, 1, 0], seed=seed)
    opened = shared_bs_selection(2, 0.5, mix_seed(seed, 2))
    row_op1 = np.isin(np.arange(3), [*opened, 2])
    want = np.stack([[True, True, False], row_op1, row_op1,
                     [True, True, False]], axis=1)
    assert_array_equal(real.access_bu, want)


def access_oracle(scn, counts, ue_operator, seed):
    """(B, U) access rights written out per BS: the home operator's UEs,
    and under SpectrumAccess every UE where the BS is in its operator's
    `shared_bs_selection`."""
    m_ops = scn.num_operators
    if scn.kind == "SpectrumInfra":
        counts = [counts[0]] * m_ops
    rows = []
    for m, n in enumerate(counts):
        opened = set()
        if scn.kind == "SpectrumAccess":
            opened = set(shared_bs_selection(n, scn.access_share_fraction,
                                             mix_seed(seed, m_ops + m)).tolist())
        rows += [[op == m or i in opened for op in ue_operator] for i in range(n)]
    return np.array(rows, dtype=bool).reshape(len(rows), len(ue_operator))


def test_sharing_labels_match_oracle():
    rng = np.random.default_rng(12)
    for m_ops in (1, 2, 3):
        for fraction in (0.0, 0.3, 0.5, 1.0):
            for kind in SCENARIO_KINDS:
                scn = Scenario(kind, num_operators=m_ops, access_share_fraction=fraction)
                parts = []
                for trial in range(6):
                    counts = rng.integers(0, 7, size=m_ops).tolist()
                    ue_op = rng.integers(0, m_ops, size=int(rng.integers(0, 9)))
                    seed = int(rng.integers(1 << 30))
                    real = realize(scn, counts, ue_op, seed)
                    want = access_oracle(scn, counts, ue_op.tolist(), seed)
                    bs, ue = np.divmod(np.arange(want.size), max(len(ue_op), 1))
                    assert_array_equal(real.access_at(bs, ue), want.ravel())
                    assert_array_equal(real.access_bu, want)
                    # only SpectrumAccess opens BSs (at M = 1 to no foreign UE)
                    assert real.open_bs.shape == real.bs_operator.shape
                    if kind != "SpectrumAccess":
                        assert not real.open_bs.any()
                    assert scn.co_located == (kind == "SpectrumInfra")
                    parts.append(real)
                # three drops side by side: each drop's labels at its offsets
                block = stack_drops(parts[:3])
                n_bs = n_ue = 0
                for part in parts[:3]:
                    b, u = len(part.bs_operator), len(part.ue_operator)
                    assert_array_equal(block.open_bs[n_bs:n_bs + b], part.open_bs)
                    bs, ue = np.divmod(np.arange(b * u), max(u, 1))
                    assert_array_equal(block.access_at(n_bs + bs, n_ue + ue),
                                       part.access_at(bs, ue))
                    assert_array_equal(block.cochannel_at(n_bs + bs, n_ue + ue),
                                       part.cochannel_at(bs, ue))
                    n_bs, n_ue = n_bs + b, n_ue + u
                assert (len(block.open_bs), len(block.ue_operator)) == (n_bs, n_ue)


def test_shared_selection_size_and_nesting():
    sel = shared_bs_selection(10, 0.3, seed=0)
    assert sel.shape == (3,)
    assert np.all(np.diff(sel) > 0)
    # same seed: a larger fraction extends the smaller selection
    a = shared_bs_selection(20, 0.25, seed=7)
    b = shared_bs_selection(20, 0.75, seed=7)
    assert set(a.tolist()) <= set(b.tolist())
    assert shared_bs_selection(5, 0.0, seed=1).size == 0
    assert shared_bs_selection(5, 1.0, seed=1).size == 5
    # round, not floor: 0.5 of 5 opens 2 (banker's rounding on 2.5)
    assert shared_bs_selection(5, 0.5, seed=2).size == 2
    with pytest.raises(ValueError):
        shared_bs_selection(5, 1.2, seed=0)


def test_build_scenario_counts_and_masks():
    [real] = build_scenario([Scenario("NoSharing")], UNIT, 30.0, 200.0, seed=0)
    n_bs, n_ue = len(real.bs_xy), len(real.ue_xy)
    assert set(real.bs_operator.tolist()) == set(real.ue_operator.tolist()) == {0, 1}
    assert real.bs_operator.shape == (n_bs,)
    assert real.ue_operator.shape == (n_ue,)
    assert real.access_bu.shape == (n_bs, n_ue)
    # without sharing a UE may only use its own operator's sites
    own = real.bs_operator[:, None] == real.ue_operator[None, :]
    assert_array_equal(real.access_bu, own)
    assert_array_equal(real.cochannel_bu, own)


def test_build_scenario_spectrum_only_changes_pool():
    [a] = build_scenario([Scenario("NoSharing")], UNIT, 30.0, 200.0, seed=3)
    [b] = build_scenario([Scenario("Spectrum")], UNIT, 30.0, 200.0, seed=3)
    # common random numbers: same seed gives the same deployment
    assert_array_equal(a.bs_xy, b.bs_xy)
    assert_array_equal(a.ue_xy, b.ue_xy)
    assert_array_equal(a.access_bu, b.access_bu)
    assert a.scenario.pool_hz == 5e8
    assert b.scenario.pool_hz == 1e9
    assert np.all(b.cochannel_bu)


def test_build_scenario_infra_colocates():
    for m_ops in (1, 2, 3):
        [infra] = build_scenario([Scenario("SpectrumInfra", num_operators=m_ops)],
                                 UNIT, 30.0, 200.0, seed=5)
        [spec] = build_scenario([Scenario("Spectrum", num_operators=m_ops)],
                                UNIT, 30.0, 200.0, seed=5)
        # every operator's BSs stack on operator 0's own draw
        site0 = spec.bs_xy[operator_bs_indices(spec, 0)]
        for m in range(m_ops):
            assert_array_equal(infra.bs_xy[operator_bs_indices(infra, m)], site0)
        # UE positions and owners are untouched
        assert_array_equal(infra.ue_xy, spec.ue_xy)
        assert_array_equal(infra.ue_operator, spec.ue_operator)
        # access is still restricted to the owner's arrays
        own = infra.bs_operator[:, None] == infra.ue_operator[None, :]
        assert_array_equal(infra.access_bu, own)
        assert np.all(infra.cochannel_bu)


def test_realize_scenario_colocation_rule():
    # distinct sites per operator: 2, 3 and 1 BSs
    counts = [2, 3, 1]
    bs_xy = np.arange(12, dtype=float).reshape(6, 2)
    ue_xy = np.zeros((4, 2))
    ue_op = np.array([0, 1, 2, 1])
    infra = realize_scenario(Scenario("SpectrumInfra", num_operators=3),
                             bs_xy, ue_xy, counts, ue_op, seed=0)
    # every operator stacks its radios on operator 0's two towers
    assert_array_equal(infra.bs_xy, np.tile(bs_xy[:2], (3, 1)))
    assert_array_equal(np.bincount(infra.bs_operator), [2] * 3)
    # access stays home-only, and the one pool couples everyone
    assert_array_equal(infra.access_bu,
                       infra.bs_operator[:, None] == ue_op[None, :])
    assert infra.cochannel_bu.shape == (6, 4)
    assert np.all(infra.cochannel_bu)
    assert_array_equal(infra.ue_xy, ue_xy)
    assert infra.scenario.co_located
    # every other kind keeps the drawn sites: the drop engine shares one
    # link table between the kinds that are not co-located
    for kind in ("NoSharing", "Spectrum", "SpectrumAccess"):
        real = realize_scenario(Scenario(kind, num_operators=3),
                                bs_xy, ue_xy, counts, ue_op, seed=0)
        assert not real.scenario.co_located
        assert_array_equal(real.bs_xy, bs_xy)
        assert_array_equal(np.bincount(real.bs_operator), counts)


def test_build_scenario_access_opens_foreign_sites():
    [full] = build_scenario([Scenario("SpectrumAccess", access_share_fraction=1.0)],
                            UNIT, 30.0, 200.0, seed=2)
    assert np.all(full.access_bu)
    [part] = build_scenario([Scenario("SpectrumAccess", access_share_fraction=0.3)],
                            UNIT, 30.0, 200.0, seed=2)
    own = part.bs_operator[:, None] == part.ue_operator[None, :]
    assert np.all(part.access_bu[own])
    opened = part.access_bu & ~own
    for m in range(part.scenario.num_operators):
        idx = operator_bs_indices(part, m)
        foreign_ues = part.ue_operator != m
        n_open = round(0.3 * idx.size)
        per_ue = opened[idx][:, foreign_ues].sum(axis=0)
        assert np.all(per_ue == n_open)


def test_access_does_not_gate_interference():
    # co-channel coupling covers every pool member even when access is partial
    [real] = build_scenario([Scenario("SpectrumAccess", access_share_fraction=0.3)],
                            UNIT, 30.0, 200.0, seed=6)
    assert not np.all(real.access_bu)
    assert np.all(real.cochannel_bu)


def test_build_scenario_deterministic():
    [a] = build_scenario([Scenario("SpectrumAccess", access_share_fraction=0.5)],
                         UNIT, 30.0, 200.0, seed=9)
    [b] = build_scenario([Scenario("SpectrumAccess", access_share_fraction=0.5)],
                         UNIT, 30.0, 200.0, seed=9)
    assert_array_equal(a.bs_xy, b.bs_xy)
    assert_array_equal(a.access_bu, b.access_bu)


def test_build_scenario_draws_once_for_every_kind():
    scns = [Scenario(kind, num_operators=3, access_share_fraction=0.5)
            for kind in SCENARIO_KINDS]
    joint = build_scenario(scns, UNIT, 30.0, 200.0, seed=4)
    assert [r.scenario for r in joint] == scns
    for scn, real in zip(scns, joint):
        [alone] = build_scenario([scn], UNIT, 30.0, 200.0, seed=4)
        for name in ("bs_xy", "ue_xy", "bs_operator", "ue_operator",
                     "access_bu", "cochannel_bu"):
            assert_array_equal(getattr(real, name), getattr(alone, name))
    # one geometry for the kinds that keep the drawn sites, another for
    # SpectrumInfra's co-located towers; every kind has the drawn UEs
    by_kind = dict(zip(SCENARIO_KINDS, joint))
    sites = by_kind["NoSharing"].bs_xy
    assert [r.scenario.co_located for r in joint] == [k == "SpectrumInfra"
                                                       for k in SCENARIO_KINDS]
    assert_array_equal(by_kind["Spectrum"].bs_xy, sites)
    assert_array_equal(by_kind["SpectrumAccess"].bs_xy, sites)
    assert not np.array_equal(by_kind["SpectrumInfra"].bs_xy, sites)
    for r in joint:
        assert_array_equal(r.ue_xy, joint[0].ue_xy)
    assert build_scenario([], UNIT, 30.0, 200.0, seed=4) == []
    with pytest.raises(ValueError):
        build_scenario([Scenario("Spectrum"), Scenario("NoSharing", num_operators=3)],
                       UNIT, 30.0, 200.0, seed=4)
