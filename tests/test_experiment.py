"""Drop engine: determinism, interference toggle, coordination gap rows."""
import math
import os
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import mmwshare
from mmwshare import allocation, experiment, scenario
from mmwshare.allocation import InstanceSizeError, associate_blind
from mmwshare.channel import LinkTable
from mmwshare.config import default_config
from mmwshare.experiment import _links, run_gap, run_scenarios, run_sweep
from mmwshare.geometry import Region
from mmwshare.metrics import outage_rate
from mmwshare.scenario import SCENARIO_KINDS, Scenario, build_scenario


def small_config(**overrides):
    cfg = default_config()
    return replace(cfg, ue_density_per_km2=60.0, drops=2, **overrides)


def one_drop(config, kinds, seed):
    """`run_scenarios` over one drop, from master seed `seed`."""
    return run_scenarios(replace(config, master_seed=seed, drops=1), kinds)


def test_run_drop_deterministic():
    cfg = small_config()
    a = one_drop(cfg, ("Spectrum",), seed=42)["Spectrum"]
    b = one_drop(cfg, ("Spectrum",), seed=42)["Spectrum"]
    assert_array_equal(a.ue_per_drop, b.ue_per_drop)
    assert_array_equal(a.sinr_db, b.sinr_db)
    assert_array_equal(a.rate_bps, b.rate_bps)
    c = one_drop(cfg, ("Spectrum",), seed=43)["Spectrum"]
    assert not np.array_equal(a.rate_bps, c.rate_bps)


def test_outcome_fields_consistent():
    # a UE's SINR is finite exactly where its rate is above 0, and -inf
    # exactly where its rate is +0.0 (unassociated), so a kind's rate CDF
    # opens with exactly its unassociated UEs (`tests/acceptance_spread.py`
    # reads the served UEs' tail that way); a rate above 0 needs a share of
    # the band, so every served UE has one
    cfg = small_config()
    for kind, out in one_drop(cfg, SCENARIO_KINDS, seed=7).items():
        served = np.isfinite(out.sinr_db)
        assert served.any() and not served.all(), kind
        assert_array_equal(out.rate_bps > 0, served)
        assert_array_equal(np.isneginf(out.sinr_db), ~served)
        assert_array_equal(out.rate_bps == 0.0, ~served)
        assert not np.signbit(out.rate_bps[~served]).any(), kind
        assert outage_rate(out.rate_bps[~served], cfg.rate.target_rate_bps) == 1.0


def test_interference_toggle_only_raises_sinr(monkeypatch):
    # association reads no co-channel flag, so the toggle serves every UE
    # from the same BS on the same share of the band and only raises its
    # SINR and rate; the serving BSs are recorded at the name `_evaluate`
    # calls, in one process, which sees every call
    monkeypatch.setattr(experiment, "_processes", lambda: 1)
    serving = []

    def recording(*args, **kwargs):
        serving.append(associate_blind(*args, **kwargs))
        return serving[-1]

    monkeypatch.setattr(experiment, "associate_blind", recording)
    cfg = small_config()
    on = one_drop(cfg, ("Spectrum",), seed=3)["Spectrum"]
    off = one_drop(replace(cfg, interference_enabled=False), ("Spectrum",), seed=3)["Spectrum"]
    assert len(serving) == 2
    assert_array_equal(serving[0], serving[1])
    served = np.isfinite(on.sinr_db)
    assert_array_equal(np.isfinite(off.sinr_db), served)
    assert np.all(off.sinr_db[served] >= on.sinr_db[served])
    assert np.any(off.sinr_db[served] > on.sinr_db[served])
    assert np.all(off.rate_bps[served] >= on.rate_bps[served])


def test_full_bandwidth_mode_never_slower():
    cfg = small_config(interference_enabled=False)
    split = one_drop(cfg, ("Spectrum",), seed=11)["Spectrum"]
    full = one_drop(replace(cfg, full_bandwidth_per_ue=True), ("Spectrum",), seed=11)["Spectrum"]
    served = np.isfinite(split.sinr_db)
    assert np.all(full.rate_bps[served] >= split.rate_bps[served])


def test_run_scenarios_common_deployments():
    cfg = small_config()
    res = run_scenarios(cfg, kinds=("NoSharing", "Spectrum"))
    no, sp = res["NoSharing"], res["Spectrum"]
    # same drop seeds: identical UE populations, structurally different rates
    assert_array_equal(no.ue_per_drop, sp.ue_per_drop)
    assert no.rate_bps.shape == sp.rate_bps.shape
    assert not np.array_equal(no.rate_bps, sp.rate_bps)
    with pytest.raises(ValueError):
        run_scenarios(cfg, kinds=("Spectrum", "Leasing"))


def test_run_scenarios_realizes_one_table_per_geometry_per_drop(monkeypatch):
    # counted through the block realizer: every (drop, geometry) of a run is
    # realized exactly once, whichever block holds it; in one process, which
    # sees every call
    monkeypatch.setattr(experiment, "_processes", lambda: 1)
    geometries = []
    calls = {"deploy_operator": 0}
    realize_block = LinkTable.realize_block.__func__
    deploy = scenario.deploy_operator

    def counting_realize_block(cls, drops, *args, **kwargs):
        geometries.extend((np.asarray(bs).tobytes(), np.asarray(ue).tobytes(), seed)
                          for bs, ue, seed in drops)
        return realize_block(cls, drops, *args, **kwargs)

    def counting_deploy(*args, **kwargs):
        calls["deploy_operator"] += 1
        return deploy(*args, **kwargs)

    monkeypatch.setattr(LinkTable, "realize_block", classmethod(counting_realize_block))
    monkeypatch.setattr(scenario, "deploy_operator", counting_deploy)
    shared = ("NoSharing", "Spectrum", "SpectrumAccess")   # one geometry
    cases = [(SCENARIO_KINDS, 2), (("SpectrumInfra",), 1)]
    cases += [(kinds, 1) for n in (1, 2, 3) for kinds in combinations(shared, n)]
    for budget in (-1, experiment._BLOCK_PAIRS):
        monkeypatch.setattr(experiment, "_BLOCK_PAIRS", budget)
        for m_ops in (2, 3):
            cfg = replace(small_config(), drops=3,
                          scenario=Scenario("Spectrum", num_operators=m_ops))
            for kinds, tables in cases:
                geometries.clear()
                calls.update(deploy_operator=0)
                run_scenarios(cfg, kinds)
                assert len(geometries) == len(set(geometries)) == tables * cfg.drops, kinds
                assert calls == {"deploy_operator": m_ops * cfg.drops}, kinds


def test_kinds_with_equal_access_compute_equal_outcomes():
    # kinds whose access labels agree associate every UE alike: NoSharing
    # and Spectrum on every drop's table (so they serve the same UEs), and
    # SpectrumAccess and Spectrum when it opens no BS, or opens BSs to no
    # foreign UE (M = 1)
    for m_ops in (1, 2, 3):
        for fraction in (1.0, 0.5, 0.0):
            cfg = replace(small_config(), drops=3, scenario=Scenario(
                "Spectrum", num_operators=m_ops, access_share_fraction=fraction))
            for seed in range(cfg.drops):
                no, sp = build_scenario(
                    [replace(cfg.scenario, kind=k) for k in ("NoSharing", "Spectrum")],
                    cfg.region, cfg.bs_density_per_km2, cfg.ue_density_per_km2, seed)
                links = LinkTable.realize_block([(no.bs_xy, no.ue_xy, seed)], cfg.region,
                                                cfg.tx_power_dbm, cfg.channel, cfg.antenna)
                assert_array_equal(
                    associate_blind(links, no.access_at(links.link_bs, links.link_ue)),
                    associate_blind(links, sp.access_at(links.link_bs, links.link_ue)))
            res = run_scenarios(cfg)
            assert_array_equal(np.isfinite(res["NoSharing"].sinr_db),
                               np.isfinite(res["Spectrum"].sinr_db))
            if fraction == 0.0 or m_ops == 1:
                for field in ("sinr_db", "rate_bps"):
                    assert (getattr(res["SpectrumAccess"], field).tobytes()
                            == getattr(res["Spectrum"], field).tobytes())


def _scenario_bits(results):
    """Every array and statistic of `run_scenarios`' results, as bytes."""
    return {kind: (r.sinr_db.tobytes(), r.rate_bps.tobytes(), r.ue_per_drop.tobytes(),
                   r.sinr_cdf.tobytes(), r.rate_cdf.tobytes(),
                   np.array([r.outage_fraction, r.median_rate_bps, r.p05_rate_bps,
                             r.mean_rate_bps, r.median_sinr_db]).tobytes())
            for kind, r in results.items()}


def _sweep_bits(sweep):
    return [np.asarray(getattr(sweep, f)).tobytes()
            for f in ("densities", "median_rate_bps", "p05_rate_bps",
                      "mean_rate_bps", "outage_fraction", "fitted_exponent")]


def _block_sizes(monkeypatch):
    """Record the number of drops of every block the engine evaluates."""
    sizes = []
    run_block = experiment._run_block

    def recording(config, drops, seeds):
        sizes.append(len(drops))
        return run_block(config, drops, seeds)

    monkeypatch.setattr(experiment, "_run_block", recording)
    return sizes


def test_blocks_of_drops_equal_drops_alone(monkeypatch):
    # a block's table lays its drops side by side and no link crosses a drop,
    # so the pooled samples do not depend on how the drops are cut into blocks;
    # in one process, which sees every block
    monkeypatch.setattr(experiment, "_processes", lambda: 1)
    base = replace(default_config(), drops=5)
    flat = replace(base.region, wraparound=False)
    configs = {
        "default": base,
        "exponential": replace(base, channel=replace(base.channel, outage_model="exponential")),
        "flat": replace(base, region=flat),
        "0.2 km": replace(base, region=Region(0.2, 0.2)),
        "no interference, full band": replace(base, interference_enabled=False,
                                              full_bandwidth_per_ue=True),
        "M = 3 access 0.5": replace(base, scenario=Scenario(
            "SpectrumAccess", num_operators=3, access_share_fraction=0.5)),
        "empty UEs": replace(base, ue_density_per_km2=0.001),
        "near-empty BSs": replace(base, bs_density_per_km2=0.5),
    }
    sizes = _block_sizes(monkeypatch)
    default_budget = experiment._BLOCK_PAIRS
    for name, cfg in configs.items():
        results = {}
        # below every drop's count (one drop per block), default, unbounded
        for budget in (-1, default_budget, math.inf):
            monkeypatch.setattr(experiment, "_BLOCK_PAIRS", budget)
            sizes.clear()
            res = run_scenarios(cfg)
            assert sum(sizes) == cfg.drops
            if budget == -1:
                assert sizes == [1] * cfg.drops
            elif budget == math.inf:
                assert sizes == [cfg.drops]
            elif name == "default":
                assert max(sizes) > 1, sizes   # the default budget does form blocks
            if budget == default_budget:
                # the config alone sets the sizes: a range is cut into
                # near-equal blocks, and every master seed is cut alike
                cuts = []
                for seed in range(3):
                    sizes.clear()
                    run_scenarios(replace(cfg, drops=40, master_seed=seed))
                    cuts.append(sizes[:])
                assert max(cuts[0]) - min(cuts[0]) <= 1, (name, cuts)
                assert cuts[0] == cuts[1] == cuts[2], (name, cuts)
                if name == "default":   # 15 drops fit, so 3 blocks, not [15, 15, 10]
                    assert cuts[0] == [14, 13, 13], cuts
            sweep = run_sweep(replace(cfg, drops=3), (5.0, 40.0, 80.0))
            results[budget] = (_scenario_bits(res), _sweep_bits(sweep))
        assert results[-1] == results[default_budget] == results[math.inf], name
        # and the pooled samples are the drops in order: a run of k drops is
        # the first ue_per_drop[:k].sum() samples of the full run; the CDFs
        # are their stable sort, and the mean rate is summed in drop order
        for kind, r in res.items():
            assert r.ue_per_drop.dtype == np.int64 and r.ue_per_drop.shape == (cfg.drops,)
            assert r.ue_per_drop.sum() == r.rate_bps.size == r.sinr_db.size
            for samples, sorted_ in ((r.sinr_db, r.sinr_cdf), (r.rate_bps, r.rate_cdf)):
                assert (np.sort(samples, kind="stable").tobytes()
                        == sorted_.tobytes()), (name, kind)
            mean = r.rate_bps.mean() if r.rate_bps.size else math.nan
            assert (np.float64(mean).tobytes()
                    == np.float64(r.mean_rate_bps).tobytes()), (name, kind)
            if name == "empty UEs":   # no UE in any drop: no sample, no statistic
                assert r.rate_bps.size == 0, kind
                assert np.isnan([r.outage_fraction, r.median_rate_bps, r.p05_rate_bps,
                                 r.median_sinr_db]).all(), kind
        for k in range(1, cfg.drops):
            part = run_scenarios(replace(cfg, drops=k))
            for kind, r in res.items():
                n = r.ue_per_drop[:k].sum()
                assert_array_equal(part[kind].ue_per_drop, r.ue_per_drop[:k])
                for field in ("sinr_db", "rate_bps"):
                    assert (getattr(part[kind], field).tobytes()
                            == getattr(r, field)[:n].tobytes()), (name, kind, k)


def test_run_scenarios_kind_subsets_match_each_kind_alone():
    # every stage seeds its own generator, so neither the other kinds of a
    # drop nor their order moves a kind's samples
    base = small_config()
    configs = [
        base,
        replace(base, interference_enabled=False),
        replace(base, channel=replace(base.channel, outage_model="exponential")),
        replace(base, scenario=Scenario("Spectrum", num_operators=3)),
        replace(base, scenario=Scenario("Spectrum", access_share_fraction=0.5)),
    ]
    subsets = [SCENARIO_KINDS, SCENARIO_KINDS[::-1],
               ("SpectrumInfra", "NoSharing"),
               ("SpectrumAccess", "Spectrum", "SpectrumAccess"),
               ("Spectrum", "SpectrumInfra", "Spectrum", "SpectrumInfra")]
    for cfg in configs:
        alone = {kind: run_scenarios(cfg, (kind,))[kind] for kind in SCENARIO_KINDS}
        for kinds in subsets:
            res = run_scenarios(cfg, kinds)
            # a duplicated kind keeps its first position and is pooled once
            assert list(res) == list(dict.fromkeys(kinds))
            for kind, got in res.items():
                assert got.sinr_db.tobytes() == alone[kind].sinr_db.tobytes()
                assert got.rate_bps.tobytes() == alone[kind].rate_bps.tobytes()


def test_job_counts_give_the_same_bits(monkeypatch):
    # each process takes one contiguous range of drop indices and the parent
    # concatenates them in drop order before the mean and the sort; the
    # sweep's processes each take one range at every density
    base = replace(default_config(), drops=3)
    # expected candidate pairs that underflow to 0.0 still size the blocks
    underflow = replace(base, bs_density_per_km2=1e-200, ue_density_per_km2=1e-200)
    for cfg in (base, replace(base, ue_density_per_km2=0.001),
                replace(base, scenario=Scenario("SpectrumAccess", num_operators=3)),
                underflow):
        bits = []
        for n in (1, 2, 3, 4):   # 4: more processes than drops
            monkeypatch.setattr(experiment, "_processes", lambda: n)
            bits.append((_scenario_bits(run_scenarios(cfg)),
                         _sweep_bits(run_sweep(cfg, (5.0, 20.0, 80.0)))))
        assert bits[0] == bits[1] == bits[2] == bits[3]
    for kind, r in run_scenarios(underflow).items():   # no UE: no sample, no statistic
        assert r.rate_bps.size == r.sinr_db.size == 0, kind
        assert r.ue_per_drop.dtype == np.int64, kind
        assert_array_equal(r.ue_per_drop, np.zeros(underflow.drops, dtype=np.int64))
        assert np.isnan([r.outage_fraction, r.median_rate_bps, r.p05_rate_bps,
                         r.mean_rate_bps, r.median_sinr_db]).all(), kind


def test_process_count_rule(monkeypatch):
    # the CPUs this process may use, at most 2; 1 without os.fork or on
    # Python 3.12 and later, whose os.fork warns in a process with threads
    rows = [   # (affinity or None where there is none, cpu_count, has fork, version, count)
        ({0}, 4, True, (3, 11), 1),
        ({0, 1}, 4, True, (3, 11), 2),
        ({0, 1, 2, 3}, 4, True, (3, 11), 2),
        (None, 4, True, (3, 11), 2),
        (None, 1, True, (3, 11), 1),
        (None, None, True, (3, 11), 1),
        ({0, 1, 2, 3}, 4, False, (3, 11), 1),
        ({0, 1, 2, 3}, 4, True, (3, 12), 1),
    ]
    for affinity, cpus, has_fork, version, count in rows:
        if affinity is None:
            monkeypatch.delattr(experiment.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(experiment.os, "sched_getaffinity",
                                lambda pid, cpus=affinity: set(cpus), raising=False)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda cpus=cpus: cpus)
        if has_fork:
            monkeypatch.setattr(experiment.os, "fork", lambda: None, raising=False)
        else:
            monkeypatch.delattr(experiment.os, "fork", raising=False)
        monkeypatch.setattr(experiment, "sys", SimpleNamespace(version_info=(*version, 0)))
        assert experiment._processes() == count, (affinity, cpus, has_fork, version)


def test_one_fork_per_pooled_call(monkeypatch):
    # a pooled call forks once per process beyond this one, whatever its
    # tasks: the sweep's densities share the same workers
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())   # before the fork, so only this process counts
        return fork()

    monkeypatch.setattr(experiment.os, "fork", counting_fork)
    cfg = small_config()
    for n, drops in ((2, 2), (2, 5), (3, 2)):   # (3, 2): fewer drops than processes
        monkeypatch.setattr(experiment, "_processes", lambda: n)
        cfg = replace(cfg, drops=drops)
        forks.clear()
        run_scenarios(cfg)
        assert len(forks) == 1, (n, drops)
        forks.clear()
        run_sweep(cfg, (5.0, 10.0, 20.0, 30.0, 50.0, 80.0))
        assert len(forks) == 1, (n, drops)
    _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_drop_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked for one drop")

    monkeypatch.setattr(experiment.os, "fork", no_fork)
    monkeypatch.setattr(experiment, "_processes", lambda: 4)
    cfg = replace(small_config(), drops=1)
    run_scenarios(cfg)
    run_sweep(cfg, (5.0, 10.0, 20.0))


def test_failed_share_reaps_every_worker(monkeypatch):
    # a worker that dies without a result is an error of its own, not a
    # short pickle; a failure in this process's own share kills the
    # workers, whose results are no longer wanted
    parent = os.getpid()
    run_block = experiment._run_block
    failure = {}

    def failing(*args):
        if (os.getpid() == parent) == failure["here"]:
            if failure["here"]:
                raise ValueError("this process's share failed")
            os._exit(9)
        return run_block(*args)

    monkeypatch.setattr(experiment, "_run_block", failing)
    cfg = replace(small_config(), drops=3)
    failure["here"] = False
    monkeypatch.setattr(experiment, "_processes", lambda: 3)
    with pytest.raises(RuntimeError, match="died without a result .exit status 9."):
        run_scenarios(cfg)
    _assert_no_child_left()
    monkeypatch.setattr(experiment, "_processes", lambda: 2)
    with pytest.raises(RuntimeError, match="died without a result"):
        run_sweep(cfg, (5.0, 10.0, 20.0))
    _assert_no_child_left()
    failure["here"] = True
    monkeypatch.setattr(experiment, "_processes", lambda: 3)
    with pytest.raises(ValueError, match="this process's share failed"):
        run_scenarios(cfg)
    _assert_no_child_left()


def test_run_gap_rows():
    cfg = replace(default_config(), region=Region(0.2, 0.2),
                  scenario=Scenario("Spectrum"), drops=1)
    rows = run_gap(cfg, n_instances=20)
    assert len(rows) == 20
    assert [r.instance_id for r in rows] == list(range(20))
    for r in rows:
        # the exhaustive search can never lose to the blind allocator
        assert r.ub_sum_rate_bps >= r.blind_sum_rate_bps
        if r.ub_sum_rate_bps > 0:
            gap = 100.0 * (r.ub_sum_rate_bps - r.blind_sum_rate_bps) / r.ub_sum_rate_bps
            assert r.gap_percent == pytest.approx(gap, abs=1e-12)
        else:
            assert r.gap_percent == 0.0
        assert 0.0 <= r.gap_percent <= 100.0


def test_run_gap_colocates_spectrum_infra():
    # under SpectrumInfra every operator's BSs stand at operator 0's drawn
    # sites, so its instances are not the Spectrum study's
    base = replace(default_config(), region=Region(0.2, 0.2), drops=1, master_seed=0)
    spectrum = run_gap(replace(base, scenario=Scenario("Spectrum")), n_instances=20)
    infra = run_gap(replace(base, scenario=Scenario("SpectrumInfra")), n_instances=20)
    assert sum(a != b for a, b in zip(spectrum, infra)) > 0
    assert all(r.ub_sum_rate_bps >= r.blind_sum_rate_bps for r in infra)
    # pinned Spectrum rows: the co-location rule must not touch a kind
    # that keeps the drawn sites
    assert math.fsum(r.blind_sum_rate_bps for r in spectrum) == pytest.approx(
        96293555815.29068, rel=1e-12)
    assert math.fsum(r.ub_sum_rate_bps for r in spectrum) == pytest.approx(
        102448598766.65118, rel=1e-12)
    assert sum(r.gap_percent > 0 for r in spectrum) == 3


def test_run_gap_honours_interference_toggle():
    cfg = replace(default_config(), region=Region(0.2, 0.2),
                  scenario=Scenario("Spectrum"), drops=1, master_seed=5)
    on = run_gap(cfg, n_instances=6)
    off = run_gap(replace(cfg, interference_enabled=False), n_instances=6)
    ub_on = np.array([r.ub_sum_rate_bps for r in on])
    ub_off = np.array([r.ub_sum_rate_bps for r in off])
    assert np.all(ub_off >= ub_on)
    assert np.any(ub_off > ub_on)


def test_run_gap_builds_objective_tables_once_per_instance(monkeypatch):
    calls = []
    real = allocation._objective_tables

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # the only name through which a gap instance reaches `_objective_tables`
    monkeypatch.setattr(allocation, "_objective_tables", counting)
    cfg = replace(default_config(), region=Region(0.2, 0.2),
                  scenario=Scenario("Spectrum"), drops=1)
    rows = run_gap(cfg, n_instances=7)
    assert len(rows) == 7
    assert len(calls) == 7


def test_run_gap_refuses_oversized_instance_before_tabulating(monkeypatch):
    built = []
    real = allocation._objective_tables

    def recording(links, *args, **kwargs):
        built.append(links.n_ue)
        return real(links, *args, **kwargs)

    # every module-level name through which run_gap could reach the tables
    for module in (allocation, experiment):
        if getattr(module, "_objective_tables", None) is real:
            monkeypatch.setattr(module, "_objective_tables", recording)
    cfg = replace(default_config(), region=Region(0.2, 0.2),
                  scenario=Scenario("Spectrum"), drops=1, master_seed=0)
    with pytest.raises(InstanceSizeError):
        run_gap(cfg, n_instances=20, max_ues=12)
    assert built   # instances within the limits ran first
    assert max(built) <= allocation._MAX_UES


def test_kinds_share_link_tables_at_one_seed():
    # common random numbers: the kinds differ only in their sharing rules, so
    # every kind but SpectrumInfra realizes the same link table from a drop seed
    cfg = default_config()
    seed = 12

    def drop(kind):
        [realized] = build_scenario([replace(cfg.scenario, kind=kind)], cfg.region,
                                    cfg.bs_density_per_km2, cfg.ue_density_per_km2, seed)
        return realized, _links(cfg, [realized], [seed])

    ref_real, ref = drop("NoSharing")
    for kind in ("Spectrum", "SpectrumAccess"):
        _, links = drop(kind)
        for name in ("state", "site_of_bs", "link_bs", "link_ue", "delta_km",
                     "shadowing_db", "serving_rx_dbm"):
            assert_array_equal(getattr(links, name), getattr(ref, name))
    infra_real, _ = drop("SpectrumInfra")
    assert_array_equal(infra_real.ue_xy, ref_real.ue_xy)


def test_readme_quick_start_imports_from_the_package_root():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [line] = [ln for ln in readme.splitlines() if ln.startswith("from mmwshare import")]
    namespace = {}
    exec(line, namespace)
    assert namespace["default_config"] is default_config
    assert namespace["run_scenarios"] is run_scenarios
    assert isinstance(mmwshare.__version__, str) and mmwshare.__version__
