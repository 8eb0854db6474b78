"""Monte Carlo drop engine and the run layer that pools drops.

A drop realizes the requested scenario kinds (deployments, link table,
association, SINR, rates) from a single seed. Scenario comparisons reuse
the same drop seeds for every kind, so all kinds see identical operator
deployments and, where geometry coincides, identical channel draws:
differences between kinds are purely structural (common random numbers).

The comparison loop is block-major. `_outcomes` cuts a share of drops
into near-equal blocks of at most as many drops as the config's expected
candidate links fit in `_BLOCK_PAIRS`, and draws every operator's
deployment once per drop (`build_scenario`). `_run_block` realizes one
block link table for the kinds that keep the drawn sites (NoSharing,
Spectrum, SpectrumAccess), holding every drop of the block side by side,
and then one for SpectrumInfra's co-located towers (`Scenario.co_located`).
Association, bandwidth split, SINR and rates then run once per kind per
block, with per-link access and co-channel flags read from the kind's
sharing labels; no link crosses a drop, so each drop's values are those
of the drop alone, and each kind's outcome comes out in pooled drop
order. Only one table is alive at a time, and a block's tables hold its
live links and candidates only, never a (B, U) array of the block. A gap
instance's table is a block of one instance. Drops and gap instances
take every sharing rule, co-location included, from one builder,
`scenario.realize_scenario`.

A pooled run is two steps. `_outcomes` evaluates a contiguous share of
the run's drop indices, block by block, into one UE count per drop and
each kind's (sinr, rate) samples in drop order. `_statistics` concatenates
the outcomes of consecutive shares in drop order, keeps them so next to
their stable sort, and takes the mean before the sort, so no bit depends
on where the shares, or the blocks within them, are cut. `run_scenarios`
(one task) and `run_sweep` (one task per density) pool through `_pool`,
which cuts the drop indices into `_processes()` shares and forks once per
call: `_fork_map` evaluates the first share of every task in this process
and each other share in a child forked for it (POSIX `os.fork`, results
pickled back through a pipe). The caller does not choose the count; the
scaling fit (LAPACK) runs in the parent only, and no forked code calls BLAS.
`run_gap` stays serial.

Seed layout, all via mix_seed: within a drop, operator m's deployment uses
k=m of the drop seed, its shared-BS selection k=M+m, the link table k=2M.
Every stage seeds its own generator, so neither the order in which kinds
are evaluated within a drop nor the drops that share its block moves a
random draw: the seed layout does not depend on the blocks.
A gap instance uses the last two offsets of its instance seed, which also
drives one generator for its sizes, positions and UE operators.
Drop j of a pooled run from base seed b uses mix_seed(b, j); `run_scenarios`
pools every kind from b = master_seed, `run_sweep` density index i from
b = mix_seed(master_seed, 1000000 + i).

Every drop uses blind association. The exhaustive coordinated search runs
only in `run_gap`, on instances small enough to enumerate.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .allocation import (associate_blind, coordinated_upper_bound, network_sinr,
                         split_bandwidth, user_rate)
from .channel import LinkTable, candidate_share
from .config import ConfigError, ExperimentConfig
from .geometry import mix_seed
from .metrics import cdf, fit_scaling_exponent, outage_rate, percentile
from .scenario import (SCENARIO_KINDS, RealizedScenario, Scenario, build_scenario,
                       realize_scenario, stack_drops)


def _links(config: ExperimentConfig, group: Sequence[RealizedScenario],
           seeds: Sequence[int]) -> LinkTable:
    """One link table for a block of drops or gap instances, one geometry
    each; drop d's table draws from mix_seed(seeds[d], 2M)."""
    k = 2 * group[0].scenario.num_operators
    return LinkTable.realize_block(
        [(r.bs_xy, r.ue_xy, mix_seed(seed, k)) for r, seed in zip(group, seeds)],
        config.region, config.tx_power_dbm, config.channel, config.antenna)


def _evaluate(config: ExperimentConfig, realized: RealizedScenario,
              links: LinkTable) -> tuple[np.ndarray, np.ndarray]:
    """(sinr_db, rate_bps) per UE of one realized kind on its link table:
    blind association over the links the kind's access labels allow, then
    bandwidth split, SINR and rates. An unassociated UE has SINR -inf and
    rate +0.0. Links are co-channel only where interference is enabled."""
    serving_bs = associate_blind(links, realized.access_at(links.link_bs, links.link_ue))
    assoc = split_bandwidth(serving_bs, links.n_bs, realized.scenario.pool_hz,
                            config.full_bandwidth_per_ue)
    cochannel = (realized.cochannel_at(links.link_bs, links.link_ue)
                 & config.interference_enabled)
    gamma = network_sinr(links, assoc, cochannel, config.noise_figure_db)
    with np.errstate(divide="ignore"):
        sinr_db = 10.0 * np.log10(gamma)
    rate = user_rate(gamma, assoc.ue_bandwidth_hz, config.rate)
    return sinr_db, rate


def _run_block(config: ExperimentConfig, drops: Sequence[list[RealizedScenario]],
               seeds: Sequence[int]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Evaluate a block of drops, drop d being `build_scenario`'s kinds
    from seeds[d], as each kind's (sinr_db, rate_bps) over the block's UEs.

    The kinds that keep the drawn sites share one block link table, the
    co-located kind (`Scenario.co_located`) has its own, so at most two
    tables are realized. Each is released before the next one is built:
    keeping both alive raised the peak RSS of the default 4-kind benchmark
    by about 1 MB (2.5%). Each kind is evaluated (`_evaluate`) on its
    geometry's table from its own labels; its arrays list the block's UEs
    in drop order and equal the concatenation of its drops run alone.
    """
    geometries: dict[bool, list[tuple[RealizedScenario, ...]]] = {}
    for parts in zip(*drops):   # one kind in every drop of the block
        geometries.setdefault(parts[0].scenario.co_located, []).append(parts)
    outcomes = {}
    for group in geometries.values():
        links = _links(config, group[0], seeds)
        for parts in group:
            realized = stack_drops(parts)
            outcomes[realized.scenario.kind] = _evaluate(config, realized, links)
        del links   # one table alive at a time
    return outcomes


# most expected candidate (site, UE) pairs in a block of drops, from the
# config's densities (`_outcomes`): bounds a block link table's working memory
_BLOCK_PAIRS = 1 << 15


@dataclass
class ScenarioRunResult:
    """One kind's pooled per-UE samples over all drops, in drop order
    (ue_per_drop[j] UEs for drop j, the same for every kind) and as their
    CDFs (`metrics.cdf`: the stable-sorted samples), plus summary stats."""

    sinr_db: np.ndarray       # -inf for unassociated UEs
    rate_bps: np.ndarray      # +0.0 for unassociated UEs
    ue_per_drop: np.ndarray   # int64
    sinr_cdf: np.ndarray
    rate_cdf: np.ndarray
    outage_fraction: float
    median_rate_bps: float
    p05_rate_bps: float
    mean_rate_bps: float      # summed in drop order, before the sort
    median_sinr_db: float


def _outcomes(config: ExperimentConfig, scenarios: Sequence[Scenario], base_seed: int,
              share: np.ndarray) -> tuple[list[int], dict[str, tuple[list, list]]]:
    """The UE count of each drop of `share` (contiguous drop indices), drop
    j seeded mix_seed(base_seed, j), and each scenario's (sinr_db, rate_bps)
    over them, keyed by its kind, as lists of its blocks' arrays in drop
    order. `np.array_split` cuts the share into near-equal blocks of at most
    as many drops as fit in `_BLOCK_PAIRS`, one at least, whatever the draws:
    a drop expects M x density x area sites (M x N0 under SpectrumInfra) and
    UEs, and `candidate_share` of their pairs (all under exponential outage)."""
    m_ops, area = config.scenario.num_operators, config.region.area_km2
    n_bs = m_ops * config.bs_density_per_km2 * area   # expected per drop
    n_ue = m_ops * config.ue_density_per_km2 * area
    pairs = candidate_share(config.region, config.channel) * n_bs * n_ue
    fit = _BLOCK_PAIRS / pairs if pairs > 0 else math.inf   # pairs underflow at tiny densities
    size = int(max(1, min(len(share), fit)))
    ues, parts = [], {s.kind: ([], []) for s in scenarios}
    for block in np.array_split(share, math.ceil(len(share) / size)):
        seeds = [mix_seed(base_seed, j) for j in block.tolist()]
        drops = [build_scenario(scenarios, config.region, config.bs_density_per_km2,
                                config.ue_density_per_km2, seed) for seed in seeds]
        ues += [len(drop[0].ue_xy) for drop in drops if drop]   # its kinds share them
        for kind, (sinr, rate) in _run_block(config, drops, seeds).items():
            parts[kind][0].append(sinr)
            parts[kind][1].append(rate)
    return ues, parts


def _statistics(config: ExperimentConfig, shares: Sequence[tuple[list, dict]]
                ) -> dict[str, ScenarioRunResult]:
    """Pool `_outcomes` of consecutive drop shares covering drops
    0 .. config.drops - 1: the UE counts and each kind's block arrays are
    concatenated once, in drop order, averaged in that order and sorted
    once into the CDFs that the percentiles read, so every bit is that of
    one share holding all the drops. A population with no UE in any drop
    pools no sample, and every statistic of it is NaN."""
    ue_per_drop = np.array([n for ues, _ in shares for n in ues], dtype=np.int64)
    results = {}
    for kind in shares[0][1]:
        sinr = np.concatenate([a for _, parts in shares for a in parts[kind][0]])
        rate = np.concatenate([a for _, parts in shares for a in parts[kind][1]])
        sinr_cdf, rate_cdf, stats = sinr, rate, (math.nan,) * 5
        if rate.size:
            mean = float(rate.mean())   # its bits depend on the drop order
            sinr_cdf, rate_cdf = cdf(sinr), cdf(rate)
            stats = (outage_rate(rate_cdf, config.rate.target_rate_bps),
                     percentile(rate_cdf, 0.5), percentile(rate_cdf, 0.05), mean,
                     percentile(sinr_cdf, 0.5))
        results[kind] = ScenarioRunResult(sinr, rate, ue_per_drop, sinr_cdf, rate_cdf, *stats)
    return results


def _fork_map(fn, args: Sequence) -> list:
    """[fn(a) for a in args]: args[0] in this process, every other in a
    child forked for it, whose result comes back pickled through a pipe.

    A child always leaves through `os._exit`, so it never returns into the
    caller nor flushes the caller's buffers. Every child is reaped before
    this returns or raises, killed first when its result is no longer
    wanted (this process's own share or an earlier child failed). A child's
    exception is raised here as a RuntimeError with its message; a child
    that dies without a result is an error too.
    """
    workers = []   # (pid, read end of its pipe), not yet reaped
    try:
        for a in args[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:   # the child
                status = 1
                try:
                    os.close(r)
                    try:
                        payload = (True, fn(a))
                    except Exception as exc:
                        payload = (False, f"{type(exc).__name__}: {exc}")
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            workers.append((pid, os.fdopen(r, "rb")))
            os.close(w)   # only the child may hold it, so its death ends the pipe
        results = [fn(args[0])]
        while workers:
            pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if code != 0:
                raise RuntimeError(f"drop worker {pid} died without a result "
                                   f"(exit status {code})")
            ok, value = pickle.loads(data)
            if not ok:
                raise RuntimeError(f"drop worker {pid} failed: {value}")
            results.append(value)
        return results
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _processes() -> int:
    """Processes that share the drops of a pooled run: the CPUs this
    process may run on, at most 2, the one count measured. 1 where there
    is no `os.fork`, and on Python 3.12 and later, whose `os.fork` warns
    in a process with threads (numpy's BLAS pool)."""
    if not hasattr(os, "fork") or sys.version_info >= (3, 12):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _pool(tasks: Sequence[tuple[ExperimentConfig, Sequence[Scenario], int]]
          ) -> list[dict[str, ScenarioRunResult]]:
    """`_statistics` of each (config, scenarios, base seed) task, drop j seeded
    mix_seed(base seed, j); every task has the same config.drops. Each of
    min(`_processes()`, drops) processes takes one contiguous share of the
    drop indices (`np.array_split`), the same in every task."""
    drops = tasks[0][0].drops
    shares = _fork_map(
        lambda share: [_outcomes(cfg, scenarios, seed, share) for cfg, scenarios, seed in tasks],
        np.array_split(np.arange(drops), min(_processes(), drops)))
    return [_statistics(cfg, [share[i] for share in shares])
            for i, (cfg, _, _) in enumerate(tasks)]


def run_scenarios(config: ExperimentConfig, kinds=SCENARIO_KINDS
                  ) -> dict[str, ScenarioRunResult]:
    """Run every requested kind over the same drop seeds and pool per-UE samples.

    The loop is block-major: drop j is seeded mix_seed(master_seed, j),
    and every kind of a block of drops is evaluated (`_run_block`) before
    the next block starts, so deployments are identical across kinds drop
    by drop. The pooled samples of each kind are byte-identical to those
    of `run_scenarios(config, (kind,))`, and the first ue_per_drop[:k].sum()
    of them to the samples of a run of k drops. `_processes()` processes
    share the drops (`_pool`), and the result is the same bits for every
    count. Each distinct kind becomes a `Scenario` first, so an unknown one
    raises its ValueError before any fork.
    """
    scenarios = [replace(config.scenario, kind=kind) for kind in dict.fromkeys(kinds)]
    return _pool([(config, scenarios, config.master_seed)])[0]


# offset separating the sweep's per-density seed streams from the
# scenario-comparison drop streams (which use k = drop index)
_SWEEP_SEED_BASE = 1_000_000


@dataclass
class SweepResult:
    densities: np.ndarray          # BS/km^2 per operator
    median_rate_bps: np.ndarray
    p05_rate_bps: np.ndarray
    mean_rate_bps: np.ndarray
    outage_fraction: np.ndarray
    fitted_exponent: float         # log-log slope of mean rate vs density (nan if degenerate)


def run_sweep(config: ExperimentConfig, densities) -> SweepResult:
    """Pooled rate statistics of the configured scenario at each BS density.

    Density index i pools `config.drops` drops from base seed
    mix_seed(master_seed, 1000000 + i); only its statistics are kept.
    The densities are one `_pool` task each, so every process evaluates
    the same drop indices at every density and carries part of the costly
    dense drops; the result is the same bits for every process count. An
    empty list, or a density the config refuses (not finite and > 0),
    raises a `ConfigError` before any drop runs. The fitted exponent is NaN
    wherever `fit_scaling_exponent` refuses the points (fewer than three,
    one distinct density, a mean rate not finite and > 0).
    """
    densities = [float(d) for d in densities]
    if not densities:
        raise ConfigError("need at least one density")
    kind = config.scenario.kind
    pooled = [res[kind] for res in _pool(
        [(replace(config, bs_density_per_km2=rho), (config.scenario,),
          mix_seed(config.master_seed, _SWEEP_SEED_BASE + i))
         for i, rho in enumerate(densities)])]
    means = [r.mean_rate_bps for r in pooled]
    try:
        exponent = fit_scaling_exponent(densities, means)
    except ValueError:
        exponent = math.nan
    return SweepResult(np.asarray(densities),
                       np.asarray([r.median_rate_bps for r in pooled]),
                       np.asarray([r.p05_rate_bps for r in pooled]), np.asarray(means),
                       np.asarray([r.outage_fraction for r in pooled]), exponent)


@dataclass
class GapRow:
    instance_id: int
    blind_sum_rate_bps: float
    ub_sum_rate_bps: float
    gap_percent: float


def run_gap(config: ExperimentConfig, n_instances: int,
            max_ues: int = 6, max_bs_per_operator: int = 3) -> list[GapRow]:
    """Blind vs brute-force coordinated association on small random instances.

    Instance i draws its sizes and positions from mix_seed(master_seed, i):
    1..max_ues UEs with uniform operators and positions, and 1..max_bs
    BSs per operator. The instance then goes through the same sharing rules
    (`realize_scenario`), link table and interference toggle as a drop,
    with the instance seed in place of the drop seed: under SpectrumInfra
    every operator's BSs stand at operator 0's drawn sites. One
    `coordinated_upper_bound` call per instance returns both the blind
    value and the upper bound from the same tables, so the bound dominates
    exactly. An instance beyond the search limits raises InstanceSizeError
    before its tables are built; SpectrumAccess at the default config
    stays within them (see `scenario`).
    """
    scn = config.scenario
    m_ops = scn.num_operators
    size = np.array([config.region.width_km, config.region.height_km])
    rows = []
    for i in range(n_instances):
        inst_seed = mix_seed(config.master_seed, i)
        rng = np.random.default_rng(inst_seed)
        n_ue = int(rng.integers(1, max_ues + 1))
        n_bs_op = rng.integers(1, max_bs_per_operator + 1, size=m_ops)
        bs_xy = rng.random((int(n_bs_op.sum()), 2)) * size
        ue_xy = rng.random((n_ue, 2)) * size
        realized = realize_scenario(scn, bs_xy, ue_xy, n_bs_op,
                                    rng.integers(0, m_ops, size=n_ue), inst_seed)
        _, ub_val, blind_val = coordinated_upper_bound(
            _links(config, [realized], [inst_seed]), realized.access_bu,
            realized.cochannel_bu & config.interference_enabled, scn.pool_hz, config.rate,
            config.noise_figure_db, full_bandwidth=config.full_bandwidth_per_ue)
        gap = 100.0 * (ub_val - blind_val) / ub_val if ub_val > 0 else 0.0
        rows.append(GapRow(i, blind_val, ub_val, gap))
    return rows
