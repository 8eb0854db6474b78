"""Per-layer tracing of mmwshare from outside the package.

The tracer replaces public functions at the names their callers resolve
(for example ``mmwshare.experiment.network_sinr``, which is what
``run_drop`` looks up) with timing wrappers, and puts every original back
afterwards. Each boundary is aggregated as a call count plus inclusive
and self time; only drops and gap instances keep one duration per call.
Nothing under ``src/`` knows it is being traced.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import time

import numpy as np

SCENARIOS = "scenarios-default"
SWEEP = "sweep-density"
GAP = "gap-dense"
DROPS = (SCENARIOS, SWEEP)
ALL = (SCENARIOS, SWEEP, GAP)

# (boundary, patch sites "module:attribute", workloads it must fire on).
# A site is every name a caller inside the package resolves at call time.
BOUNDARIES = (
    ("geometry.pairwise_distance_km", ("mmwshare.geometry:pairwise_distance_km",), ALL),
    ("geometry.wrapped_delta", ("mmwshare.geometry:wrapped_delta",
                                "mmwshare.allocation:wrapped_delta"), ALL),
    ("geometry.deploy_operator", ("mmwshare.scenario:deploy_operator",), DROPS),
    ("channel.LinkTable.realize", ("mmwshare.channel:LinkTable.realize",), ALL),
    ("channel.beam_gain_db", ("mmwshare.allocation:beam_gain_db",), (GAP,)),
    ("scenario.build_scenario", ("mmwshare.experiment:build_scenario",), DROPS),
    ("allocation.associate_blind", ("mmwshare.experiment:associate_blind",), ALL),
    ("allocation.split_bandwidth", ("mmwshare.experiment:split_bandwidth",
                                    "mmwshare.allocation:split_bandwidth"), ALL),
    ("allocation.network_sinr", ("mmwshare.experiment:network_sinr",), DROPS),
    ("allocation.coordinated_upper_bound",
     ("mmwshare.experiment:coordinated_upper_bound",), (GAP,)),
    ("allocation.compute_sinr", ("mmwshare.allocation:compute_sinr",), (GAP,)),
    ("allocation.assignment_objective", ("mmwshare.experiment:assignment_objective",
                                         "mmwshare.allocation:assignment_objective"), (GAP,)),
    ("experiment.run_scenarios", ("mmwshare.cli:run_scenarios",), (SCENARIOS,)),
    ("experiment.run_gap", ("mmwshare.cli:run_gap",), (GAP,)),
    ("experiment.run_drop", ("mmwshare.experiment:run_drop", "mmwshare.metrics:run_drop"), DROPS),
    ("metrics.run_sweep", ("mmwshare.cli:run_sweep",), (SWEEP,)),
    ("metrics.cdf", ("mmwshare.metrics:cdf", "mmwshare.cli:cdf"), ALL),
    ("cli.write_cdf_csv", ("mmwshare.cli:write_cdf_csv",), (SCENARIOS,)),
)
ROOT_SPAN = "cli.main"   # the span the child opens around each command

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("geometry.pairwise_distance_km.calls", "count"),
    ("geometry.pairwise_distance_km.ms", "ms"),
    ("geometry.wrapped_delta.calls", "count"),
    ("geometry.wrapped_delta.ms", "ms"),
    ("geometry.wrapped_delta.scalar_calls", "count"),
    ("geometry.deploy_operator.calls", "count"),
    ("geometry.deploy_operator.ms", "ms"),
    ("channel.LinkTable.realize.calls", "count"),
    ("channel.LinkTable.realize.ms", "ms"),
    ("channel.links_realized", "count"),
    ("channel.realize_per_distinct_geometry", "ratio"),
    ("channel.beam_gain_db.calls", "count"),
    ("channel.beam_gain_db.ms", "ms"),
    ("scenario.build_scenario.calls", "count"),
    ("scenario.build_scenario.ms", "ms"),
    ("allocation.associate_blind.calls", "count"),
    ("allocation.associate_blind.ms", "ms"),
    ("allocation.split_bandwidth.calls", "count"),
    ("allocation.split_bandwidth.ms", "ms"),
    ("allocation.network_sinr.calls", "count"),
    ("allocation.network_sinr.ms", "ms"),
    ("allocation.network_sinr.ns_per_link", "ns"),
    ("allocation.coordinated_upper_bound.calls", "count"),
    ("allocation.coordinated_upper_bound.ms", "ms"),
    ("allocation.assignments_evaluated", "count"),
    ("allocation.us_per_assignment", "us"),
    ("allocation.us_per_assignment.ue4", "us"),
    ("allocation.us_per_assignment.ue5", "us"),
    ("allocation.us_per_assignment.ue6", "us"),
    ("allocation.compute_sinr.calls", "count"),
    ("allocation.compute_sinr.ms", "ms"),
    ("allocation.assignment_objective.calls", "count"),
    ("experiment.run_scenarios.calls", "count"),
    ("experiment.run_gap.calls", "count"),
    ("experiment.run_drop.calls", "count"),
    ("experiment.drop_ms.p50", "ms"),
    ("experiment.drop_ms.p95", "ms"),
    ("experiment.gap_instance_ms.p50", "ms"),
    ("experiment.gap_instance_ms.p90", "ms"),
    ("experiment.self_ms", "ms"),
    ("metrics.cdf.calls", "count"),
    ("metrics.cdf.ms", "ms"),
    ("metrics.run_sweep.calls", "count"),
    ("metrics.run_sweep.self_ms", "ms"),
    ("cli.write_cdf_csv.calls", "count"),
    ("cli.write_cdf_csv.ms", "ms"),
    ("cli.artifact_bytes", "bytes"),
    ("cli.self_ms", "ms"),
    ("process.cpu_s", "s"),
    ("trace.overhead_fraction", "ratio"),
    ("trace.unfired_boundaries", "count"),
)


def nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[max(1, math.ceil(p * len(s))) - 1])


def _resolve(site: str):
    """(owner, attribute name) for a "module:attr[.attr]" site."""
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, name


class Patches:
    """Replace attributes and put the exact original objects back."""

    def __init__(self):
        self._saved = []   # (owner, name, original object as stored)

    def replace(self, site: str, make_wrapper) -> bool:
        """Wrap the function at `site`; False if the site does not exist."""
        try:
            owner, name = _resolve(site)
        except (ImportError, AttributeError):
            return False
        stored = inspect.getattr_static(owner, name, None)
        if stored is None:
            return False
        if isinstance(stored, classmethod):
            fn = make_wrapper(stored.__func__)
            setattr(owner, name, classmethod(fn))
        else:
            setattr(owner, name, make_wrapper(stored))
        self._saved.append((owner, name, stored))
        return True

    def restore(self) -> bool:
        """Undo every replacement (last first); True if all originals are back."""
        originals = {}
        for owner, name, stored in self._saved:
            originals.setdefault((id(owner), name), (owner, name, stored))
        for owner, name, stored in reversed(self._saved):
            setattr(owner, name, stored)
        ok = all(inspect.getattr_static(owner, name) is stored
                 for owner, name, stored in originals.values())
        self._saved.clear()
        return ok


class Tracer:
    """Aggregated spans: per boundary calls, inclusive ns and child ns."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}   # name -> [calls, total_ns, child_ns]
        self._stack: list[list[int]] = []
        self.durations: dict[str, list[int]] = {"experiment.run_drop": [],
                                                "experiment.run_gap": []}
        self.missing: list[str] = []
        self.links_realized = 0
        self.geometries: set[bytes] = set()
        self.network_links = 0
        self.scalar_delta = 0
        self.ub_by_size: dict[int, list[int]] = {}   # n_ue -> [ns, assignments]
        self.gap_instances: list[int] = []   # instances per run_gap call

    def wrap(self, name: str, fn, hook=None):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        keep = self.durations.get(name)

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if keep is not None:
                    keep.append(dt)
                hook_ns = 0
                if hook is not None:
                    h0 = clock()
                    hook(args, kwargs, dt)
                    hook_ns = clock() - h0
                if stack:   # hook cost is tracing, not the caller's self time
                    stack[-1][0] += dt + hook_ns

        return traced

    def install(self, patches: Patches) -> None:
        for name, sites, _ in BOUNDARIES:
            for site in sites:
                make = (lambda f, n=name: self.wrap(n, f, self._hook(n, f)))
                if not patches.replace(site, make):
                    self.missing.append(site)

    # ---- per-call counters read from the call's arguments -------------

    def _hook(self, name: str, fn):
        if name == "channel.LinkTable.realize":
            return self._realize_hook(fn)
        return {"allocation.network_sinr": self._on_network_sinr,
                "allocation.coordinated_upper_bound": self._on_upper_bound,
                "geometry.wrapped_delta": self._on_wrapped_delta,
                "experiment.run_gap": self._on_run_gap}.get(name)

    def _realize_hook(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs, dt):
            a = sig.bind(*args, **kwargs).arguments
            bs = np.ascontiguousarray(a["bs_xy"], dtype=float)
            ue = np.ascontiguousarray(a["ue_xy"], dtype=float)
            self.links_realized += (bs.size // 2) * (ue.size // 2)
            h = hashlib.sha1(bs.tobytes())
            h.update(b"|")
            h.update(ue.tobytes())
            h.update(b"|%d" % int(a["seed"]))
            self.geometries.add(h.digest())
        return hook

    def _on_network_sinr(self, args, kwargs, dt):
        links = args[0] if args else kwargs["links"]
        self.network_links += links.n_bs * links.n_ue

    def _on_wrapped_delta(self, args, kwargs, dt):
        p = args[0] if args else kwargs["p_xy"]
        if np.ndim(p) <= 1:
            self.scalar_delta += 1

    def _on_run_gap(self, args, kwargs, dt):
        n = kwargs["n_instances"] if "n_instances" in kwargs else args[1]
        self.gap_instances.append(int(n))

    def _on_upper_bound(self, args, kwargs, dt):
        from mmwshare.channel import LinkState   # the package is importable by now

        links = args[0] if args else kwargs["links"]
        access = np.asarray(args[1] if len(args) > 1 else kwargs["access_bu"])
        assignments = 1
        for u in range(links.n_ue):
            acc = np.flatnonzero(access[:, u])
            if len(acc) and not np.all(links.state[acc, u] == LinkState.OUT):
                assignments *= len(acc)
        entry = self.ub_by_size.setdefault(links.n_ue, [0, 0])
        entry[0] += dt
        entry[1] += assignments

    # ---- aggregation ---------------------------------------------------

    def _get(self, name: str) -> list[int]:
        return self.stats.get(name, [0, 0, 0])

    def metrics(self, workload: str) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (one process)."""
        ms = 1e-6
        out: dict[str, float] = {}
        for name, _, _ in BOUNDARIES:
            calls, total, _ = self._get(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = total * ms
        out["geometry.wrapped_delta.scalar_calls"] = self.scalar_delta
        out["channel.links_realized"] = self.links_realized
        realize_calls = self._get("channel.LinkTable.realize")[0]
        out["channel.realize_per_distinct_geometry"] = (
            realize_calls / len(self.geometries) if self.geometries else 0.0)
        sinr_ns = self._get("allocation.network_sinr")[1]
        out["allocation.network_sinr.ns_per_link"] = (
            sinr_ns / self.network_links if self.network_links else 0.0)
        ub_ns = sum(v[0] for v in self.ub_by_size.values())
        ub_n = sum(v[1] for v in self.ub_by_size.values())
        out["allocation.assignments_evaluated"] = ub_n
        out["allocation.us_per_assignment"] = ub_ns / ub_n / 1e3 if ub_n else 0.0
        for size in (4, 5, 6):
            ns, n = self.ub_by_size.get(size, (0, 0))
            out[f"allocation.us_per_assignment.ue{size}"] = ns / n / 1e3 if n else 0.0
        drops = self.durations["experiment.run_drop"]
        out["experiment.drop_ms.p50"] = nearest_rank(drops, 0.5) * ms
        out["experiment.drop_ms.p95"] = nearest_rank(drops, 0.95) * ms
        per_instance = [d / n for d, n in zip(self.durations["experiment.run_gap"],
                                              self.gap_instances) if n]
        out["experiment.gap_instance_ms.p50"] = nearest_rank(per_instance, 0.5) * ms
        out["experiment.gap_instance_ms.p90"] = nearest_rank(per_instance, 0.9) * ms
        out["experiment.self_ms"] = sum(
            self._self_ns(n) for n in ("experiment.run_scenarios", "experiment.run_gap",
                                       "experiment.run_drop")) * ms
        out["metrics.run_sweep.self_ms"] = self._self_ns("metrics.run_sweep") * ms
        out["cli.self_ms"] = self._self_ns(ROOT_SPAN) * ms
        out["trace.unfired_boundaries"] = len(self.unfired(workload))
        return out

    def _self_ns(self, name: str) -> int:
        _, total, child = self._get(name)
        return total - child

    def unfired(self, workload: str) -> list[str]:
        """Boundaries meant for `workload` that are missing or never called."""
        bad = list(self.missing)
        for name, sites, meant_for in BOUNDARIES:
            if workload in meant_for and self._get(name)[0] == 0:
                bad.append(name)
        return bad
