"""Benchmark of mmwshare's three user-facing workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--write-reference]

Workloads (see bench/README.md for why each was chosen):

- ``scenarios-default``: ``mmwshare scenarios`` at the default config;
- ``sweep-density``: ``mmwshare sweep --scenario Spectrum`` over the
  default densities;
- ``gap-dense``: ``mmwshare gap`` on a 0.2 km region, one command per
  instance over a deck of 4-, 5- and 6-UE instances with 2 BSs per operator.

Closed loop: one single-threaded child process at a time, each a fresh
interpreter that runs the workload's commands through ``mmwshare.cli.main``;
children are started until ``--seconds`` is used up (every batch at least once).
Every command's artifacts are checked (invariants at any seed, sha256 digests
against ``reference_digests.json`` at its pinned seed, and identical bytes in
every child of a run) and then deleted.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (drops, or gap instances) and ``metrics``: end-to-end metrics
(medians over untraced children) with ``--trace 0``; per-layer metrics
(medians over traced children, which alternate with untraced ones) with
``--trace 1``. The line before it gives provenance. The exit code is 1 when a
check failed and 2 when the program could not be run at all (no result).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import GAP, PER_LAYER, SCENARIOS, SWEEP

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference_digests.json"
GAP_CONFIG = BENCH / "gap_dense.json"

# Children cycle through BATCHES batches of commands, batch b running at
# program seed(s) derived from mix_seed(workload seed, b), so that one run
# covers BATCHES times the drops of one child.
BATCHES = 4
SCENARIO_DROPS = 20
SWEEP_DROPS = 20
SWEEP_DENSITIES = (5.0, 10.0, 20.0, 30.0, 50.0, 80.0)   # the CLI default
GAP_SIZES = (4, 5, 6)        # UEs per instance, cycled through the deck
GAP_ROUNDS = 4               # instances of each size per batch
CHILD_TIMEOUT_S = 60.0   # a child normally takes 1-3 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KINDS = ("NoSharing", "Spectrum", "SpectrumInfra", "SpectrumAccess")


@dataclass
class Command:
    argv: list[str]      # without --out
    seed: int            # the program's --seed
    work: int            # drops (scenarios, sweep) or instances (gap)


def gap_deck(seed: int) -> list[int]:
    """Program seeds whose one-instance ``gap`` run has a fixed search size.

    ``run_gap`` draws instance 0 of master seed S from
    default_rng(mix_seed(S, 0)) in this order: the UE count, the BS count of
    each operator, BS and UE positions, UE operators. The deck keeps seeds
    (taken in order from mix_seed(seed, k)) whose instance has the next UE
    count of GAP_SIZES, 2 BSs per operator and UEs split evenly between the
    two operators, so every child of every run searches the same number of
    assignments and only positions and channels vary with the seed.
    """
    from mmwshare.geometry import mix_seed

    deck: list[int] = []
    k = 0
    while len(deck) < GAP_ROUNDS * len(GAP_SIZES):
        candidate = mix_seed(seed, k)
        k += 1
        rng = np.random.default_rng(mix_seed(candidate, 0))
        n_ue = int(rng.integers(1, 7))
        n_bs_op = rng.integers(1, 4, size=2)
        rng.random((int(n_bs_op.sum()), 2))
        rng.random((n_ue, 2))
        ue_operator = rng.integers(0, 2, size=n_ue)
        if (n_ue == GAP_SIZES[len(deck) % len(GAP_SIZES)] and list(n_bs_op) == [2, 2]
                and int(ue_operator.sum()) == n_ue // 2):
            deck.append(candidate)
    return deck


def workload_batches(workload: str, seed: int) -> list[list[Command]]:
    from mmwshare.geometry import mix_seed

    batches = []
    for b in range(BATCHES):
        s = mix_seed(seed, b)
        if workload == SCENARIOS:
            batch = [Command(["scenarios", "--seed", str(s), "--drops", str(SCENARIO_DROPS)],
                             s, SCENARIO_DROPS)]
        elif workload == SWEEP:
            batch = [Command(["sweep", "--scenario", "Spectrum", "--seed", str(s),
                              "--drops", str(SWEEP_DROPS)],
                             s, SWEEP_DROPS * len(SWEEP_DENSITIES))]
        else:
            batch = [Command(["gap", "--config", str(GAP_CONFIG), "--seed", str(g),
                              "--drops", "1"], g, 1) for g in gap_deck(s)]
        batches.append(batch)
    return batches


# ---- artifact checks --------------------------------------------------

def _rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]   # drop the column header


def check_artifacts(cmd: Command, out: Path) -> list[str]:
    """Invariants that hold at every seed; returns the problems found."""
    problems = []
    if cmd.argv[0] == "scenarios":
        doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        kinds = doc["scenarios"]
        if sorted(kinds) != sorted(KINDS):
            problems.append(f"summary.json kinds {sorted(kinds)}")
        samples = {k: v["n_ue_samples"] for k, v in kinds.items()}
        if len(set(samples.values())) != 1:
            problems.append(f"n_ue_samples differ across kinds: {samples}")
        for k, v in kinds.items():
            if not 0.0 <= v["outage_fraction"] <= 1.0:
                problems.append(f"{k} outage_fraction {v['outage_fraction']}")
            if v["drops"] != cmd.work:
                problems.append(f"{k} drops {v['drops']} != {cmd.work}")
            for metric in ("sinr", "rate"):
                n = len(_rows(out / f"cdf_{metric}_{k}.csv"))
                if n != v["n_ue_samples"]:
                    problems.append(f"cdf_{metric}_{k}.csv has {n} rows")
    elif cmd.argv[0] == "sweep":
        doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        if not math.isfinite(doc["fitted_exponent"]):
            problems.append(f"fitted_exponent {doc['fitted_exponent']}")
        if tuple(doc["densities_bs_km2"]) != SWEEP_DENSITIES:
            problems.append(f"densities {doc['densities_bs_km2']}")
        rows = _rows(out / "sweep.csv")
        if len(rows) != len(SWEEP_DENSITIES):
            problems.append(f"sweep.csv has {len(rows)} rows")
        if any(not 0.0 <= float(r[3]) <= 1.0 for r in rows):
            problems.append("sweep.csv outage fraction outside [0, 1]")
    else:
        doc = json.loads((out / "gap.json").read_text(encoding="utf-8"))
        if doc["dominance_violations"] != 0:
            problems.append(f"dominance_violations {doc['dominance_violations']}")
        if doc["instances"] != cmd.work or len(_rows(out / "gap.csv")) != cmd.work:
            problems.append(f"gap instances {doc['instances']} != {cmd.work}")
    if doc["master_seed"] != cmd.seed:
        problems.append(f"master_seed {doc['master_seed']} != {cmd.seed}")
    return problems


def digest(out: Path) -> tuple[str, int]:
    """sha256 over (name, bytes) of every artifact, and their total size."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        size += len(data)
        h.update(f.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


# ---- child processes ----------------------------------------------------

@dataclass
class ChildResult:
    batch: int
    traced: bool
    report: dict | None      # None if the child failed
    setup_s: float
    digests: list[str]
    problems: list[list[str]]
    artifact_bytes: int
    error: str = ""


def run_child(workload: str, batch: int, commands: list[Command], traced: bool,
              tmp: Path, index: int) -> ChildResult:
    work_dir = tmp / f"child{index}"
    work_dir.mkdir()
    outs = [work_dir / f"out{k}" for k in range(len(commands))]
    job = {"src": str(SRC), "workload": workload, "trace": traced,
           "commands": [c.argv + ["--out", str(o)] for c, o in zip(commands, outs)]}
    job_path, report_path = work_dir / "job.json", work_dir / "report.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    with open(work_dir / "stderr.txt", "w+", encoding="utf-8") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(job_path), str(report_path)],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = f"killed after {CHILD_TIMEOUT_S} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        err_text = err.read()
    if code != 0 or not report_path.exists():
        shutil.rmtree(work_dir)
        return ChildResult(batch, traced, None, 0.0, [], [], 0,
                           f"child ended with {code}: {err_text.strip()[-2000:]}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    digests, problems, total = [], [], 0
    for cmd, out, rec in zip(commands, outs, report["commands"]):
        if not rec["entry_marked"]:
            print(f"{cmd.argv[0]} never entered run_scenarios/run_sweep/run_gap; "
                  "its set-up end is taken as the call of cli.main", file=sys.stderr)
        if rec["code"] != 0 or not out.is_dir():
            digests.append("")
            problems.append([f"exit code {rec['code']}"])
            continue
        try:
            problems.append(check_artifacts(cmd, out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append([f"unreadable artifacts: {exc!r}"])
        d, size = digest(out)
        digests.append(d)
        total += size
    setup_s = report["commands"][0]["start"] - t_spawn if commands else 0.0
    shutil.rmtree(work_dir)
    return ChildResult(batch, traced, report, setup_s, digests, problems, total)


def warm_up(tmp: Path) -> str:
    """Import the package once (compiles bytecode); returns an error or ''."""
    result = run_child(SCENARIOS, 0, [], False, tmp, -1)
    return result.error


# ---- provenance ---------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "mmwshare").rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# ---- main ---------------------------------------------------------------

def main(argv=None) -> int:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(SCENARIOS, SWEEP, GAP))
    parser.add_argument("--seed", type=int, default=reference["seed"],
                        help=f"workload seed (default: the pinned {reference['seed']})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's digests as the pinned-seed reference")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not (SRC / "mmwshare" / "cli.py").is_file():
        print(f"no mmwshare sources under {SRC}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        error = warm_up(tmp)
        if error:
            print(f"cannot run mmwshare: {error}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        batches = workload_batches(args.workload, args.seed)
        children = run_loop(args, batches, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    pinned = args.seed == reference["seed"]
    expected = reference["digests"].get(args.workload) if pinned else None
    if expected is not None and [len(e) for e in expected] != [len(b) for b in batches]:
        expected = None   # recorded for other batches: treated as missing
    first: dict[int, list[str]] = {}
    for child in children:
        if child.report is not None:
            first.setdefault(child.batch, child.digests)
    if args.write_reference:
        if not pinned:
            parser.error("--write-reference needs the pinned seed")
        expected = [first.get(b, [""] * len(batches[b])) for b in range(BATCHES)]

    attempted = failed = 0
    for child in children:
        commands = batches[child.batch]
        work = sum(c.work for c in commands)
        attempted += work
        if child.report is None:
            failed += work
            print(f"child failed: {child.error}", file=sys.stderr)
            continue
        if not child.report["restored"]:
            failed += work
            print("a wrapped function was not restored", file=sys.stderr)
            continue
        for k, cmd in enumerate(commands):
            why = list(child.problems[k])
            if child.digests[k] != first[child.batch][k]:
                why.append("artifacts differ from the first child's")
            if expected is not None and child.digests[k] != expected[child.batch][k]:
                why.append("artifacts differ from the pinned-seed reference")
            if why:
                failed += cmd.work
                print(f"{' '.join(cmd.argv)}: {'; '.join(why)}", file=sys.stderr)
    if pinned and expected is None:
        print(f"no reference digests for {args.workload}", file=sys.stderr)
        failed = attempted

    if args.write_reference and failed == 0:
        reference["digests"][args.workload] = expected
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")

    ok = [c for c in children if c.report is not None]
    metrics = (layer_metrics(args.workload, ok, batches) if args.trace
               else end_to_end_metrics(ok, batches))
    any_report = ok[0].report if ok else {}
    print("provenance " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "children": len(children),
        "commands_per_child": len(batches[0]), "program_seeds": [[c.seed for c in b] for b in batches],
        "nproc": os.cpu_count(), "python": any_report.get("python", platform.python_version()),
        "numpy": any_report.get("numpy", np.__version__), "git_commit": git_commit(),
        "source_sha256": source_sha256()}, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_loop(args, batches: list[list[Command]], tmp: Path) -> list[ChildResult]:
    """Start children one after another until the measuring time is used up.

    Lap j runs batch j mod BATCHES: one untraced child, and with --trace 1
    a traced child of the same batch right after it. Every batch runs at
    least once.
    """
    pattern = (False, True) if args.trace else (False,)
    children: list[ChildResult] = []
    lap_s: list[float] = []
    t0 = time.monotonic()
    while True:
        lap0 = time.monotonic()
        b = len(lap_s) % len(batches)
        for traced in pattern:
            children.append(run_child(args.workload, b, batches[b], traced, tmp, len(children)))
        lap_s.append(time.monotonic() - lap0)
        if all(c.report is None for c in children):
            break   # nothing works; do not spin until the time is up
        if (len(lap_s) >= len(batches)
                and time.monotonic() - t0 + statistics.median(lap_s) > args.seconds):
            break
    return children


def _work_s(report: dict) -> float:
    return sum(c["end"] - c["start"] for c in report["commands"])


def end_to_end_metrics(children: list[ChildResult], batches) -> dict:
    plain = [c for c in children if not c.traced]
    if not plain:
        return {}
    rates = [sum(c.work for c in batches[child.batch]) / _work_s(child.report)
             for child in plain]
    return {
        "drops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(c.setup_s for c in plain), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(c.report["peak_rss_kb"] / 1024.0
                                                   for c in plain), "unit": "MB"},
    }


def layer_metrics(workload: str, children: list[ChildResult], batches) -> dict:
    plain = [c for c in children if not c.traced]
    traced = [c for c in children if c.traced]
    if not plain or not traced:
        return {}
    values = {name: statistics.median(c.report["layers"][name] for c in traced)
              for name, _ in PER_LAYER if name in traced[0].report["layers"]}
    values["cli.artifact_bytes"] = plain[0].artifact_bytes
    values["process.cpu_s"] = statistics.median(
        sum(x["cpu_s"] for x in c.report["commands"]) for c in plain)
    values["trace.overhead_fraction"] = (
        statistics.median(_work_s(c.report) for c in traced)
        / statistics.median(_work_s(c.report) for c in plain) - 1.0)
    for child in traced:
        for name in child.report["unfired"]:
            print(f"boundary {name} did not fire on {workload}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
