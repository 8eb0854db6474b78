"""Run one batch of mmwshare CLI commands in this fresh process.

Usage: python3 child.py JOB.json REPORT.json

The job names the checkout's ``src`` directory, the workload, whether to
trace, and the argv of each command. The report gives, per command, its
exit code and CLOCK_MONOTONIC timestamps (so the parent can subtract its
own spawn time), plus per-layer metrics when traced.

The timed part of a command starts when the CLI enters the experiment
layer (``run_scenarios``, ``run_sweep`` or ``run_gap`` as ``mmwshare.cli``
resolves them); everything before the first such entry is set-up.
"""
from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

from tracing import ROOT_SPAN, Patches, Tracer

ENTRY_SITES = ("mmwshare.cli:run_scenarios", "mmwshare.cli:run_sweep", "mmwshare.cli:run_gap")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(job_path: str, report_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy

    import mmwshare.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        print(f"mmwshare was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    entered: list[float] = []

    def mark_entry(fn):
        def entry(*args, **kwargs):
            entered.append(time.monotonic())
            return fn(*args, **kwargs)
        return entry

    patches = Patches()
    for site in ENTRY_SITES:
        patches.replace(site, mark_entry)
    tracer = Tracer() if job["trace"] else None
    run = cli.main
    if tracer is not None:
        tracer.install(patches)
        run = tracer.wrap(ROOT_SPAN, cli.main)

    commands = []
    for argv in job["commands"]:
        entered.clear()
        t_call = time.monotonic()
        cpu0 = _cpu_s()
        code = run(argv)
        t_end = time.monotonic()
        commands.append({"code": code, "start": entered[0] if entered else t_call,
                         "entry_marked": bool(entered), "end": t_end,
                         "cpu_s": _cpu_s() - cpu0})
    restored = patches.restore()

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {"commands": commands, "restored": restored, "peak_rss_kb": peak_kb,
              "python": platform.python_version(), "numpy": numpy.__version__}
    if tracer is not None:
        report["layers"] = tracer.metrics(job["workload"])
        report["unfired"] = tracer.unfired(job["workload"])
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
