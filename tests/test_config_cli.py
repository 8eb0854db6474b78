"""Config schema round-trips and the command-line front end."""
import copy
import dataclasses
import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mmwshare import cli, experiment, metrics
from mmwshare.analytic import (bandwidth_per_ue, nearest_distance_scaling, outage_fraction,
                               rate_scaling_exponent)
from mmwshare.channel import ChannelParams
from mmwshare.cli import build_parser, main
from mmwshare.config import (SPEC_REVISION, ConfigError, ExperimentConfig, canonical_json,
                             config_hash, default_config, from_dict,
                             load_config, to_dict)
from mmwshare.geometry import Region
from mmwshare.scenario import SCENARIO_KINDS, Scenario


def custom_config() -> ExperimentConfig:
    return ExperimentConfig(
        region=Region(2.0, 0.5, wraparound=False),
        bs_density_per_km2=12.0,
        ue_density_per_km2=90.0,
        channel=ChannelParams(shadow_sigma_los_db=3.0, outage_model="exponential"),
        scenario=Scenario("SpectrumAccess", access_share_fraction=0.4),
        drops=7,
        master_seed=2 ** 63,
        full_bandwidth_per_ue=True,
    )


def test_dict_round_trip_identity():
    for cfg in (default_config(), custom_config()):
        assert from_dict(to_dict(cfg)) == cfg


# canonical_json(custom_config()) as written before the document layout was
# derived from the dataclass fields; a non-default value in every section
CUSTOM_CANONICAL = (
    '{"antenna":{"bs_beamwidth_deg":10.0,"bs_mainlobe_gain_db":20.0,'
    '"bs_sidelobe_gain_db":-10.0,"ue_beamwidth_deg":30.0,'
    '"ue_mainlobe_gain_db":10.0,"ue_sidelobe_gain_db":-10.0},'
    '"channel":{"carrier_ghz":28.0,"hard_coverage_area_km2":0.03,'
    '"los_decay_per_m":0.01490312965722802,"outage_model":"exponential",'
    '"outage_rise_per_m":0.005,"pl_exponent_los":2.0,'
    '"pl_exponent_nlos":2.7,"pl_intercept_db":61.4,'
    '"shadow_sigma_los_db":3.0,"shadow_sigma_nlos_db":7.0},'
    '"densities":{"bs_per_km2":12.0,"ue_per_km2":90.0},"drops":7,'
    '"full_bandwidth_per_ue":true,"interference_enabled":true,'
    '"master_seed":9223372036854775808,"noise_figure_db":7.0,'
    '"rate":{"duty_factor":0.5,"eta":0.5,"overhead_beta":0.2,'
    '"target_rate_bps":10000000.0},"region":{"height_km":0.5,'
    '"width_km":2.0,"wraparound":false},'
    '"scenario":{"access_share_fraction":0.4,"kind":"SpectrumAccess",'
    '"license_bandwidth_hz":500000000.0,"num_operators":2},'
    '"tx_power_dbm":30.0}')


def _leaves(doc, path=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _other(path, value):
    """Another valid value for the document leaf at `path`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    return {"outage_model": "exponential", "kind": "Spectrum"}[path[-1]]


def _n_scalar_fields(obj):
    """Scalar fields of a config dataclass, its sections' fields included."""
    values = (getattr(obj, f.name) for f in dataclasses.fields(obj))
    return sum(_n_scalar_fields(v) if dataclasses.is_dataclass(v) else 1 for v in values)


def test_every_field_reaches_the_hash():
    base = to_dict(default_config())
    leaves = list(_leaves(base))
    assert len(leaves) == _n_scalar_fields(default_config()) == 35
    for path, value in leaves:
        doc = copy.deepcopy(base)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _other(path, value)
        cfg = from_dict(doc)
        assert to_dict(cfg) == doc, path
        assert config_hash(cfg) != config_hash(default_config()), path
    for name in ("bs_density_per_km2", "ue_density_per_km2"):
        with pytest.raises(ConfigError, match=rf"config root: unknown key\(s\) \['{name}'\]"):
            from_dict({name: 10.0})


def test_custom_layout_is_pinned():
    assert canonical_json(custom_config()) == CUSTOM_CANONICAL


def test_partial_document_fills_defaults():
    cfg = from_dict({"drops": 5, "densities": {"bs_per_km2": 10.0}})
    assert cfg.drops == 5
    assert cfg.bs_density_per_km2 == 10.0
    assert cfg.ue_density_per_km2 == 200.0
    assert cfg.scenario.kind == "NoSharing"


def test_canonical_hash_stable_and_sensitive():
    cfg = default_config()
    assert canonical_json(cfg) == canonical_json(default_config())
    h = config_hash(cfg)
    assert len(h) == 64 and int(h, 16) >= 0
    assert config_hash(replace(cfg, master_seed=1)) != h
    assert config_hash(custom_config()) != h


def test_from_dict_rejects_unknown_and_mistyped():
    with pytest.raises(ConfigError, match="unknown key"):
        from_dict({"drop_count": 5})
    with pytest.raises(ConfigError, match="channel"):
        from_dict({"channel": {"carrier_mhz": 28000.0}})
    with pytest.raises(ConfigError, match="drops"):
        from_dict({"drops": "many"})
    with pytest.raises(ConfigError, match="expected a number"):
        from_dict({"tx_power_dbm": True})
    with pytest.raises(ConfigError, match="densities"):
        from_dict({"densities": {"bs_per_km2": 10.0, "total": 3}})
    with pytest.raises(ConfigError):
        from_dict({"scenario": {"kind": "Roaming"}})
    with pytest.raises(ConfigError):
        from_dict([1, 2])


def test_from_dict_rejects_non_finite():
    # Python's json reads NaN and Infinity; a NaN power used to run to exit 0
    # with NaN medians and a wrong outage of 0
    with pytest.raises(ConfigError, match="tx_power_dbm: expected a finite number"):
        from_dict({"tx_power_dbm": float("nan")})
    with pytest.raises(ConfigError, match="channel.carrier_ghz"):
        from_dict({"channel": {"carrier_ghz": -float("inf")}})
    with pytest.raises(ConfigError, match="noise_figure_db: expected a finite number"):
        from_dict({"noise_figure_db": 10 ** 400})


def test_load_config_rejects_infinite_density(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"densities": {"bs_per_km2": Infinity}}')
    with pytest.raises(ConfigError, match=r"inf\.json: densities\.bs_per_km2"):
        load_config(path)


def test_config_value_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(drops=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(bs_density_per_km2=-3.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            ExperimentConfig(bs_density_per_km2=bad)
        with pytest.raises(ConfigError):
            ExperimentConfig(ue_density_per_km2=bad)
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(tx_power_dbm=bad)
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(noise_figure_db=bad)
    with pytest.raises(ConfigError):
        ExperimentConfig(master_seed=2 ** 64)


def test_file_round_trip_and_diagnostics(tmp_path):
    path = tmp_path / "exp.json"
    cfg = custom_config()
    path.write_text(json.dumps(to_dict(cfg), sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    assert load_config(path) == cfg

    bad = tmp_path / "bad.json"
    bad.write_text('{"drops": 5,\n  "x": }\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2:8: invalid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def _read_lines(path):
    return path.read_text().splitlines()


def test_cli_scenarios_artifacts(tmp_path):
    out = tmp_path / "res"
    rc = main(["scenarios", "--drops", "2", "--seed", "1", "--out", str(out)])
    assert rc == 0
    kinds = ("NoSharing", "Spectrum", "SpectrumInfra", "SpectrumAccess")
    files = sorted(p.name for p in out.iterdir())
    expected = sorted([f"cdf_sinr_{k}.csv" for k in kinds]
                      + [f"cdf_rate_{k}.csv" for k in kinds]
                      + ["summary.json"])
    assert files == expected

    lines = _read_lines(out / "cdf_rate_NoSharing.csv")
    assert lines[0] == "# spec_revision=1"
    assert lines[1].startswith("# config_hash=")
    assert lines[2] == "# master_seed=1"
    assert lines[3] == "value,cum_prob"
    assert lines[-1].endswith(",1.0")

    doc = json.loads((out / "summary.json").read_text())
    assert doc["master_seed"] == 1
    assert set(doc["scenarios"]) == set(kinds)
    for entry in doc["scenarios"].values():
        assert entry["drops"] == 2


def test_cli_scenarios_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["scenarios", "--drops", "2", "--scenario", "Spectrum",
                 "--out", str(a)]) == 0
    assert main(["scenarios", "--drops", "2", "--scenario", "Spectrum",
                 "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == ["cdf_rate_Spectrum.csv", "cdf_sinr_Spectrum.csv",
                     "summary.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_single_kind_matches_four_kind_run(tmp_path):
    every = tmp_path / "all"
    assert main(["scenarios", "--drops", "2", "--seed", "5", "--out", str(every)]) == 0
    for kind in SCENARIO_KINDS:
        one = tmp_path / kind
        assert main(["scenarios", "--drops", "2", "--seed", "5", "--scenario", kind,
                     "--out", str(one)]) == 0
        for name in (f"cdf_sinr_{kind}.csv", f"cdf_rate_{kind}.csv"):
            assert (one / name).read_bytes() == (every / name).read_bytes()


def test_cli_sweep_artifacts(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--densities", "5,10", "--drops", "1", "--out", str(out)])
    assert rc == 0
    lines = _read_lines(out / "sweep.csv")
    assert lines[3] == "density_bs_km2,median_rate_bps,p05_rate_bps,outage_fraction"
    assert len(lines) == 6   # 3 header comments + column row + 2 densities
    assert lines[4].startswith("5.0,")
    assert json.loads((out / "sweep.json").read_text())["densities_bs_km2"] == [5.0, 10.0]
    # the plotting script is demos/plot_results.py, not a CLI option
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep", "--out", str(out), "--emit-plot-script"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --emit-plot-script" in capsys.readouterr().err


def test_cli_gap_artifacts(tmp_path):
    out = tmp_path / "gap"
    rc = main(["gap", "--drops", "3", "--out", str(out)])
    assert rc == 0
    lines = _read_lines(out / "gap.csv")
    assert lines[3] == "instance_id,blind_sum_rate_bps,ub_sum_rate_bps,gap_percent"
    assert len(lines) == 7
    doc = json.loads((out / "gap.json").read_text())
    assert doc["instances"] == 3
    assert doc["dominance_violations"] == 0


def test_cli_analytic_stdout(tmp_path, capsys):
    # each config's table is the closed forms at counts derived by hand:
    # N = max(1, round(density x area)) per operator, alpha = 2.7, A_c = 0.03
    cases = [
        (None, 2, 1e9, 30, 200),
        ({"scenario": {"kind": "SpectrumAccess", "num_operators": 3},
          "region": {"width_km": 0.2, "height_km": 0.2}}, 3, 1.5e9, 1, 8),
        ({"densities": {"ue_per_km2": 0.001}}, 2, 1e9, 30, 1),
    ]
    for i, (doc, m, w_hz, n_bs, n_ue) in enumerate(cases):
        argv = ["analytic"]
        if doc is not None:
            path = tmp_path / f"c{i}.json"
            path.write_text(json.dumps(doc))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        expected = {
            "effective_density_per_km2": m * 30.0,
            "bandwidth_per_ue_shared_hz": bandwidth_per_ue(w_hz, n_bs, n_ue, m, True),
            "bandwidth_per_ue_unshared_hz": bandwidth_per_ue(w_hz, n_bs, n_ue, m, False),
            "rate_exponent_interference_limited":
                rate_scaling_exponent("InterferenceLimited", 2.7),
            "rate_exponent_power_limited": rate_scaling_exponent("PowerLimited", 2.7),
            "outage_fraction": outage_fraction(0.03, 30.0),
            "nearest_bs_distance_km": nearest_distance_scaling(30.0),
        }
        assert capsys.readouterr().out.splitlines() == [
            f"{key:<40} {value}" for key, value in expected.items()]
    # the table reads the config only: no seed or drop count to override
    for option in ("--seed", "--drops"):
        with pytest.raises(SystemExit) as exc:
            main(["analytic", option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path):
    assert main(["scenarios", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o1")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"drops": 0}')
    assert main(["scenarios", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 2
    assert main(["sweep", "--drops", "0", "--out", str(tmp_path / "o3")]) == 2
    for bad_density in ("nan", "inf"):
        assert main(["sweep", "--densities", f"{bad_density},10,20", "--drops", "1",
                     "--out", str(tmp_path / "o3")]) == 2
    # the config's density and seed rules, and an empty list
    for densities in ("0,10", "-1", ","):
        assert main(["sweep", "--densities", densities, "--drops", "1",
                     "--out", str(tmp_path / "o3")]) == 2
    assert main(["sweep", "--seed", "18446744073709551616", "--drops", "1",
                 "--out", str(tmp_path / "o3")]) == 2
    # full SpectrumAccess opens all 6 BSs of this instance to every UE; on a
    # 1 km region all of their links are blocked, so the search has one
    # assignment
    access = tmp_path / "access.json"
    access.write_text('{"scenario": {"kind": "SpectrumAccess"}}')
    assert main(["gap", "--config", str(access), "--seed", "3", "--drops", "1",
                 "--out", str(tmp_path / "o4")]) == 0
    # three operators on a 0.2 km region: instance 0 of seed 35 has 7**6 =
    # 117,649 assignments, above the search's limit of 4**8
    dense = tmp_path / "dense.json"
    dense.write_text('{"scenario": {"kind": "SpectrumAccess", "num_operators": 3}, '
                     '"region": {"width_km": 0.2, "height_km": 0.2}}')
    assert main(["gap", "--config", str(dense), "--seed", "35", "--drops", "1",
                 "--out", str(tmp_path / "o5")]) == 4


def _reject_constant(name):
    raise AssertionError(f"artifact contains the non-JSON constant {name}")


def test_cli_json_artifacts_are_strict(tmp_path):
    # two densities leave the scaling exponent undefined (NaN)
    out = tmp_path / "sw"
    assert main(["sweep", "--densities", "5,10", "--drops", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "sweep.json").read_text(), parse_constant=_reject_constant)
    assert doc["fitted_exponent"] is None
    assert doc["densities_bs_km2"] == [5.0, 10.0]
    # three equal densities leave it undefined too: no rank-deficient fit, no warning
    out = tmp_path / "sw3"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--densities", "5,5,5", "--drops", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "sweep.json").read_text(), parse_constant=_reject_constant)
    assert doc["fitted_exponent"] is None
    assert doc["densities_bs_km2"] == [5.0, 5.0, 5.0]
    # at 3 BS/km^2 most UEs are in outage, so the median SINR is -inf
    cfg = tmp_path / "sparse.json"
    cfg.write_text('{"densities": {"bs_per_km2": 3}}')
    out = tmp_path / "sc"
    assert main(["scenarios", "--config", str(cfg), "--drops", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    for entry in doc["scenarios"].values():
        assert entry["median_sinr_db"] is None
        assert entry["median_rate_bps"] == 0.0


def test_write_cdf_csv_matches_per_row_formatter(tmp_path):
    # the streamed writer gives the bytes of formatting each row as
    # str(float(x)) and joining the whole file under the header
    cfg = default_config()
    special = [-math.inf, -0.0, 0.0, 5e-324, 1e-5, 0.1, 1e16, 123456789.01234567]
    rng = np.random.default_rng(7)
    for n in (0, len(special), 2 * cli._ROWS_PER_WRITE + 3):
        values = np.array((special * (n // len(special) + 1))[:n])
        values[len(special):] *= rng.lognormal(0.0, 3.0, max(n - len(special), 0))
        cum_prob = [str(float((i + 1) / n)) for i in range(n)]
        lines = [f"# spec_revision={SPEC_REVISION}", f"# config_hash={config_hash(cfg)}",
                 f"# master_seed={cfg.master_seed}", "value,cum_prob"]
        sorted_values = np.sort(values, kind="stable")
        lines += [f"{str(float(x))},{p}" for x, p in zip(sorted_values, cum_prob, strict=True)]
        path = tmp_path / f"cdf_{n}.csv"
        cli.write_cdf_csv(path, cli._provenance(cfg), sorted_values, cum_prob)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    with pytest.raises(ValueError):
        cli.write_cdf_csv(tmp_path / "short.csv", cli._provenance(cfg), [1.0, 2.0], ["1.0"])


def test_scenarios_sorts_each_pooled_kind_once(tmp_path, monkeypatch):
    # the percentiles and the CDF files read one sorted array per pooled kind
    sorted_arrays, written = [], []
    write_cdf_csv = cli.write_cdf_csv

    def recording_cdf(samples):
        sorted_arrays.append(metrics.cdf(samples))
        return sorted_arrays[-1]

    def recording_writer(path, provenance, sorted_values, cum_prob):
        written.append(sorted_values)
        return write_cdf_csv(path, provenance, sorted_values, cum_prob)

    monkeypatch.setattr(experiment, "cdf", recording_cdf)
    monkeypatch.setattr(cli, "write_cdf_csv", recording_writer)
    assert main(["scenarios", "--drops", "2", "--out", str(tmp_path)]) == 0
    assert len(sorted_arrays) == len(written) == 2 * len(SCENARIO_KINDS)
    assert sorted(map(id, sorted_arrays)) == sorted(map(id, written))


def test_write_table_csv_pins_number_formats(tmp_path):
    # each field is str() of a Python number: the shortest repr of a float,
    # the digits of an int
    cfg = default_config()
    rows = [(0, math.nan, math.inf, -math.inf), (1, -0.0, 5e-324, 0.1), (12, 1e16, 2.5, 0.0)]
    path = tmp_path / "table.csv"
    cli.write_table_csv(path, cli._provenance(cfg), "id,a,b,c", rows)
    assert path.read_bytes() == (
        f"# spec_revision={SPEC_REVISION}\n# config_hash={config_hash(cfg)}\n"
        f"# master_seed={cfg.master_seed}\nid,a,b,c\n"
        "0,nan,inf,-inf\n1,-0.0,5e-324,0.1\n12,1e+16,2.5,0.0\n").encode()
    cli.write_table_csv(path, cli._provenance(cfg), "id,a", [])
    assert path.read_bytes().decode().splitlines()[3:] == ["id,a"]


def test_cli_empty_population(tmp_path):
    # a near-zero UE density leaves every drop without UEs: both commands
    # succeed, count no sample and write every statistic as null
    cfg = tmp_path / "empty.json"
    cfg.write_text('{"densities": {"ue_per_km2": 0.001}}')
    out = tmp_path / "sc"
    assert main(["scenarios", "--config", str(cfg), "--drops", "3", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert set(doc["scenarios"]) == set(SCENARIO_KINDS)
    for kind, entry in doc["scenarios"].items():
        assert entry["n_ue_samples"] == 0 and entry["drops"] == 3
        for stat in ("median_rate_bps", "p05_rate_bps", "median_sinr_db", "outage_fraction"):
            assert entry[stat] is None
        for name in (f"cdf_sinr_{kind}.csv", f"cdf_rate_{kind}.csv"):
            lines = _read_lines(out / name)
            assert len(lines) == 4 and lines[3] == "value,cum_prob"   # header only
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--densities", "5,10,20", "--drops", "2",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "sweep.json").read_text(), parse_constant=_reject_constant)
    assert doc["mean_rate_bps"] == [None, None, None]
    assert doc["fitted_exponent"] is None


def test_cli_artifacts_same_bytes_for_every_job_count(tmp_path, monkeypatch):
    # the commands share their drops among `experiment._processes()`
    # processes; 3 with `--drops 2` is more processes than drops
    assert 1 <= experiment._processes() <= 2
    empty = tmp_path / "empty.json"
    empty.write_text('{"densities": {"ue_per_km2": 0.001}}')
    commands = {
        "scenarios": ["scenarios", "--drops", "3"],
        "fewer drops than jobs": ["scenarios", "--drops", "2"],
        "sweep": ["sweep", "--drops", "2", "--densities", "5,10,20"],
        "empty scenarios": ["scenarios", "--config", str(empty), "--drops", "2"],
        "empty sweep": ["sweep", "--config", str(empty), "--drops", "2",
                        "--densities", "5,10,20"],
    }
    for name, argv in commands.items():
        artifacts = []
        for jobs in (1, 2, 3):
            monkeypatch.setattr(experiment, "_processes", lambda: jobs)
            out = tmp_path / f"{name}-{jobs}"
            assert main([*argv, "--out", str(out)]) == 0
            artifacts.append([(f.name, f.read_bytes()) for f in sorted(out.iterdir())])
        assert artifacts[0] and artifacts[0] == artifacts[1] == artifacts[2], name


def test_cli_worker_failure_exits_3(tmp_path, monkeypatch, capsys):
    # an exception in a worker's drops reaches the command with its message,
    # and the command leaves no process behind
    parent = os.getpid()
    run_block = experiment._run_block

    def failing_in_worker(*args):
        if os.getpid() != parent:
            raise ValueError("no link table for this block")
        return run_block(*args)

    monkeypatch.setattr(experiment, "_run_block", failing_in_worker)
    monkeypatch.setattr(experiment, "_processes", lambda: 2)
    for argv in (["scenarios"], ["sweep", "--densities", "5,10,20"]):
        assert main([*argv, "--drops", "2", "--out", str(tmp_path)]) == 3
        assert "failed: ValueError: no link table for this block" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
