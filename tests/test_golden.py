"""Golden artifacts: pinned sha256 digests of outputs at a fixed config and seed.

Criterion 9 only compares a rerun with a rerun, so a refactor that reorders
random draws or changes one floating-point operation would still pass it.
These digests were recorded once and pin the exact bytes. A change that
moves them changes the model's output: report it, never re-record the
digests to make a refactor pass.

The digests also depend on the host's SIMD. They hold for numpy 2.4.6 on
its X86_V4 (AVX512) dispatch path. `LinkTable.realize_block`,
`network_sinr` and the rate formula call numpy's exp, log10, power and
log2, whose results change in the last ulp with the dispatch path. Under
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" (the AVX2 path),
`test_golden_scenarios` and `test_golden_gap_spectrum_access_opened_bs`
fail, so a host without AVX512 fails them too. What does hold on both
paths is the exhaustive search's bit identity with the tests'
independent mirror of the interference model (`_oracle_gamma` in
`tests/test_allocation.py`): that file and criterion 8 pass on both.
"""
import hashlib
import json
from dataclasses import replace

from mmwshare.cli import main
from mmwshare.config import default_config
from mmwshare.experiment import run_gap
from mmwshare.geometry import Region
from mmwshare.scenario import Scenario

SCENARIOS = {
    "summary.json": "ff6badf376988ae758b5301f038e3cd094f01420662ac9149a5b9ecf9012c673",
    "cdf_sinr_NoSharing.csv": "29bd75b976f767675088a8829878cfd7f885a0dc81a80b18cbc43252b2f1222f",
    "cdf_sinr_Spectrum.csv": "37821065e1202ba86b26c25e4878dad1a178352b07641c0e7f54ec5c11efc42b",
    "cdf_sinr_SpectrumInfra.csv": "b0553dd22ea6ab88761f827a12cd87690b21f5cac08d088205c862544db25a7f",
    "cdf_sinr_SpectrumAccess.csv": "7b9f6abd758d47f48b30e13faf1f2989aa633ad22d3dc3a4d8791c81033c0616",
    "cdf_rate_NoSharing.csv": "ed903f3ba8f0992acdeb67e02e1930ded3ef1277951e3944a0b099b7dc19e24b",
    "cdf_rate_Spectrum.csv": "26159d74605ea3782effdb32039557602cddfa7bee20865b68528de6c0410a26",
    "cdf_rate_SpectrumInfra.csv": "c1ab3b54c83de6862f909de9fc84269ca4bf64837f6bd7f1f2e633e6ed1e5f3c",
    "cdf_rate_SpectrumAccess.csv": "4877a404d456a4909bfac8126ed7870a464d744ddeb887f8c57e6b8c49ecc4b8",
}
SWEEP = {
    "sweep.csv": "f956357646e71024b84c222a74f22bc8d8df2d506b0a38280f5dd13a8d044069",
    "sweep.json": "e8adf76e6ee35bcf8bfaf60761b534c8f169a6fa2eec5bc07380b83f77ae5cd8",
}
GAP_SPECTRUM = {
    "gap.csv": "73668b1eaf7495efecc6ebb7cfbbaad4da0e897263628aecd9b706d30b66f312",
    "gap.json": "e36a9e51de83fc4871ff7e8e3583f86d8e00dda4acb6ac44c1e91522ad5fc212",
}
GAP_ACCESS_ROWS = "8a62a9f234522705e207ada548a28509023a6ae55d59b8c7c046e22f17075a84"


def _digests(out, names):
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def test_golden_scenarios(tmp_path):
    out = tmp_path / "scn"
    assert main(["scenarios", "--drops", "2", "--seed", "5", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(SCENARIOS)
    assert _digests(out, SCENARIOS) == SCENARIOS


def test_golden_sweep(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", "Spectrum", "--densities", "5,20,40",
                 "--drops", "1", "--seed", "5", "--out", str(out)]) == 0
    assert _digests(out, SWEEP) == SWEEP


def test_golden_gap_spectrum(tmp_path):
    cfg = tmp_path / "gap.json"
    cfg.write_text(json.dumps({"region": {"width_km": 0.2, "height_km": 0.2},
                               "scenario": {"kind": "Spectrum"}}))
    out = tmp_path / "gap"
    assert main(["gap", "--config", str(cfg), "--drops", "4", "--seed", "5",
                 "--out", str(out)]) == 0
    assert _digests(out, GAP_SPECTRUM) == GAP_SPECTRUM


def test_golden_gap_spectrum_access_opened_bs():
    # half of each operator's BSs open to foreign UEs: exercises the
    # access-matrix expansion of run_gap, not only the home-operator rows
    cfg = replace(default_config(), region=Region(0.2, 0.2), master_seed=5,
                  scenario=Scenario("SpectrumAccess", access_share_fraction=0.5))
    rows = run_gap(cfg, n_instances=10, max_bs_per_operator=2)
    text = "\n".join(f"{r.instance_id},{r.blind_sum_rate_bps.hex()},"
                     f"{r.ub_sum_rate_bps.hex()},{r.gap_percent.hex()}" for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == GAP_ACCESS_ROWS
