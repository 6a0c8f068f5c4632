"""Performance-model checks: scaling laws, calibrated absolutes, energy."""

import copy
import json
import pathlib

import pytest

from pimcrypt import perfmodel as pm
from pimcrypt.controller import ExecutionStats, FunctionStats, count_runs
from pimcrypt.fabric import CycleCostModel, Subarray
from pimcrypt.kernels import aes, ghash, keccak

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_counts.json").read_text())


@pytest.fixture(scope="module")
def measurements():
    return pm.measure_kernels()


@pytest.fixture(scope="module")
def calibration(measurements):
    return pm.calibrate(measurements)


def test_golden_cycles(measurements):
    for name, expect in GOLDEN["cycles"].items():
        assert measurements[name].cycles == expect, name


COSTS = pytest.mark.parametrize(
    "cost", [CycleCostModel(), CycleCostModel(2, 1), CycleCostModel(1, 0)],
    ids=repr)


def ran_stats(cost) -> dict:
    """Every registry pass staged and run on the compiled engine, by name:
    the statistics its runs count and the cycles its subarrays clock."""
    out = {}
    for name, kp in pm.kernel_passes().items():
        ran, cycles = ExecutionStats(), 0
        for runs in kp.build():
            sub = Subarray(block_width=runs[0][0].program.block_width,
                           cost_model=cost)
            for ctrl, env in runs:
                ctrl.run(sub, env)
                count_runs(ran, [(ctrl, sub)])
            cycles += sub.cycle_count
        out[name] = ran, cycles
    return out


@COSTS
def test_measured_stats_are_those_of_running_each_pass(cost):
    # measure_kernels counts the passes without running them; running
    # every staged run on the compiled engine counts the same.
    ms = pm.measure_kernels(cost)
    for name, (ran, cycles) in ran_stats(cost).items():
        assert ms[name].stats == ran, name
        assert ms[name].cycles == ran.cycles == cycles, name


@COSTS
def test_measuring_stages_no_input(cost, monkeypatch):
    # The count reads each pass's programs from its shape alone: no key
    # is expanded, no key or message row packed, no run staged.
    ran = ran_stats(cost)

    def refuse(*args, **kwargs):
        raise AssertionError("measure_kernels staged an input")

    for owner, name in ((aes, "expand_key_words"), (aes, "key_rows"),
                        (aes.Key, "stage"), (keccak, "_stage_blocks"),
                        (keccak, "stage"), (ghash, "stage")):
        monkeypatch.setattr(owner, name, refuse)
    ms = pm.measure_kernels(cost)
    assert {name: m.stats for name, m in ms.items()} == {
        name: stats for name, (stats, _) in ran.items()}
    if cost == CycleCostModel():
        assert {name: m.cycles for name, m in ms.items()} == GOLDEN["cycles"]


def test_a_pass_counts_the_programs_it_stages():
    # The same objects, per subarray and in run order.
    for name, kp in pm.kernel_passes().items():
        staged = [[id(ctrl) for ctrl, _ in runs] for runs in kp.build()]
        assert [[*map(id, ctrls)] for ctrls in kp.programs()] == staged, name


def test_measuring_runs_no_command(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fabric ran a command")

    monkeypatch.setattr(Subarray, "run", refuse)
    monkeypatch.setattr(Subarray, "execute", refuse)
    ms = pm.measure_kernels()
    assert {name: m.cycles for name, m in ms.items()} == GOLDEN["cycles"]


def test_measuring_builds_no_subarray(monkeypatch):
    # A pass sums its programs' cached statistics: it needs no subarray,
    # not even to name a lane count and cost model.
    def refuse(*args, **kwargs):
        raise AssertionError("measure_kernels built a subarray")

    monkeypatch.setattr(Subarray, "__init__", refuse)
    ms = pm.measure_kernels()
    assert {name: m.cycles for name, m in ms.items()} == GOLDEN["cycles"]


def test_what_a_call_hands_out_is_the_callers_own():
    # Changing one call's statistics or registry changes no later count:
    # neither a controller's cached plan statistics nor the registry
    # itself is handed out.
    traced = {name: kp.trace(CycleCostModel(), [])
              for name, kp in pm.kernel_passes().items()}
    for m in pm.measure_kernels().values():
        m.stats.commands = m.stats.cycles = -1
        for fs in m.stats.per_function.values():
            fs.invocations = fs.iterations = fs.commands = fs.cycles = -1
        m.stats.per_function["Bogus"] = FunctionStats(1, 1, 1, 1)
    with pytest.raises(TypeError):
        pm.kernel_passes()["aes-128-encrypt"] = pm.kernel_passes()["ghash"]
    ms = pm.measure_kernels()
    assert {name: m.cycles for name, m in ms.items()} == GOLDEN["cycles"]
    assert {name: m.stats for name, m in ms.items()} == traced
    for name, kp in pm.kernel_passes().items():
        counted = ExecutionStats()
        count_runs(counted, [(ctrl, Subarray(ctrl.program.block_width))
                             for ctrls in kp.programs() for ctrl in ctrls])
        assert counted == traced[name], name


def test_fraction_scaling_exact(measurements):
    # Throughput is exactly linear in the active-fabric fraction.
    m = measurements["aes-128-encrypt"]
    run0 = pm.POWER_MODES["run0"]
    base = pm.throughput(m, pm.FabricConfig(isc_fraction=0.25), run0)
    half = pm.throughput(m, pm.FabricConfig(isc_fraction=0.5), run0)
    full = pm.throughput(m, pm.FabricConfig(isc_fraction=1.0), run0)
    assert half == 2 * base
    assert full == 4 * base


def test_frequency_scaling_exact(measurements):
    m = measurements["sha3-256"]
    cfg = pm.FabricConfig()
    per_mode = {k: pm.throughput(m, cfg, v) / v.frequency
                for k, v in pm.POWER_MODES.items()}
    assert len(set(per_mode.values())) == 1


def test_ccm_is_half_cbc(measurements):
    # CCM runs the cipher twice per payload block (MAC + keystream).
    modes = pm.mode_cycles(measurements)
    for variant in (128, 256):
        for direction in ("encrypt", "decrypt"):
            cbc = modes[(variant, direction, "cbc")]
            ccm = modes[(variant, direction, "ccm")]
            assert ccm.cycles == 2 * cbc.cycles


def test_sha3_rate_ratios(measurements):
    # Throughput across SHA3 variants tracks the sponge rate to ~1%.
    t256 = measurements["sha3-256"]
    for bits, rate in ((224, 144), (384, 104), (512, 72)):
        m = measurements[f"sha3-{bits}"]
        ratio = (m.payload_bytes / m.cycles) / (t256.payload_bytes
                                                / t256.cycles)
        assert ratio == pytest.approx(rate / 136, rel=0.01)


def test_hmac_to_sha3_ratio(measurements):
    # Hash benchmark streams 3 rate-blocks of payload; the MAC benchmark
    # delivers one rate-block of payload across 5 hashed blocks.
    s, h = measurements["sha3-256"], measurements["hmac-sha3-256"]
    ratio = (s.payload_bytes / s.cycles) / (h.payload_bytes / h.cycles)
    assert 3.5 < ratio < 4.0


def test_uncalibrated_within_factor_two(measurements):
    # With calibration 1.0, every published throughput cell is matched
    # to within a factor of two.
    run0 = pm.POWER_MODES["run0"]
    for fraction, cells in pm.PAPER["aes_throughput"].items():
        cfg = pm.FabricConfig(isc_fraction=fraction)
        modes = pm.mode_cycles(measurements)
        for key, ref in cells.items():
            ours = pm.throughput(modes[key], cfg, run0) / 1e6
            assert 0.5 <= ours / ref <= 2.0, (fraction, key)
    cfg = pm.FabricConfig()
    for bits, ref in pm.PAPER["sha3_throughput"][1.0].items():
        ours = pm.throughput(measurements[f"sha3-{bits}"], cfg, run0) / 1e6
        assert 0.5 <= ours / ref <= 2.0, bits


def test_calibrated_absolutes(measurements, calibration):
    cfg = pm.FabricConfig(isc_fraction=1.0, calibration=calibration)
    run0 = pm.POWER_MODES["run0"]
    modes = pm.mode_cycles(measurements)
    for key, ref in pm.PAPER["aes_throughput"][1.0].items():
        ours = pm.throughput(modes[key], cfg, run0) / 1e6
        assert ours == pytest.approx(ref, rel=0.05), key


def test_energy_arithmetic():
    # efficiency = throughput / power, scaled by the fabric power factor
    run2 = pm.POWER_MODES["run2"]
    cfg = pm.FabricConfig(isc_power_factor=1.048)
    assert pm.energy_efficiency(1e6, run2, cfg) == pytest.approx(
        1e6 / (run2.power * 1.048))


def test_cpu_sleeps():
    assert pm.baseline_efficiency(100.0, pm.POWER_MODES["sleep"],
                                  cpu=True) == 0.0
    assert pm.baseline_efficiency(100.0, pm.POWER_MODES["sleep"],
                                  cpu=False) > 0.0


def test_control_counts_golden():
    counts = pm.control_counts()
    for name, (per_iter, iters) in GOLDEN["control_counts"].items():
        got = counts[name]
        assert got[0] == per_iter and got[1] == iters, name


def test_control_counts_read_the_measured_passes(measurements):
    assert pm.control_counts(measurements) == {
        name: tuple(pin) for name, pin in GOLDEN["control_counts"].items()}
    # an AddRoundKey iteration more in the measured pass shows in the table
    ms = copy.deepcopy(measurements)
    ms["aes-128-encrypt"].stats.per_function["AddRoundKey"].iterations = 12
    bad = [r.label for r in pm.compare_to_paper(ms).violations
           if r.table == "control overhead (#iterations)"]
    assert bad == ["AddRoundKey"]


def test_control_counts_vs_published():
    counts = pm.control_counts()
    for name, (ref_per_iter, ref_iters) in pm.PAPER["control_counts"].items():
        per_iter, iters = counts[name]
        assert iters == ref_iters, name
        assert abs(per_iter - ref_per_iter) / ref_per_iter <= 0.20, name


def test_compare_to_paper_clean(measurements, calibration):
    report = pm.compare_to_paper(measurements, calibration)
    assert report.violations == []
    assert len(report.rows) >= 100
    text = report.to_text()
    assert "VIOLATION" not in text
    d = report.to_dict()
    assert all(r["ok"] for r in d["rows"])
