"""Cycle, throughput, and energy model with embedded reference baselines.

Throughput of one kernel is modeled as

    calibration x active_subarrays x payload_bytes x frequency / cycles

where cycles are those of one representative pass of the kernel program
on the simulated fabric (1 cycle per command plus 1 per 1-bit shift step
by default).  ``kernel_passes`` is the one registry of those passes:
``measure_kernels`` counts it (``KernelPass.count``), ``pimcrypt trace``
runs it command by command (``KernelPass.trace``), and the engine tests
run it on both engines.  The registry only
chooses the pass's inputs; each kernel module stages them
(``aes.Key.stage``, ``ghash.stage``, ``keccak.stage``), as it does for
every mode call.

The count is exact without running a command: a run's statistics depend
only on its validated program, the lane count and the cost model, never
on data, so ``controller.count_runs`` gives what a run on the fabric
counts, and the engine tests check it against the reference
interpreter's own count on every registry pass.  The control-overhead
table (commands per iteration and iterations per function) is read from
the measured passes' per-function statistics, so nothing here builds a
program.

The reference hardware is a 256 KiB SRAM of 4 KiB subarrays (64 total)
with 25/50/100% of them compute-enabled, clocked and powered like the
three MCU operating points below.

Mode composition follows the reference data's own internal structure:
CCM costs exactly twice CBC (MAC pass plus CTR pass), and GCM costs a
CBC-equivalent CTR pass plus two 8-block GHASH passes per 256-byte
payload.  "CCM = 2x CBC" is a full-occupancy figure, every tile of
both passes busy, and ``compare_to_paper`` keeps it; a single CCM call
of ``modes`` runs its counter blocks in the idle tiles of its serial
MAC passes, so its modeled count is less than that.  All ratio and
scaling checks hold with calibration 1.0; one scalar per kernel family
(aes / sha3 / ghash) may be fitted to land on the absolute published
numbers.

Baseline CPU/ASIC rows are quoted measurements of an STM32L562-class
part, embedded here purely as comparison targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping

from .controller import (Controller, ExecutionStats, FunctionStats,
                         count_runs)
from .fabric import SUBARRAYS, CycleCostModel, Subarray
from .kernels import aes, ghash, keccak

__all__ = ["PowerMode", "POWER_MODES", "FabricConfig", "KernelMeasurement",
           "KernelPass", "PerfReport", "kernel_passes", "measure_kernels",
           "mode_cycles", "throughput", "energy_efficiency", "calibrate",
           "compare_to_paper", "control_counts", "PAPER"]


@dataclass(frozen=True)
class PowerMode:
    name: str
    frequency: float          # Hz
    supply: float             # volts
    current: float            # amperes

    @property
    def power(self) -> float:
        return self.supply * self.current


POWER_MODES = {
    "run0": PowerMode("RUN-Range0", 110e6, 1.8, 11.21e-3),
    "run2": PowerMode("RUN-Range2", 26e6, 1.8, 1.87e-3),
    "sleep": PowerMode("SLEEP", 2e6, 1.8, 230e-6),
}

# Relative tolerance of every calibrated throughput cell.
THROUGHPUT_TOLERANCE = 0.05


@dataclass
class FabricConfig:
    isc_fraction: float = 1.0                 # 0.25 / 0.5 / 1.0
    calibration: Mapping[str, float] = field(default_factory=dict)
    isc_power_factor: float = 1.0

    @property
    def active_subarrays(self) -> float:
        return SUBARRAYS * self.isc_fraction

    def cal(self, family: str) -> float:
        return self.calibration.get(family, 1.0)


@dataclass(frozen=True)
class KernelMeasurement:
    name: str
    family: str               # calibration family: aes / sha3 / ghash
    cycles: int               # per subarray pass
    payload_bytes: int        # per subarray pass
    stats: ExecutionStats


# ---------------------------------------------------------------------------
# Published baselines (throughput MB/s, efficiency GB/s/W, command counts)
# ---------------------------------------------------------------------------

PAPER = {
    # AES throughput at 110 MHz, fraction -> {(variant, direction, mode): MB/s}
    "aes_throughput": {
        0.25: {(128, "encrypt", "cbc"): 28.337, (128, "encrypt", "ccm"): 14.169,
               (128, "encrypt", "gcm"): 10.999, (256, "encrypt", "cbc"): 21.406,
               (256, "encrypt", "ccm"): 10.703, (256, "encrypt", "gcm"): 9.771,
               (128, "decrypt", "cbc"): 24.208, (128, "decrypt", "ccm"): 12.104,
               (128, "decrypt", "gcm"): 10.316, (256, "decrypt", "cbc"): 18.086,
               (256, "decrypt", "ccm"): 9.043, (256, "decrypt", "gcm"): 9.016},
        0.5: {(128, "encrypt", "cbc"): 56.674, (128, "encrypt", "ccm"): 28.337,
              (128, "encrypt", "gcm"): 21.998, (256, "encrypt", "cbc"): 42.813,
              (256, "encrypt", "ccm"): 21.406, (256, "encrypt", "gcm"): 19.542,
              (128, "decrypt", "cbc"): 48.416, (128, "decrypt", "ccm"): 24.208,
              (128, "decrypt", "gcm"): 20.632, (256, "decrypt", "cbc"): 36.172,
              (256, "decrypt", "ccm"): 18.086, (256, "decrypt", "gcm"): 18.031},
        1.0: {(128, "encrypt", "cbc"): 113.348, (128, "encrypt", "ccm"): 56.674,
              (128, "encrypt", "gcm"): 43.996, (256, "encrypt", "cbc"): 85.625,
              (256, "encrypt", "ccm"): 42.813, (256, "encrypt", "gcm"): 39.084,
              (128, "decrypt", "cbc"): 96.832, (128, "decrypt", "ccm"): 48.416,
              (128, "decrypt", "gcm"): 41.264, (256, "decrypt", "cbc"): 72.344,
              (256, "decrypt", "ccm"): 36.172, (256, "decrypt", "gcm"): 36.062},
    },
    "aes_cpu": {(128, "encrypt", "cbc"): 1.448, (128, "encrypt", "ccm"): 0.86,
                (128, "encrypt", "gcm"): 0.876, (256, "encrypt", "cbc"): 1.145,
                (256, "encrypt", "ccm"): 0.654, (256, "encrypt", "gcm"): 0.756,
                (128, "decrypt", "cbc"): 1.32, (128, "decrypt", "ccm"): 0.858,
                (128, "decrypt", "gcm"): 0.878, (256, "decrypt", "cbc"): 1.061,
                (256, "decrypt", "ccm"): 0.653, (256, "decrypt", "gcm"): 0.758},
    "aes_asic": {(128, "encrypt", "cbc"): 17.543, (128, "encrypt", "ccm"): 9.661,
                 (128, "encrypt", "gcm"): 15.847, (256, "encrypt", "cbc"): 13.55,
                 (256, "encrypt", "ccm"): 7.507, (256, "encrypt", "gcm"): 12.437,
                 (128, "decrypt", "cbc"): 17.361, (128, "decrypt", "ccm"): 9.718,
                 (128, "decrypt", "gcm"): 15.6, (256, "decrypt", "cbc"): 13.404,
                 (256, "decrypt", "ccm"): 7.535, (256, "decrypt", "gcm"): 12.269},
    # SHA3 throughput (MB/s), messages of 3x rate bytes
    "sha3_throughput": {
        0.25: {224: 15.098, 256: 14.260, 384: 10.904, 512: 7.549},
        0.5: {224: 30.197, 256: 28.519, 384: 21.809, 512: 15.098},
        1.0: {224: 60.393, 256: 57.038, 384: 43.617, 512: 30.197},
    },
    "sha3_cpu": {224: 0.893, 256: 0.844, 384: 0.648, 512: 0.45},
    # HMAC-SHA3 throughput (MB/s), key and message of one rate block each
    "hmac_throughput": {
        0.25: {224: 4.034, 256: 3.810, 384: 2.914, 512: 2.017},
        0.5: {224: 8.069, 256: 7.621, 384: 5.828, 512: 4.034},
        1.0: {224: 16.138, 256: 15.241, 384: 11.655, 512: 8.069},
    },
    # Energy efficiency (GB/s/W) of AES-128-CBC and SHA3-256 per mode
    "aes_energy": {
        "cpu": {"run0": 0.0718, "run2": 0.1017, "sleep": 0.0},
        "asic": {"run0": 0.8694, "run2": 1.2319, "sleep": 0.7704},
        0.25: {"run0": 1.3396, "run2": 1.8982, "sleep": 1.1872},
        0.5: {"run0": 2.6793, "run2": 3.7963, "sleep": 2.3743},
        1.0: {"run0": 5.3586, "run2": 7.5927, "sleep": 4.7486},
    },
    "sha3_energy": {
        "cpu": {"run0": 0.0418, "run2": 0.0593, "sleep": 0.0},
        0.25: {"run0": 0.7067, "run2": 1.0013, "sleep": 0.6262},
        0.5: {"run0": 1.4134, "run2": 2.0026, "sleep": 1.2525},
        1.0: {"run0": 2.8267, "run2": 4.0053, "sleep": 2.5050},
    },
    # Control-overhead table: function -> (commands per iteration, iterations)
    "control_counts": {
        "BitSlicing": (288, 2), "AddRoundKey": (24, 11), "SubBytes": (357, 10),
        "ShiftRows": (456, 10), "MixColumns": (258, 9),
        "ByteArrange": (63, 1), "ByteAligning": (138, 8), "GaloisMult": (16, 1024),
        "StatePermute": (633, 24),
    },
    "control_total_commands": 2233,
    "control_total_kb": 4.47,
    # Power factor that reconciles the AES energy table with the AES
    # throughput table; the SHA3 tables reconcile with 1.0.
    "aes_power_factor": 1.048,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelPass:
    """One representative pass of a kernel: what ``measure_kernels``
    measures and ``pimcrypt trace`` shows.

    ``build`` returns the pass's runs as (validated program, env) pairs
    from the kernels' staging functions, which the mode functions use
    too: one list per subarray, in run order, with programs from the
    kernels' caches.  Host actions write only the run's output into an
    env, so a staged run can run again.  Each list runs on a fresh
    subarray: a SHA3 sponge's block runs share one, and an HMAC's inner
    and outer sponges have one each.
    """
    family: str               # calibration family: aes / sha3 / ghash
    payload_bytes: int        # per subarray pass
    build: Callable[[], list[list[tuple[Controller, dict]]]]

    def count(self, cost: CycleCostModel) -> ExecutionStats:
        """The pass's statistics on one-lane subarrays under ``cost``,
        counted without running a command: each run's statistics are
        fixed by its validated program, the lane count and the cost
        model (``controller.count_runs``)."""
        stats, subs = ExecutionStats(), self.build()
        # One kernel's runs, so one block width.
        sub = Subarray(block_width=subs[0][0][0].program.block_width,
                       cost_model=cost)
        count_runs(stats, ((ctrl, sub) for runs in subs for ctrl, _ in runs))
        return stats

    def trace(self, cost: CycleCostModel, records: list) -> ExecutionStats:
        """Run the pass on the reference interpreter, on one-lane
        subarrays under ``cost``: append its records to ``records`` and
        return the statistics they count."""
        stats = ExecutionStats()
        for runs in self.build():
            sub = Subarray(block_width=runs[0][0].program.block_width,
                           cost_model=cost)
            for ctrl, env in runs:
                stats.merge(ctrl.trace(sub, records, env))
        return stats


_BYTES = bytes(range(256))


def _ramp(start: int, n: int) -> bytes:
    """``n`` bytes counting up from ``start`` modulo 256: the registry's
    blocks and messages."""
    return (_BYTES * (2 + n // 256))[start % 256:][:n]


def _aes_runs(variant: int,
             direction: str) -> list[list[tuple[Controller, dict]]]:
    blocks = [_ramp(17 * i, 16) for i in range(aes.BLOCKS_PER_PASS)]
    key = aes.Key(bytes(range(variant // 8)), direction)
    chain = {"pre" if direction == "encrypt" else "post": blocks[::-1]}
    return [[key.stage(blocks, **chain)]]


def _sha3_runs(bits: int) -> list[list[tuple[Controller, dict]]]:
    msg = _ramp(0, 3 * keccak.RATE_BYTES[bits])
    return [keccak.stage(bits, [msg])]          # 4 blocks, 4 runs


def _hmac_runs(bits: int) -> list[list[tuple[Controller, dict]]]:
    rate = keccak.RATE_BYTES[bits]
    key = msg = _ramp(0, rate)
    # inner: key block + 2 message blocks; outer: key block + digest block
    return [keccak.stage(bits, [key + tail], 0x36)
            for tail in (msg, bytes(bits // 8))]


def _ghash_runs() -> list[list[tuple[Controller, dict]]]:
    blocks = [bytes([i] * 16) for i in range(ghash.BLOCKS_PER_PASS)]
    return [[ghash.stage([bytes(range(16))], [blocks], True, False)]]


def kernel_passes() -> dict[str, KernelPass]:
    """The representative pass of every measured kernel, by name."""
    passes = {}
    for variant in (128, 256):
        for direction in ("encrypt", "decrypt"):
            passes[f"aes-{variant}-{direction}"] = KernelPass(
                "aes", 16 * aes.BLOCKS_PER_PASS,
                partial(_aes_runs, variant, direction))
    for bits, rate in keccak.RATE_BYTES.items():
        passes[f"sha3-{bits}"] = KernelPass(
            "sha3", keccak.SHA3_LANES * 3 * rate, partial(_sha3_runs, bits))
        passes[f"hmac-sha3-{bits}"] = KernelPass(
            "sha3", keccak.SHA3_LANES * rate, partial(_hmac_runs, bits))
    passes["ghash"] = KernelPass("ghash", 16 * ghash.BLOCKS_PER_PASS,
                                 _ghash_runs)
    return passes


def measure_kernels(cost: CycleCostModel = CycleCostModel()
                    ) -> dict[str, KernelMeasurement]:
    """Count every registry pass under ``cost``, by name."""
    out = {}
    for name, kp in kernel_passes().items():
        stats = kp.count(cost)
        out[name] = KernelMeasurement(name, kp.family, stats.cycles,
                                      kp.payload_bytes, stats)
    return out


def mode_cycles(measurements: dict[str, KernelMeasurement]
                ) -> dict[tuple, KernelMeasurement]:
    """Compose per-mode measurements over one AES pass's payload."""
    out = {}
    g = measurements["ghash"]
    for variant in (128, 256):
        for direction in ("encrypt", "decrypt"):
            base = measurements[f"aes-{variant}-{direction}"]
            out[(variant, direction, "cbc")] = base
            out[(variant, direction, "ccm")] = replace(
                base, name=base.name + "-ccm", cycles=2 * base.cycles)
            out[(variant, direction, "gcm")] = KernelMeasurement(
                base.name + "-gcm", "aes+ghash",
                base.cycles + 2 * g.cycles, base.payload_bytes, base.stats)
    return out


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def throughput(m: KernelMeasurement, config: FabricConfig,
               mode: PowerMode) -> float:
    """Bytes per second for one kernel across the active fabric."""
    if m.family == "aes+ghash":
        # composed modes: calibrate the AES and GHASH cycle shares apart
        aes_cyc = m.stats.cycles / config.cal("aes")
        g_cyc = (m.cycles - m.stats.cycles) / config.cal("ghash")
        cycles, cal = aes_cyc + g_cyc, 1.0
    else:
        cycles, cal = m.cycles, config.cal(m.family)
    return cal * config.active_subarrays * m.payload_bytes \
        * mode.frequency / cycles


def energy_efficiency(tput: float, mode: PowerMode,
                      config: FabricConfig) -> float:
    """Bytes per second per watt."""
    return tput / (mode.power * config.isc_power_factor)


def _exact_calibration(m: KernelMeasurement, target_mbs: float) -> float:
    """The calibration that lands ``m`` exactly on a published cell: its
    MB/s at 100% compute-enabled subarrays in RUN-Range0."""
    return target_mbs * 1e6 * m.cycles / (
        FabricConfig().active_subarrays * POWER_MODES["run0"].frequency
        * m.payload_bytes)


def calibrate(measurements: dict[str, KernelMeasurement] | None = None
              ) -> dict[str, float]:
    """Fit one scalar per kernel family to the published absolutes."""
    ms = measurements or measure_kernels()
    base = FabricConfig().active_subarrays * POWER_MODES["run0"].frequency
    aes_cals = [_exact_calibration(ms[f"aes-{v}-{d}"],
                                   PAPER["aes_throughput"][1.0][(v, d, "cbc")])
                for v in (128, 256) for d in ("encrypt", "decrypt")]
    cal = {"aes": math.prod(aes_cals) ** (1 / len(aes_cals))}
    sha3_cals = [_exact_calibration(ms[f"sha3-{b}"],
                                    PAPER["sha3_throughput"][1.0][b])
                 for b in keccak.RATE_BYTES]
    cal["sha3"] = math.prod(sha3_cals) ** (1 / len(sha3_cals))
    # ghash: fit the GCM cells given the AES calibration
    g = ms["ghash"]
    g_cals = []
    for v in (128, 256):
        for d in ("encrypt", "decrypt"):
            target = PAPER["aes_throughput"][1.0][(v, d, "gcm")]
            a = ms[f"aes-{v}-{d}"]
            total = base * a.payload_bytes / (target * 1e6)
            g_share = total - a.cycles / cal["aes"]
            g_cals.append(2 * g.cycles / g_share)
    cal["ghash"] = math.prod(g_cals) ** (1 / len(g_cals))
    return cal


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    table: str
    label: str
    ours: float
    reference: float
    tolerance: float          # relative, or 0 for informational

    @property
    def delta(self) -> float:
        if self.reference == 0:
            return 0.0 if self.ours == 0 else float("inf")
        return self.ours / self.reference - 1

    @property
    def ok(self) -> bool:
        return not self.tolerance or abs(self.delta) <= self.tolerance


@dataclass
class PerfReport:
    rows: list[ReportRow]
    calibration: dict[str, float]

    @property
    def violations(self) -> list[ReportRow]:
        return [r for r in self.rows if not r.ok]

    def to_text(self) -> str:
        width = max(len(r.label) for r in self.rows) + 2
        order = list(dict.fromkeys(r.table for r in self.rows))
        lines = []
        for table in order:
            lines.append(f"== {table} ==")
            for r in (r for r in self.rows if r.table == table):
                lines.append(
                    f"  {r.label:<{width}} ours {r.ours:12.4f}  "
                    f"ref {r.reference:12.4f}  delta {r.delta:+8.2%}  "
                    f"{'ok' if r.ok else 'VIOLATION'}")
        ok = len(self.rows) - len(self.violations)
        lines.append(f"== {ok}/{len(self.rows)} checks ok, calibration "
                     + ", ".join(f"{k}={v:.4f}"
                                 for k, v in self.calibration.items()))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"calibration": self.calibration,
                "rows": [{"table": r.table, "label": r.label, "ours": r.ours,
                          "reference": r.reference, "delta": r.delta,
                          "tolerance": r.tolerance, "ok": r.ok}
                         for r in self.rows]}


def compare_to_paper(measurements: dict[str, KernelMeasurement] | None = None,
                     calibration: dict[str, float] | None = None
                     ) -> PerfReport:
    ms = measurements or measure_kernels()
    cal = calibration or calibrate(ms)
    rows: list[ReportRow] = []
    run0 = POWER_MODES["run0"]
    per_mode = mode_cycles(ms)

    # throughput tables, calibrated, all fractions: cell key -> kernel
    sizes = keccak.RATE_BYTES
    for table, kernels in (
            ("aes", {key: ("aes-%d-%s-%s" % key, m)
                     for key, m in per_mode.items()}),
            ("sha3", {b: (f"sha3-{b}", ms[f"sha3-{b}"]) for b in sizes}),
            ("hmac", {b: (f"hmac-{b}", ms[f"hmac-sha3-{b}"]) for b in sizes})):
        for frac, cells in PAPER[f"{table}_throughput"].items():
            config = FabricConfig(isc_fraction=frac, calibration=cal)
            for key, target in cells.items():
                label, m = kernels[key]
                rows.append(ReportRow(
                    f"{table} throughput (MB/s)", f"{label} @{int(frac*100)}%",
                    throughput(m, config, run0) / 1e6, target,
                    THROUGHPUT_TOLERANCE))

    # Energy tables isolate the power model: the throughput feeding them
    # is pinned to the corresponding published cell with its own scalar,
    # so a residual family-calibration error is not double-counted here.
    energy = (("aes-128-cbc", ms["aes-128-encrypt"],
               PAPER["aes_throughput"][1.0][(128, "encrypt", "cbc")],
               PAPER["aes_power_factor"], 0.01),
              ("sha3-256", ms["sha3-256"],
               PAPER["sha3_throughput"][1.0][256], 1.0, 0.06))
    for frac in (0.25, 0.5, 1.0):
        for mname, mode in POWER_MODES.items():
            for table, m, target, power_factor, tolerance in energy:
                config = FabricConfig(
                    isc_fraction=frac, isc_power_factor=power_factor,
                    calibration={m.family: _exact_calibration(m, target)})
                rows.append(ReportRow(
                    f"{table} efficiency (GB/s/W)",
                    f"@{int(frac*100)}% {mode.name}",
                    energy_efficiency(throughput(m, config, mode), mode,
                                      config) / 1e9,
                    PAPER[f"{m.family}_energy"][frac][mname], tolerance))
    for label, tput0, cells in (
            ("cpu aes", PAPER["aes_cpu"][(128, "encrypt", "cbc")],
             PAPER["aes_energy"]["cpu"]),
            ("asic aes", PAPER["aes_asic"][(128, "encrypt", "cbc")],
             PAPER["aes_energy"]["asic"]),
            ("cpu sha3", PAPER["sha3_cpu"][256], PAPER["sha3_energy"]["cpu"])):
        for mname, mode in POWER_MODES.items():
            rows.append(ReportRow(
                "baseline efficiency (GB/s/W)", f"{label} {mode.name}",
                baseline_efficiency(tput0, mode, cpu="cpu" in label) / 1e9,
                cells[mname], 1e-3))

    # control-overhead counts (our achieved vs published, loose window)
    achieved = control_counts(ms)
    for name, (inst, iters) in PAPER["control_counts"].items():
        ours_inst, ours_iter = achieved[name]
        rows.append(ReportRow("control overhead (#inst per iteration)",
                              name, ours_inst, inst, 0.20))
        rows.append(ReportRow("control overhead (#iterations)",
                              name, ours_iter, iters, 1e-9))
    total = sum(v[0] for v in achieved.values())
    rows.append(ReportRow("control overhead (storage KB)", "total",
                          2 * total / 1000, PAPER["control_total_kb"], 0.20))
    return PerfReport(rows, cal)


def baseline_efficiency(tput_110mhz: float, mode: PowerMode,
                        cpu: bool = False) -> float:
    """Efficiency of a quoted CPU/ASIC baseline, frequency-scaled from its
    110 MHz figure (MB/s).  The CPU cannot compute in sleep mode."""
    if cpu and mode.frequency <= POWER_MODES["sleep"].frequency:
        return 0.0
    tput = tput_110mhz * 1e6 * mode.frequency / POWER_MODES["run0"].frequency
    return tput / mode.power


def control_counts(measurements: dict[str, KernelMeasurement] | None = None
                   ) -> dict[str, tuple[float, int]]:
    """Achieved (commands per iteration, iterations) per named function,
    matching the shape of the published control-overhead table, read
    from the measured AES-128 encryption, GHASH and SHA3-256 passes."""
    ms = measurements or measure_kernels()
    aes_f = ms["aes-128-encrypt"].stats.per_function
    ghash_f = ms["ghash"].stats.per_function
    perm = ms["sha3-256"].stats.per_function["StatePermute"]

    def row(fs: FunctionStats) -> tuple[int, int]:
        return fs.commands // fs.iterations, fs.iterations

    fwd, inv = aes_f["BitSliceFwd"], aes_f["BitSliceInv"]
    slicing = fwd.iterations + inv.iterations
    counts = {"BitSlicing": ((fwd.commands + inv.commands) / slicing,
                             slicing)}
    counts.update((name, row(aes_f[name])) for name in
                  ("AddRoundKey", "SubBytes", "ShiftRows", "MixColumns"))
    counts.update((name, row(ghash_f[name])) for name in
                  ("ByteArrange", "ByteAligning", "GaloisMult"))
    # The pass absorbs 4 blocks; the table counts one block's permutation.
    counts["StatePermute"] = (perm.commands // perm.iterations,
                              perm.iterations // perm.invocations)
    return counts
