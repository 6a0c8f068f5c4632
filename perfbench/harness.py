"""Runs one workload in one process: one client, closed loop, no threads.

Each operation is timed alone with ``perf_counter``; input generation,
the output checks and the speed-reference loop (``pace.py``) run between
operations, outside the timed region.  End-to-end times are reported at
the reference speed.  The run completes whole rounds (see
``workloads.py``) and stops at the round boundary nearest to the
requested number of seconds, with at least one round.

Untraced runs give the end-to-end metrics.  A traced run runs every
operation twice in a row, untraced and traced in alternating order, so
that ``trace.overhead`` compares the same inputs at the same host speed;
the per-layer metrics are per round.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from time import perf_counter

from pimcrypt import oracle as oracle_mod
from pimcrypt import perfmodel
from pimcrypt.controller import ExecutionStats
from pimcrypt.kernels import modes

import check
import pace
from tracing import HOST_ACTION_KINDS, Tracer
from workloads import Op, make_round, warmup_ops

KERNEL_FUNCTIONS = ("BitSliceFwd", "BitSliceInv", "AddRoundKey", "SubBytes",
                    "ShiftRows", "MixColumns", "ChainXor", "ByteArrange",
                    "ByteAligning", "GaloisMult", "Reduce", "StatePermute",
                    "AddState", "KeyXorPad")
TAIL_SAMPLES = 10   # samples that must lie above the tail percentile
RAW_CAP = 1.5       # a run ends after this many times --seconds of wall time


def execute(op: Op, stats: ExecutionStats):
    """Call the library for ``op``; returns (output, payload bytes)."""
    if op.kind != "paper_model":
        return _call_modes(op, stats), op.payload
    ms = perfmodel.measure_kernels()
    report = perfmodel.compare_to_paper(ms, perfmodel.calibrate(ms))
    for m in ms.values():
        stats.merge(m.stats)
    out = {"cycles": {name: m.cycles for name, m in ms.items()},
           "violations": len(report.violations)}
    return out, sum(m.payload_bytes for m in ms.values())


def _call_modes(op: Op, stats: ExecutionStats):
    a, k = op.args, op.kind
    if k in ("ecb_encrypt", "ecb_decrypt"):
        return modes.ecb_crypt(a["key"], a["data"], k[4:], stats)
    if k == "ctr_crypt":
        return modes.ctr_crypt(a["key"], a["counter0"], a["data"], stats)
    if k in ("cbc_encrypt", "cbc_decrypt"):
        return getattr(modes, k)(a["key"], a["iv"], a["data"], stats)
    if k in ("gcm_encrypt", "ccm_encrypt"):
        return getattr(modes, k)(a["key"], a["iv"], a["aad"], a["plaintext"],
                                 stats=stats)
    if k in ("gcm_decrypt", "ccm_decrypt"):
        try:
            return getattr(modes, k)(a["key"], a["iv"], a["aad"],
                                     a["ciphertext"], stats=stats)
        except modes.TagMismatch:
            return check.REJECT
    if k == "sha3":
        return modes.sha3_digest(a["bits"], a["msg"], stats)
    if k == "sha3_batch":
        return modes.sha3_digest_batch(a["bits"], a["msgs"], stats)
    if k == "hmac":
        return modes.hmac_sha3(a["bits"], a["key"], a["msg"], stats)
    raise ValueError(f"unknown operation kind {k!r}")


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.payload = 0
        self.cycles = 0
        self.kernel = defaultdict(lambda: [0, 0])   # function -> [cmds, cycles]
        self.rounds = 0
        self.violations = 0

    def attempt(self, op: Op, tracer: Tracer | None = None,
                sampler: pace.Sampler | None = None):
        """Run, time and check one operation.  Returns (latency, outcome);
        the latency leaves out time the ``sampler`` spent, and
        ``self.window`` holds the operation's start and end."""
        stats = ExecutionStats()
        self.attempted += 1
        sampled = sampler.spent if sampler else 0.0
        start = perf_counter()
        try:
            if tracer is None:
                out, payload = execute(op, stats)
            else:
                out, payload = tracer.call("op", execute, op, stats)
        except Exception as exc:   # counted as a failed operation
            out, payload = None, 0
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
        end = perf_counter()
        self.window = (start, end)
        dur = end - start - ((sampler.spent if sampler else 0.0) - sampled)
        if out is None:
            return dur, None
        expect = check.reference(op)
        if out != expect:
            self.fail(op, "accepted a tampered input" if expect == check.REJECT
                       else "output differs from the reference")
        if op.kind == "paper_model":
            self.violations += out["violations"]
        self.payload += payload
        self.cycles += stats.cycles
        for name, fs in stats.per_function.items():
            acc = self.kernel[name]
            acc[0] += fs.commands
            acc[1] += fs.cycles
        return dur, out

    def fail(self, op: Op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.kind} ({op.payload} B): {why}")

    def warm_up(self, workload: str, seed: int) -> None:
        for op in warmup_ops(workload, seed):
            self.attempt(op)
        # Warm-up work is not part of the measured totals.
        self.payload = self.cycles = self.violations = 0
        self.kernel.clear()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with ``TAIL_SAMPLES`` samples
    above it, that percentile, and the number of samples above it.  A run
    with too few samples reports its maximum, with none above."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_SAMPLES:
        return s[-1], 100.0, 0
    return s[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n, TAIL_SAMPLES


def _rounds(workload: str, seed: int, seconds: float, tiny: bool,
            first: list[Op], body) -> int:
    """Call ``body(ops)`` for round after round; it returns the round's
    measured time, raw and at the reference speed.  Stops at the round
    boundary nearest to ``seconds`` at the reference speed, or once
    ``RAW_CAP`` times ``seconds`` have passed on a slow host; returns the
    number of rounds run."""
    raw, scaled, index, ops = 0.0, 0.0, 0, first
    while True:
        spent_raw, spent = body(ops)
        raw += spent_raw
        scaled += spent
        index += 1
        if scaled + spent / 2 >= seconds or raw >= RAW_CAP * seconds:
            return index
        ops = make_round(workload, seed, index, tiny)


def setup(workload: str, seed: int, tiny: bool = False) -> tuple[Run, list[Op]]:
    """Input generation for the first round, then the warm-up operations."""
    run = Run()
    first = make_round(workload, seed, 0, tiny)
    run.warm_up(workload, seed)
    return run, first


def setup_pace() -> float:
    """Scale factor for this process's set-up time, taken right after it."""
    return pace.factor([pace.reference_loop() for _ in range(5)])


def measure(workload: str, seed: int, seconds: float, tiny: bool = False):
    """Untraced run.  Returns (Run, end-to-end values, meta, the time set-up
    ended, its scale factor); ``setup_s`` is left to the caller, which owns
    the process start time."""
    run, first = setup(workload, seed, tiny)
    setup_done = perf_counter()
    setup_factor = setup_pace()
    wall: list[float] = []
    lat: list[float] = []

    def body(ops):
        n = len(wall)
        for op in ops:
            dur, _ = run.attempt(op, sampler=sampler)
            wall.append(dur)
            lat.append(dur * sampler.factor(*run.window))
        return sum(wall[n:]), sum(lat[n:])

    with pace.Sampler() as sampler:
        run.rounds = _rounds(workload, seed, seconds, tiny, first, body)
    busy = sum(lat)
    tail_s, tail_pct, above = tail(lat)
    values = {
        "payload_kib_s": run.payload / 1024 / busy,
        "ops_s": len(lat) / busy,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "model_cycles_per_kib": run.cycles / (run.payload / 1024),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - run.failed / run.attempted,
    }
    meta = {"rounds": run.rounds, "latency_samples": len(lat),
            "latency_tail_pct": round(tail_pct, 2),
            "latency_tail_samples_above": above,
            "error_rate": run.failed / run.attempted,
            "measured_wall_s": sum(wall),
            "wall_payload_kib_s": run.payload / 1024 / sum(wall),
            "wall_latency_p50_ms": 1e3 * statistics.median(wall),
            "pace_factor": pace.factor(sampler.loops),
            "pace_samples": len(sampler.loops)}
    return run, values, meta, setup_done, setup_factor


def measure_traced(workload: str, seed: int, seconds: float,
                   tiny: bool = False):
    """Traced run.  Returns (Run, per-layer values, meta, tracer)."""
    run, first = setup(workload, seed, tiny)
    tracer = Tracer()
    times = {"untraced": 0.0, "traced": 0.0}
    disagreements = 0

    def traced_attempt(op: Op):
        nonlocal disagreements
        tracer.install()
        try:
            tracer.op_id = run.attempted
            dur, out = run.attempt(op, tracer)
            if op.kind == "paper_model":   # it has no oracle counterpart
                return dur
            try:
                want = tracer.call("oracle", check.oracle, op, oracle_mod)
            except Exception as exc:   # counted as a failed check
                want = f"raised {type(exc).__name__}: {exc}"
            if out is not None and want != out:
                disagreements += 1
                run.fail(op, "pimcrypt.oracle disagrees")
            return dur
        finally:
            tracer.uninstall()

    def body(ops):
        spent = 0.0
        for i, op in enumerate(ops):
            # Alternate which of the pair runs first, so that neither
            # gains from running second.
            if i % 2:
                traced = traced_attempt(op)
                untraced = run.attempt(op)[0]
            else:
                untraced = run.attempt(op)[0]
                traced = traced_attempt(op)
            times["untraced"] += untraced
            times["traced"] += traced
            spent += untraced + traced
        return spent, spent

    run.rounds = _rounds(workload, seed, seconds, tiny, first, body)
    values = layer_values(tracer, run, times)
    meta = {"rounds": run.rounds, "operations_traced": run.rounds * len(first),
            "spans": len(tracer.spans), "oracle_disagreements": disagreements,
            "traced_s": times["traced"], "untraced_s": times["untraced"]}
    return run, values, meta, tracer


def layer_values(tracer: Tracer, run: Run, times: dict) -> dict:
    per = 1.0 / run.rounds
    # Only the traced half of each round is counted in the kernel totals.
    kernel_per = per / 2
    calls, self_s, fab = tracer.calls, tracer.self_s, tracer.fabric
    v = {
        "fabric.run.calls": fab["calls"] * per,
        "fabric.run.s": fab["s"] * per,
        "fabric.commands": fab["commands"] * per,
        "fabric.cycles": fab["cycles"] * per,
        "fabric.us_per_cmd": (1e6 * fab["s"] / fab["commands"]
                              if fab["commands"] else 0.0),
        "controller.validate.calls": calls["controller.validate"] * per,
        "controller.validate.s": self_s["controller.validate"] * per,
        "controller.run.calls": calls["controller.run"] * per,
        "controller.run.self_s": self_s["controller.run"] * per,
        "modes.calls": calls["modes"] * per,
        "modes.self_s": self_s["modes"] * per,
        "harness.self_s": self_s["op"] * per,
        "oracle.calls": calls["oracle"] * per,
        "oracle.s": self_s["oracle"] * per,
        "perfmodel.violations": run.violations * kernel_per,
        "aes.tile_occupancy": tracer.occupancy_ratio("aes"),
        "ghash.queue_occupancy": tracer.occupancy_ratio("ghash"),
        "sha3.lane_occupancy": tracer.occupancy_ratio("sha3"),
    }
    for name in ("build.aes", "build.sha3", "build.ghash", "circuits.schedule"):
        v[f"{name}.calls"] = calls[name] * per
        v[f"{name}.s"] = self_s[name] * per
    for kind in HOST_ACTION_KINDS:
        v[f"hostio.{kind}.calls"] = calls[f"hostio.{kind}"] * per
        v[f"hostio.{kind}.s"] = self_s[f"hostio.{kind}"] * per
    for fn in ("measure_kernels", "calibrate", "compare_to_paper"):
        v[f"perfmodel.{fn}.s"] = self_s[f"perfmodel.{fn}"] * per
    for fn in KERNEL_FUNCTIONS:
        cmds, cycles = run.kernel.get(fn, (0, 0))
        v[f"kernel.{fn}.commands"] = cmds * kernel_per
        v[f"kernel.{fn}.cycles"] = cycles * kernel_per
    # Every layer's self time together against the traced operations'
    # root spans: 1.0 when the layers account for all operation time.
    op_spans = sum(end - start for _, name, start, end, *_ in tracer.spans
                   if name == "op")
    layer_s = sum(val for key, val in v.items()
                  if key.endswith((".s", ".self_s")) and key != "oracle.s")
    v["trace.self_time_coverage"] = layer_s / (op_spans * per)
    v["trace.overhead"] = times["traced"] / times["untraced"]
    return v
