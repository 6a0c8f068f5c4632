"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload runs at a tiny size and prints exactly the
metric names ``BENCHMARK.json`` declares, that the generator is
deterministic, that modeled counts repeat exactly, that the traced
layers account for all traced operation time, and that a corrupted
output, an accepted tamper and an unexpected exception each count as a
failed operation without stopping the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

run.use_checkout_program()

import harness  # noqa: E402
from check import REJECT, reference  # noqa: E402
from pimcrypt.kernels import modes  # noqa: E402
from workloads import WORKLOADS, make_round  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def cli(workload: str, trace: int, seed: int = 1) -> dict:
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    expect(done.returncode == 0, f"{workload} trace={trace} exits 0")
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_prints_declared_metrics() -> None:
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = cli(workload, trace)
            declared = [m["name"] for m in SPEC[section]]
            expect(sorted(out) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace={trace} result keys")
            expect(list(out["metrics"]) == declared,
                   f"{workload} trace={trace} prints exactly the {section} names")
            expect(out["correct"] and out["failed"] == 0,
                   f"{workload} trace={trace} correct with no failures")
            if trace:
                cover = out["metrics"]["trace.self_time_coverage"]["value"]
                expect(abs(cover - 1) < 1e-6,
                       f"{workload} layer self times add up to op time "
                       f"({cover:.9f})")


def test_generator_is_seeded() -> None:
    for workload in WORKLOADS:
        a, b = make_round(workload, 7, 3), make_round(workload, 7, 3)
        expect(a == b, f"{workload} same seed gives the same inputs")
        shapes = sorted((op.kind, op.payload) for op in a)
        other = sorted((op.kind, op.payload) for op in make_round(workload, 8, 3))
        expect(shapes == other, f"{workload} every seed has the same shapes")
    expect(make_round("aead-bulk", 7, 3) != make_round("aead-bulk", 8, 3),
           "another seed gives other inputs")


def test_counts_repeat() -> None:
    for workload in ("chain-small", "hash-mix"):
        cycles = {harness.measure(workload, seed, 0, tiny=True)[1]
                  ["model_cycles_per_kib"] for seed in (1, 2)}
        expect(len(cycles) == 1, f"{workload} model cycles per KiB repeat")
        kernel = [dict(harness.measure_traced(workload, 1, 0, tiny=True)[1])
                  for _ in range(2)]
        same = all(kernel[0][k] == kernel[1][k] for k in kernel[0]
                   if k.startswith(("kernel.", "fabric.c")))
        expect(same, f"{workload} kernel and fabric counts repeat")


def _patched(name: str, fn):
    orig = getattr(modes, name)
    setattr(modes, name, fn(orig))
    return lambda: setattr(modes, name, orig)


def test_failures_are_counted() -> None:
    ops = make_round("aead-bulk", 1, 0, tiny=True)
    enc = next(op for op in ops if op.kind == "gcm_encrypt")
    bad = next(op for op in ops if reference(op) == REJECT)

    def corrupt(orig):
        def fn(*a, **k):
            out = orig(*a, **k)
            return bytes([out[0] ^ 1]) + out[1:]
        return fn

    def accept(orig):
        return lambda *a, **k: b"\0" * (len(a[3]) - 16)

    def explode(orig):
        def fn(*a, **k):
            raise KeyError("boom")
        return fn

    for name, wrap, op, why in (
            ("gcm_encrypt", corrupt, enc, "differs from the reference"),
            ("gcm_decrypt", accept, bad, "accepted a tampered input"),
            ("gcm_encrypt", explode, enc, "raised KeyError")):
        restore = _patched(name, wrap)
        try:
            r = harness.Run()
            r.attempt(op)
            r.attempt(op)
        finally:
            restore()
        expect(r.attempted == 2 and r.failed == 2 and why in r.failures[0],
               f"{wrap.__name__} {name} counts as a failure")

    restore = _patched("ctr_crypt", corrupt)
    try:
        r, values, meta, *_ = harness.measure("aead-bulk", 1, 0, tiny=True)
    finally:
        restore()
    expect(r.failed > 0 and r.attempted > r.failed and meta["rounds"] == 1,
           "a wrong output does not stop the run")
    expect(values["success_rate"] == 1 - r.failed / r.attempted,
           "success rate counts the failures")


if __name__ == "__main__":
    test_generator_is_seeded()
    test_failures_are_counted()
    test_counts_repeat()
    test_cli_prints_declared_metrics()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
