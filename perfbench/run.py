"""Host-time benchmark of the pimcrypt simulator.

    python3 perfbench/run.py --workload aead-bulk --seed 1 --seconds 17 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before it holds the run's metadata, and a readable table goes to
standard error.  The full result, and the spans of a traced run, are
written under ``perfbench/out/``.
"""

from time import perf_counter

T0 = perf_counter()   # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("aead-bulk", "chain-small", "hash-mix", "paper-model")
SETUP_PROBES = 2      # extra fresh-process set-ups, besides this process's


def use_checkout_program() -> None:
    """Import ``pimcrypt`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pimcrypt
    where = Path(pimcrypt.__file__).resolve().parent
    if where != src / "pimcrypt":
        raise ImportError(f"pimcrypt was imported from {where}, not {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time")
    p.add_argument("--tiny", action="store_true",
                   help="cap message lengths (used by the self-test)")
    return p.parse_args(argv)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(args) -> float | None:
    """Set-up time of a fresh process, or None if the probe failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        return None
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"] if probe["failed"] == 0 else None


def metadata(args) -> dict:
    import cryptography
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cryptography": cryptography.__version__,
            "git_commit": git_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        use_checkout_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.setup_probe:
        run, _ = harness.setup(args.workload, args.seed)
        setup_s = perf_counter() - T0
        print(json.dumps({"setup_s": setup_s * harness.setup_pace(),
                          "failed": run.failed}))
        return 0

    meta = metadata(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run, values, run_meta, tracer = harness.measure_traced(
            args.workload, args.seed, args.seconds, args.tiny)
        tracer.dump(OUT / f"{stem}.spans.jsonl")
        declared = spec["per_layer"]
    else:
        run, values, run_meta, setup_done, setup_factor = harness.measure(
            args.workload, args.seed, args.seconds, args.tiny)
        setups = [(setup_done - T0) * setup_factor]
        for _ in range(SETUP_PROBES):
            probe = probe_setup(args)
            if probe is None:
                run.attempted += 1
                run.fail(harness.Op("setup_probe", {}, 0), "set-up probe failed")
            else:
                setups.append(probe)
        values["setup_s"] = statistics.median(setups)
        run_meta["setup_samples_s"] = setups
        declared = spec["end_to_end"]
    meta.update(run_meta)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "meta": meta, "failures": run.failures}, indent=1))

    notes = {} if args.trace else {
        "latency_p50_ms": f"{meta['latency_samples']} samples",
        "latency_tail_ms": f"p{meta['latency_tail_pct']}, "
                           f"{meta['latency_tail_samples_above']} samples above",
        "success_rate": f"error_rate {meta['error_rate']}"}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:12s} "
              f"{notes.get(name, '')}", file=sys.stderr)
    for why in run.failures:
        print(f"FAILED {why}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
