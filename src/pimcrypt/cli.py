"""Command-line front end.

Crypto subcommands run on the simulated fabric and, by default, verify
every output against the independent reference implementation (exit 1
on any mismatch).  ``bench`` reproduces the embedded baseline tables;
``asm``/``disasm`` expose the ISA tooling, and ``trace`` shows command by
command the representative pass ``bench`` measures.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

from . import oracle, perfmodel
from .fabric import CycleCostModel
from .isa import (AsmError, InvalidOpcode, assemble, disassemble, from_bytes,
                  to_bytes)
from .kernels import keccak, modes

USAGE_ERROR, MISMATCH_ERROR, IO_ERROR = 2, 1, 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str | None) -> bytes:
    try:
        if path in (None, "-"):
            return sys.stdin.buffer.read()
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", IO_ERROR)


def _write(path: str | None, data: bytes) -> None:
    try:
        if path in (None, "-"):
            sys.stdout.buffer.write(data)
        else:
            with open(path, "wb") as fh:
                fh.write(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", IO_ERROR)


def _hex(value: str | None, name: str, lengths: tuple[int, ...] = ()) -> bytes:
    if value is None:
        raise CliError(f"--{name} is required", USAGE_ERROR)
    try:
        data = bytes.fromhex(value)
    except ValueError:
        raise CliError(f"--{name} must be hex", USAGE_ERROR)
    if lengths and len(data) not in lengths:
        raise CliError(f"--{name} must be {' or '.join(map(str, lengths))} "
                       f"bytes, got {len(data)}", USAGE_ERROR)
    return data


def _verify(label: str, got: bytes, reference, enabled: bool) -> None:
    """Compare ``got`` with ``reference()``, called only when enabled."""
    if enabled and got != reference():
        raise CliError(f"{label}: fabric/reference mismatch", MISMATCH_ERROR)


# ---------------------------------------------------------------------------
# Crypto subcommands
# ---------------------------------------------------------------------------

# The IV or nonce lengths each mode that takes one accepts (any for GCM).
_IV_LENGTHS = {"cbc": (16,), "ctr": (16,), "ccm": tuple(range(7, 14)),
               "gcm": ()}


def cmd_encrypt(args, decrypt: bool = False) -> int:
    data = _read(args.infile)
    key = _hex(args.key, "key", (16, 32))
    mode = args.mode
    direction = "decrypt" if decrypt else "encrypt"
    if mode == "ecb":
        block = getattr(oracle, f"aes_{direction}_block")
        run = partial(modes.ecb_crypt, key, data, direction)

        def reference():
            return b"".join(block(key, data[i:i + 16])
                            for i in range(0, len(data), 16))
    else:
        params = [_hex(args.iv, "iv", _IV_LENGTHS[mode])]
        if mode in ("ccm", "gcm"):
            params.append(_hex(args.aad or "", "aad"))
        name = "ctr_crypt" if mode == "ctr" else f"{mode}_{direction}"
        run = partial(getattr(modes, name), key, *params, data)
        reference = partial(getattr(oracle, name), key, *params, data)
    try:
        out = run()
        _verify(f"aes-{len(key)*8}-{mode}", out, reference,
                not args.no_verify)
    except (modes.TagMismatch, oracle.TagMismatch) as exc:
        raise CliError(str(exc), MISMATCH_ERROR)
    except ValueError as exc:      # parameters the mode rejects
        raise CliError(str(exc), USAGE_ERROR)
    _write(args.outfile, out)
    return 0


def cmd_decrypt(args) -> int:
    return cmd_encrypt(args, decrypt=True)


def _sha3_bits(alg: str) -> int:
    try:
        prefix, bits = alg.rsplit("-", 1)
        if prefix != "sha3":
            raise ValueError
        bits = int(bits)
        keccak.rate(bits)
        return bits
    except ValueError:
        raise CliError(f"--alg must be sha3-{{224,256,384,512}}, got {alg}",
                       USAGE_ERROR)


def cmd_hash(args) -> int:
    bits = _sha3_bits(args.alg)
    msg = _read(args.infile)
    out = modes.sha3_digest(bits, msg)
    _verify(args.alg, out, partial(oracle.sha3, bits, msg), not args.no_verify)
    _write(args.outfile, out.hex().encode() + b"\n")
    return 0


def cmd_hmac(args) -> int:
    bits = _sha3_bits(args.alg)
    key = _hex(args.key, "key")
    msg = _read(args.infile)
    out = modes.hmac_sha3(bits, key, msg)
    _verify(f"hmac-{args.alg}", out, partial(oracle.hmac_sha3, bits, key, msg),
            not args.no_verify)
    _write(args.outfile, out.hex().encode() + b"\n")
    return 0


# ---------------------------------------------------------------------------
# Tooling subcommands
# ---------------------------------------------------------------------------

def cmd_asm(args) -> int:
    try:
        cmds = assemble(_read(args.infile).decode())
    except (AsmError, UnicodeDecodeError) as exc:
        raise CliError(str(exc), USAGE_ERROR)
    _write(args.outfile, to_bytes(cmds))
    return 0


def cmd_disasm(args) -> int:
    data = _read(args.infile)
    if len(data) % 2:
        raise CliError("binary command stream has odd length", USAGE_ERROR)
    cmds = []
    for off in range(0, len(data), 2):
        try:
            cmds += from_bytes(data[off:off + 2])
        except InvalidOpcode as exc:
            raise CliError(f"offset {off}: {exc}", USAGE_ERROR)
    _write(args.outfile, disassemble(cmds).encode())
    return 0


def _cost(args) -> CycleCostModel:
    try:
        return CycleCostModel(args.cycles_per_command)
    except ValueError as exc:
        raise CliError(f"--cycles-per-command: {exc}", USAGE_ERROR)


def cmd_trace(args) -> int:
    passes = perfmodel.kernel_passes()
    if args.alg not in passes:
        raise CliError(f"--alg must be one of {', '.join(passes)}",
                       USAGE_ERROR)
    records = []
    stats = passes[args.alg].trace(_cost(args), records)
    lines = []
    for i, rec in enumerate(records):
        line = (f"{i:6d}  {rec.word:04x}  {rec.text.strip():<24} "
                f"{rec.cycles:4d}")
        if args.trace > 1:
            line += f"  latch={rec.latch:064x}"
        lines.append(line)
    lines.append(f"# {len(records)} commands, {stats.cycles} cycles")
    _write(args.outfile, ("\n".join(lines) + "\n").encode())
    return 0


def cmd_bench(args) -> int:
    cost = _cost(args)
    if args.calibration is not None and not (
            math.isfinite(args.calibration) and args.calibration > 0):
        raise CliError(f"--calibration must be a positive number, got "
                       f"{args.calibration}", USAGE_ERROR)
    ms = perfmodel.measure_kernels(cost)
    cal = ({"aes": args.calibration, "sha3": args.calibration,
            "ghash": args.calibration} if args.calibration is not None
           else perfmodel.calibrate(ms))
    report = perfmodel.compare_to_paper(ms, cal)
    if args.format == "json":
        if args.power_mode is not None:
            raise CliError("--power-mode applies to the text format only",
                           USAGE_ERROR)
        _write(args.outfile, json.dumps(report.to_dict(), indent=2).encode())
    else:
        lines = [report.to_text()]
        for frac in (0.25, 0.5, 1.0):
            config = perfmodel.FabricConfig(isc_fraction=frac, calibration=cal)
            mode = perfmodel.POWER_MODES[args.power_mode or "run0"]
            lines.append(f"-- modeled throughput @{int(frac*100)}% "
                         f"{mode.name} (MB/s) --")
            for name, m in ms.items():
                tput = perfmodel.throughput(m, config, mode)
                lines.append(f"  {name:<20} {tput/1e6:10.3f}")
        _write(args.outfile, ("\n".join(lines) + "\n").encode())
    return 0 if not report.violations else MISMATCH_ERROR


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pimcrypt",
        description="in-SRAM crypto fabric simulator and kernel compiler")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, infile=True, verify=True, key=False, iv=False,
               aad=False, alg=None, mode=False):
        if infile:
            sp.add_argument("--in", dest="infile",
                            help="input file (- = stdin)")
        sp.add_argument("--out", dest="outfile",
                        help="output file (- = stdout)")
        if verify:
            sp.add_argument("--no-verify", action="store_true",
                            help="skip oracle cross-check")
        if alg is not None:
            sp.add_argument("--alg", default=alg)
        if mode:
            sp.add_argument("--mode", default="cbc",
                            choices=["ecb", "cbc", "ctr", "ccm", "gcm"])
        if key:
            sp.add_argument("--key", help="key (hex)")
        if iv:
            sp.add_argument("--iv", help="IV / nonce / counter (hex)")
        if aad:
            sp.add_argument("--aad", help="additional data (hex)")
        return sp

    common(sub.add_parser("encrypt"), key=True, iv=True, aad=True, mode=True)
    common(sub.add_parser("decrypt"), key=True, iv=True, aad=True, mode=True)
    common(sub.add_parser("hash"), alg="sha3-256")
    common(sub.add_parser("hmac"), alg="sha3-256", key=True)
    common(sub.add_parser("asm"), verify=False)
    common(sub.add_parser("disasm"), verify=False)
    tr = common(sub.add_parser("trace"), infile=False, verify=False,
                alg="aes-128-encrypt")
    tr.add_argument("--trace", type=int, default=1, choices=(1, 2),
                    help="1 = commands, 2 = with latch snapshots")
    tr.add_argument("--cycles-per-command", type=int, default=1)
    be = common(sub.add_parser("bench"), infile=False, verify=False)
    be.add_argument("--power-mode", choices=list(perfmodel.POWER_MODES),
                    help="operating point of the text tables (default run0)")
    be.add_argument("--cycles-per-command", type=int, default=1)
    be.add_argument("--calibration", type=float, default=None,
                    help="override the fitted per-family calibration")
    be.add_argument("--format", default="text", choices=["text", "json"])
    return p


_COMMANDS = {"encrypt": cmd_encrypt, "decrypt": cmd_decrypt,
             "hash": cmd_hash, "hmac": cmd_hmac, "asm": cmd_asm,
             "disasm": cmd_disasm, "trace": cmd_trace, "bench": cmd_bench}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"pimcrypt: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
