"""CLI behavior: exit codes, file IO, and asm/disasm identity."""

import hashlib
import inspect
import io
import json
import pathlib
import sys

import pytest

from pimcrypt import cli, isa, oracle, perfmodel
from pimcrypt.controller import HOST_ACTIONS
from pimcrypt.fabric import CycleCostModel, Subarray
from pimcrypt.kernels import aes, ghash, keccak, modes

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_counts.json").read_text())

KEY = "000102030405060708090a0b0c0d0e0f"
IV = "0f0e0d0c0b0a09080706050403020100"


def run(argv):
    return cli.main(argv)


def test_cbc_round_trip(tmp_path, rng):
    pt = tmp_path / "pt.bin"
    ct = tmp_path / "ct.bin"
    out = tmp_path / "out.bin"
    data = rng.randbytes(48)
    pt.write_bytes(data)
    assert run(["encrypt", "--mode", "cbc",
                "--key", KEY, "--iv", IV,
                "--in", str(pt), "--out", str(ct)]) == 0
    assert ct.read_bytes() == oracle.cbc_encrypt(
        bytes.fromhex(KEY), bytes.fromhex(IV), data)
    assert run(["decrypt", "--mode", "cbc",
                "--key", KEY, "--iv", IV,
                "--in", str(ct), "--out", str(out)]) == 0
    assert out.read_bytes() == data


def test_gcm_tamper_exit_code(tmp_path, rng):
    pt, ct = tmp_path / "pt.bin", tmp_path / "ct.bin"
    pt.write_bytes(rng.randbytes(32))
    nonce = "00" * 12
    assert run(["encrypt", "--mode", "gcm",
                "--key", KEY, "--iv", nonce,
                "--in", str(pt), "--out", str(ct)]) == 0
    blob = bytearray(ct.read_bytes())
    blob[-1] ^= 1
    ct.write_bytes(bytes(blob))
    assert run(["decrypt", "--mode", "gcm",
                "--key", KEY, "--iv", nonce,
                "--in", str(ct), "--out", str(tmp_path / "o")]
               ) == cli.MISMATCH_ERROR


def test_hash_known_digest(tmp_path, capsys):
    src = tmp_path / "msg.bin"
    src.write_bytes(b"")
    assert run(["hash", "--alg", "sha3-256", "--in", str(src)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == oracle.sha3(256, b"").hex()


def test_asm_disasm_identity(tmp_path, rng):
    words = [isa.CommandWord.rd_row(5), isa.CommandWord.shift(3, right=True),
             isa.CommandWord.act_row(127),
             isa.CommandWord.logic_op(9, isa.LogicKind.XOR),
             isa.CommandWord.wr_row(0)]
    blob = isa.to_bytes(words)
    binf, asmf, binf2 = (tmp_path / n for n in ("a.bin", "a.s", "b.bin"))
    binf.write_bytes(blob)
    assert run(["disasm", "--in", str(binf), "--out", str(asmf)]) == 0
    assert run(["asm", "--in", str(asmf), "--out", str(binf2)]) == 0
    assert binf2.read_bytes() == blob


def test_disasm_invalid_opcode(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00\x00")
    assert run(["disasm", "--in", str(bad),
                "--out", str(tmp_path / "o")]) == cli.USAGE_ERROR


def test_bad_key_is_usage_error(tmp_path):
    src = tmp_path / "pt.bin"
    src.write_bytes(bytes(16))
    assert run(["encrypt", "--mode", "cbc",
                "--key", "zz", "--iv", IV, "--in", str(src),
                "--out", str(tmp_path / "o")]) == cli.USAGE_ERROR


def test_missing_input_is_io_error(tmp_path):
    assert run(["hash", "--alg", "sha3-256",
                "--in", str(tmp_path / "nope.bin")]) == cli.IO_ERROR


def test_no_verify_identical_output(tmp_path, rng):
    pt = tmp_path / "pt.bin"
    pt.write_bytes(rng.randbytes(32))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    common = ["encrypt", "--mode", "ctr",
              "--key", KEY * 2, "--iv", IV, "--in", str(pt)]
    assert run(common + ["--out", str(a)]) == 0
    assert run(common + ["--out", str(b), "--no-verify"]) == 0
    assert a.read_bytes() == b.read_bytes()


MODE_ARGS = {"ecb": [], "cbc": ["--iv", IV], "ctr": ["--iv", IV],
             "ccm": ["--iv", "00" * 12, "--aad", "abcd"],
             "gcm": ["--iv", "00" * 12, "--aad", "abcd"]}


@pytest.mark.parametrize("argv", [
    [command, "--mode", mode, "--key", KEY, *MODE_ARGS[mode]]
    for command in ("encrypt", "decrypt") for mode in MODE_ARGS] + [
    ["hash", "--alg", "sha3-256"],
    ["hmac", "--alg", "sha3-256", "--key", KEY]],
    ids=lambda argv: " ".join(argv[:3]))
def test_no_verify_runs_no_oracle_function(tmp_path, monkeypatch, argv):
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(bytes(range(48)))
    if argv[0] == "decrypt":
        # Decrypt a sealed message, so CCM's and GCM's tags check.
        assert run(["encrypt", *argv[1:], "--in", str(src),
                    "--out", str(out)]) == 0
        src.write_bytes(out.read_bytes())

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle function ran")
    for name, value in vars(oracle).items():
        if inspect.isfunction(value):
            monkeypatch.setattr(oracle, name, refuse)
    argv += ["--in", str(src), "--out", str(out)]
    assert run(argv + ["--no-verify"]) == 0
    with pytest.raises(AssertionError, match="oracle function ran"):
        run(argv)


def test_trace_emits_records(tmp_path, capsys):
    assert run(["trace", "--alg", "aes-128-encrypt"]) == 0
    out = capsys.readouterr().out
    assert "act_row" in out or "rd_row" in out


@pytest.mark.parametrize("alg", ["aes-128-encrypt", "aes-256-decrypt",
                                 "sha3-384", "hmac-sha3-256", "ghash"])
def test_trace_shows_the_measured_pass(tmp_path, alg):
    # the pass `bench` measures, on the reference interpreter
    out = tmp_path / "trace.txt"
    assert run(["trace", "--alg", alg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == (f"# {len(lines) - 1} commands, "
                         f"{GOLDEN['cycles'][alg]} cycles")


def test_trace_accepts_exactly_the_measured_kernels(capsys):
    assert run(["trace", "--alg", "sha3-100"]) == cli.USAGE_ERROR
    names = capsys.readouterr().err.split("one of ")[1].strip().split(", ")
    assert names == list(perfmodel.kernel_passes()) == list(GOLDEN["cycles"])
    assert names == list(GOLDEN["trace_sha256"])


def test_bench_json(capsys):
    assert run(["bench", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] and all(r["ok"] is True for r in payload["rows"])
    assert sorted(payload["calibration"]) == ["aes", "ghash", "sha3"]


@pytest.mark.parametrize("mode,iv", [("gcm", "00" * 12), ("ccm", "00" * 13)])
def test_bad_aad_is_usage_error(tmp_path, mode, iv):
    src = tmp_path / "pt.bin"
    src.write_bytes(bytes(16))
    assert run(["encrypt", "--mode", mode, "--key", KEY, "--iv", iv,
                "--aad", "zz", "--in", str(src),
                "--out", str(tmp_path / "o")]) == cli.USAGE_ERROR


def test_empty_gcm_iv_is_usage_error(tmp_path):
    src = tmp_path / "pt.bin"
    src.write_bytes(bytes(16))
    assert run(["encrypt", "--mode", "gcm", "--key", KEY, "--iv", "",
                "--in", str(src), "--out", str(tmp_path / "o")]
               ) == cli.USAGE_ERROR


@pytest.mark.parametrize("command,extra", [("encrypt", 0), ("decrypt", 16)])
def test_overlong_ccm_message_is_usage_error(tmp_path, command, extra):
    # a 13-byte nonce leaves a 2-byte length field: messages < 65536 bytes
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(65536 + extra))
    assert run([command, "--mode", "ccm", "--key", KEY, "--iv", "00" * 13,
                "--in", str(src), "--out", str(tmp_path / "o")]
               ) == cli.USAGE_ERROR


# Inputs the front end and the kernels reject: a command line exits 2
# (the modes' ValueError for a partial block is the usage error) and a
# library call raises ValueError.
@pytest.mark.parametrize("case", [
    ["encrypt", "--mode", "ecb", "--key", KEY],
    ["decrypt", "--mode", "ecb", "--key", KEY],
    ["encrypt", "--mode", "cbc", "--key", KEY, "--iv", IV],
    ["decrypt", "--mode", "cbc", "--key", KEY, "--iv", IV],
    ["hash", "--alg", "sha3-100"],
    ["hmac", "--alg", "sha3-100", "--key", KEY],
    ["encrypt", "--mode", "ctr", "--iv", IV],
    ["encrypt", "--mode", "ctr", "--key", KEY, "--iv", "00" * 8],
    ["disasm"],
    lambda: modes.ecb_crypt(bytes(16), bytes(15)),
    lambda: aes.build_aes_program(192, "encrypt"),
    lambda: aes.build_aes_program(128.0, "encrypt"),
    lambda: ghash.build_ghash_program(0),
    lambda: ghash.build_ghash_program(9),
    lambda: ghash.build_ghash_program(8, 1),
    lambda: ghash.stage([bytes(16)], [[bytes(16)]], final="no"),
    lambda: keccak.build_sha3_program(100),
    lambda: keccak.build_sha3_program(256, "yes"),
    lambda: keccak.build_sha3_program(256, first=1),
    lambda: keccak.build_sha3_program(256, final=None),
    lambda: HOST_ACTIONS["aes_load"](Subarray(block_width=aes.BLOCK_WIDTH),
                                     {"blocks": [bytes(16)] * 17}),
], ids=["ecb-encrypt", "ecb-decrypt", "cbc-encrypt", "cbc-decrypt",
        "hash-alg", "hmac-alg", "missing-key", "8-byte-ctr-iv",
        "odd-length-disasm", "ecb_crypt", "aes-192", "aes-float-variant",
        "ghash-0-blocks", "ghash-9-blocks", "ghash-int-final",
        "ghash-stage-str-final", "sha3-100", "sha3-str-key-prep",
        "sha3-int-first", "sha3-none-final",
        "aes_load-17-blocks"])
def test_rejected_inputs(case, tmp_path):
    if callable(case):
        with pytest.raises(ValueError):
            case()
        return
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(15))
    assert run(case + ["--in", str(src), "--out", str(tmp_path / "o")]
               ) == cli.USAGE_ERROR


@pytest.mark.parametrize("argv", [
    ["trace", "--alg", "ghash", "--cycles-per-command", "-5"],
    ["trace", "--alg", "ghash", "--cycles-per-command", "0"],
    ["bench", "--cycles-per-command", "-5"],
    ["bench", "--calibration", "0"],
    ["bench", "--calibration", "-1"],
    ["bench", "--calibration", "nan"],
    ["bench", "--calibration", "inf"],
])
def test_bad_cost_or_calibration_is_usage_error(argv, capsys):
    assert run(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().out == ""


def test_bench_uses_the_given_calibration(capsys):
    assert run(["bench", "--format", "json", "--calibration", "2.5"]) in (
        0, cli.MISMATCH_ERROR)
    payload = json.loads(capsys.readouterr().out)
    assert payload["calibration"] == {"aes": 2.5, "sha3": 2.5, "ghash": 2.5}


@pytest.mark.parametrize("argv", [
    ["trace", "--in", "x"],
    ["trace", "--no-verify"],
    ["bench", "--in", "x"],
    ["bench", "--no-verify"],
    ["asm", "--no-verify"],
    ["disasm", "--no-verify"],
    ["trace", "--trace", "0"],
    ["trace", "--trace", "7"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == cli.USAGE_ERROR
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode", ["run0", "sleep"])
def test_bench_json_rejects_a_power_mode(mode, capsys):
    assert run(["bench", "--format", "json", "--power-mode", mode]
               ) == cli.USAGE_ERROR
    assert capsys.readouterr().out == ""


def test_asm_of_non_utf8_input_is_usage_error(tmp_path):
    src = tmp_path / "bad.s"
    src.write_bytes(b"rd_row 1\n\xff\xfe\n")
    assert run(["asm", "--in", str(src),
                "--out", str(tmp_path / "o")]) == cli.USAGE_ERROR


def test_hmac_matches_hashlib(tmp_path, capsys):
    import hashlib
    import hmac
    src = tmp_path / "msg.bin"
    src.write_bytes(b"the message")
    assert run(["hmac", "--alg", "sha3-384", "--key", KEY,
                "--in", str(src)]) == 0
    assert capsys.readouterr().out.strip() == hmac.new(
        bytes.fromhex(KEY), b"the message", hashlib.sha3_384).hexdigest()


def test_ecb_round_trip_matches_cryptography(tmp_path, rng):
    from cryptography.hazmat.primitives.ciphers import (Cipher, algorithms,
                                                        modes)
    pt, ct, out = (tmp_path / n for n in ("pt.bin", "ct.bin", "out.bin"))
    data = rng.randbytes(48)
    pt.write_bytes(data)
    assert run(["encrypt", "--mode", "ecb", "--key", KEY * 2,
                "--in", str(pt), "--out", str(ct)]) == 0
    enc = Cipher(algorithms.AES(bytes.fromhex(KEY * 2)), modes.ECB())
    enc = enc.encryptor()
    assert ct.read_bytes() == enc.update(data) + enc.finalize()
    assert run(["decrypt", "--mode", "ecb", "--key", KEY * 2,
                "--in", str(ct), "--out", str(out)]) == 0
    assert out.read_bytes() == data


def test_ccm_round_trip_matches_cryptography(tmp_path, rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESCCM
    pt, ct, out = (tmp_path / n for n in ("pt.bin", "ct.bin", "out.bin"))
    data, nonce, aad = rng.randbytes(40), "0a" * 11, "ad" * 5
    pt.write_bytes(data)
    common = ["--mode", "ccm", "--key", KEY, "--iv", nonce, "--aad", aad]
    assert run(["encrypt", *common, "--in", str(pt), "--out", str(ct)]) == 0
    assert ct.read_bytes() == AESCCM(bytes.fromhex(KEY)).encrypt(
        bytes.fromhex(nonce), data, bytes.fromhex(aad))
    assert run(["decrypt", *common, "--in", str(ct), "--out", str(out)]) == 0
    assert out.read_bytes() == data


@pytest.mark.parametrize("iv_bytes", [12, 8])
def test_gcm_round_trip_matches_cryptography(tmp_path, rng, iv_bytes):
    # The decryption succeeds, so its output is cross-checked against
    # the oracle before it is written.
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    pt, ct, out = (tmp_path / n for n in ("pt.bin", "ct.bin", "out.bin"))
    data, iv, aad = rng.randbytes(70), rng.randbytes(iv_bytes).hex(), "ad" * 9
    pt.write_bytes(data)
    common = ["--mode", "gcm", "--key", KEY, "--iv", iv, "--aad", aad]
    assert run(["encrypt", *common, "--in", str(pt), "--out", str(ct)]) == 0
    assert ct.read_bytes() == AESGCM(bytes.fromhex(KEY)).encrypt(
        bytes.fromhex(iv), data, bytes.fromhex(aad))
    assert run(["decrypt", *common, "--in", str(ct), "--out", str(out)]) == 0
    assert out.read_bytes() == data


def test_input_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"abc")))
    assert run(["hash", "--alg", "sha3-256", "--in", "-"]) == 0
    assert capsys.readouterr().out.strip() == hashlib.sha3_256(
        b"abc").hexdigest()


def test_output_in_a_missing_directory_is_io_error(tmp_path):
    src = tmp_path / "msg.bin"
    src.write_bytes(b"abc")
    assert run(["hash", "--in", str(src),
                "--out", str(tmp_path / "nope" / "o")]) == cli.IO_ERROR


def test_bench_text_names_every_measured_kernel(capsys):
    assert run(["bench"]) == 0
    out = capsys.readouterr().out
    tables = out.split("-- modeled throughput")[1:]
    assert len(tables) == 3
    for table in tables:
        names = [line.split()[0] for line in table.splitlines()[1:]]
        assert names == list(perfmodel.kernel_passes())


# SHA-256 of what `bench --format json` writes under each cost model:
# every row's label, value, reference, delta and verdict, byte for byte.
BENCH_JSON_SHA256 = {
    1: "300b2afb3cc44f77e820588347e21b40c98e29c279ad5552387f224cfbfe7616",
    2: "0a3e25c74869426ee603cbaefa3e6e6c62165ad005cef8130c415b51b1415474",
}


@pytest.mark.parametrize("cycles_per_command", list(BENCH_JSON_SHA256))
def test_bench_json_is_pinned(tmp_path, cycles_per_command):
    out = tmp_path / "bench.json"
    assert run(["bench", "--format", "json", "--cycles-per-command",
                str(cycles_per_command), "--out", str(out)]) == 0
    ms = perfmodel.measure_kernels(CycleCostModel(cycles_per_command))
    report = perfmodel.compare_to_paper(ms, perfmodel.calibrate(ms))
    assert out.read_bytes() == json.dumps(report.to_dict(),
                                          indent=2).encode()
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == BENCH_JSON_SHA256[cycles_per_command])


@pytest.mark.parametrize("alg", list(GOLDEN["trace_sha256"]))
def test_every_traced_command_stream_and_latch_is_pinned(alg):
    # What `trace --trace 2` prints per command: word, cycles and latch.
    records = []
    perfmodel.kernel_passes()[alg].trace(CycleCostModel(), records)
    digest = hashlib.sha256()
    for rec in records:
        digest.update(f"{rec.word:04x} {rec.cycles} {rec.latch:064x}\n"
                      .encode())
    assert digest.hexdigest() == GOLDEN["trace_sha256"][alg]


def test_trace_2_adds_a_latch_snapshot_per_command(tmp_path):
    out = tmp_path / "trace.txt"
    assert run(["trace", "--alg", "ghash", "--trace", "2",
                "--out", str(out)]) == 0
    *records, summary = out.read_text().splitlines()
    assert summary.startswith(f"# {len(records)} commands")
    assert all(" latch=" in line and len(line.split("latch=")[1]) == 64
               for line in records)


def test_fabric_and_oracle_disagreeing_exits_1(tmp_path, monkeypatch, capsys):
    src = tmp_path / "msg.bin"
    src.write_bytes(b"abc")
    monkeypatch.setattr(oracle, "sha3", lambda bits, msg: bytes(bits // 8))
    assert run(["hash", "--alg", "sha3-256", "--in", str(src)]
               ) == cli.MISMATCH_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "mismatch" in captured.err
