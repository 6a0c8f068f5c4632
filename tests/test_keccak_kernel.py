"""Fabric SHA3/Keccak vs the independent oracle, plus structural properties."""

import hashlib
from array import array

import pytest

from pimcrypt import controller, oracle, perfmodel
from pimcrypt.fabric import Subarray
from pimcrypt.isa import Opcode
from pimcrypt.kernels import keccak, modes


@pytest.mark.parametrize("bits", [224, 256, 384, 512])
def test_digest_vs_oracle(bits, rng):
    rate = keccak.RATE_BYTES[bits]
    for n in [0, 1, rate - 1, rate, 2 * rate + 5]:
        msg = rng.randbytes(n)
        assert modes.sha3_digest(bits, msg) == oracle.sha3(bits, msg)


def test_four_lane_batch_independent(rng):
    # every sponge lane's digest, read back at every output size
    for bits in keccak.RATE_BYTES:
        msgs = [rng.randbytes(40) for _ in range(4)]
        outs = modes.sha3_digest_batch(bits, msgs)
        assert outs == [oracle.sha3(bits, m) for m in msgs]
        assert outs == [hashlib.new(f"sha3_{bits}", m).digest() for m in msgs]


def _stage_by_bit(padded, rate):
    """Reference for keccak._stage_blocks: one bit per loop step, bit b
    of byte i of message s at column 64s + 8(i mod 8) + b of row i div 8;
    segments past the messages repeat the first."""
    rows = [0] * (len(padded[0]) // 8)
    for s, msg in enumerate(padded + [padded[0]] * (4 - len(padded))):
        for i, byte in enumerate(msg):
            for b in range(8):
                if byte >> b & 1:
                    rows[i // 8] |= 1 << (64 * s + 8 * (i % 8) + b)
    lanes = rate // 8
    return [rows[i:i + lanes] for i in range(0, len(rows), lanes)]


@pytest.mark.parametrize("bits", [224, 256, 384, 512])
def test_staging_matches_bit_loops(bits, rng):
    rate = keccak.RATE_BYTES[bits]
    for count in range(1, 5):
        for n in (0, rate, 2 * rate + 5):        # 1, 2 and 3 blocks
            padded = [keccak.pad_sha3(rng.randbytes(n), rate)
                      for _ in range(count)]
            assert keccak._stage_blocks(padded, rate) == \
                _stage_by_bit(padded, rate)


@pytest.mark.parametrize("bits", [256, 512])
def test_hmac_vs_oracle(bits, rng):
    for klen in [0, 16, keccak.RATE_BYTES[bits], 200]:
        key, msg = rng.randbytes(klen), rng.randbytes(91)
        assert modes.hmac_sha3(bits, key, msg) == oracle.hmac_sha3(
            bits, key, msg)


def test_pi_costs_zero_commands():
    # The lane permutation is absorbed into the rotation step's write
    # destinations: it contributes no commands of its own.
    cmds, mapping = keccak.gen_pi()
    assert cmds == []
    assert mapping[(1, 0)] == (0, 2)
    assert sorted(mapping.values()) == sorted(mapping.keys())
    # Rotation+permute step: each of the 24 rotated lanes takes two
    # shift legs (rotate = right-shift part OR'd with left-shift part);
    # the unrotated origin lane and the cycle-closing spill add the rest.
    rho = keccak.gen_rho_pi()
    assert sum(c.opcode is Opcode.SHIFT for c in rho) == 2 * 24


# Round step command counts. [DERIVED]
def test_round_command_counts():
    assert len(keccak.gen_theta()) == 205
    assert len(keccak.gen_rho_pi()) == 218
    assert len(keccak.gen_chi()) == 245
    iota, strides = keccak.gen_iota()
    assert len(iota) == 3
    assert len(strides) == 1
    total = 205 + 218 + 245 + 3
    assert total == 671


def test_permute_function_count():
    prog = keccak.build_sha3_program(256)
    assert prog.functions["StatePermute"].count == 671
    # 24 rounds scheduled per absorbed block
    rounds = sum(i.iterations for i in prog.schedule
                 if i.function == "StatePermute")
    assert rounds == 24


def _absorbed(runs):
    """The digests the staged runs of one sponge leave."""
    sub = Subarray(block_width=keccak.BLOCK_WIDTH)
    for ctrl, env in runs:
        ctrl.run(sub, env)
    return env[controller.OUTPUT]


def test_stage_returns_one_run_per_block():
    rate = keccak.RATE_BYTES[256]
    runs = keccak.stage(256, [bytes(3 * rate)])      # pads to 4 blocks
    assert [ctrl.program.name for ctrl, _ in runs] == [
        "sha3-256-first", "sha3-256", "sha3-256", "sha3-256-final"]
    keyed = keccak.stage(256, [bytes(10)], 0x36)
    assert [ctrl.program.name for ctrl, _ in keyed] == [
        "sha3-256-keyed-first-final"]


def test_staged_envs_grow_linearly_with_the_block_count():
    # The first env holds every block, for sha3_init; each later env
    # only the block its run loads.
    rate = keccak.RATE_BYTES[256]
    msg = (bytes(range(256)) * 200)[:300 * rate]    # pads to 301 blocks
    runs = keccak.stage(256, [msg])
    n = len(runs)
    assert n == 301
    assert [len(env["blocks"]) for _, env in runs] == [n] + [1] * (n - 1)
    assert [env["blocks"][0] for _, env in runs] == runs[0][1]["blocks"]
    assert _absorbed(runs)[0] == hashlib.sha3_256(msg).digest()


def test_stage_reads_any_bytes_like_message_by_its_bytes():
    # An array of 136 8-byte items is 1088 bytes, not 136.
    msg = array("Q", range(136))
    assert _absorbed(keccak.stage(256, [msg]))[0] == \
        hashlib.sha3_256(msg.tobytes()).digest()
    for bad in ("abc", 5, [1, 2]):
        with pytest.raises(TypeError):
            keccak.stage(256, [bad])


@pytest.mark.parametrize("pad_byte", [256, -1, "x", 1.5, True])
def test_stage_rejects_a_pad_byte_before_any_run(pad_byte):
    with pytest.raises(ValueError):
        keccak.stage(256, [b"abc"], pad_byte)


@pytest.mark.parametrize("bits", [224, 256, 384, 512])
def test_mode_calls_count_what_the_registry_measures(bits):
    # The registry's passes are a 4-block sponge and an HMAC with a
    # one-block key and message; the mode calls run them block by block.
    rate = keccak.RATE_BYTES[bits]
    ms = perfmodel.measure_kernels()
    stats = controller.ExecutionStats()
    modes.sha3_digest(bits, bytes(3 * rate), stats)
    assert stats == ms[f"sha3-{bits}"].stats
    stats = controller.ExecutionStats()
    modes.hmac_sha3(bits, bytes(rate), bytes(rate), stats)
    assert stats == ms[f"hmac-sha3-{bits}"].stats


def test_program_count_does_not_grow_with_message_lengths(monkeypatch):
    built = []
    build = keccak.build_sha3_program
    monkeypatch.setattr(keccak, "build_sha3_program",
                        lambda *args: built.append(args) or build(*args))
    keccak._controller.cache_clear()
    rate = keccak.RATE_BYTES[256]
    # 200 distinct lengths, 1 to 5 blocks; the first two warm up.
    lengths = [0, 2 * rate] + [3 * i + 1 for i in range(198)]
    for i, n in enumerate(lengths):
        msg = bytes(range(256)) * (n // 256) + bytes(range(n % 256))
        assert modes.sha3_digest(256, msg) == hashlib.sha3_256(msg).digest()
        if i == 1:
            warm = list(built)
    # first and final, first, middle and final: one program each
    assert len(warm) == 4
    assert built == warm


def test_constants_match_oracle():
    # Same published standard, independently transcribed.
    assert keccak.RATE_BYTES == oracle.SHA3_RATES


def test_init_stages_the_round_constants_in_every_lane():
    sub = Subarray(block_width=keccak.BLOCK_WIDTH, lanes=3)
    controller.HOST_ACTIONS["sha3_init"](sub, {})
    rc0 = keccak.SHA3_LAYOUT.row("rc", 0)
    for row, rc in zip(sub.read_rows(rc0, 24), keccak._RC):
        assert row == sum(rc << 64 * s for s in range(12))
