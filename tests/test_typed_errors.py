"""Every public staging and build function rejects a wrong input with a
typed error, and every function that takes a cost model rejects one that
is no ``CycleCostModel`` with a ``TypeError``.

Each test starts from valid arguments, draws one of them wrong (a wrong
length, count or type) and asserts ``ValueError`` or ``TypeError``:
never ``IndexError``, ``KeyError``, ``AttributeError`` or a result.  A
staged run may find a wrong count only once it runs (the lanes of the
subarray it runs on), so each staged run also runs, on a subarray as
wide as the valid arguments need, inside the check.  A block list is
any iterable of bytes-like blocks, so a wrong one drawn here is not
empty: an empty iterable is an empty list of blocks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from pimcrypt import perfmodel
from pimcrypt.controller import ExecutionStats
from pimcrypt.fabric import CycleCostModel, Subarray
from pimcrypt.kernels import aes, ghash, keccak

TYPED = (ValueError, TypeError)

# No bytes-like object: a list of byte values, a str, a number, None.
NOT_BYTES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.text(min_size=1, max_size=40),
                      st.lists(st.integers(0, 255), min_size=1, max_size=40))
# Neither an int nor a bool.
NOT_INT = st.one_of(st.none(), st.floats(), st.text(max_size=8),
                    st.binary(max_size=4), st.lists(st.integers(), max_size=3))
NOT_BOOL = st.one_of(NOT_INT, st.integers())
# Block lists of no bytes-like blocks.
NOT_A_LIST = st.one_of(st.booleans(), st.integers(), st.floats(),
                       st.text(min_size=1, max_size=40),
                       st.lists(st.integers(0, 255), min_size=1, max_size=40))


def bytes_like(size):
    return st.binary(min_size=size, max_size=size).flatmap(
        lambda b: st.sampled_from([b, bytearray(b), memoryview(b)]))


def not_sized(sizes=(16,)):
    """A bytes-like object of none of ``sizes`` bytes, or no bytes-like
    object."""
    return st.one_of(
        st.integers(0, 48).filter(lambda n: n not in sizes).flatmap(
            bytes_like),
        NOT_BYTES)


def wrong_list(data, valid: list, sizes=(16,)) -> object:
    """``valid``, a non-empty list of blocks, with one block of another
    length or type, or a value that is no list of blocks."""
    if data.draw(st.booleans()):
        return data.draw(NOT_A_LIST)
    i = data.draw(st.integers(0, len(valid) - 1))
    return valid[:i] + [data.draw(not_sized(sizes))] + valid[i + 1:]


def rejected(call, run_lanes=None):
    """``call`` raises a typed error, staging or, if it stages runs, when
    they run on one subarray of ``run_lanes`` lanes."""
    with pytest.raises(TYPED):
        staged = call()
        if run_lanes is not None:
            runs = staged if isinstance(staged, list) else [staged]
            sub = Subarray(block_width=runs[0][0].program.block_width,
                           lanes=run_lanes)
            for ctrl, env in runs:
                ctrl.run(sub, env)


def blocks(n):
    return [bytes([i]) * 16 for i in range(n)]


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(st.data())
def test_aes_key(data):
    key, direction = bytes(16), "encrypt"
    if data.draw(st.booleans()):
        key = data.draw(not_sized((16, 32)))
    else:
        direction = data.draw(st.one_of(NOT_BOOL, st.text(max_size=10))
                              .filter(lambda d: d not in aes._DIRECTIONS))
    rejected(lambda: aes.Key(key, direction))


@SETTINGS
@given(st.data())
def test_aes_key_stage(data):
    n = data.draw(st.integers(1, aes.BLOCKS_PER_PASS))
    lists = {"blocks": blocks(n)}
    for name in data.draw(st.sets(st.sampled_from(["pre", "post"]))):
        lists[name] = blocks(n)
    where = data.draw(st.sampled_from(sorted(lists)))
    if data.draw(st.booleans()):
        lists[where] = wrong_list(data, lists[where])
    else:
        # Too many blocks for one lane's tiles, or a chain list of another
        # count; an empty chain list counts as not given.
        low = 0 if where == "blocks" else 1
        count = data.draw(st.integers(low, 40).filter(
            lambda c: c != n and (len(lists) > 1 or c > aes.BLOCKS_PER_PASS)))
        lists[where] = blocks(count)
    rejected(lambda: aes.Key(bytes(16), "encrypt").stage(**lists), 1)


@SETTINGS
@given(st.data())
def test_ghash_stage(data):
    lanes = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 2 * ghash.BLOCKS_PER_PASS + 1))
    args = {"hash_keys": blocks(lanes), "blocks": [blocks(n)] * lanes,
            "final": data.draw(st.booleans())}
    if data.draw(st.booleans()):
        args["last_keys"] = blocks(lanes)[::-1]
    where = data.draw(st.sampled_from(
        ["hash_keys", "last_keys", "lane", "count", "final"]))
    if where in ("hash_keys", "last_keys"):
        args[where] = wrong_list(data, blocks(lanes))
    elif where == "lane":
        k = data.draw(st.integers(0, lanes - 1))
        args["blocks"] = [wrong_list(data, lane) if j == k else lane
                          for j, lane in enumerate(args["blocks"])]
    elif where == "count":
        # Another hash-key or last-key count, no lanes, lanes of unequal
        # or no blocks, or more lanes than the subarray has.
        args.update(data.draw(st.sampled_from([
            {"hash_keys": blocks(lanes + 1)},
            {"last_keys": blocks(lanes + 1)},
            {"last_keys": []},
            {"hash_keys": [], "blocks": []},
            {"hash_keys": blocks(2), "blocks": [blocks(n), blocks(n + 1)]},
            {"blocks": [blocks(0)] * lanes},
            {"hash_keys": blocks(lanes + 1),
             "blocks": [blocks(n)] * (lanes + 1)},
        ])))
    else:
        args[where] = data.draw(NOT_BOOL)
    rejected(lambda: ghash.stage(**args), lanes)


@SETTINGS
@given(st.data())
def test_ghash_stage_fold(data):
    valid = blocks(data.draw(st.integers(2, 32)))
    if data.draw(st.booleans()):
        staged = wrong_list(data, valid)
    else:
        staged = blocks(data.draw(st.one_of(st.integers(0, 1),
                                            st.integers(33, 64))))
    rejected(lambda: ghash.stage_fold(staged), 1)


@SETTINGS
@given(st.data())
def test_keccak_stage(data):
    bits = data.draw(st.sampled_from(sorted(keccak.RATE_BYTES)))
    rate = keccak.RATE_BYTES[bits]
    count = data.draw(st.integers(1, keccak.SHA3_LANES))
    args = {"bits": bits, "msgs": [bytes(rate)] * count, "pad_byte": None}
    where = data.draw(st.sampled_from(
        ["bits", "msg", "msgs", "count", "blocks", "pad_byte"]))
    if where == "bits":
        args["bits"] = data.draw(st.one_of(
            NOT_INT, st.booleans(),
            st.integers().filter(lambda b: b not in keccak.RATE_BYTES)))
    elif where == "msg":
        i = data.draw(st.integers(0, count - 1))
        args["msgs"][i] = data.draw(NOT_BYTES)
    elif where == "msgs":
        args["msgs"] = data.draw(NOT_A_LIST)
    elif where == "count":
        args["msgs"] = [bytes(rate)] * data.draw(st.sampled_from(
            [0, keccak.SHA3_LANES + 1, 2 * keccak.SHA3_LANES]))
    elif where == "blocks":
        # Messages that pad to different block counts.
        args["msgs"] = [bytes(rate), bytes(data.draw(
            st.integers(0, 3 * rate).filter(lambda n: n // rate != 1)))]
    else:
        args["pad_byte"] = data.draw(st.one_of(       # None is no pad
            NOT_INT.filter(lambda b: b is not None), st.booleans(),
            st.integers().filter(lambda b: not 0 <= b <= 255)))
    rejected(lambda: keccak.stage(**args), 1)


@SETTINGS
@given(st.data())
def test_build_aes_program(data):
    args = {"variant": 128, "direction": "encrypt", "chain": None}
    where = data.draw(st.sampled_from(sorted(args)))
    args[where] = data.draw({
        "variant": st.one_of(
            NOT_INT, st.booleans(), st.just(128.0),
            st.integers().filter(lambda v: v not in (128, 256))),
        "direction": st.one_of(NOT_BOOL, st.text(max_size=10)),
        "chain": st.one_of(st.integers(), st.booleans(),
                           st.text(max_size=6)),
    }[where].filter(lambda v: v not in aes._DIRECTIONS + aes._CHAINS))
    rejected(lambda: aes.build_aes_program(**args))


@SETTINGS
@given(st.data())
def test_build_ghash_program(data):
    args = {"nblocks": ghash.BLOCKS_PER_PASS, "final": True}
    if data.draw(st.booleans()):
        args["nblocks"] = data.draw(st.one_of(
            NOT_INT, st.booleans(),
            st.integers().filter(
                lambda n: not 1 <= n <= ghash.BLOCKS_PER_PASS)))
    else:
        args["final"] = data.draw(NOT_BOOL)
    rejected(lambda: ghash.build_ghash_program(**args))


@SETTINGS
@given(st.one_of(NOT_INT, st.booleans(),
                 st.integers().filter(lambda n: not 2 <= n <= 32)))
def test_build_ghash_fold_program(nrows):
    rejected(lambda: ghash.build_ghash_fold_program(nrows))


@SETTINGS
@given(st.data())
def test_build_sha3_program(data):
    args = {"bits": 256, "key_prep": False, "first": True, "final": True}
    where = data.draw(st.sampled_from(sorted(args)))
    if where == "bits":
        args[where] = data.draw(st.one_of(
            NOT_INT, st.booleans(),
            st.integers().filter(lambda b: b not in keccak.RATE_BYTES)))
    else:
        args[where] = data.draw(NOT_BOOL)
    rejected(lambda: keccak.build_sha3_program(**args))


# Each shape function's valid arguments, and wrong values for each: among
# them one equal to the valid value but of another type.
SHAPES = {
    aes.controller: ((128, "encrypt", None), (
        st.one_of(NOT_INT, st.booleans(), st.just(128.0),
                  st.integers().filter(lambda v: v not in (128, 256))),
        st.one_of(NOT_BOOL, st.text(max_size=10)).filter(
            lambda d: d not in aes._DIRECTIONS),
        st.one_of(st.integers(), st.booleans(), st.text(max_size=6)).filter(
            lambda c: c not in aes._CHAINS))),
    keccak.controllers: ((256, 2, False), (
        st.one_of(NOT_INT, st.booleans(), st.just(256.0),
                  st.integers().filter(lambda b: b not in keccak.RATE_BYTES)),
        st.one_of(NOT_INT, st.booleans(), st.just(2.0),
                  st.integers(max_value=0)),
        NOT_BOOL)),
    ghash.controller: ((8, True), (
        st.one_of(NOT_INT, st.booleans(), st.just(8.0),
                  st.integers().filter(
                      lambda n: not 1 <= n <= ghash.BLOCKS_PER_PASS)),
        st.one_of(NOT_BOOL, st.just(1)))),
    ghash.fold_controller: ((2,), (
        st.one_of(NOT_INT, st.booleans(), st.just(2.0),
                  st.integers().filter(lambda n: not 2 <= n <= 32)),)),
}


@SETTINGS
@given(st.data())
def test_shape_functions(data):
    # Each is cached by its arguments' values and types, so a wrong one
    # never finds the cached program of the valid value it equals (True
    # and 1, 128 and 128.0): it reaches the builder's checks.
    shape = data.draw(st.sampled_from(list(SHAPES)), label="shape")
    valid, wrong = SHAPES[shape]
    shape(*valid)
    where = data.draw(st.integers(0, len(valid) - 1))
    args = list(valid)
    args[where] = data.draw(wrong[where])
    rejected(lambda: shape(*args))


# No cost model: a number, a tuple of a cost model's two fields, a str.
NOT_A_COST_MODEL = st.one_of(NOT_INT, st.integers(), st.booleans(),
                             st.tuples(st.integers(1, 3), st.integers(0, 3)))
PASS_NAMES = st.sampled_from(list(perfmodel.kernel_passes()))


@pytest.mark.parametrize("call", [
    lambda data, cost: Subarray(cost_model=cost),
    lambda data, cost: perfmodel.measure_kernels(cost),
    lambda data, cost: perfmodel.kernel_passes()[
        data.draw(PASS_NAMES)].count(cost),
    lambda data, cost: perfmodel.kernel_passes()[
        data.draw(PASS_NAMES)].trace(cost, []),
], ids=["Subarray", "measure_kernels", "KernelPass.count",
        "KernelPass.trace"])
@SETTINGS
@given(st.data())
def test_cost_model(call, data):
    # Named in the error, never an AttributeError from deep in a count.
    with pytest.raises(TypeError, match="CycleCostModel"):
        call(data, data.draw(NOT_A_COST_MODEL, label="cost"))


NOT_A_COUNT = st.one_of(NOT_INT, st.booleans(), st.integers(max_value=0))


@SETTINGS
@given(st.data())
def test_controller_count(data):
    # Lanes are an int >= 1 and the cost a CycleCostModel.
    args = [1, CycleCostModel()]
    where = data.draw(st.integers(0, 1))
    args[where] = data.draw((NOT_A_COUNT, NOT_A_COST_MODEL)[where])
    with pytest.raises(TYPED):
        ghash.controller(8, False).count(ExecutionStats(), *args)
