"""Module boundaries: each kernel family stages and reads its own runs.

``modes``, ``perfmodel`` and ``cli`` use only the public names of other
``pimcrypt`` modules; ``modes`` hands bytes to the kernels' staging
functions and gets the run's output back without naming any key of the
env the host actions read and write; ``perfmodel`` stages its
representative passes through the kernels, not through ``modes``.
Each row layout lives in one module; ``hostio`` keeps only the SHA3 row
split that ``perfbench/tracing.py`` imports, and no package module
imports it.  ``layout.as_bytes`` is the one conversion of bytes-like
inputs.
"""

import ast
import inspect
import pathlib
import types

import pytest
from hypothesis import given, settings, strategies as st

import pimcrypt
from pimcrypt import cli, perfmodel
from pimcrypt.controller import OUTPUT, Controller
from pimcrypt.fabric import Subarray
from pimcrypt.kernels import aes, ghash, hostio, keccak, modes


def _tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _private_reads(module) -> list[str]:
    """Every underscore-prefixed, non-dunder name ``module`` imports from
    or reads off another ``pimcrypt`` module."""
    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    found = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("pimcrypt")):
            found += [f"from {node.module}: {a.name}" for a in node.names
                      if private(a.name)]
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and isinstance(node.value, ast.Name)):
            owner = getattr(module, node.value.id, None)
            if (isinstance(owner, types.ModuleType) and owner is not module
                    and owner.__name__.startswith("pimcrypt")):
                found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", [modes, perfmodel, cli],
                         ids=lambda m: m.__name__)
def test_reads_no_private_name_of_another_module(module):
    assert _private_reads(module) == []


def _staged_runs() -> list[tuple[Controller, dict]]:
    """One staged run of every staging function and program shape."""
    runs = [run for kp in perfmodel.kernel_passes().values()
            for group in kp.build() for run in group]
    blocks = [bytes(range(16))] * 3
    for pre, post in ((None, None), (blocks, None), (None, blocks),
                      (blocks, blocks)):
        runs.append(aes.Key(bytes(32), "decrypt").stage(blocks, pre, post))
    runs += ghash.stage([bytes(16)], [blocks])
    runs.append(ghash.stage_fold(blocks))
    runs += keccak.stage(256, [b"abc", b"de"], 0x5C)
    return runs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_each_kernel_stages_the_programs_its_shape_names(data):
    # Each kernel module picks programs in one place, its shape function,
    # so a staged run holds the very object the shape names.
    variant = data.draw(st.sampled_from([128, 256]))
    direction = data.draw(st.sampled_from(["encrypt", "decrypt"]))
    blocks = [bytes([i]) * 16 for i in
              range(data.draw(st.integers(1, aes.BLOCKS_PER_PASS)))]
    pre, post = (blocks if data.draw(st.booleans()) else None
                 for _ in range(2))
    ctrl, _ = aes.Key(bytes(variant // 8), direction).stage(blocks, pre, post)
    chain = {(0, 0): None, (1, 0): "pre", (0, 1): "post", (1, 1): "both"}[
        pre is not None, post is not None]
    assert ctrl is aes.controller(variant, direction, chain)

    bits = data.draw(st.sampled_from(sorted(keccak.RATE_BYTES)))
    rate, nblocks = keccak.RATE_BYTES[bits], data.draw(st.integers(1, 4))
    msgs = [bytes(data.draw(st.integers((nblocks - 1) * rate,
                                        nblocks * rate - 1)))
            for _ in range(data.draw(st.integers(1, keccak.SHA3_LANES)))]
    pad_byte = data.draw(st.none() | st.integers(0, 255))
    staged = [id(ctrl) for ctrl, _ in keccak.stage(bits, msgs, pad_byte)]
    shaped = keccak.controllers(bits, nblocks, pad_byte is not None)
    assert staged == [*map(id, shaped)] and len(staged) == nblocks

    n, final = data.draw(st.integers(1, 8)), data.draw(st.booleans())
    hblocks = [bytes([i]) * 16 for i in range(n)]
    last = data.draw(st.sampled_from([None, [bytes(16)], [bytes(range(16))]]))
    staged = [id(ctrl) for ctrl, _ in ghash.stage([bytes(16)], [hblocks],
                                                  final, last)]
    # A last step under last keys, even equal ones, runs in a pass of
    # its own.
    shaped = ([ghash.controller(n - 1, False), ghash.controller(1, final)]
              if n > 1 and last is not None
              else [ghash.controller(n, final)])
    assert staged == [*map(id, shaped)]
    rows = [bytes([i]) * 16 for i in range(data.draw(st.integers(2, 32)))]
    assert ghash.stage_fold(rows)[0] is ghash.fold_controller(len(rows))


def test_modes_names_no_host_action_env_key():
    keys = set()
    for ctrl, env in _staged_runs():
        ctrl.run(Subarray(block_width=ctrl.program.block_width), env)
        keys |= env.keys()
    assert OUTPUT in keys and {"blocks", "ghash_rows", "fold_rows"} <= keys
    strings = {node.value for node in ast.walk(_tree(modes))
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    assert strings & keys == set()


def test_one_modes_function_stages_aes_runs():
    # Every AES call goes through one pass loop.  A ``.stage`` call on
    # anything but a kernel module (``ghash``, ``keccak``) is on an
    # ``aes.Key``.
    def stages_aes(node) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stage"
                and not isinstance(getattr(modes, getattr(
                    node.func.value, "id", ""), None), types.ModuleType))

    staging = [fn.name for fn in _tree(modes).body
               if isinstance(fn, ast.FunctionDef)
               and any(map(stages_aes, ast.walk(fn)))]
    assert len(staging) == 1, staging


def test_perfmodel_stages_through_the_kernels_not_modes():
    imported = set()
    for node in ast.walk(_tree(perfmodel)):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not any(name.split(".")[-1] == "modes" for name in imported)
    assert not hasattr(perfmodel.KernelPass, "runs")


def test_layout_holds_the_one_bytes_like_conversion():
    # A memoryview is a conversion unless it is cast to packing words at
    # once, as keccak's row packing does.
    converting = []
    for path in pathlib.Path(pimcrypt.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        casts = {id(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "cast"}
        converting += [path.name for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "memoryview"
                       and id(node) not in casts]
    assert converting == ["layout.py"]
    assert not {"_bytes", "_check_block"} & vars(modes).keys()


def test_no_package_module_imports_hostio():
    importers = []
    for path in pathlib.Path(pimcrypt.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any("hostio" in name.split(".") for name in names):
                importers.append(path.name)
    assert importers == []


def test_hostio_defines_only_the_sha3_row_split():
    tree = _tree(hostio)
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assigned = {name.id for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for name in ast.walk(node) if isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Store)}
    assert defined == ["lanes_from_value"] and assigned <= {"__all__"}
    imported = {(node.module, a.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert {("keccak", "BLOCK_WIDTH"), ("keccak", "SHA3_LANES")} <= imported
    segments = [(s + 1) << 60 for s in range(keccak.SHA3_LANES)]
    row = sum(v << keccak.BLOCK_WIDTH * s for s, v in enumerate(segments))
    assert hostio.lanes_from_value(row) == segments
