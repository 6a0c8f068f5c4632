"""Span tracing from outside the program, by wrapping each layer's entry points.

``Tracer.install`` replaces the public functions of each module with
wrappers that open a span (name, start, end, parent, operation id) and
``uninstall`` puts the originals back.  Spans are kept in memory and
written out by ``dump``.

``Subarray.run`` gets no span of its own: a 4 KiB GCM operation calls it
tens of thousands of times.  Its call count, commands, cycles and time
are summed into the enclosing span (normally ``controller.run``) and
into the ``fabric`` totals, and its time counts as that span's child
time.

A span's self time is its duration minus the time covered by its child
spans and fabric calls, so the self times of every span under an
operation's root span, plus the fabric time, add up to the root span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from pimcrypt import controller, fabric, perfmodel
from pimcrypt.kernels import aes, circuits, ghash, hostio, keccak, modes

MODES_FUNCTIONS = ("ecb_crypt", "cbc_encrypt", "cbc_decrypt", "ctr_crypt",
                   "ccm_encrypt", "ccm_decrypt", "gcm_encrypt", "gcm_decrypt",
                   "ghash_digest", "sha3_digest", "sha3_digest_batch",
                   "hmac_sha3")
BUILDERS = ((aes, "build_aes_program", "build.aes"),
            (keccak, "build_sha3_program", "build.sha3"),
            (ghash, "build_ghash_program", "build.ghash"),
            (circuits, "schedule", "circuits.schedule"))
PERFMODEL_FUNCTIONS = ("measure_kernels", "calibrate", "compare_to_paper")
HOST_ACTION_KINDS = ("aes_load", "aes_load_keys", "aes_unload", "ghash_load",
                     "ghash_unload", "sha3_init", "sha3_load_block",
                     "sha3_read_state")

# Tiles per AES pass, GHASH queue slots per pass, SHA3 lanes per pass.
CAPACITY = {"aes": 16, "ghash": 8, "sha3": 4}


def _distinct_lanes(blocks: list[list[int]]) -> int:
    lanes = zip(*(hostio.lanes_from_value(row) for blk in blocks for row in blk))
    return len(set(lanes))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.fabric = {"calls": 0, "s": 0.0, "commands": 0, "cycles": 0}
        # kind -> [sum of used/capacity over passes, passes]
        self.occupancy = {k: [0.0, 0] for k in CAPACITY}
        self.op_id: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self._epoch = perf_counter()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        # [id, name, start, child time, fabric calls, fabric time]
        frame = [self._next_id, name, perf_counter(), 0.0, 0, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child, fcalls, fsec = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.spans.append((span_id, name, start - self._epoch, end - self._epoch,
                           parent[0] if parent else None, self.op_id,
                           fcalls, fsec))

    def call(self, name: str, fn, *args, **kwargs):
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _pause(self, since: float) -> None:
        """Exclude the tracer's own bookkeeping since ``since`` from every
        open span (their recorded starts move later by as much), so that
        it lands in no layer's self time."""
        spent = perf_counter() - since
        for frame in self._stack:
            frame[2] += spent

    # -- wrappers that also count ---------------------------------------------

    def _fabric_run(self, run):
        def traced(sub, cmds):
            start = perf_counter()
            cycles = run(sub, cmds)
            dur = perf_counter() - start
            f = self.fabric
            f["calls"] += 1
            f["s"] += dur
            f["commands"] += len(cmds)
            f["cycles"] += cycles
            if self._stack:
                frame = self._stack[-1]
                frame[3] += dur
                frame[4] += 1
                frame[5] += dur
            return cycles
        return traced

    def _host_action(self, kind: str, fn):
        def traced(sub, env, **params):
            start = perf_counter()
            if kind == "aes_load":
                self._occupy("aes", len(env["blocks"]))
            elif kind == "ghash_load":
                self._occupy("ghash", params["nblocks"])
            elif kind == "sha3_init":
                self._occupy("sha3", _distinct_lanes(env["blocks"]))
            self._pause(start)
            return self.call(f"hostio.{kind}", fn, sub, env, **params)
        return traced

    def _occupy(self, kind: str, used: int) -> None:
        acc = self.occupancy[kind]
        acc[0] += used / CAPACITY[kind]
        acc[1] += 1

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        sub, ctrl = fabric.Subarray, controller.Controller
        self._patch(sub, "run", self._fabric_run(sub.run))
        self._patch(ctrl, "__init__",
                    self._span("controller.validate", ctrl.__init__))
        self._patch(ctrl, "run", self._span("controller.run", ctrl.run))
        for module, attr, name in BUILDERS:
            self._patch(module, attr, self._span(name, getattr(module, attr)))
        for attr in MODES_FUNCTIONS:
            self._patch(modes, attr, self._span("modes", getattr(modes, attr)))
        for attr in PERFMODEL_FUNCTIONS:
            self._patch(perfmodel, attr, self._span(
                f"perfmodel.{attr}", getattr(perfmodel, attr)))
        registry = controller.HOST_ACTIONS
        for kind in HOST_ACTION_KINDS:
            self._patch_item(registry, kind,
                             self._host_action(kind, registry[kind]))

    def _patch_item(self, mapping: dict, key: str, wrapper) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- output ---------------------------------------------------------------

    def occupancy_ratio(self, kind: str) -> float:
        total, passes = self.occupancy[kind]
        return total / passes if passes else 0.0

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op",
                "fabric_calls", "fabric_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
