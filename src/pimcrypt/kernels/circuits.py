"""Combinational circuits for the byte-substitution kernels.

The forward S-box uses the well-known 115-gate depth-16 circuit built
from a 23-XOR top linear layer, a 30-XOR/32-AND shared middle (the GF(2^4)
tower inversion) and a 30-gate bottom linear layer with four XNORs.

The inverse S-box circuit is *derived* here rather than transcribed:
``inv_sbox = affine^-1 . sbox-core``, so the middle nonlinear layer is
reused verbatim while fresh top/bottom linear layers are synthesized with
a greedy shared-XOR (Paar) pass from the composed affine transforms.
Both circuits are validated exhaustively by the tests.

``schedule`` lowers a gate list onto fabric commands with liveness-driven
row allocation: 3 commands per 2-input gate or NOT, 6 per XNOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..isa import CommandWord, LogicKind

__all__ = [
    "Gate",
    "TempBudgetExceeded",
    "forward_sbox_gates",
    "inverse_sbox_gates",
    "evaluate",
    "schedule",
]


@dataclass(frozen=True)
class Gate:
    op: str            # xor | and | not | xnor | copy
    dst: str
    a: str
    b: str | None = None


class TempBudgetExceeded(Exception):
    """Circuit scheduling ran out of scratch rows."""


# Gate network from the public 115-gate S-box circuit.  Signal x0 is the
# byte MSB (bit 7), s0 the output MSB.  '^' gates are XOR, '&' AND,
# '~^' XNOR.  The three sections are top / middle / bottom.
_FORWARD_TOP = """
y14=x3^x5  y13=x0^x6  y9=x0^x3   y8=x0^x5   t0=x1^x2   y1=t0^x7
y4=y1^x3   y12=y13^y14 y2=y1^x0  y5=y1^x6   y3=y5^y8   t1=x4^y12
y15=t1^x5  y20=t1^x1  y6=y15^x7  y10=y15^t0 y11=y20^y9 y7=x7^y11
y17=y10^y11 y19=y10^y8 y16=t0^y11 y21=y13^y16 y18=x0^y16
"""

_MIDDLE = """
t2=y12&y15 t3=y3&y6   t4=t3^t2   t5=y4&x7   t6=t5^t2   t7=y13&y16
t8=y5&y1   t9=t8^t7   t10=y2&y7  t11=t10^t7 t12=y9&y11 t13=y14&y17
t14=t13^t12 t15=y8&y10 t16=t15^t12 t17=t4^t14 t18=t6^t16 t19=t9^t14
t20=t11^t16 t21=t17^y20 t22=t18^y19 t23=t19^y21 t24=t20^y18
t25=t21^t22 t26=t21&t23 t27=t24^t26 t28=t25&t27 t29=t28^t22
t30=t23^t24 t31=t22^t26 t32=t31&t30 t33=t32^t24 t34=t23^t33
t35=t27^t33 t36=t24&t35 t37=t36^t34 t38=t27^t36 t39=t29&t38
t40=t25^t39 t41=t40^t37 t42=t29^t33 t43=t29^t40 t44=t33^t37
t45=t42^t41 z0=t44&y15 z1=t37&y6  z2=t33&x7  z3=t43&y16 z4=t40&y1
z5=t29&y7  z6=t42&y11 z7=t45&y17 z8=t41&y10 z9=t44&y12 z10=t37&y3
z11=t33&y4 z12=t43&y13 z13=t40&y5 z14=t29&y2 z15=t42&y9 z16=t45&y14
z17=t41&y8
"""

_FORWARD_BOTTOM = """
t46=z15^z16 t47=z10^z11 t48=z5^z13 t49=z9^z10 t50=z2^z12 t51=z2^z5
t52=z7^z8  t53=z0^z3   t54=z6^z7  t55=z16^z17 t56=z12^t48 t57=t50^t53
t58=z4^t46 t59=z3^t54  t60=t46^t57 t61=z14^t57 t62=t52^t58 t63=t49^t58
t64=z4^t59 t65=t61^t62 t66=z1^t63 s0=t59^t63  s6=t56~^t62 s7=t48~^t60
t67=t64^t65 s3=t53^t66 s4=t51^t66 s5=t47^t65  s1=t64~^s3  s2=t55~^t67
"""

#: Middle-layer input signals (everything the tower inversion consumes).
MIDDLE_INPUTS = ("x7", "y1", "y2", "y3", "y4", "y5", "y6", "y7", "y8", "y9",
                 "y10", "y11", "y12", "y13", "y14", "y15", "y16", "y17",
                 "y19", "y20", "y21", "y18")
_Z_SIGNALS = tuple(f"z{i}" for i in range(18))


def _parse(section: str) -> list[Gate]:
    gates = []
    for token in section.split():
        dst, _, expr = token.partition("=")
        for op, sym in (("xnor", "~^"), ("xor", "^"), ("and", "&")):
            if sym in expr:
                a, b = expr.split(sym)
                gates.append(Gate(op, dst, a, b))
                break
        else:
            raise ValueError(f"bad gate {token!r}")
    return gates


def forward_sbox_gates() -> list[Gate]:
    return (_parse(_FORWARD_TOP) + _parse(_MIDDLE)
            + _parse(_FORWARD_BOTTOM))


def evaluate(gates: list[Gate], inputs: dict[str, int],
             mask: int = (1 << 256) - 1) -> dict[str, int]:
    """Evaluate a gate list over bit-parallel integer signals."""
    wires = dict(inputs)
    for g in gates:
        a = wires[g.a]
        if g.op == "xor":
            wires[g.dst] = a ^ wires[g.b]
        elif g.op == "and":
            wires[g.dst] = a & wires[g.b]
        elif g.op == "not":
            wires[g.dst] = ~a & mask
        elif g.op == "xnor":
            wires[g.dst] = ~(a ^ wires[g.b]) & mask
        else:  # copy
            wires[g.dst] = a
    return wires


# ---------------------------------------------------------------------------
# Inverse circuit derivation
# ---------------------------------------------------------------------------

def _affine_matrix() -> list[int]:
    """Rows (LSB-first) of the S-box affine matrix M: b'_i = sum M[i]."""
    rows = []
    for i in range(8):
        rows.append(sum(1 << (j % 8) for j in (i, i + 4, i + 5, i + 6, i + 7)))
    return rows


def _mat_apply(rows: list[int], v: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        if bin(row & v).count("1") & 1:
            out |= 1 << i
    return out


def _mat_invert(rows: list[int]) -> list[int]:
    n = len(rows)
    aug = [(rows[i], 1 << i) for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][0] >> col & 1)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][0] >> col & 1:
                aug[r] = (aug[r][0] ^ aug[col][0], aug[r][1] ^ aug[col][1])
    return [inv for _, inv in aug]


def _linear_forms(gates: list[Gate], base: list[str],
                  targets: list[str]) -> dict[str, int]:
    """Masks (over ``base``) of XOR-only outputs reachable from ``base``."""
    masks = {name: 1 << i for i, name in enumerate(base)}
    for g in gates:
        if g.op != "xor":
            raise ValueError("linear layer expected")
        masks[g.dst] = masks[g.a] ^ masks[g.b]
    return {t: masks[t] for t in targets}


def _paar(targets: dict[str, tuple[int, int]], base: list[str],
          prefix: str) -> tuple[list[Gate], dict[str, str]]:
    """Greedy shared-XOR synthesis of affine forms.

    ``targets`` maps output name to ``(mask over base signals, const)``.
    Returns gates plus the signal each output lives on.
    """
    cols = list(base)
    rows = {name: mask for name, (mask, _) in targets.items()}
    gates: list[Gate] = []
    fresh = 0
    while True:
        # Count co-occurring column pairs across all rows.
        pair_count: dict[tuple[int, int], int] = {}
        for mask in rows.values():
            bits = [i for i in range(len(cols)) if mask >> i & 1]
            for i in range(len(bits)):
                for j in range(i + 1, len(bits)):
                    pair_count[(bits[i], bits[j])] = \
                        pair_count.get((bits[i], bits[j]), 0) + 1
        if not pair_count:
            break
        (ca, cb), best = max(pair_count.items(),
                             key=lambda kv: (kv[1], -kv[0][0], -kv[0][1]))
        name = f"{prefix}{fresh}"
        fresh += 1
        gates.append(Gate("xor", name, cols[ca], cols[cb]))
        new_bit = 1 << len(cols)
        cols.append(name)
        pair_mask = (1 << ca) | (1 << cb)
        for rname, mask in rows.items():
            if mask & pair_mask == pair_mask:
                rows[rname] = (mask ^ pair_mask) | new_bit
    # Each row is now a single signal (or empty).
    homes: dict[str, str] = {}
    for name, mask in rows.items():
        const = targets[name][1]
        if mask == 0:
            raise ValueError(f"affine form {name} is constant")
        sig = cols[mask.bit_length() - 1]
        if const:
            gates.append(Gate("not", name, sig))
            homes[name] = name
        else:
            homes[name] = sig
    return gates, homes


@lru_cache(maxsize=1)
def inverse_sbox_gates() -> list[Gate]:
    """Derive the inverse S-box circuit: affine^-1 on both sides."""
    m = _affine_matrix()
    minv = _mat_invert(m)
    cinv = _mat_apply(minv, 0x63)  # A^-1(v) = Minv v ^ Minv c

    top = _parse(_FORWARD_TOP)
    x_names = [f"x{i}" for i in range(8)]  # x0 = bit 7
    fwd_forms = _linear_forms(top, x_names, list(MIDDLE_INPUTS))

    def xmask_to_lsb(mask_x: int) -> int:
        return sum(1 << (7 - k) for k in range(8) if mask_x >> k & 1)

    # New top: w'(v) = w(Minv v) ^ w(Minv c) for each middle input w.
    new_top_targets: dict[str, tuple[int, int]] = {}
    for w, mask_x in fwd_forms.items():
        lsb_mask = xmask_to_lsb(mask_x)
        new_mask = 0
        for b in range(8):
            # coefficient of input bit b in w(Minv v)
            col = sum(1 << i for i in range(8) if minv[i] >> b & 1)
            if bin(lsb_mask & col).count("1") & 1:
                new_mask |= 1 << b
        const = bin(lsb_mask & cinv).count("1") & 1
        new_top_targets[f"i_{w}"] = (new_mask, const)
    # Column b of the masks is byte bit b, carried by signal x(7-b).
    top_gates, top_homes = _paar(new_top_targets,
                                 [f"x{7 - b}" for b in range(8)], "u")

    # Middle reused verbatim with renamed inputs.
    rename = {w: top_homes[f"i_{w}"] for w in MIDDLE_INPUTS}
    middle = [Gate(g.op, "m_" + g.dst,
                   rename.get(g.a, "m_" + g.a),
                   rename.get(g.b, "m_" + g.b) if g.b else None)
              for g in _parse(_MIDDLE)]

    # Forward bottom as affine forms over z0..z17 (s0 = bit 7).
    bottom = _parse(_FORWARD_BOTTOM)
    masks = {z: 1 << i for i, z in enumerate(_Z_SIGNALS)}
    consts = {z: 0 for z in _Z_SIGNALS}
    for g in bottom:
        masks[g.dst] = masks[g.a] ^ masks[g.b]
        consts[g.dst] = consts[g.a] ^ consts[g.b] ^ (1 if g.op == "xnor" else 0)
    out_mask = [masks[f"s{7 - b}"] for b in range(8)]   # LSB-indexed
    out_const = [consts[f"s{7 - b}"] for b in range(8)]

    # New bottom rows: A^-1 applied to the output vector, i.e. Minv plus
    # the folded-in constant Minv c.
    new_bottom_targets: dict[str, tuple[int, int]] = {}
    for b in range(8):
        mask = 0
        const = cinv >> b & 1
        for j in range(8):
            if minv[b] >> j & 1:
                mask ^= out_mask[j]
                const ^= out_const[j]
        new_bottom_targets[f"s{7 - b}"] = (mask, const)
    z_renamed = [f"m_{z}" for z in _Z_SIGNALS]
    bot_gates, bot_homes = _paar(
        {k: (m_, c_) for k, (m_, c_) in new_bottom_targets.items()},
        z_renamed, "v")

    # Materialize outputs that ended up as aliases of shared signals.
    finals = []
    for b in range(8):
        name = f"s{7 - b}"
        if bot_homes[name] != name:
            finals.append(Gate("copy", name, bot_homes[name]))
    return top_gates + middle + bot_gates + finals


# ---------------------------------------------------------------------------
# Lowering gate lists onto fabric rows
# ---------------------------------------------------------------------------

_LOGIC = {"and": LogicKind.AND, "xor": LogicKind.XOR}


def schedule(gates: list[Gate], inputs: dict[str, int],
             outputs: dict[str, int], scratch: list[int]) -> list[CommandWord]:
    """Allocate rows for wires and emit the command sequence.

    Input rows are recycled once their wire is dead; output wires are
    steered into their designated rows when those become free, with a
    final copy otherwise.  Raises :class:`TempBudgetExceeded` when the
    live set outgrows input + scratch rows.
    """
    last_use: dict[str, int] = {}
    for i, g in enumerate(gates):
        last_use[g.a] = i
        if g.b is not None:
            last_use[g.b] = i
    where = dict(inputs)
    pool = list(scratch)
    out_rows = set(outputs.values())
    cmds: list[CommandWord] = []

    for i, g in enumerate(gates):
        srcs = [g.a] if g.b is None or g.op == "not" else [g.a, g.b]
        rows = {w: where[w] for w in srcs}
        dying = [w for w in srcs if last_use.get(w) == i and w not in outputs]
        # Choose a destination row, keeping designated output rows free
        # for as long as possible: the output's own row first, then dying
        # operand rows / scratch outside the output region, then anything.
        dst_row = None
        if g.dst in outputs and outputs[g.dst] in pool:
            dst_row = outputs[g.dst]
            pool.remove(dst_row)
        else:
            dying_safe = [w for w in dying if rows[w] not in out_rows]
            pool_safe = [r for r in pool if r not in out_rows]
            if dying_safe:
                dst_row = rows[dying_safe[0]]
            elif pool_safe:
                dst_row = pool_safe[-1]
                pool.remove(dst_row)
            elif dying:
                dst_row = rows[dying[0]]
            elif pool:
                dst_row = pool[-1]
                pool.remove(dst_row)
            else:
                raise TempBudgetExceeded(
                    f"no free row for {g.dst} at gate {i} "
                    f"({len(where)} live)")
            dying = [w for w in dying if rows[w] != dst_row]
        a_row = rows[g.a]
        if g.op == "copy":
            cmds += [CommandWord.rd_row(a_row), CommandWord.wr_row(dst_row)]
        elif g.op == "not":
            cmds += [CommandWord.act_row(a_row),
                     CommandWord.logic_op(a_row, LogicKind.NOT),
                     CommandWord.wr_row(dst_row)]
        elif g.op == "xnor":
            cmds += [CommandWord.act_row(a_row),
                     CommandWord.logic_op(rows[g.b], LogicKind.XOR),
                     CommandWord.wr_row(dst_row),
                     CommandWord.act_row(dst_row),
                     CommandWord.logic_op(dst_row, LogicKind.NOT),
                     CommandWord.wr_row(dst_row)]
        else:
            cmds += [CommandWord.act_row(a_row),
                     CommandWord.logic_op(rows[g.b], _LOGIC[g.op]),
                     CommandWord.wr_row(dst_row)]
        for w in dying:
            if rows[w] != dst_row:
                pool.append(rows[w])
        for w, r in list(where.items()):
            if r == dst_row:
                del where[w]
        where[g.dst] = dst_row
    # Outputs not in place yet -> copies.
    for w, row in outputs.items():
        if where.get(w) != row:
            cmds += [CommandWord.rd_row(where[w]), CommandWord.wr_row(row)]
            where[w] = row
    return cmds
