"""SHA3 on the fabric: four independent sponges in one subarray.

Each 64-bit tile of a row holds one lane of one Keccak state, so the
subarray absorbs and permutes four messages side by side.  The lane
permutation costs zero commands: it is folded into the write
destinations of the rotation step.

Run:  python demos/04_sha3_sponge.py
"""

import hashlib
import random

from pimcrypt.controller import ExecutionStats
from pimcrypt.kernels import keccak, modes

rng = random.Random(4)

# Four different messages, hashed side by side on one subarray.
msgs = [rng.randbytes(50) for _ in range(4)]
stats = ExecutionStats()
digests = modes.sha3_digest_batch(256, msgs, stats=stats)
for msg, digest in zip(msgs, digests):
    assert digest == hashlib.sha3_256(msg).digest()
print(f"4 x SHA3-256 in {stats.cycles} cycles ({stats.commands} commands)")

# The permutation round decomposes into four stages.
print("\nround-stage command counts:")
print(f"  column parity / theta   {len(keccak.gen_theta()):4d}")
print(f"  rotate + permute        {len(keccak.gen_rho_pi()):4d}")
print(f"  nonlinear chi           {len(keccak.gen_chi()):4d}")
print(f"  round constant iota     {len(keccak.gen_iota()[0]):4d}")
pi_cmds, _ = keccak.gen_pi()
print(f"  lane permutation alone  {len(pi_cmds):4d}  (free by construction)")

# All four variants, including the keyed MAC construction.
for bits in (224, 256, 384, 512):
    msg = rng.randbytes(100)
    assert modes.sha3_digest(bits, msg) == hashlib.new(f"sha3_{bits}",
                                                       msg).digest()
print("\nSHA3-224/256/384/512 vs hashlib: ok")

import hmac
key, msg = rng.randbytes(32), rng.randbytes(80)
assert modes.hmac_sha3(256, key, msg) == hmac.new(key, msg,
                                                  "sha3_256").digest()
print("HMAC-SHA3-256 vs hmac stdlib: ok")
