"""The q = 4 dictionary: five bases in dimension 16, coherence exactly 1/4.

Shows the GF(4) tables driving everything, the four Latin squares and their
collision table, both sign matrices, and a full brute-force confirmation
that no four columns of the 16 x 80 dictionary are dependent.
"""

import os
import time

import numpy as np

import spark_forge as sf

np.set_printoptions(linewidth=120)

ctx = sf.FieldContext(2)
print("multiplication table of GF(4):")
print(ctx.mul_table())
print("element squares (a bijection):", list(ctx.squares()))

print("\nLatin squares L^r, r = 0..3:")
for r in range(4):
    print(f"r = {r}:")
    print(sf.latin_square(ctx, r))
print("orthogonality:", sf.verify_mols(
    [sf.latin_square(ctx, r) for r in range(4)]).summary())

ct = sf.collision_table(ctx)
print("\ncollision table (entries i*j + j^2):")
print(ct)
print(sf.verify_collision_table(ct).summary())

print("\nsign matrix of order 4 and its row-permuted form:")
print(sf.sylvester(2))
print(sf.permuted_hadamard(2))

built = sf.construct("thm1", 4)
d, x = built.dictionary, built.vector
print("\ndictionary shape:", d.matrix.shape)
print("kernel vector support:", x.support)
print("residual:", sf.apply(d, x).max(), "(exactly zero)")

workers = os.cpu_count() or 1
started = time.perf_counter()
brute = sf.spark_bruteforce(d, 4, workers=workers)
elapsed = time.perf_counter() - started
print(f"\nbrute force over all subsets of size <= 4 "
      f"({brute.planned_subsets:,} planned, {workers} workers, {elapsed:.1f} s):")
print("  dependent subset found:", brute.found_size)

cert = sf.spark_certify(sf.gram_check(d), x, brute_force=brute)
print(cert.verdict())
print("coherence", cert.coherence, "| eta * mu =", cert.eta_mu)
