"""Walk through the smallest dictionary: q = 2, dimension 4, three bases.

Every object along the way is printed: the GF(2) tables, the two Latin
squares, the six net vectors, the three scaled bases, the 4 x 12 dictionary,
its 3-sparse kernel vector, and the exact spark certificate.
"""

import numpy as np

import spark_forge as sf

np.set_printoptions(linewidth=120)

ctx = sf.FieldContext(1)
print("multiplication table of GF(2):")
print(ctx.mul_table())

print("\nLatin squares L^0, L^1:")
for r in range(2):
    print(sf.latin_square(ctx, r))

built = sf.construct("thm1", 2)
net, hs = built.net, built.signs
labels = sf.block_labels(2)
print("\nincidence vectors (one family per label):")
for i, b in enumerate(labels):
    for j in range(2):
        print(f"  m[{b},{j}] = {net[i, j]}")
print("net conditions:", sf.verify_net(net).summary())

print("\nsign matrix of order 2 (the permutation fixes it):")
print(hs)

print("\nscaled bases (divide by sqrt(2) for the orthonormal bases):")
for b in labels:
    print(f"basis {b}:")
    print(sf.build_basis(net, hs, b))

d, x = built.dictionary, built.vector
print("\nthe 4 x 12 dictionary (scaled by sqrt(2)):")
print(d.matrix)
print("\nkernel vector support:", x.support)
print("dictionary @ vector =", sf.apply(d, x))

brute = sf.spark_bruteforce(d, 3)
print("\nsmallest dependent subset:", brute.witness, "(size", brute.found_size, ")")

cert = sf.spark_certify(sf.gram_check(d), x, brute_force=brute)
print("mutual coherence:", cert.coherence)
print(cert.verdict())
print("eta * mu =", cert.eta_mu)
print("unique-representation threshold:", sf.uniqueness_threshold(cert))
