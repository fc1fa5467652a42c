"""Certificates at desk scale: q = 8 and q = 16 for the base family, q = 4
for the extension family.

No search is needed at these sizes: the union coherence bound rounds up to
the kernel-vector support size, which pins the spark exactly.
"""

import time

import spark_forge as sf

print(f"{'family':8} {'q':>3} {'shape':>12} {'mu':>6} {'spark':>6} "
      f"{'eta*mu':>7} {'time':>7}")

for family, q in (("thm1", 2), ("thm1", 4), ("thm1", 8), ("thm1", 16),
                  ("thm2", 2), ("thm2", 4)):
    started = time.perf_counter()
    built = sf.construct(family, q)
    d, x = built.dictionary, built.vector
    cert = sf.spark_certify(sf.gram_check(d), x)
    elapsed = time.perf_counter() - started
    shape = f"{d.dimension}x{d.n_cols}"
    print(f"{family:8} {q:>3} {shape:>12} {str(cert.coherence):>6} "
          f"{cert.spark:>6} {str(cert.eta_mu):>7} {elapsed:>6.1f}s")

print("\nstructural verifiers at the largest size (q = 16):")
built = sf.construct("thm1", 16)
for rep in (
    sf.verify_net(built.net),
    sf.verify_row_antisymmetry(built.signs),
    sf.gram_check(built.dictionary).report,
):
    print(" ", rep.summary())
