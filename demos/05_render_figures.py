"""Render the three small dictionaries as SVG cell grids.

Red cells are +1, blue cells are -1, gray cells are 0; the strip under each
matrix is the sparse kernel vector.  Output lands in demos/output/.
"""

from pathlib import Path

import spark_forge as sf
from spark_forge.cli import render_svg

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

for family, q in (("thm1", 2), ("thm1", 4), ("thm2", 2)):
    built = sf.construct(family, q)
    d, x = built.dictionary, built.vector
    path = out_dir / f"figure_{family}_q{q}.svg"
    with open(path, "wb") as f:
        render_svg(d.matrix, x.dense(), f)
    print(f"wrote {path} ({d.dimension}x{d.n_cols} cells + vector strip)")
