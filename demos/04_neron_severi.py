"""Build the rank-20 polarized lattice and run the geometry-side checks.

The conic vectors live in the positive-definite hull S of the seed's
partial complement; gluing a half-integral vector onto h^perp + Zh
produces the even lattice N of signature (1,19) with determinant -160
that plays the role of a Neron-Severi lattice. The script verifies the
discriminant-form identifications and scans for the two kinds of "bad"
classes whose absence keeps the degree-4 polarization very ample -- so
the 800 conic classes really are 800 smooth conics on a smooth quartic.
"""

import numpy as np

from conics800 import census, exact, golay, leech, ns
from conics800.lattices import IntegralLattice, short_vectors


def main() -> None:
    code, _ = golay.normalize_frame(golay.build_golay())
    vectors = leech.all_minimal_vectors(code)
    lam = IntegralLattice(leech.extract_basis(vectors), ambient_scale=8)
    conics = census.find_conics(vectors)
    products, _ = census.intersection_data(conics)

    print("S = orthogonal complement of the seed's h-perp part:")
    s = ns.build_S(lam)
    roots = short_vectors(s.gram_int(), 2)
    print(f"  rank {s.rank}, contains hbar: {s.contains(list(ns.HBAR))}, "
          f"contains all 800 conics: {all(s.contains(row) for row in conics)}")
    print(f"  norm-2 vectors (roots): {len(roots)} -> root free")
    print(f"  x.hbar even for the whole lattice: {ns.check_hbar_parity(s)}")

    print("\nGluing the index-2 extension N of (hbar-perp in S) + Zh...")
    n = ns.build_N(s, conics)
    gram_int = [[int(x) for x in row] for row in n.gram]
    print(f"  rank {n.rank}, det {exact.det_bareiss(gram_int)}, "
          f"signature {exact.signature(gram_int)}")
    print(f"  h.h = {int(n.h @ n.gram @ n.h)}, h.x always even: "
          f"{ns.check_h_parity(n)}")
    cc = n.classes @ n.gram @ n.classes.T
    ch = n.classes @ n.gram @ n.h
    print(f"  800 conic classes c = l - hbar/2 + h/2: c^2 = -2 all "
          f"({bool((cc.diagonal() == -2).all())}), c.h = 2 all ({bool((ch == 2).all())})")
    comp = np.array_equal(cc, 2 - products)
    print(f"  c_i.c_j = 2 - l_i.l_j for all pairs: {comp}")
    print(f"  glue choice does not matter: "
          f"{ns.check_glue_independence(n, conics, other_index=1)}")

    print("\nDiscriminant forms (group order, block identifications):")
    disc = ns.verify_discriminants(n)
    print(f"  orders: {disc['group_orders']}")
    for name in ("seed_block_form", "N_block_form_a", "N_block_form_b",
                 "neg_N_vs_T", "complement_identity"):
        print(f"  {name}: {disc[name]}")

    print("\nScanning N for bad classes...")
    kind1, kind2 = ns.scan_N(n)
    print(f"  e^2 = -2, e.h = 0 (contracted curves):   {len(kind1)} found")
    print(f"  e^2 =  0, e.h = 2 (degree-2 isotropic):  {len(kind2)} found")
    print("  both empty -> |h| embeds the surface as a smooth quartic and")
    print("  every conic class is an irreducible smooth conic.")
    # The exact count is this repo's measurement, not a claim taken from
    # the paper.
    conic_classes = ns.classes_of(n.gram, n.h, -2, 2)
    same = set(conic_classes) == set(map(tuple, n.classes.tolist()))
    print(f"  e^2 = -2, e.h = 2 (all conic classes):   {len(conic_classes)} found, "
          f"exactly the constructed 800: {same}")

    print("\nNegative controls (planted bad vectors must be caught):")
    k1, _ = ns.bad_vector_scan(ns.PLANTED_KIND1, (1, 0))
    _, k2 = ns.bad_vector_scan(ns.PLANTED_KIND2, (1, 0))
    print(f"  diag(4,-2)      -> kind-1 witnesses {sorted(k1)}")
    print(f"  [[4,2],[2,0]]   -> kind-2 witnesses {sorted(k2)}")


if __name__ == "__main__":
    main()
