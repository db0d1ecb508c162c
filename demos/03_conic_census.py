"""Filter the 800 conic vectors out of the minimal shell and recount.

A conic vector is a minimal vector with prescribed raw dot products
(16, 8, 0, 0, 0) against the five seed rows. The census classifies all
800 into four coordinate patterns, then recounts each pattern from the
code alone -- number of codewords meeting a fixed window times the sign
and position choices each one carries -- so the two totals meet in the
middle. The intersection histogram and a 16-clique of pairwise disjoint
conics close the combinatorial story.
"""

import numpy as np

from conics800 import census, golay, leech


def main() -> None:
    code, _ = golay.normalize_frame(golay.build_golay())
    vectors = leech.all_minimal_vectors(code)

    census.validate_seed()
    print("Seed rows (raw coordinates, true product = raw/8):")
    for name, row in zip(census.SEED_NAMES, census.SEED_ROWS):
        support = [f"{x:+d}@{i+1}" for i, x in enumerate(row) if x]
        print(f"  {name:>4}: {' '.join(support)}")

    print("\nFiltering minimal vectors with raw seed products "
          f"{census.CONIC_RAW_DOTS}...")
    conics = census.find_conics(vectors)
    records = census.classify_all(conics, code)
    print(f"  {len(conics)} conic vectors, split {census.pattern_split(records)}")

    print("\nIndependent recount from the code alone:")
    recount = census.recount_by_codewords(code)
    for p, d in recount["patterns"].items():
        print(f"  {p}: {recount['correspondence'][p]}")
        print(f"      {d['underline']} codewords per window x "
              f"{d['signs_per_codeword']} choices -> {d['recount']}")
    print(f"  total {recount['total']}")

    print("\nPairwise true products over all C(800,2) pairs:")
    products, hist = census.intersection_data(conics)
    for v, c in sorted(hist.items()):
        print(f"  product {v:>2}: {c} pairs")

    print("\nSearching for 16 pairwise disjoint conics (product 2)...")
    masks = census.disjointness_masks(products)
    clique = census.find_disjoint_16(masks)
    print(f"  first clique (conic indices): {clique}")
    sub = products[np.ix_(clique, clique)]
    off = sub[~np.eye(16, dtype=bool)]
    print(f"  all 120 pairwise products equal 2: {bool((off == 2).all())}")
    print(f"  extendable to a 17th conic: "
          f"{census.clique_extension_exists(masks, clique)}")


if __name__ == "__main__":
    main()
