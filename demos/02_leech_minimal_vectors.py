"""Enumerate the 196560 minimal vectors of the Leech lattice.

Vectors are kept in raw integer coordinates (the true inner product is
the raw dot product divided by 8), so every later computation is exact.
The three constructions -- sign-flipped (+-1, -+3) vectors on code
supports, (+-2)^8 vectors on octads, and (+-4)^2 pairs -- together give
the full minimal shell, and 24 of the vectors already span the lattice
with a unimodular Gram matrix.
"""

from conics800 import exact, leech, golay
from conics800.lattices import IntegralLattice


def main() -> None:
    code, _ = golay.normalize_frame(golay.build_golay())

    print("Enumerating the minimal vectors by shape...")
    vectors, cen = leech.census(code)
    names = ("one +-3 with +-1 elsewhere (sign word in the code)",
             "+-2 on the 8 positions of an octad (even number of -)",
             "+-4 on two positions")
    for count, name in zip(cen.shape_counts, names):
        print(f"  {count:>6}  {name}")
    print(f"  ------\n  {cen.total:>6}  total "
          f"(expected {leech.MINIMAL_COUNT})")

    print("\nExhaustive invariants over all vectors:")
    print(f"  every raw norm is 32 (true norm 4): {cen.all_norm_32}")
    print(f"  no duplicates:                      {cen.distinct}")
    print(f"  closed under negation:              {cen.negation_closed}")

    print("\nExtracting a basis by exchange from the minimal vectors...")
    basis = leech.extract_basis(vectors)
    gram = IntegralLattice(basis, ambient_scale=8).gram_int()
    det = exact.det_bareiss(gram)
    minimal = all(sum(x * x for x in row) == leech.RAW_NORM for row in basis)
    print(f"  24 rows, all minimal vectors: {minimal}")
    print(f"  Gram determinant (fraction-free): {det} -> unimodular")
    print(f"  even diagonal: {all(gram[i][i] % 2 == 0 for i in range(24))}")
    print("\nAn even unimodular positive-definite rank-24 lattice with no")
    print("norm-2 vectors is the Leech lattice; the no-roots half is the")
    print("heavy cross-check (CLI: leech --heavy).")


if __name__ == "__main__":
    main()
