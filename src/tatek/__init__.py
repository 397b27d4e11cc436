"""Exact-arithmetic computation of p-adic Farrell-Tate K-theory dimensions.

The toolkit covers: mod-p matrix stabilisers and Burnside orbit counts on
nontrivial maps F_2 -> Z/p, equivariant graphs with Whitehead moves and
rose-cycle normal forms, a citation-tagged registry of known rational group
cohomology, enumeration of order-p conjugacy classes of Out(F_n), and the
assembly of Farrell-Tate and rationalised p-adic K-theory dimension tables.
Each layer is imported as ``tatek.<layer>``; the root holds only the version.
"""

__version__ = "0.1.0"
