"""The data that ships with the package, as Python literals.

``COHOMOLOGY_REGISTRY`` is the curated registry document, in the shape of a
``TATEK_REGISTRY`` override file: ``json.dumps(COHOMOLOGY_REGISTRY)`` is a
valid one.  ``series.Registry.from_document`` checks it on every load, as it
checks an override.  The two class-number maps take a prime p to an int.
Reading this module loads no JSON codec.
"""

COHOMOLOGY_REGISTRY = {
    "version": 1,
    "description": (
        "Curated rational cohomology dimension data used by the Tate K-theory "
        "assembler. Each known entry records the finite-support Poincare series "
        "(degree -> dimension over Q) of the named group together with its "
        "literature citation. Entries with status 'unknown' mark groups whose "
        "rational cohomology has no published computation; they carry no series "
        "and poison any result that needs them."
    ),
    "entries": {
        "AutF1": {
            "status": "known",
            "dims": {"0": 1},
            "citation": "Aut(F_1) = Z/2 is finite, hence rationally acyclic.",
        },
        "AutF2": {
            "status": "known",
            "dims": {"0": 1},
            "citation": (
                "Hatcher-Vogtmann, Rational homology of Aut(F_n) (1998): "
                "Aut(F_2) is rationally acyclic."
            ),
        },
        "AutF3": {
            "status": "known",
            "dims": {"0": 1},
            "citation": (
                "Hatcher-Vogtmann, Rational homology of Aut(F_n) (1998): "
                "Aut(F_3) is rationally acyclic."
            ),
        },
        "AutF4": {
            "status": "known",
            "dims": {"0": 1, "4": 1},
            "citation": (
                "Hatcher-Vogtmann (1998) with Gerlits (thesis, Thm 3.3): "
                "H_i(Aut(F_4); Q) = 0 unless i = 0, 4, and H_4(Aut(F_4); Q) = Q."
            ),
        },
        "AutF5": {
            "status": "known",
            "dims": {"0": 1, "7": 1},
            "citation": (
                "Gerlits (thesis, computer calculation): H_7(Aut(F_5); Q) = Q "
                "and H_i(Aut(F_5); Q) = 0 for i != 0, 7."
            ),
        },
        "AutF6": {
            "status": "unknown",
            "citation": "H_*(Aut(F_6); Q) has no published computation.",
        },
        "AutF7": {
            "status": "unknown",
            "citation": "H_*(Aut(F_7); Q) has no published computation.",
        },
        "OutF2": {
            "status": "known",
            "dims": {"0": 1},
            "citation": "Out(F_2) = GL_2(Z) is virtually free, hence rationally acyclic.",
        },
        "OutF3": {
            "status": "known",
            "dims": {"0": 1},
            "citation": "Brady (1993); Ohashi: Out(F_3) is rationally acyclic.",
        },
        "OutF4": {
            "status": "known",
            "dims": {"0": 1, "4": 1},
            "citation": (
                "Ohashi, The rational homology group of Out(F_n) for n <= 6: one "
                "nontrivial class in positive degree; degree placement (4) "
                "conventional, even/odd totals cross-checked against rationalised "
                "K-theory."
            ),
        },
        "OutF5": {
            "status": "known",
            "dims": {"0": 1},
            "citation": (
                "Ohashi, The rational homology group of Out(F_n) for n <= 6: "
                "Out(F_5) is rationally acyclic."
            ),
        },
        "OutF6": {
            "status": "known",
            "dims": {"0": 1, "8": 1},
            "citation": (
                "Ohashi, The rational homology group of Out(F_n) for n <= 6: one "
                "nontrivial class in positive degree; degree placement (8) "
                "conventional, even/odd totals cross-checked against rationalised "
                "K-theory."
            ),
        },
        "OutF7": {
            "status": "known",
            "dims": {"0": 1, "8": 1, "11": 1},
            "citation": (
                "Bartholdi, The rational homology of the outer automorphism group "
                "of F_7: two even classes (degrees 0, 8) and one odd class "
                "(degree 11)."
            ),
        },
        "RoseCentralizerCore_n=l+1": {
            "status": "known",
            "dims": {"0": 1},
            "citation": (
                "Chen (thesis, 1997): (Z x| Z/2) x| Z/2 is rationally acyclic, by "
                "two Lyndon-Hochschild-Serre spectral sequence arguments."
            ),
        },
        "RoseCentralizerCore_n=l+2": {
            "status": "known",
            "dims": {"0": 1},
            "citation": (
                "Chen (thesis, 1997), proof of Prop 3.4.4 with Hatcher-Vogtmann "
                "(1998): (F_2 x| Aut(F_2)) x| Z/2 is rationally acyclic."
            ),
        },
        "RoseCentralizerCore_n=l+3": {
            "status": "known",
            "dims": {"0": 1, "4": 1},
            "citation": (
                "Satoh (Thm 3: H^2(Out(F_3); L^2 H_1(F_3; Q)) = Q) combined with "
                "Chen (thesis, (3.5.23)): H^*((F_3 x| Aut(F_3)) x| Z/2; Q) = Q in "
                "degrees 0 and 4 only."
            ),
        },
        "F4SemidirectAutF4_Z2invariants": {
            "status": "unknown",
            "citation": "H^*(F_4 x| Aut(F_4); Q)^{Z/2} has no published computation.",
        },
        "DeltaCentralizer_Out8_p5": {
            "status": "known",
            "dims": {"0": 1},
            "citation": (
                "Glover-Henn, Prop 1.3: the centraliser of the diagonal order-5 "
                "class in Out(F_8) is rationally acyclic."
            ),
        },
    },
}

# External number-theoretic inputs, not derived by this package: class
# numbers h_p of the cyclotomic fields Q(zeta_p) and relative class numbers
# h_p^- = h_p / h(Q(zeta_p + zeta_p^{-1})).  Values from standard tables
# (e.g. Washington, Introduction to Cyclotomic Fields, Tables 1-3).
# h_p = h_p^- = 1 for all primes p <= 19, and h_23 = h_23^- = 3.
CYCLOTOMIC_CLASS_NUMBER = {3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 3}
RELATIVE_CLASS_NUMBER = {3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 3}
