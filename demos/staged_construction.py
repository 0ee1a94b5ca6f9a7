"""Grow a small homogeneous selector structure stage by stage.

Stage i adds, for every small base subset of the previous stage and every
way it could sit inside a one-atom-larger structure, a fresh witness atom
realizing that extension.  Pair selections not forced by a witness go to
the larger atom.  After two stages at arity 2 every one-point extension
over a single atom is already realized inside the structure, which is the
finite shadow of the amalgamation argument.
"""

from ramseychoice import catalog_models, check_one_point_extension, run_fraisse_stages


def main():
    print("building blocks: arity-2 structures on k atoms, up to isomorphism")
    for k in range(1, 7):
        print(f"  k={k}: {len(catalog_models(2, k))} classes")
    print()

    chain = run_fraisse_stages(2, 2)
    for i, mod in enumerate(chain):
        print(f"stage {i}: {len(mod.domain)} atoms")
    f2 = chain[-1]
    print()
    print("final stage selections:")
    for p in sorted(f2.sel):
        print(f"  {p} -> {f2.sel[p]}")
    print()

    ok, missing = check_one_point_extension(f2, 2, 2)
    print(f"every one-point extension of a single atom realized: {ok}")

    print()
    print("a third stage adds a witness for every pair-sized base:")
    chain = run_fraisse_stages(2, 3)
    print(f"  sizes: {[len(m.domain) for m in chain]}")


if __name__ == "__main__":
    main()
