"""Tour the certificate recipes one by one.

A certificate for "RC_m does not imply RC_n" is a decomposition of n into
parts of size at least 2 such that no way of drawing gcd-sharing
contributions from the parts sums to m.  Each recipe handles a shape of
(m, n) with a different piece of number theory: Bertrand primes, ternary
Goldbach triples, Fermat primes, prime divisors.  Every emitted
certificate is verified by the subset-sum engine before you see it.
"""

from ramseychoice import blocks, build_certificate
from ramseychoice.certificates import (
    recipe_even_dense,
    recipe_even_gap,
    recipe_fermat_shift,
    recipe_greater,
    recipe_odd,
    recipe_prime_divisor,
    recipe_prime_power,
)


def show(trace):
    print(f"  RC_{trace.m} /=> RC_{trace.n}: {trace.decomposition}")
    for line in trace.narrative:
        print(f"    {line}")
    assert blocks(trace.decomposition, trace.m)


def main():
    print("m > n: any decomposition works, take the single block")
    show(recipe_greater(9, 5))

    print("\nn odd: ternary Goldbach supplies a prime triple")
    show(recipe_odd(6, 7))
    show(recipe_odd(3, 9))
    show(recipe_odd(5, 11))

    print("\nn has a prime divisor missing m: copies of that prime")
    show(recipe_prime_divisor(2, 10))
    show(recipe_prime_divisor(9, 10))

    print("\nn a power of m: Bertrand prime plus remainder")
    show(recipe_prime_power(2, 8))
    show(recipe_prime_power(2, 32))

    print("\ngap n - m a power of two with a Fermat prime neighbour")
    show(recipe_fermat_shift(4, 8))
    show(recipe_fermat_shift(16, 32))

    print("\neven n, a prime in the gap above m")
    show(recipe_even_gap(4, 10))
    show(recipe_even_gap(8, 128))
    show(recipe_even_gap(10, 1250))

    print("\neven n with m crowding n: the dense cascade")
    show(recipe_even_dense(48, 54))
    show(recipe_even_dense(116, 128))

    print("\nthe dispatcher picks the first recipe that does not decline:")
    for m, n in [(7, 3), (6, 9), (2, 16), (4, 8), (10, 16), (12, 14)]:
        tr = build_certificate(m, n)
        print(f"  ({m:>2},{n:>2}) -> {str(tr.decomposition):>8}  via {tr.recipe.value}")


if __name__ == "__main__":
    main()
