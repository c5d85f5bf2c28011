#!/usr/bin/env python3
"""Walk through the canonical decomposition machinery on small germs:
the four-term cancellation, residues, and dependence subspaces."""

from linpole import (DEFAULT_Q, d_residue, decompose, dependence, germ_sum,
                     p_residue, parse_germ, recompose, zvar)

q = DEFAULT_Q
z1, z2, z3 = zvar(1), zvar(2), zvar(3)


def show(title, value):
    print(f"{title:<44} {value}")


def main():
    g = parse_germ("z2/(z1+z2)")
    d = decompose(g, q)
    show("decompose z2/(z1+z2):", d)
    show("recompose == input:", recompose(d) == g)

    four = parse_germ("1/(z1*(z1+z2)) + 1/(z2*(z1+z2)) "
                      "- 2/(z1*(z1+2*z2)) - 1/(z2*(z1+2*z2))")
    show("four-term sum:", four)
    five = germ_sum((four, parse_germ("1/z3")))
    show("dependence of the five-term germ:", dependence(five, q))

    mixed = parse_germ("1/(z1*z2) + 1/z1^2 + (1+z2)/z1")
    show("p-residue of 1/(z1 z2)+1/z1^2+(1+z2)/z1:", p_residue(mixed, q))
    show("d-residue of the same germ:", d_residue(mixed, q))

    dependent = parse_germ("1/(z1*z2*(z1+z2))")
    show("dependent denominator splits:", decompose(dependent, q))


if __name__ == "__main__":
    main()
