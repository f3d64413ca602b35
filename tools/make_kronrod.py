"""Nested Gauss-Kronrod-Patterson rules on [-1, 1], in mpmath.

    python3 tools/make_kronrod.py

A rule of n nodes x_i is extended by the n + 1 roots of the monic
polynomial E of degree n + 1 that is orthogonal, under the weight
p(x) = prod (x - x_i), to every polynomial of degree n or less; the 2n + 1
nodes then get their interpolatory weights.  On the 10-point Gauss rule
this gives Kronrod's 21-point rule, and on that the 43-point rule of
Patterson (T. N. L. Patterson, "The optimum addition of points to quadrature
formulae", Math. Comp. 22, 1968), the 10-21-43 sequence of QUADPACK's qng
(Piessens et al., 1983).

A symmetric rule's p has the parity of n and E that of n + 1, so E is
x**((n + 1) % 2) Q(x**2), and Q, of degree (n + 1) // 2, is found from as
many moment conditions and solved for its roots in u = x**2.  The Gauss
rule is the same construction with p = 1.

The script prints, in the layout of ``immse.quadrature``, the positive half
of each rule from the node nearest 1 down to 0: the 21-point rule's nodes
and weights (``_XK``, ``_WK``), then the 43-point rule's 11 new nodes, which
interlace with ``_XK`` (``_XP``), and its 22 weights in the merged order
(``_W43``).
"""
from __future__ import annotations

import mpmath as mp

DPS = 120          # working digits; the tables are printed to 33 decimals
DIGITS = 33


def _poly_from_roots(roots):
    """Coefficients, lowest degree first, of prod (x - r)."""
    c = [mp.mpf(1)]
    for r in roots:
        c = [mp.mpf(0)] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    return c


def orthogonal_roots(weight, degree):
    """Roots, descending, of the monic polynomial of ``degree`` orthogonal on
    [-1, 1] under the polynomial ``weight`` (coefficients lowest first, of
    one parity) to every polynomial of lower degree."""
    def moment(r):         # ∫ weight(x) x**r dx over [-1, 1]
        return mp.fsum(2 * c / (i + r + 1) for i, c in enumerate(weight)
                       if (i + r) % 2 == 0)
    odd, m = degree % 2, degree // 2
    ks = [k for k in range(degree) if (len(weight) - 1 + degree + k) % 2 == 0]
    a = mp.matrix([[moment(odd + 2 * j + k) for j in range(m)] for k in ks])
    b = mp.matrix([-moment(odd + 2 * m + k) for k in ks])
    q = mp.lu_solve(a, b)
    us = mp.polyroots([mp.mpf(1)] + [q[j] for j in reversed(range(m))],
                      maxsteps=200, extraprec=2 * mp.mp.prec)
    xs = [mp.sqrt(mp.re(u)) for u in us]
    xs = xs + [-x for x in xs] + [mp.mpf(0)] * odd
    return sorted(xs, reverse=True)


def weights(nodes):
    """Interpolatory weights of a symmetric rule, for its nodes >= 0."""
    half = [x for x in nodes if x >= 0]
    mult = [2 if x > 0 else 1 for x in half]
    a = mp.matrix([[c * x ** (2 * k) for x, c in zip(half, mult)]
                   for k in range(len(half))])
    b = mp.matrix([mp.mpf(2) / (2 * k + 1) for k in range(len(half))])
    return half, list(mp.lu_solve(a, b))


def gauss(n):
    """The n-point Gauss-Legendre nodes, descending."""
    return orthogonal_roots([mp.mpf(1)], n)


def extend(nodes):
    """The nested extension of a rule: (new nodes, every node), descending."""
    new = orthogonal_roots(_poly_from_roots(nodes), len(nodes) + 1)
    return new, sorted(nodes + new, reverse=True)


def tables():
    """(_XK, _WK, _XP, _W43) as mpf lists, each the positive half of its
    rule from the node nearest 1 down to 0."""
    with mp.workdps(DPS):
        _, k21 = extend(gauss(10))
        xk, wk = weights(k21)
        new, k43 = extend(k21)
        _, w43 = weights(k43)
        xp = [x for x in new if x > 0]
        return xk, wk, xp, w43


def _literal(name, values):
    # every value lies in [0, 1): DIGITS decimals, rounded
    body = [f"0.{int(mp.nint(v * 10 ** DIGITS)):0{DIGITS}d}" if v else "0.0"
            for v in values]
    lines = [", ".join(body[i:i + 2]) for i in range(0, len(body), 2)]
    return f"{name} = np.array([\n    " + ",\n    ".join(lines) + "])"


def main():
    with mp.workdps(DPS):
        for name, values in zip(("_XK", "_WK", "_XP", "_W43"), tables()):
            print(_literal(name, values))


if __name__ == "__main__":
    main()
