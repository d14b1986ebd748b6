"""The one replacement table of the gathering process.

``gathering`` bubbles a small letter through the big run with it, and
``rewriting`` reads it on crossings as the rules I1-I4.  It depends on
nothing, so either engine loads it without the other.
"""

from __future__ import annotations


def pattern_rhs(a: int, b: int, c: int) -> tuple[str, tuple[int, ...]] | None:
    """(rule name, replacement) for the non-commuting configurations.

    ``a b`` are the last two letters before the gathered letter ``c``, and
    ``x_p x_q`` with ``|p - q| = 1`` are the generators of ``b`` and ``c``.
    Each configuration is written once for both ``q = p + 1`` and its mirror
    image ``q = p - 1``, and named by the crossing rule I1-I4 it is; the four
    are exhaustive for freely reduced words, anything else returns None.
    """
    p, q = abs(b), abs(c)
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    sc = 1 if c > 0 else -1
    if abs(p - q) == 1:
        if abs(a) == q:
            if sb == sc:
                # x_q^d x_p^e x_q^e -> x_p^e x_q^e x_p^d
                return "I1", (p * sb, q * sb, p * sa)
            if sa == sb:
                # x_q^e x_p^e x_q^d -> x_p^d x_q^e x_p^e
                return "I2", (p * sc, q * sa, p * sa)
            # sa == sc == -sb: x_q^e x_p^-e x_q^e -> x_p^e x_q^e x_p^2e x_q^-2e x_p^-e
            return "I4", (p * sa, q * sa, p * sa, p * sa, -q * sa, -q * sa, -p * sa)
        if abs(a) == p and sa == sb:
            # x_p^e x_p^e x_q^d -> x_q^d x_p^d x_q^2e x_p^-d
            return "I3", (q * sc, p * sc, q * sa, q * sa, -p * sc)
    return None
