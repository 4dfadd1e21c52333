"""Dense polynomial arithmetic over the prime field F_p.

Polynomials are tuples of ints in [0, p), ascending degree, with no trailing
zeros; () is the zero polynomial.  This module only serves the construction
of finite field contexts; user-facing polynomial types live elsewhere.  It
also owns the mixed-radix digits that every enumeration index decodes to.
"""


def digits(idx, radix, count):
    """The count base-radix digits of idx, most significant first."""
    out = [0] * count
    for i in range(count - 1, -1, -1):
        idx, out[i] = divmod(idx, radix)
    return out


def trim(c):
    """Drop trailing zeros, returning a canonical tuple."""
    c = tuple(c)
    k = len(c)
    while k and c[k - 1] == 0:
        k -= 1
    return c[:k]


def add(a, b, p):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim((x + y) % p for x, y in zip(a, b))


def sub(a, b, p):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim((x - y) % p for x, y in zip(a, b))


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(v % p for v in out)


def divmod_(a, b, p):
    """Return (q, r) with a = q*b + r and deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(trim(r)) - 1 >= db:
        r = list(trim(r))
        k = len(r) - 1 - db
        c = (r[-1] * inv_lead) % p
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] = (r[k + j] - c * y) % p
    return trim(q), trim(r)


def mod(a, b, p):
    return divmod_(a, b, p)[1]


def gcd(a, b, p):
    """Monic greatest common divisor."""
    while b:
        a, b = b, mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((c * inv) % p for c in a)
    return a


def pow_mod(a, e, m, p):
    result = (1,)
    a = mod(a, m, p)
    while e:
        if e & 1:
            result = mod(mul(result, a, p), m, p)
        a = mod(mul(a, a, p), m, p)
        e >>= 1
    return result


def is_irreducible(f, p):
    """Rabin's test: f of degree d is irreducible over F_p iff
    x^(p^d) = x mod f and gcd(x^(p^(d/r)) - x, f) = 1 for primes r | d."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    x = (0, 1)
    for r in _prime_divisors(d):
        h = pow_mod(x, p ** (d // r), f, p)
        if gcd(sub(h, x, p), f, p) != (1,):
            return False
    return pow_mod(x, p**d, f, p) == mod(x, f, p)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def canonical_irreducible(p, d):
    """The canonical monic irreducible of degree d over F_p.

    Candidates x^d + c are scanned by the integer encoding of the lower
    coefficients, c_0 + c_1*p + ... + c_{d-1}*p^(d-1), smallest first.
    """
    if d == 1:
        return (0, 1)
    for idx in range(p**d):
        cand = tuple(reversed(digits(idx, p, d))) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible of degree {d} over F_{p}")
