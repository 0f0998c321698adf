"""Sparse integer polynomials in x, y, z.

Terms live in a dict mapping exponent triples (a, b, c) to nonzero int
coefficients, so x^2*z is ``{(2, 0, 1): 1}``.  Values are immutable: every
operation returns a fresh Poly.  Coefficients are Python ints, hence exact at
any size.  Bivariate polynomials are simply the z-free case; there is one
arithmetic core and specializations become assertions.
"""


class Poly:
    """Polynomial with integer coefficients in the variables x, y, z."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                a, b, c = key
                if a < 0 or b < 0 or c < 0:
                    raise ValueError(f"negative exponent in {key!r}")
                coeff = d.get(key, 0) + coeff
                if coeff:
                    d[key] = coeff
                elif key in d:
                    del d[key]
        self._terms = d

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff: int = 1) -> "Poly":
        return cls({(a, b, c): coeff})

    @classmethod
    def constant(cls, value: int) -> "Poly":
        return cls({(0, 0, 0): value})

    def terms(self) -> dict:
        """Copy of the term map (exponent triple -> coefficient)."""
        return dict(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        return isinstance(other, Poly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        d = dict(self._terms)
        for key, coeff in other._terms.items():
            s = d.get(key, 0) + coeff
            if s:
                d[key] = s
            elif key in d:
                del d[key]
        out = Poly.__new__(Poly)
        out._terms = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out._terms = {k: -v for k, v in self._terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        d = {}
        for (a1, b1, c1), v1 in self._terms.items():
            for (a2, b2, c2), v2 in other._terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                s = d.get(key, 0) + v1 * v2
                if s:
                    d[key] = s
                elif key in d:
                    del d[key]
        out = Poly.__new__(Poly)
        out._terms = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {n!r}")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute(self, x=None, y=None, z=None) -> "Poly":
        """Replace variables by polynomials (or ints), fully expanded.

        Omitted variables are left alone, so ``p.substitute()`` is p itself.
        """
        subs = []
        for default, repl in ((X, x), (Y, y), (Z, z)):
            if repl is None:
                repl = default
            elif isinstance(repl, int):
                repl = Poly.constant(repl)
            subs.append(repl)
        xs, ys, zs = subs
        # memoize powers; exponents repeat heavily in activity expansions
        pows = ({0: ONE}, {0: ONE}, {0: ONE})

        def power(which, base, n):
            cache = pows[which]
            if n not in cache:
                cache[n] = power(which, base, n - 1) * base
            return cache[n]

        total = ZERO
        for (a, b, c), coeff in self._terms.items():
            term = power(0, xs, a) * power(1, ys, b) * power(2, zs, c)
            total = total + term * coeff
        return total

    def evaluate(self, xv: int, yv: int, zv: int) -> int:
        return sum(
            coeff * xv**a * yv**b * zv**c for (a, b, c), coeff in self._terms.items()
        )

    def max_z_exponent(self) -> int:
        """Largest z exponent present (0 for the zero polynomial)."""
        return max((c for (_, _, c) in self._terms), default=0)

    def __str__(self):
        """Canonical form: terms in descending lex order of (a, b, c).

        Unit coefficients and zero exponents are elided; exponent 1 prints
        bare.  Example: ``x^2*z + 2*x - y``.
        """
        if not self._terms:
            return "0"
        pieces = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
            vars_part = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip("xyz", key)
                if e
            )
            mag = abs(coeff)
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = body if sign == "+" else "-" + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self})"


ZERO = Poly()
ONE = Poly.constant(1)
X = Poly.monomial(1, 0, 0)
Y = Poly.monomial(0, 1, 0)
Z = Poly.monomial(0, 0, 1)
