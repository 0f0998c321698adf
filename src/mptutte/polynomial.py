"""Sparse integer polynomials in x, y, z.

Terms live in a dict mapping exponent triples (a, b, c) to nonzero int
coefficients, so x^2*z is ``{(2, 0, 1): 1}``.  Values are immutable: every
operation returns a fresh Poly.  Coefficients are Python ints, hence exact at
any size.  Bivariate polynomials are simply the z-free case.

One helper, _collect, adds (exponent triple, coefficient) pairs into a term
map for the constructor, sums and products, so a route can hand Poly one
stream of terms.  One routine, powers, lists p^0..p^n for exponentiation,
substitution and the corank-nullity route.
"""


def _collect(terms: dict, pairs) -> dict:
    """Add each (exponent triple, coefficient) pair into `terms`, dropping
    keys whose coefficient becomes zero; returns `terms`."""
    for key, coeff in pairs:
        coeff += terms.get(key, 0)
        if coeff:
            terms[key] = coeff
        else:
            terms.pop(key, None)
    return terms


def _checked(pairs):
    for key, coeff in pairs:
        a, b, c = key
        if a < 0 or b < 0 or c < 0:
            raise ValueError(f"negative exponent in {key!r}")
        yield key, coeff


class Poly:
    """Polynomial with integer coefficients in the variables x, y, z."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """From a term map or an iterable of (key, coefficient) pairs; keys may repeat."""
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        self._terms = _collect({}, _checked(pairs))

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
        other = _coerce(other)
        return other is not None and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(_collect(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(_collect({}, (
            ((a1 + a2, b1 + b2, c1 + c2), v1 * v2)
            for (a1, b1, c1), v1 in self._terms.items()
            for (a2, b2, c2), v2 in other._terms.items())))

    __rmul__ = __mul__

    def powers(self, n: int) -> list:
        """[p^0, p^1, ..., p^n]."""
        out = [ONE]
        for _ in range(n):
            out.append(out[-1] * self)
        return out

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {n!r}")
        return self.powers(n)[n]

    def substitute(self, x=None, y=None, z=None) -> "Poly":
        """Replace variables by polynomials (or ints), fully expanded.

        Omitted variables are left alone, so ``p.substitute()`` is p itself.
        """
        tops = [max(exps) for exps in zip(*self._terms)] or [0, 0, 0]
        xs, ys, zs = ((var if repl is None else _coerce(repl)).powers(top)
                      for var, repl, top in zip((X, Y, Z), (x, y, z), tops))
        return sum((xs[a] * ys[b] * zs[c] * coeff
                    for (a, b, c), coeff in self._terms.items()), ZERO)

    def evaluate(self, xv: int, yv: int, zv: int) -> int:
        return sum(coeff * xv**a * yv**b * zv**c for (a, b, c), coeff in self._terms.items())

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
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", key) if e]
            if abs(coeff) != 1 or not factors:
                factors.insert(0, str(abs(coeff)))
            pieces.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
        text = " ".join(pieces)  # "+ x^2 - y + 1": the leading sign folds in
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"Poly({self})"


def _wrap(terms: dict) -> Poly:
    """A Poly owning `terms`, which must hold no zero coefficient."""
    out = Poly.__new__(Poly)
    out._terms = terms
    return out


def _coerce(value):
    """`value` as a Poly (ints become constants), or None for anything else."""
    if isinstance(value, int):
        return Poly.constant(value)
    return value if isinstance(value, Poly) else None


ZERO = Poly()
ONE = Poly.constant(1)
X = Poly.monomial(1, 0, 0)
Y = Poly.monomial(0, 1, 0)
Z = Poly.monomial(0, 0, 1)
