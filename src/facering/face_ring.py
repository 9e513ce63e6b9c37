"""The Stanley-Reisner ring of a boolean complex on its standard-monomial basis.

Elements are sparse maps from standard monomials (chain-supported exponent
multisets) to nonzero canonical scalars (:func:`facering.coeff.normal`).
Each constructor normalizes the values it is given once and drops zeros, so
arithmetic hands it unreduced ints and ``Fraction``s.  Two presentations
share this basis: the face ring itself (products of incomparable generators
straighten through the meet/minimal-upper-bound rewrite) and the associated
discrete ring (such products vanish), which is how the ring of the
barycentric subdivision is carried on the poset of the original complex.

A standard monomial is a tuple of (face index, exponent) pairs sorted by
rank; the empty tuple is the monomial 1.  Operations return new elements and
never modify their inputs.  Straightening results and parameter-monomial
expansions have integer coefficients, so they are memoized on the complex
once, as integer counts and as rational elements, and reduced into a prime
field on use; the caches are field-independent.  The memo caches are
append-only and each key is stored once, with its finished value, by
``dict.setdefault``: concurrent readers may repeat work but never see a
partial result, and all of them get the first stored value.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .coeff import FieldSpec, Raw, normal
from .complexes import EMPTY, Balancing, BooleanComplex, require_valid_balancing
from .errors import ComplexMismatch, FieldMismatch, InputError
from .partitions import Partition, sh, sh_inverse

Mono = tuple[tuple[int, int], ...]

RATIONAL = FieldSpec.rational()


def canonical_mono(complex: BooleanComplex, pairs: Iterable[tuple[int, int]]) -> Mono:
    """Sort support by rank and merge repeats; drops the empty face."""
    counts: dict[int, int] = {}
    for f, e in pairs:
        if f == EMPTY or e == 0:
            continue
        counts[f] = counts.get(f, 0) + e
    return tuple(sorted(counts.items(), key=lambda fe: (complex.rank[fe[0]], fe[0])))


def mono_is_chain(complex: BooleanComplex, mono: Mono) -> bool:
    support = [f for f, _ in mono]
    return all(complex.leq(support[i], support[i + 1])
               for i in range(len(support) - 1))


def mono_degree(complex: BooleanComplex, mono: Mono) -> int:
    return sum(e * complex.rank[f] for f, e in mono)


def mono_rank_multidegree(complex: BooleanComplex, mono: Mono) -> tuple[int, ...]:
    """Exponent-vector degree counting ranks: the j-th entry counts rank-j factors."""
    vec = [0] * complex.n
    for f, e in mono:
        vec[complex.rank[f] - 1] += e
    return tuple(vec)


def mono_shape(complex: BooleanComplex, mono: Mono) -> Partition:
    """The partition sum of exponent * (1^rank) over the support."""
    return sh(mono_rank_multidegree(complex, mono))


def mono_label_multidegree(complex: BooleanComplex, balancing: Balancing,
                           mono: Mono) -> tuple[int, ...]:
    """Exponent-vector degree counting labels of the vertices under each factor."""
    vec = [0] * balancing.n
    for f, e in mono:
        for j in balancing.label_set(f):
            vec[j - 1] += e
    return tuple(vec)


def add_terms(acc: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, coefficient) pairs into ``acc`` in place, dropping every key
    whose coefficient cancels to zero; returns ``acc``."""
    for key, c in pairs:
        old = acc.get(key)
        total = c if old is None else old + c
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


class RingElement:
    """A field-coefficient combination of standard monomials.

    ``discrete`` selects the presentation: False for the face ring itself,
    True for the discrete ring (the subdivision's ring carried on the same
    poset, with incomparable products equal to zero).
    """

    __slots__ = ("complex", "field", "discrete", "terms")

    def __init__(self, complex: BooleanComplex, field: FieldSpec,
                 discrete: bool, terms: Mapping[Mono, Raw]):
        self.complex = complex
        self.field = field
        self.discrete = discrete
        p = field.p
        self.terms = {m: y for m, c in terms.items() if (y := normal(c, p))}

    @classmethod
    def zero(cls, complex, field, discrete=False) -> "RingElement":
        return cls(complex, field, discrete, {})

    @classmethod
    def one(cls, complex, field, discrete=False) -> "RingElement":
        return cls(complex, field, discrete, {(): 1})

    @classmethod
    def monomial(cls, complex, field, mono: Mono, coeff: Raw = 1,
                 discrete=False) -> "RingElement":
        mono = canonical_mono(complex, mono)
        if not mono_is_chain(complex, mono):
            raise InputError("monomial support is not a chain")
        return cls(complex, field, discrete, {mono: coeff})

    def _check(self, other: "RingElement") -> None:
        if self.complex is not other.complex or self.discrete != other.discrete:
            raise ComplexMismatch("elements live in different rings")
        if self.field != other.field:
            raise FieldMismatch(f"mixed fields {self.field} and {other.field}")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingElement)
                and self.complex is other.complex
                and self.discrete == other.discrete
                and self.field == other.field
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.complex, self.field, self.discrete,
                           add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.complex, self.field, self.discrete,
                           {m: -c for m, c in self.terms.items()})

    def scale(self, coeff: Raw) -> "RingElement":
        return RingElement(self.complex, self.field, self.discrete,
                           {m: coeff * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Mono, Raw] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                merged = canonical_mono(self.complex, m1 + m2)
                if not self.discrete:
                    add_terms(out, ((mono, c * mult) for mono, mult
                                    in _straighten_counts(self.complex,
                                                          merged).items()))
                elif mono_is_chain(self.complex, merged):
                    add_terms(out, [(merged, c)])
        return RingElement(self.complex, self.field, self.discrete, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def map_faces(self, perm: Sequence[int]) -> "RingElement":
        """Relabel every monomial along a rank-preserving face permutation."""
        terms = add_terms({}, (
            (canonical_mono(self.complex, ((perm[f], e) for f, e in m)), c)
            for m, c in self.terms.items()))
        return RingElement(self.complex, self.field, self.discrete, terms)

    def sorted_terms(self) -> list[tuple[Mono, Raw]]:
        return sorted(self.terms.items(),
                      key=lambda mc: term_sort_key(self.complex, mc[0]))

    def shape_component(self, lam: Partition) -> "RingElement":
        return RingElement(self.complex, self.field, self.discrete,
                           {m: c for m, c in self.terms.items()
                            if mono_shape(self.complex, m) == lam})

    def degree_components(self) -> dict[int, "RingElement"]:
        split: dict[int, dict[Mono, Raw]] = {}
        for m, c in self.terms.items():
            split.setdefault(mono_degree(self.complex, m), {})[m] = c
        return {d: RingElement(self.complex, self.field, self.discrete, t)
                for d, t in split.items()}

    def __repr__(self) -> str:
        from .expressions import format_element
        return f"<RingElement {format_element(self)}>"


def term_sort_key(complex: BooleanComplex, mono: Mono):
    """Printing and enumeration order: (degree, shape lex, support lex)."""
    return (mono_degree(complex, mono),
            tuple(mono_shape(complex, mono)),
            tuple((complex.ids[f], e) for f, e in mono))


# -- straightening ------------------------------------------------------------------


def _rewrite_product(complex: BooleanComplex, mono: Mono,
                     a: int, b: int) -> list[Mono]:
    """Replace one factor x_a * x_b via the straightening relation.

    Returns the canonical child monomials (none when a, b have no common
    upper bound, so the term dies).
    """
    lub = complex.lub_set(a, b)
    if not lub:
        return []
    base = [(f, e - (f == a) - (f == b)) for f, e in mono]
    base.append((complex.meet(a, b), 1))
    return [canonical_mono(complex, base + [(g, 1)]) for g in lub]


def _straighten_counts(complex: BooleanComplex, mono: Mono,
                       pick: Callable | None = None,
                       memo: dict | None = None) -> dict[Mono, int]:
    """Integer-coefficient normal form of a canonical exponent multiset.

    Depth first over an explicit stack of (monomial, children) frames, so
    deep powers cannot exhaust the interpreter stack.  ``pick(pairs)``
    chooses which incomparable support pair to rewrite; by default a pair
    without common upper bound (the term dies at once), else the pair of
    lowest combined rank.  ``memo`` defaults to the complex's cache, and a
    key is written only once its result is complete.  Rewrite coefficients
    are nonnegative integers, so one cache serves every coefficient field.
    Terminates because each rewrite strictly lowers the term's shape in
    dominance order.
    """
    memo = complex._straighten_cache if memo is None else memo
    if pick is None:
        up, rank = complex.up, complex.rank
        pick = lambda pairs: min(pairs, key=lambda p: (
            bool(up[p[0]] & up[p[1]]), rank[p[0]] + rank[p[1]], p))
    stack: list[tuple[Mono, list[Mono] | None]] = [(mono, None)]
    while stack:
        m, children = stack.pop()
        if m in memo:
            continue
        if children is not None:
            memo.setdefault(m, add_terms({}, (mk for c in children
                                              for mk in memo[c].items())))
            continue
        support = sorted(f for f, _ in m)
        pairs = [(a, b) for i, a in enumerate(support) for b in support[i + 1:]
                 if not complex.comparable(a, b)]
        if not pairs:
            memo.setdefault(m, {m: 1})
            continue
        children = _rewrite_product(complex, m, *pick(pairs))
        stack.append((m, children))
        stack.extend((c, None) for c in children if c not in memo)
    return memo[mono]


def straighten(complex: BooleanComplex, raw: Iterable[tuple[int | str, int]],
               field: FieldSpec, coeff: Raw = 1,
               discrete: bool = False) -> RingElement:
    """Normal form of a raw product of generators on the standard-monomial basis.

    ``raw`` is an exponent multiset over faces of the complex (ids or
    indices; the empty face is allowed and acts as 1).  In the discrete
    presentation a non-chain support is simply zero.
    """
    pairs = []
    for f, e in raw:
        i = complex.resolve(f)
        if e < 0:
            raise InputError("exponents must be nonnegative")
        pairs.append((i, e))
    mono = canonical_mono(complex, pairs)
    if discrete:
        if not mono_is_chain(complex, mono):
            return RingElement.zero(complex, field, True)
        return RingElement(complex, field, True, {mono: coeff})
    return RingElement(complex, field, False,
                       {m: coeff * k
                        for m, k in _straighten_counts(complex, mono).items()})


def straighten_with_strategy(complex: BooleanComplex,
                             raw: Iterable[tuple[int, int]],
                             field: FieldSpec,
                             choose: Callable) -> RingElement:
    """Straightening with a caller-supplied incomparable-pair picker and a
    fresh memo.

    ``choose(pairs)`` receives the list of incomparable support pairs and
    returns one of them.  Used to exercise confluence: every strategy must
    produce the same element.
    """
    counts = _straighten_counts(complex, canonical_mono(complex, raw), choose, {})
    return RingElement(complex, field, False, counts)


# -- parameters ---------------------------------------------------------------------


def rank_row_parameter(complex: BooleanComplex, j: int, field: FieldSpec,
                       discrete: bool = False) -> RingElement:
    """Sum of the generators of rank j (a parameter in either presentation)."""
    if not 1 <= j <= complex.n:
        raise InputError(f"rank {j} out of range 1..{complex.n}")
    return RingElement(complex, field, discrete,
                       {((f, 1),): 1 for f in complex.faces_of_rank(j)})


def label_row_parameter(complex: BooleanComplex, balancing: Balancing,
                        j: int, field: FieldSpec) -> RingElement:
    """Sum of the vertex generators with label j on a balanced complex."""
    require_valid_balancing(complex, balancing)
    if not 1 <= j <= balancing.n:
        raise InputError(f"label {j} out of range 1..{balancing.n}")
    return RingElement(complex, field, False,
                       {((v, 1),): 1 for v in complex.vertices()
                        if balancing.vertex_label[v] == j})


def _variant_key(variant: str, balancing: Balancing | None):
    if variant == "omega":
        if balancing is None:
            raise InputError("the omega variant needs a balancing")
        return ("omega", balancing.key())
    if variant in ("theta", "gamma"):
        return (variant,)
    raise InputError(f"unknown parameter variant {variant!r}")


def parameter_monomial(complex: BooleanComplex, exponents: Sequence[int],
                       variant: str, field: FieldSpec,
                       balancing: Balancing | None = None) -> RingElement:
    """Expansion of a monomial in the chosen parameters on the monomial basis.

    Variants: ``theta`` (rank rows in the face ring), ``gamma`` (rank rows in
    the discrete ring), ``omega`` (label rows on a balanced complex).
    Expansions have integer coefficients; they are memoized over the
    rationals and reduced into a prime field on use.
    """
    vkey = _variant_key(variant, balancing)
    cache = complex._param_cache
    discrete = variant == "gamma"
    # Each key's expansion is the next key's (first nonzero exponent lowered
    # by one) times that parameter.  Walk down the keys to the first one
    # memoized, or to the monomial 1, then multiply back up in a loop, so no
    # exponent is deep enough to exhaust the interpreter stack.
    exps = list(exponents)
    pending: list[tuple[tuple[int, ...], int]] = []
    while (vkey, tuple(exps)) not in cache:
        j = next((i for i, e in enumerate(exps) if e > 0), None)
        if j is None:
            cache.setdefault((vkey, tuple(exps)),
                             RingElement.one(complex, RATIONAL, discrete))
            break
        pending.append((tuple(exps), j))
        exps[j] -= 1
    cached = cache[(vkey, tuple(exps))]
    for key, j in reversed(pending):
        if variant == "omega":
            param = label_row_parameter(complex, balancing, j + 1, RATIONAL)
        else:
            param = rank_row_parameter(complex, j + 1, RATIONAL, discrete)
        cached = cache.setdefault((vkey, key), cached * param)
    if field.is_rational:
        return cached
    return RingElement(complex, field, discrete, cached.terms)


class ParameterPolynomial:
    """A polynomial in n abstract parameters, as a sparse exponent-vector map.

    The same polynomial can be evaluated with any parameter variant in any
    ring; this mirrors the fact that the substitution of rank rows for label
    rows is a renaming of parameters, not a ring map on elements.
    """

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field: FieldSpec,
                 terms: Mapping[tuple[int, ...], Raw] | None = None):
        self.n = n
        self.field = field
        p = field.p
        self.terms: dict[tuple[int, ...], Raw] = {
            tuple(a): y for a, c in (terms or {}).items() if (y := normal(c, p))}
        for a in self.terms:
            if len(a) != n:
                raise InputError("exponent vector length mismatch")

    @classmethod
    def zero(cls, n, field) -> "ParameterPolynomial":
        return cls(n, field)

    @classmethod
    def monomial(cls, n, field, exponents: Sequence[int],
                 coeff: Raw = 1) -> "ParameterPolynomial":
        return cls(n, field, {tuple(exponents): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, ParameterPolynomial) and self.n == other.n
                and self.field == other.field and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "ParameterPolynomial") -> "ParameterPolynomial":
        if self.n != other.n or self.field != other.field:
            raise FieldMismatch("parameter polynomials are incompatible")
        return ParameterPolynomial(self.n, self.field,
                                   add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "ParameterPolynomial":
        return ParameterPolynomial(self.n, self.field,
                                   {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "ParameterPolynomial") -> "ParameterPolynomial":
        return self + (-other)

    def scale(self, coeff: Raw) -> "ParameterPolynomial":
        return ParameterPolynomial(self.n, self.field,
                                   {a: coeff * c for a, c in self.terms.items()})

    def evaluate(self, complex: BooleanComplex, variant: str,
                 balancing: Balancing | None = None) -> RingElement:
        terms: dict[Mono, Raw] = {}
        for a, c in sorted(self.terms.items()):
            expansion = parameter_monomial(complex, a, variant, self.field,
                                           balancing)
            add_terms(terms, ((m, c * x) for m, x in expansion.terms.items()))
        return RingElement(complex, self.field, variant == "gamma", terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Raw]]:
        return sorted(self.terms.items(),
                      key=lambda ac: (-sum(ac[0]), tuple(-x for x in ac[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for a, c in self.sorted_terms():
            factors = [f"t{j + 1}" + (f"^{e}" if e > 1 else "")
                       for j, e in enumerate(a) if e > 0]
            body = "*".join(factors)
            negative = c < 0
            mag = -c if negative else c
            if not factors:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not chunks:
                chunks.append(("-" if negative else "") + text)
            else:
                chunks.append(("- " if negative else "+ ") + text)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<ParameterPolynomial {self}>"


# -- graded enumeration --------------------------------------------------------------


def graded_monomials(complex: BooleanComplex, *, degree: int | None = None,
                     shape: Partition | None = None,
                     multidegree: Sequence[int] | None = None,
                     balancing: Balancing | None = None,
                     face_degree: Callable[[int], int] | None = None,
                     ) -> list[Mono]:
    """All standard monomials matching one selector, in canonical order.

    Selectors: total ``degree`` (weights are face ranks unless
    ``face_degree`` overrides them), ``shape`` (rank convention), or
    ``multidegree`` (rank convention, or label convention when a balancing
    is supplied).  Monomials are multichains: chains with positive
    exponents; callers always bound the enumeration through the selector.
    """
    selectors = [degree is not None, shape is not None, multidegree is not None]
    if sum(selectors) != 1:
        raise InputError("exactly one selector is required")
    if shape is not None:
        multidegree = sh_inverse(shape, complex.n)
    results: list[Mono] = []
    faces = range(1, len(complex))

    if multidegree is not None:
        if balancing is not None:
            require_valid_balancing(complex, balancing)
            weight = {f: mono_label_multidegree(complex, balancing, ((f, 1),))
                      for f in faces}
        else:
            weight = {f: mono_rank_multidegree(complex, ((f, 1),)) for f in faces}
        target = tuple(multidegree)

        def extend_vec(last: int | None, remaining: tuple[int, ...], acc):
            if all(r == 0 for r in remaining):
                results.append(tuple(acc))
                return
            for f in faces:
                if last is not None and not (last != f and complex.leq(last, f)):
                    continue
                w = weight[f]
                if all(x == 0 for x in w):
                    continue
                e = 1
                rem = tuple(r - x for r, x in zip(remaining, w))
                while all(r >= 0 for r in rem):
                    extend_vec(f, rem, acc + [(f, e)])
                    e += 1
                    rem = tuple(r - x for r, x in zip(rem, w))

        extend_vec(None, target, [])
    else:
        fd = face_degree or (lambda f: complex.rank[f])

        def extend_deg(last: int | None, remaining: int, acc):
            if remaining == 0:
                results.append(tuple(acc))
                return
            for f in faces:
                if last is not None and not (last != f and complex.leq(last, f)):
                    continue
                w = fd(f)
                if w <= 0:
                    raise InputError("face degrees must be positive")
                e = 1
                while e * w <= remaining:
                    extend_deg(f, remaining - e * w, acc + [(f, e)])
                    e += 1

        extend_deg(None, degree, [])
    results.sort(key=lambda m: term_sort_key(complex, m))
    return results


# -- projections and fine vectors ------------------------------------------------------


def project_to_face(complex: BooleanComplex, beta: int | str,
                    element: RingElement) -> tuple[tuple[int, ...],
                                                   dict[tuple[int, ...], Raw]]:
    """Image of an element under the algebra map onto the polynomial ring of
    one face: generators under beta map to the product of their vertex
    variables, everything else to zero.

    Returns the face's vertex list and the image as a map from vertex
    exponent vectors to coefficients.
    """
    b = complex.resolve(beta)
    verts = complex.vertices_of(b)
    pos = {v: i for i, v in enumerate(verts)}
    image: dict[tuple[int, ...], Raw] = {}
    for mono, coeff in element.terms.items():
        if not all(complex.leq(f, b) for f, _ in mono):
            continue
        vec = [0] * len(verts)
        for f, e in mono:
            for v in complex.vertices_of(f):
                vec[pos[v]] += e
        add_terms(image, [(tuple(vec), coeff)])
    p = element.field.p
    return tuple(verts), {a: y for a, c in image.items() if (y := normal(c, p))}


def fine_vectors(complex: BooleanComplex, balancing: Balancing,
                 ) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """Counts of faces per label set, and their inclusion-exclusion transform.

    Keys are sorted label tuples over every subset of 1..n; the empty face
    contributes 1 at the empty set.
    """
    require_valid_balancing(complex, balancing)
    n = balancing.n
    subsets = []
    for r in range(n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), r))
    subsets.sort(key=lambda s: (len(s), s))
    f_vec = {s: 0 for s in subsets}
    for face in range(len(complex)):
        f_vec[tuple(sorted(balancing.label_set(face)))] += 1
    h_vec = {}
    for s in subsets:
        total = 0
        for r in range(len(s) + 1):
            for t in itertools.combinations(s, r):
                total += (-1) ** (len(s) - len(t)) * f_vec[t]
        h_vec[s] = total
    return f_vec, h_vec
