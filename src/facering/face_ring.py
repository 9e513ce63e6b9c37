"""The Stanley-Reisner ring of a boolean complex on its standard-monomial basis.

Elements are sparse maps from standard monomials (chain-supported exponent
multisets) to nonzero canonical scalars (:func:`facering.coeff.normal`).
Each constructor normalizes the values it is given once and drops zeros, so
arithmetic hands it unreduced ints and ``Fraction``s.  Two presentations
share this basis: the face ring itself (products of incomparable generators
straighten through the meet/minimal-upper-bound rewrite) and the associated
discrete ring (such products vanish), which is how the ring of the
barycentric subdivision is carried on the poset of the original complex.
That choice is the one product rule, :func:`_product_counts`, behind ``*``
and :func:`straighten`.  The only parameters multiplied by here are the
rank rows theta_j of the face ring, one straightened step at a time
(:func:`times_parameter`).

A standard monomial is a tuple of (face index, exponent) pairs sorted by
rank; the empty tuple is the monomial 1.  They are enumerated by total
degree (:func:`graded_monomials`); a monomial's shape and multidegrees are
read off it (:func:`mono_shape`, :func:`mono_rank_multidegree`,
:func:`mono_label_multidegree`).  Operations return new elements and
never modify their inputs.  Straightening results and the steps
x^m * theta_j have integer coefficients, so they are memoized on the complex
once, as integer counts, and reduced into a prime field on use; the caches
are field-independent.  Sums c * theta^a * x over parameter monomials are
formed by Horner's rule (:func:`evaluate_parameters`): no theta^a is expanded.
The memo caches are append-only and each key is stored once, with its
finished value, by ``dict.setdefault``: concurrent readers may repeat work
but never see a partial result, and all of them get the first stored value.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .coeff import FieldSpec, Raw, normal
from .complexes import EMPTY, Balancing, BooleanComplex, mask_members
from .errors import ComplexMismatch, FieldMismatch, InputError
from .partitions import Partition, sh

Mono = tuple[tuple[int, int], ...]


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


def mono_label_multidegree(balancing: Balancing, mono: Mono) -> tuple[int, ...]:
    """Exponent-vector degree counting labels of the vertices under each factor."""
    vec = [0] * balancing.n
    for f, e in mono:
        for j in balancing.label_sets[f]:
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
    def _canonical(cls, complex, field, discrete,
                   terms: dict[Mono, Raw]) -> "RingElement":
        """Wrap terms whose coefficients are canonical and nonzero, without
        normalizing; the new element owns ``terms``."""
        element = cls.__new__(cls)
        element.complex, element.field, element.discrete, element.terms = (
            complex, field, discrete, terms)
        return element

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
                add_terms(out, ((mono, c * k) for mono, k in _product_counts(
                    self.complex, canonical_mono(self.complex, m1 + m2),
                    self.discrete).items()))
        return RingElement(self.complex, self.field, self.discrete, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def map_faces(self, perm: Sequence[int]) -> "RingElement":
        """Relabel every monomial along a rank-preserving face permutation.
        A standard monomial has one face per rank, so its image is canonical
        and distinct monomials stay distinct: nothing is re-sorted, merged or
        normalized."""
        return RingElement._canonical(self.complex, self.field, self.discrete,
                                      {tuple((perm[f], e) for f, e in m): c
                                       for m, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Mono, Raw]]:
        return sorted(self.terms.items(),
                      key=lambda mc: term_sort_key(self.complex, mc[0]))

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


def _straighten_counts(complex: BooleanComplex, mono: Mono) -> dict[Mono, int]:
    """Integer-coefficient normal form of a canonical exponent multiset.

    Depth first over an explicit stack of (monomial, children) frames, so
    deep powers cannot exhaust the interpreter stack.  Each step rewrites a
    pair of incomparable support faces without common upper bound (the term
    dies at once), else the pair of lowest combined rank.  Results go into
    the complex's cache, a key only once its result is complete.  Rewrite
    coefficients are nonnegative integers, so one cache serves every
    coefficient field.  Terminates because each rewrite strictly lowers the
    term's shape in dominance order.
    """
    memo = complex._straighten_cache
    hit = memo.get(mono)
    if hit is not None:
        return hit
    up, rank = complex.up, complex.rank
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
        a, b = min(pairs, key=lambda p: (bool(up[p[0]] & up[p[1]]),
                                         rank[p[0]] + rank[p[1]], p))
        children = _rewrite_product(complex, m, a, b)
        stack.append((m, children))
        stack.extend((c, None) for c in children if c not in memo)
    return memo[mono]


def _product_counts(complex: BooleanComplex, mono: Mono,
                   discrete: bool) -> dict[Mono, int]:
    """The product rule of the two presentations, as ``{monomial: count}``
    for a canonical exponent multiset: straightened in the face ring; in the
    discrete ring kept if its support is a chain, else zero."""
    if not discrete:
        return _straighten_counts(complex, mono)
    return {mono: 1} if mono_is_chain(complex, mono) else {}


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
    counts = _product_counts(complex, canonical_mono(complex, pairs), discrete)
    return RingElement(complex, field, discrete,
                       {m: coeff * k for m, k in counts.items()})


# -- parameters ---------------------------------------------------------------------


def rank_row_parameter(complex: BooleanComplex, j: int, field: FieldSpec,
                       discrete: bool = False) -> RingElement:
    """Sum of the generators of rank j (a parameter in either presentation)."""
    if not 1 <= j <= complex.n:
        raise InputError(f"rank {j} out of range 1..{complex.n}")
    return RingElement(complex, field, discrete,
                       {((f, 1),): 1 for f in complex.faces_of_rank(j)})


def label_row_parameter(balancing: Balancing, j: int,
                        field: FieldSpec) -> RingElement:
    """Sum of the vertex generators with label j on the balanced complex."""
    if not 1 <= j <= balancing.n:
        raise InputError(f"label {j} out of range 1..{balancing.n}")
    return RingElement(balancing.complex, field, False, {
        ((v, 1),): 1 for v in balancing.faces_by_label_set[frozenset((j,))]})


def times_parameter(complex: BooleanComplex, mono: Mono, j: int) -> dict[Mono, int]:
    """Integer normal form of x^mono * theta_j as ``{monomial: count}``,
    theta_j the sum of the faces of rank j, straightened.  Memoized on the
    complex, at most n entries per monomial; nothing is validated here."""
    cache = complex._theta_step_cache
    hit = cache.get((mono, j))
    if hit is not None:
        return hit
    out: dict[Mono, int] = {}
    for f in complex.faces_of_rank(j):
        add_terms(out, _straighten_counts(
            complex, canonical_mono(complex, mono + ((f, 1),))).items())
    return cache.setdefault((mono, j), out)


def _step_terms(complex: BooleanComplex, terms: dict[Mono, Raw], j: int,
                p: int | None) -> dict[Mono, Raw]:
    """``terms`` times theta_j, with canonical nonzero coefficients."""
    out = add_terms({}, ((t, c * k) for m, c in terms.items()
                         for t, k in times_parameter(complex, m, j).items()))
    return {m: y for m, c in out.items() if (y := normal(c, p))}


def evaluate_parameters(element: RingElement,
                        terms: Mapping[tuple[int, ...], Raw]) -> RingElement:
    """The sum of c * theta^a * element over the pairs (a, c) of ``terms``,
    for a face-ring element, by Horner's rule: level i steps an accumulator
    by theta_i (:func:`times_parameter`) from the largest exponent down,
    adding level i + 1's sum at each exponent met.  An exponent vector may
    be shorter than n, or carry zeros beyond theta_n."""
    complex, field = element.complex, element.field
    if element.discrete:
        raise ComplexMismatch("element is in the wrong presentation for theta")
    n = complex.n
    if any(min(a, default=0) < 0 or any(a[n:]) for a in terms):
        raise InputError(f"exponents must be nonnegative and vanish beyond theta_{n}")
    # one spelling per exponent vector: length n, equal keys merged
    terms = add_terms({}, ((tuple(a[:n]) + (0,) * (n - len(a)), c)
                           for a, c in terms.items()))

    def horner(layer: Mapping[tuple[int, ...], Raw], i: int) -> dict[Mono, Raw]:
        if i == n:
            (c,) = layer.values()
            return {m: x * c for m, x in element.terms.items()}
        acc: dict[Mono, Raw] = {}
        for k in range(max(a[i] for a in layer), -1, -1):
            acc = _step_terms(complex, acc, i + 1, field.p)
            if sub := {a: c for a, c in layer.items() if a[i] == k}:
                add_terms(acc, horner(sub, i + 1).items())
        return acc

    return RingElement(complex, field, False, horner(terms, 0) if terms else {})


def parameter_monomial(complex: BooleanComplex, exponents: Sequence[int],
                       field: FieldSpec) -> RingElement:
    """theta^exponents on the monomial basis of the face ring."""
    return evaluate_parameters(RingElement.one(complex, field),
                               {tuple(exponents): 1})


def signed_sum(terms: Iterable[tuple[Raw, Sequence[str]]]) -> str:
    """Text of a sum of (coefficient, factor texts) pairs: ``c*f1*f2`` with
    a unit magnitude left out, joined by ``+ `` and ``- ``, a leading ``-``
    on a negative first term; ``0`` for no terms."""
    chunks: list[str] = []
    for c, factors in terms:
        negative = c < 0
        mag = -c if negative else c
        body = "*".join(factors)
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
    return " ".join(chunks) or "0"


class ParameterPolynomial:
    """A polynomial in n abstract parameters, as a sparse exponent-vector map.

    A representation on a cell basis reads the parameters as label rows; the
    transfer descent evaluates them as the rank rows theta (:meth:`evaluate`).
    That substitution is a renaming of parameters, not a ring map on elements.
    """

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field: FieldSpec,
                 terms: Mapping[tuple[int, ...], Raw] | None = None):
        self.n = n
        self.field = field
        if any(len(a) != n for a in terms or ()):
            raise InputError("exponent vector length mismatch")
        p = field.p
        self.terms: dict[tuple[int, ...], Raw] = {
            tuple(a): y for a, c in (terms or {}).items() if (y := normal(c, p))}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, ParameterPolynomial) and self.n == other.n
                and self.field == other.field and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, complex: BooleanComplex) -> RingElement:
        """This polynomial in the rank rows theta of the face ring
        (:func:`evaluate_parameters`)."""
        return evaluate_parameters(RingElement.one(complex, self.field),
                                   self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Raw]]:
        return sorted(self.terms.items(),
                      key=lambda ac: (-sum(ac[0]), tuple(-x for x in ac[0])))

    def __str__(self) -> str:
        return signed_sum((c, [f"t{j + 1}" + (f"^{e}" if e > 1 else "")
                               for j, e in enumerate(a) if e > 0])
                          for a, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"<ParameterPolynomial {self}>"


# -- graded enumeration --------------------------------------------------------------


def graded_monomials(complex: BooleanComplex, degree: int) -> list[Mono]:
    """All standard monomials of total degree ``degree``, a face weighing
    its rank, in canonical order (:func:`term_sort_key`).

    Monomials are multichains: chains with positive exponents.  One loop
    over an explicit stack takes each next face from the upset of the last
    one; every rank is positive, so each step uses up degree.
    """
    rank = complex.rank
    results: list[Mono] = []
    stack: list[tuple[int, int, Mono]] = [(EMPTY, degree, ())]
    while stack:
        last, remaining, acc = stack.pop()
        if not remaining:
            results.append(acc)
            continue
        for f in mask_members(complex.up[last] ^ 1 << last):  # faces above last
            w = rank[f]
            for e in range(1, remaining // w + 1):
                stack.append((f, remaining - e * w, acc + ((f, e),)))
    results.sort(key=lambda m: term_sort_key(complex, m))
    return results


# -- projections and fine vectors ------------------------------------------------------


def project_to_face(element: RingElement, beta: int | str,
                    ) -> tuple[tuple[int, ...], dict[tuple[int, ...], Raw]]:
    """Image of an element under the algebra map onto the polynomial ring of
    one face of its complex: generators under beta map to the product of
    their vertex variables, everything else to zero.

    Returns the face's vertex list and the image as a map from vertex
    exponent vectors to coefficients.
    """
    complex = element.complex
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


def fine_vectors(balancing: Balancing,
                 ) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """Counts of faces per label set, and their inclusion-exclusion transform.

    Keys are sorted label tuples over every subset of 1..n; the empty face
    contributes 1 at the empty set.
    """
    n = balancing.n
    subsets = []
    for r in range(n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), r))
    subsets.sort(key=lambda s: (len(s), s))
    f_vec = {s: 0 for s in subsets}
    for labels, faces in balancing.faces_by_label_set.items():
        f_vec[tuple(sorted(labels))] += len(faces)
    h_vec = {}
    for s in subsets:
        total = 0
        for r in range(len(s) + 1):
            for t in itertools.combinations(s, r):
                total += (-1) ** (len(s) - len(t)) * f_vec[t]
        h_vec[s] = total
    return f_vec, h_vec
