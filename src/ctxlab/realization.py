"""Hilbert-space vector realizations: Born probabilities, spectral operators.

Atoms become unit vectors, contexts become orthonormal bases, and the Born
rule turns a state vector into a probability assignment.  Vector files use an
exact token grammar (integers, a/b, a/sqrt(b), complex pairs) so inputs stay
reproducible.  Angles are measured between rays, so the sign of a vector
never matters.  Vectors are tuples of Python floats (complex if any
component is) and inner products add left to right; the matrix functions
(``projector``, ``maximal_operator``, ``recover_projectors``) return tuples
of rows whose entries have the type their arithmetic gives, so ``Fraction``
input stays exact.  Nothing here imports numpy.  Likewise the polytope
layer, and through it the state layer, is imported only by
``quantum_vs_classical`` (``MissingAtom`` comes from the logic layer).
Every tolerance test is written so that NaN fails it.
"""

from __future__ import annotations

import re
from functools import reduce
from math import acos, sqrt
from typing import TYPE_CHECKING, Mapping, Sequence

# the angle window lives with the catalog entry that records it, so that
# listing the catalog does not load this module; it stays public here
from ctxlab.catalog import FeasibilityWindow, bug_pasting_feasibility
from ctxlab.logic import Logic, LogicError, MissingAtom, _Record, _token_lines

if TYPE_CHECKING:
    from ctxlab.polytope import Inequality

DEFAULT_TOLERANCE = 1e-9

_REAL = r"[+-]?\d+(?:/(?:\d+|sqrt\(\d+\)))?"
_REAL_TOKEN = re.compile(_REAL + r"\Z")
_COMPLEX_TOKEN = re.compile(r"\((" + _REAL + r"),(" + _REAL + r")\)\Z")
# parsed vectors, and matrices as tuples of rows; every function here also
# takes any sequence of numbers (or of such sequences)
Vector = tuple[complex, ...]
Matrix = tuple[Vector, ...]


class RealizationError(LogicError):
    """Base for realization-layer failures."""


class VectorParseError(RealizationError):
    """Vector file text violates the grammar."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NonUnitVector(RealizationError):
    """A vector that must have norm 1 does not."""


class NonUnitState(RealizationError):
    """The state vector psi does not have norm 1."""


class RepeatedEigenvalue(RealizationError):
    """Eigenvalues of a maximal operator must be pairwise distinct."""


class NonOrthonormalContext(RealizationError):
    """Context vectors fail pairwise orthogonality or unit norm."""


class Realization(_Record, identity=True):
    """Per-atom unit vectors in a fixed dimension, with a check tolerance; for
    another, construct a new Realization.  It compares by identity."""

    dimension: int
    vectors: Mapping[str, Vector]
    tolerance: float = DEFAULT_TOLERANCE

    def vector(self, atom: str) -> Vector:
        if atom not in self.vectors:
            raise MissingAtom(f"no vector for atom {atom!r}")
        return self.vectors[atom]


class ContextFailure(_Record):
    context_index: int
    pair: tuple[str, str]
    value: float


class RealizationReport(_Record):
    """ok requires clean orthogonality, unit norms and no collinear atoms."""

    ok: bool
    dimension: int
    context_failures: tuple[ContextFailure, ...]
    norm_failures: tuple[tuple[str, float], ...]
    collinear_pairs: tuple[tuple[str, str], ...]
    missing_atoms: tuple[str, ...] = ()
    skipped_contexts: tuple[int, ...] = ()


class ViolationReport(_Record):
    assignment: Mapping[str, float]
    evaluations: tuple[tuple[Inequality, float, bool], ...]
    violated: tuple[Inequality, ...]


def _real_value(token: str) -> float:
    try:
        if "/" not in token:
            return float(int(token))
        num, den = token.split("/", 1)
        if den.startswith("sqrt(") and den.endswith(")"):
            divisor = sqrt(int(den[5:-1]))
        else:
            divisor = int(den)
        if not divisor:
            raise ValueError(f"zero denominator in {token!r}")
        return int(num) / divisor
    except OverflowError as err:
        raise ValueError("component is out of float range") from err


def parse_scalar(token: str) -> complex | float:
    """One component in the vector grammar; complex pairs use (re,im)."""
    m = _COMPLEX_TOKEN.match(token)
    if m:
        return complex(_real_value(m.group(1)), _real_value(m.group(2)))
    if _REAL_TOKEN.match(token):
        return _real_value(token)
    raise ValueError(f"bad component token {token!r}")


def _array(values: Sequence[complex | float]) -> Vector:
    """Parsed components as complex numbers if any is complex, else floats."""
    kind = complex if any(isinstance(v, complex) for v in values) else float
    return tuple(map(kind, values))


def parse_vector(tokens: Sequence[str]) -> Vector:
    """Component tokens to a float or complex vector."""
    return _array([parse_scalar(t) for t in tokens])


def parse_vectors(text: str) -> Realization:
    """Parse ``vec <atom> <c1> ... <cD>`` lines into a Realization.

    The dimension is the first vector's; every vector must match it.  ``#``
    starts a comment.  The Realization gets the default check tolerance;
    a new ``Realization`` over the same vectors carries another.
    """
    vectors: dict[str, Vector] = {}
    dim = None
    for lineno, tokens in _token_lines(text):
        head, col = tokens[0]
        if head != "vec":
            raise VectorParseError(f"unknown directive {head!r}", lineno, col)
        if len(tokens) < 3:
            raise VectorParseError("need an atom id and components", lineno, col)
        atom, acol = tokens[1]
        if atom in vectors:
            raise VectorParseError(f"atom {atom!r} already has a vector",
                                   lineno, acol)
        comps = []
        for tok, tcol in tokens[2:]:
            try:
                comps.append(parse_scalar(tok))
            except ValueError as err:
                raise VectorParseError(str(err), lineno, tcol) from err
        if dim is None:
            dim = len(comps)
        if len(comps) != dim:
            raise VectorParseError(
                f"expected {dim} components, got {len(comps)}", lineno, col)
        vectors[atom] = _array(comps)
    if not vectors:
        raise VectorParseError("no vectors", 1)
    return Realization(dimension=dim, vectors=vectors)


def _inner(u: Sequence, v: Sequence) -> complex:
    # conjugate-linear in the first argument; an explicit loop, since sum()
    # compensates float sums from Python 3.12 on
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    acc = 0.0
    for x, y in zip(u, v):
        acc += x.conjugate() * y
    return complex(acc)


def _norm(v: Sequence) -> float:
    return sqrt(_inner(v, v).real)


def check_realization(logic: Logic, r: Realization,
                      allow_partial: bool = False) -> RealizationReport:
    """Verify contexts are orthonormal bases and atoms occupy distinct rays.

    With ``allow_partial`` contexts containing unrealized atoms are skipped
    and reported; otherwise any uncovered atom raises MissingAtom.  Norms
    are checked once per realized atom, orthogonality per context pair, and
    collinearity across all realized atom pairs.
    """
    missing = tuple(a for a in logic.atoms if a not in r.vectors)
    if missing and not allow_partial:
        raise MissingAtom(f"no vectors for atoms: {', '.join(missing)}")
    realized = [a for a in logic.atoms if a in r.vectors]
    for a in realized:
        if len(r.vectors[a]) != r.dimension:
            raise ValueError(f"vector for {a!r} is not {r.dimension}-dimensional")
    tol = r.tolerance

    norm_failures = []
    for a in realized:
        sq = _inner(r.vectors[a], r.vectors[a]).real
        if not abs(sq - 1) <= tol:
            norm_failures.append((a, sq))

    context_failures = []
    skipped = []
    for i, ctx in enumerate(logic.contexts):
        if any(a not in r.vectors for a in ctx):
            skipped.append(i)
            continue
        for j, a in enumerate(ctx):
            for b in ctx[j + 1:]:
                val = _inner(r.vectors[a], r.vectors[b])
                if not abs(val) <= tol:
                    context_failures.append(ContextFailure(
                        i, (a, b), val.real if val.imag == 0 else abs(val)))

    collinear = []
    for j, a in enumerate(realized):
        for b in realized[j + 1:]:
            if abs(abs(_inner(r.vectors[a], r.vectors[b])) - 1) <= tol:
                collinear.append((a, b))

    return RealizationReport(
        ok=not context_failures and not norm_failures and not collinear,
        dimension=r.dimension,
        context_failures=tuple(context_failures),
        norm_failures=tuple(norm_failures),
        collinear_pairs=tuple(collinear),
        missing_atoms=missing,
        skipped_contexts=tuple(skipped))


def _state_vector(r: Realization, psi) -> Sequence:
    vec = r.vector(psi) if isinstance(psi, str) else psi
    if len(vec) != r.dimension:
        raise ValueError(f"psi is not {r.dimension}-dimensional")
    norm = _norm(vec)
    if not abs(norm - 1) <= r.tolerance:
        raise NonUnitState(f"psi has norm {norm}, expected 1")
    return vec


def born_probabilities(logic: Logic, r: Realization, psi) -> dict[str, float]:
    """Born rule |<e_a|psi>|^2 for every realized atom of the logic, as a
    plain dict of floats.

    ``psi`` is an atom id or a unit vector.  Partial realizations yield a
    partial assignment; within a fully realized context the values sum to 1
    up to roundoff because the basis resolves the identity.
    """
    vec = _state_vector(r, psi)
    return {a: abs(_inner(r.vectors[a], vec)) ** 2 for a in logic.atoms if a in r.vectors}


def _product(X: Sequence[Sequence], Y: Sequence[Sequence]) -> Matrix:
    # sum() compensates float sums from Python 3.12 on; no matrix is pinned
    columns = tuple(zip(*Y))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in X)


def projector(v: Sequence) -> Matrix:
    """Rank-1 projector v v-dagger onto the ray of a unit vector."""
    if not abs((norm := _norm(v)) - 1) <= DEFAULT_TOLERANCE:
        raise NonUnitVector(f"norm {norm}, expected 1")
    return tuple(tuple(x * y.conjugate() for y in v) for x in v)


def maximal_operator(vectors: Sequence[Sequence],
                     eigenvalues: Sequence[float]) -> Matrix:
    """U diag(lambda) U-dagger, where the columns of U are an orthonormal context.

    Distinct eigenvalues make the operator carry the whole context: its
    eigenspaces recover every projector (see recover_projectors).
    """
    if len(vectors) != len(eigenvalues):
        raise ValueError("need one eigenvalue per vector")
    if not vectors:
        raise ValueError("need at least one vector")
    if len(set(eigenvalues)) != len(eigenvalues):
        raise RepeatedEigenvalue(f"eigenvalues not distinct: {eigenvalues}")
    for i, u in enumerate(vectors):
        if not abs(_norm(u) - 1) <= DEFAULT_TOLERANCE:
            raise NonOrthonormalContext(f"vector {i} is not unit norm")
        for j in range(i + 1, len(vectors)):
            if not abs(_inner(u, vectors[j])) <= DEFAULT_TOLERANCE:
                raise NonOrthonormalContext(
                    f"vectors {i} and {j} are not orthogonal")
    return _product(tuple(zip(*vectors)), [[lam * x.conjugate() for x in u]
                                           for lam, u in zip(eigenvalues, vectors)])


def recover_projectors(A: Sequence[Sequence],
                       eigenvalues: Sequence[float]) -> list[Matrix]:
    """Lagrange polynomials of the operator: f_i(A) with f_i(lambda_j) = delta_ij.

    Given the operator built from an orthonormal context with these
    eigenvalues, returns that context's projectors (exactly, for Fractions).
    """
    if len(set(eigenvalues)) != len(eigenvalues):
        raise RepeatedEigenvalue(f"eigenvalues not distinct: {eigenvalues}")
    n = len(eigenvalues)
    if len(A) != n or not all(hasattr(row, "__len__") and len(row) == n for row in A):
        raise ValueError(f"need a square operator with one eigenvalue per "
                         f"dimension: {n} eigenvalues for {len(A)} rows")
    # an identity of ints, so that rational input stays exact
    eye = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))

    def factor(li, lj):  # (A - lj I) / (li - lj)
        return [[(a - lj * e) / (li - lj) for a, e in zip(row, erow)]
                for row, erow in zip(A, eye)]
    return [reduce(_product, (factor(li, lj) for lj in eigenvalues if lj != li), eye)
            for li in eigenvalues]


def angle(u, v) -> float:
    """Angle between the rays of two unit vectors, in [0, pi/2]."""
    for w in (u, v):
        if not abs((norm := _norm(w)) - 1) <= DEFAULT_TOLERANCE:
            raise NonUnitVector(f"norm {norm}, expected 1")
    return acos(min(abs(_inner(u, v)), 1.0))


def quantum_vs_classical(logic: Logic, r: Realization, psi,
                         inequalities: Sequence[Inequality]) -> ViolationReport:
    """Born probabilities checked against classical inequalities."""
    from ctxlab.polytope import evaluate_inequality
    assignment = born_probabilities(logic, r, psi)
    evaluations = []
    violated = []
    for ineq in inequalities:
        res = evaluate_inequality(ineq, assignment)
        evaluations.append((ineq, res.value, res.satisfied))
        if not res.satisfied:
            violated.append(ineq)
    return ViolationReport(assignment=assignment,
                           evaluations=tuple(evaluations),
                           violated=tuple(violated))
