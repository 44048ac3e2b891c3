"""Hilbert-space vector realizations: Born probabilities, spectral operators.

Atoms become unit vectors, contexts become orthonormal bases, and the Born
rule turns a state vector into a probability assignment.  Arithmetic is
64-bit floating point; vector files use an exact token grammar (integers,
a/b, a/sqrt(b), complex pairs) so inputs stay reproducible.  Angles are
measured between rays, so the sign of a vector never matters.  numpy is
imported by the functions that build or compute with a vector, not by this
module, so the combinatorial layers and the CLI load without it; likewise
the polytope layer, and through it the state layer, is imported only by
``quantum_vs_classical`` (``MissingAtom`` comes from the logic layer).
Every tolerance test is written so that NaN fails it.
"""

from __future__ import annotations

import re
from math import acos, sqrt
from typing import TYPE_CHECKING, Mapping, Sequence

# the angle window lives with the catalog entry that records it, so that
# listing the catalog does not load this module; it stays public here
from ctxlab.catalog import FeasibilityWindow, bug_pasting_feasibility
from ctxlab.logic import Logic, LogicError, MissingAtom, _Record, _token_lines

if TYPE_CHECKING:
    import numpy as np

    from ctxlab.polytope import Inequality

DEFAULT_TOLERANCE = 1e-9

_REAL = r"[+-]?\d+(?:/(?:\d+|sqrt\(\d+\)))?"
_REAL_TOKEN = re.compile(_REAL + r"\Z")
_COMPLEX_TOKEN = re.compile(r"\((" + _REAL + r"),(" + _REAL + r")\)\Z")


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
    vectors: Mapping[str, np.ndarray]
    tolerance: float = DEFAULT_TOLERANCE

    def vector(self, atom: str) -> np.ndarray:
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


def _array(values: Sequence[complex | float]) -> np.ndarray:
    """Parsed components as a complex vector if any is complex, else float."""
    import numpy as np
    is_complex = any(isinstance(v, complex) for v in values)
    return np.array(values, dtype=complex if is_complex else float)


def parse_vector(tokens: Sequence[str]) -> np.ndarray:
    """Component tokens to a float or complex vector."""
    return _array([parse_scalar(t) for t in tokens])


def parse_vectors(text: str) -> Realization:
    """Parse ``vec <atom> <c1> ... <cD>`` lines into a Realization.

    The dimension is the first vector's; every vector must match it.  ``#``
    starts a comment.  The Realization gets the default check tolerance;
    a new ``Realization`` over the same vectors carries another.
    """
    vectors: dict[str, np.ndarray] = {}
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


def _inner(u: np.ndarray, v: np.ndarray) -> complex:
    # conjugate-linear in the first argument
    import numpy as np
    return complex(np.vdot(u, v))


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
    for a in logic.atoms:
        if a in r.vectors and r.vectors[a].shape != (r.dimension,):
            raise ValueError(f"vector for {a!r} is not {r.dimension}-dimensional")
    tol = r.tolerance

    norm_failures = []
    for a in logic.atoms:
        if a not in r.vectors:
            continue
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
    realized = [a for a in logic.atoms if a in r.vectors]
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


def _state_vector(r: Realization, psi) -> np.ndarray:
    import numpy as np
    if isinstance(psi, str):
        vec = r.vector(psi)
    else:
        vec = np.asarray(psi)
        if vec.shape != (r.dimension,):
            raise ValueError(f"psi is not {r.dimension}-dimensional")
    norm = float(np.linalg.norm(vec))
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
    probs = {}
    for a in logic.atoms:
        if a in r.vectors:
            probs[a] = abs(_inner(r.vectors[a], vec)) ** 2
    return probs


def projector(v) -> np.ndarray:
    """Rank-1 projector v v-dagger onto the ray of a unit vector."""
    import numpy as np
    vec = np.asarray(v)
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1) <= DEFAULT_TOLERANCE:
        raise NonUnitVector(f"norm {norm}, expected 1")
    return np.outer(vec, vec.conj())


def maximal_operator(vectors: Sequence[np.ndarray],
                     eigenvalues: Sequence[float]) -> np.ndarray:
    """Weighted spectral sum over an orthonormal context.

    Distinct eigenvalues make the operator carry the whole context: its
    eigenspaces recover every projector (see recover_projectors).
    """
    if len(vectors) != len(eigenvalues):
        raise ValueError("need one eigenvalue per vector")
    if not vectors:
        raise ValueError("need at least one vector")
    if len(set(eigenvalues)) != len(eigenvalues):
        raise RepeatedEigenvalue(f"eigenvalues not distinct: {eigenvalues}")
    import numpy as np
    vecs = [np.asarray(v) for v in vectors]
    for i, u in enumerate(vecs):
        if not abs(float(np.linalg.norm(u)) - 1) <= DEFAULT_TOLERANCE:
            raise NonOrthonormalContext(f"vector {i} is not unit norm")
        for j in range(i + 1, len(vecs)):
            if not abs(_inner(u, vecs[j])) <= DEFAULT_TOLERANCE:
                raise NonOrthonormalContext(
                    f"vectors {i} and {j} are not orthogonal")
    out = np.zeros((vecs[0].shape[0], vecs[0].shape[0]),
                   dtype=complex if any(np.iscomplexobj(v) for v in vecs)
                   else float)
    for lam, u in zip(eigenvalues, vecs):
        out += lam * np.outer(u, u.conj())
    return out


def recover_projectors(A: np.ndarray,
                       eigenvalues: Sequence[float]) -> list[np.ndarray]:
    """Lagrange polynomials of the operator: f_i(A) with f_i(lambda_j) = delta_ij.

    Given the operator built from an orthonormal context with these
    eigenvalues, returns that context's projectors.
    """
    if len(set(eigenvalues)) != len(eigenvalues):
        raise RepeatedEigenvalue(f"eigenvalues not distinct: {eigenvalues}")
    import numpy as np
    A = np.asarray(A)
    if A.shape != (len(eigenvalues),) * 2:
        raise ValueError(f"need one eigenvalue per dimension: {len(eigenvalues)} "
                         f"eigenvalues for an operator of shape {A.shape}")
    eye = np.eye(A.shape[0], dtype=A.dtype)
    out = []
    for i, li in enumerate(eigenvalues):
        E = eye
        for j, lj in enumerate(eigenvalues):
            if j != i:
                E = E @ ((A - lj * eye) / (li - lj))
        out.append(E)
    return out


def angle(u, v) -> float:
    """Angle between the rays of two unit vectors, in [0, pi/2]."""
    import numpy as np
    uu, vv = np.asarray(u), np.asarray(v)
    for w in (uu, vv):
        if not abs(float(np.linalg.norm(w)) - 1) <= DEFAULT_TOLERANCE:
            raise NonUnitVector(f"norm {float(np.linalg.norm(w))}, expected 1")
    return acos(min(abs(_inner(uu, vv)), 1.0))


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
