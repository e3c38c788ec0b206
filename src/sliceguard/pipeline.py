"""The end-to-end obstruction pipeline and its certificates.

Given a combination of iterated torus knots sharing a prime-power cabling
parameter, the pipeline first settles the cheap verdicts (trivial after
cancellation; not algebraically slice with a surviving companion as
witness).  For the remaining combinations it tries each final prime r,
arranges the terms into signed pairs, takes the model form space
lambda^m ⊕ -lambda^m of the r-part of the branched cover
(``metabolizers.FormSpace``), and then, for every deck-invariant
metabolizer, constructs a vanishing character pair whose metabelian
class has a nonzero signature jump at a jump point of one level block
(the point rule below).  Jumps are ``seifert.jump_at``'s integer
arithmetic: the witness scan builds no jump table.  The metabolizer walk
solves each row's pairings with the rows above instead of trying every
row.  One certificate per metabolizer yields NOT_SLICE; any gap yields
INCONCLUSIVE, never an unproven verdict.  The budget bounds what each
side visits: ``obstruct`` refuses a prime whose form has more
half-dimension subspaces than the budget, before its module is built, and
tries the next prime; ``verify_verdict`` refuses a form with more
invariant metabolizers than the budget, the list a document must carry.

The witness is decided by points.  For the character pair, the class is
B1 + sum over the levels of (B3 + B4) (``decompose``).  The witness is the
first jump point w of the chosen level's block, in increasing order, that
lies off the root support of B1 and at which the jumps of every classical
atom of every level of B3 and B4 have a nonzero total.  Three facts make
that total the jump of the whole class at w, so the class is not
metabolic, and the character obstruction (the second of ``AXIOMS``) makes
that the metabolizer's certificate (Borodzik-Conway-Politarczyk,
"Twisted Blanchfield pairings, twisted signatures and Casson-Gordon
invariants", 2018; Litherland 1979):

- the signature jump at w is additive on the Witt group of linking forms;
- it vanishes on a metabolic class (the first of ``AXIOMS``);
- a form's jump is zero off the roots of its order, so the twisted atoms
  of B1 contribute nothing at w.

The rule needs no splitting.  The source paper's splitting hypothesis
asks that the chosen block's order be coprime to the rest, so that the
block alone must be metabolic when the class is; where it holds, B1 and
the other levels have no jump at the block's points, and the witness is
the one the block alone gives.  Where the supports meet, the rule still
decides, and it refuses only when every point of the block with a
nonzero total lies in the support of B1.

Certificates record the metabolizer basis, the construction case, the
character pair, the level (q, s), and the witness jump.  ``obstruct`` and
``verify_verdict`` share the cheap verdicts and the per-prime step, which
certifies a list of metabolizers.  Under ``obstruct`` the list is the
walk's, whose length must be the closed-form count
(``metabolizers.invariant_metabolizer_count``).  Under ``verify_verdict``
it is the document's bases, checked to be all the invariant metabolizers
in canonical order against the same count, so the verifier never walks
and does not share a fault of the walk; the rebuilt JSON must then equal
the document byte for byte.  The characters of every certificate are
checked from their values when the certificate is built
(``metabolizers.check_characters``), under ``obstruct`` and
``verify_verdict`` alike; a failure there is a ``ConventionError``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache

from . import covers, knots, metabolizers, witt
from .covers import Character
from .knots import (IndexSets, KnotCombination, NormalForm, RootOfUnity, index_sets,
                    prime_power_exponent)
from .metabolizers import DEFAULT_BUDGET, BudgetExceeded, FormSpace, NotSimplifiedWitness
from .modp import Subspace
from .witt import Classical, Twisted, WittClass

AXIOMS = (
    "metabolic-linking-forms-have-vanishing-signature-jumps",
    "prime-power-character-obstruction-to-sliceness",
    "satellite-decomposition-of-metabelian-linking-forms",
    "cabling-decomposition-of-classical-linking-forms",
)


class VerificationError(AssertionError):
    """A recorded certificate failed an exact re-check."""


class Options(namedtuple("Options", "r budget", defaults=(None, DEFAULT_BUDGET))):
    """A forced obstruction prime r (None tries every final prime) and the
    enumeration budget."""

    __slots__ = ()


class Decomposition(namedtuple("Decomposition", "B1 B3 B4")):
    """The blocks of the decomposed metabelian pairing: twisted atoms for
    the chosen prime's pairs (B1, a WittClass) and per-level classical
    blocks (B3 twisted by the characters, B4 untwisted, dicts from the
    level to a WittClass); see ``decompose``."""

    __slots__ = ()


# a verdict reads at most a dozen blocks; the bound keeps a long-lived
# process that obstructs many distinct inputs from keeping them all
@lru_cache(maxsize=256)
def _lambda_block(p: int, q: int, r: int, chi: Character, s: int, sign: int) -> tuple:
    power = p ** (s - 1)
    return tuple(
        Classical(
            p=p,
            q=q,
            twist=RootOfUnity.normalized(power * a, r),
            power=power,
            coefficient=sign,
        )
        for a in chi.values
    )


def decompose(nf: NormalForm, chi_a, chi_b, sets: IndexSets | None = None) -> Decomposition:
    """The blocks for the character pair (chi_a, chi_b) at the prime r of
    ``nf``, given its ``index_sets`` as ``sets`` or building them.  The
    pairs of the other primes' groups carry the trivial character and
    contribute Twisted(p, r', theta, +1) and Twisted(p, r', theta, -1) of
    one key each, which cancel in the Witt group, so they have no block."""
    p, r = nf.p, nf.r
    m1 = nf.m1
    if len(chi_a) != m1 or len(chi_b) != m1:
        raise ValueError("one character per signed pair of the r-group is required")
    for chi in (*chi_a, *chi_b):
        if chi.r != r or chi.p != p:
            raise ValueError(f"character {chi} does not match p={p}, r={r}")
    sets = sets or index_sets(nf)
    theta = Character(r, tuple([0] * p))
    B1 = WittClass(
        [Twisted(p, r, chi_a[i], +1) for i in range(m1)]
        + [Twisted(p, r, chi_b[i], -1) for i in range(m1)]
    )
    B3 = {}
    B4 = {}
    for (q, s) in sets.points:
        atoms3 = []
        for k in sets.I1[(q, s)]:
            atoms3.extend(_lambda_block(p, q, r, chi_a[k], s, +1))
        for k in sets.I2[(q, s)]:
            atoms3.extend(_lambda_block(p, q, r, chi_b[k], s, -1))
        atoms4 = []
        trivial = _lambda_block(p, q, r, theta, s, +1)
        for _ in sets.I3[(q, s)]:
            atoms4.extend(trivial)
        for _ in sets.I4[(q, s)]:
            atoms4.extend(_lambda_block(p, q, r, theta, s, -1))
        B3[(q, s)] = WittClass(atoms3)
        B4[(q, s)] = WittClass(atoms4)
    return Decomposition(B1=B1, B3=B3, B4=B4)


class Certificate(namedtuple("Certificate", "basis case chi_a chi_b q s "
                                            "witness_omega witness_jump")):
    """One metabolizer's certificate: its basis, the construction case, the
    character pair, the level (q, s), and the witness point x, as the
    RootOfUnity e^(2 pi i x) that prints as the reduced x = a/b, with its
    total jump, taken over every classical atom of every level."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "basis": [list(row) for row in self.basis],
            "case": self.case,
            "character": {
                "a": [list(chi.values) for chi in self.chi_a],
                "b": [list(chi.values) for chi in self.chi_b],
            },
            "qs": [self.q, self.s],
            "witness": {
                "omega": str(self.witness_omega),
                "total_jump": self.witness_jump,
            },
        }


class Verdict(namedtuple("Verdict", "kind p input_str algebraically_slice witness r "
                                    "certificates reason",
                         defaults=(None, None, None, (), None))):
    """The outcome of ``obstruct``: its kind, the input, and the witness,
    prime, certificates or reason that the kind calls for."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out = {
            "input": self.input_str,
            "p": self.p,
            "r": self.r,
            "verdict": self.kind,
            "algebraically_slice": self.algebraically_slice,
            "metabolizers": [c.to_json_dict() for c in self.certificates],
            "axioms": list(AXIOMS),
        }
        if self.witness is not None:
            s, (p, q), coeff = self.witness
            out["witness"] = {"s": s, "torus": [p, q], "coefficient": coeff}
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _hypotheses_ok(K: KnotCombination):
    if not prime_power_exponent(K.p):
        return f"cabling parameter {K.p} is not a prime power"
    for knot in K.terms:
        if not knots.in_sp(knot):
            return f"{knot} is outside the admissible family (final index prime, earlier indices coprime to it)"
    return None


def _witness(dec: Decomposition, q: int, s: int):
    """The point rule: ``witt.is_metabolic_classical`` on the level (q, s)
    block, with B1 and the other levels as the rest of the class."""
    rest = (*dec.B1.atoms, *(atom for key, block in (*dec.B3.items(), *dec.B4.items())
                             if key != (q, s) for atom in block.atoms))
    return witt.is_metabolic_classical(dec.B3[(q, s)] + dec.B4[(q, s)], rest)


class _Uncertified(Exception):
    """The per-prime step gave no certificate set; the message says why."""


def _certify_metabolizer(L: Subspace, F: FormSpace, nf: NormalForm,
                         sets: IndexSets, dec_cache: dict) -> Certificate:
    """One certificate for one metabolizer; raises _Uncertified otherwise."""
    choice = metabolizers.construct_character(L, F, sets)
    if choice is None:
        raise _Uncertified("no obstructing character found for a metabolizer")
    if isinstance(choice, NotSimplifiedWitness):
        raise _Uncertified(
            "character construction reports a non-simplified combination "
            f"(pair {choice.k0}, X={sorted(choice.X)}, Y={sorted(choice.Y)}): caller bug"
        )
    key = (choice.chi_a, choice.chi_b)
    if key not in dec_cache:
        dec_cache[key] = decompose(nf, choice.chi_a, choice.chi_b, sets)
    dec = dec_cache[key]
    metabolic, witness = _witness(dec, choice.q, choice.s)
    if metabolic:
        raise _Uncertified(
            f"level ({choice.q},{choice.s}) block has no jump point off the "
            "twisted support with a nonzero total jump"
        )
    omega, jump = witness
    return Certificate(
        basis=L.rows,
        case=choice.case,
        chi_a=choice.chi_a,
        chi_b=choice.chi_b,
        q=choice.q,
        s=choice.s,
        witness_omega=omega,
        witness_jump=jump,
    )


def _certify_prime(K: KnotCombination, r: int, budget: int, recorded=None):
    """The per-prime step shared by ``obstruct`` and ``verify_verdict``.

    Builds the normal form at r and its index sets, the form space, and one
    certificate per invariant metabolizer, in (pivots, rows) order, and
    returns the certificates.  Both callers settle ``_cheap_verdict``
    first, so K is algebraically slice and every level sum of the index
    sets, a coefficient of ``knots.s_level``, is zero (``IndexSets``).  The
    metabolizers are the enumeration's, whose length must be the closed-form
    count (a ConventionError otherwise), or, given the document's
    ``recorded`` metabolizer list, its bases (``_recorded_metabolizers``).
    Each certificate's characters pass ``metabolizers.check_characters`` as
    they are built.  The budget, on the Grassmannian that the walk visits
    or on the count of the recorded list, is checked before the form space
    builds its module.  Raises BudgetExceeded over budget, and _Uncertified
    when a metabolizer has no certificate.
    """
    nf = knots.normal_form(K, r)
    sets = index_sets(nf)
    F = FormSpace(K.p, r, nf.m1)
    if recorded is None:
        mets = metabolizers.enumerate_invariant_metabolizers(F, budget)
        count = metabolizers.invariant_metabolizer_count(F)
        if len(mets) != count:
            raise covers.ConventionError(
                f"the enumeration found {len(mets)} invariant metabolizers, "
                f"but the form has {count}"
            )
    else:
        mets = _recorded_metabolizers(recorded, F, budget)
    dec_cache: dict = {}
    return tuple(_certify_metabolizer(L, F, nf, sets, dec_cache) for L in mets)


def _recorded_metabolizers(recorded, F: FormSpace, budget: int) -> list:
    """The document's bases as subspaces, once they are shown to be all
    the invariant metabolizers in canonical order: each basis is a list of
    rows of ambient-length int lists in reduced echelon form, spans an
    invariant metabolizer, and has a greater (pivots, rows) key than the
    one before, and there are as many as the closed-form count.  The rows'
    shape is checked first, and an empty list or basis refused, so the
    O(p) count runs only for a shape the document carries; a count over
    the budget raises BudgetExceeded before the module is built.  Raises
    VerificationError at the first failure."""
    r, n = F.r, F.ambient_dim
    for i, entry in enumerate(recorded):
        basis = entry.get("basis") if isinstance(entry, dict) else None
        if not isinstance(basis, list):
            raise VerificationError(f"metabolizer {i} has no basis list")
        if not all(isinstance(row, list) and len(row) == n
                   and all(type(x) is int for x in row) for row in basis):
            raise VerificationError(f"a row of metabolizer {i} is not {n} integers")
        if not basis:
            raise VerificationError(f"metabolizer {i} does not span an invariant metabolizer")
    if not recorded:
        raise VerificationError("the document lists no metabolizers")
    count = metabolizers.invariant_metabolizer_count(F)
    if count > budget:
        raise BudgetExceeded(f"{count} invariant metabolizers exceed the budget of {budget}")
    mets = []
    for i, entry in enumerate(recorded):
        basis = entry["basis"]
        L = Subspace(basis, r, n)
        if list(map(list, L.rows)) != basis:
            raise VerificationError(f"the basis of metabolizer {i} is not reduced")
        if not metabolizers.is_invariant_metabolizer(L, F):
            raise VerificationError(
                f"metabolizer {i} does not span an invariant metabolizer")
        if mets and (L.pivots, L.rows) <= (mets[-1].pivots, mets[-1].rows):
            raise VerificationError(
                f"metabolizer {i} does not follow metabolizer {i - 1} in order")
        mets.append(L)
    if len(mets) != count:
        raise VerificationError(
            f"the document certifies {len(mets)} of the form's {count} invariant metabolizers")
    return mets


def _cheap_verdict(K: KnotCombination, source: str) -> Verdict | None:
    """The verdicts that need no prime: a failed hypothesis, a combination
    that cancels, and one that is not algebraically slice; None otherwise."""
    hypothesis_problem = _hypotheses_ok(K)
    if hypothesis_problem and K.terms:
        return Verdict(
            kind="INCONCLUSIVE", p=K.p, input_str=source,
            reason=hypothesis_problem,
        )
    if K.is_empty():
        return Verdict(
            kind="TRIVIAL_COMBINATION", p=K.p, input_str=source,
            algebraically_slice=True,
        )
    alg_slice, witness = knots.algebraically_slice(K)
    if not alg_slice:
        return Verdict(
            kind="NOT_ALGEBRAICALLY_SLICE", p=K.p, input_str=source,
            algebraically_slice=False, witness=witness,
        )
    return None


def obstruct(K: KnotCombination, options: Options = Options(),
             input_str: str | None = None) -> Verdict:
    """Full obstruction run; see the module docstring for the shape."""
    source = input_str if input_str is not None else str(K)
    cheap = _cheap_verdict(K, source)
    if cheap is not None:
        return cheap
    candidates = [options.r] if options.r is not None else K.ending_primes()
    reasons = []
    for r in candidates:
        if r not in K.ending_primes():
            reasons.append(f"r={r}: not a final index of the combination")
            continue
        try:
            certificates = _certify_prime(K, r, options.budget)
        except (BudgetExceeded, _Uncertified) as exc:
            reasons.append(f"r={r}: {exc}")
            continue
        return Verdict(
            kind="NOT_SLICE", p=K.p, input_str=source,
            algebraically_slice=True, r=r, certificates=certificates,
        )
    return Verdict(
        kind="INCONCLUSIVE", p=K.p, input_str=source,
        algebraically_slice=True,
        reason="; ".join(reasons) if reasons else "no candidate prime available",
    )


# ---------------------------------------------------------------------------
# Certificate re-verification
# ---------------------------------------------------------------------------


def verify_verdict(doc: dict, *, budget: int = DEFAULT_BUDGET) -> None:
    """Rebuild a verdict document and require it byte for byte.

    The input is parsed again and the verdict rebuilt: the cheap verdict
    through ``obstruct``'s own steps, or else the per-prime step at the
    recorded r on the document's own bases, which must be a list of all
    the invariant metabolizers in canonical order, as many as the
    closed-form count (``_recorded_metabolizers``); the enumeration never
    runs.  ``budget`` bounds the closed-form count, the length of the list
    the document must carry, and BudgetExceeded is raised over it; as the
    count is at most the Grassmannian that bounds ``obstruct``, a document
    produced under a budget verifies under that budget.  The rebuilt
    certificates' characters are checked as they are built, as under
    ``obstruct``.  The document must equal the rebuilt one as sorted JSON,
    so any changed, dropped, added, duplicated or reordered entry fails,
    and so does ``1`` in place of ``true``.  The recorded p must be the
    input's, and INCONCLUSIVE documents are refused.  Raises
    VerificationError at the first disagreement, and for a document that
    is not an object with a string input, an integer p and a string verdict.
    """
    from .expr import parse

    if not (isinstance(doc, dict) and isinstance(doc.get("input"), str)
            and type(doc.get("p")) is int and isinstance(doc.get("verdict"), str)):
        raise VerificationError(
            "not a verdict document: expected an object with a string input, "
            "an integer p and a string verdict"
        )
    source = doc["input"]
    K = KnotCombination(doc["p"], {}) if source.strip() == "0" else parse(source)
    if doc["p"] != K.p:
        raise VerificationError(f"recorded p={doc['p']} but the input has p={K.p}")
    if doc["verdict"] == "INCONCLUSIVE":
        raise VerificationError("nothing to verify in an INCONCLUSIVE verdict")
    fresh = _cheap_verdict(K, source)
    if fresh is None:
        primes = K.ending_primes()
        if doc.get("r") not in primes:
            raise VerificationError(f"recorded r={doc.get('r')} is not a final index")
        # the combination's own int, so a recorded 5.0 cannot pass as 5
        r = primes[primes.index(doc["r"])]
        recorded = doc.get("metabolizers")
        if not isinstance(recorded, list):
            raise VerificationError("the document's metabolizers are not a list")
        try:
            certificates = _certify_prime(K, r, budget, recorded)
        except _Uncertified as exc:
            raise VerificationError(f"r={r}: {exc}") from None
        fresh = Verdict(
            kind="NOT_SLICE", p=K.p, input_str=source,
            algebraically_slice=True, r=r, certificates=certificates,
        )
    rebuilt = fresh.to_json_dict()
    if json.dumps(rebuilt, sort_keys=True) != json.dumps(doc, sort_keys=True):
        differing = [key for key in sorted(rebuilt.keys() | doc.keys())
                     if _field(rebuilt, key) != _field(doc, key)]
        raise VerificationError(
            f"the document differs from its recomputation in {', '.join(differing)}"
        )


def _field(doc: dict, key: str):
    return key in doc and json.dumps(doc[key], sort_keys=True)

