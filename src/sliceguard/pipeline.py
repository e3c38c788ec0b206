"""The end-to-end obstruction pipeline and its certificates.

Given a combination of iterated torus knots sharing a prime-power cabling
parameter, the pipeline first settles the cheap verdicts (trivial after
cancellation; not algebraically slice with a surviving companion as
witness).  For the remaining combinations it picks a final prime r,
arranges the terms into signed pairs, builds the linking form
lambda^m ⊕ -lambda^m of the r-part of the branched cover, and then, for
every deck-invariant metabolizer, constructs a vanishing character whose
twisted decomposition has a level component with a nonzero total
signature jump.  One certificate per metabolizer yields NOT_SLICE; any
gap yields INCONCLUSIVE, never an unproven verdict.

Certificates record the metabolizer basis, the construction case, the
character pair, the level (q, s), and the witness jump; everything is
re-derivable, so a verify pass can recompute the whole chain from the
input expression and compare exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import covers, knots, metabolizers, seifert, witt
from .covers import Character
from .cyclo import RootOfUnity
from .knots import KnotCombination, NormalForm, prime_power_exponent
from .metabolizers import (
    BudgetExceeded,
    CharacterChoice,
    FormSpace,
    NotSimplifiedWitness,
    ObstructionContext,
)
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


@dataclass(frozen=True)
class Options:
    r: int | None = None
    budget: int = 2_000_000
    max_ambient_dim: int = 8
    max_r: int = 13


@dataclass(frozen=True)
class IndexSets:
    """For each companion level (q, s), which pair indices of the chosen
    prime's group appear positively (I1) and negatively (I2), and which
    pairs of the remaining groups appear positively (I3) and negatively
    (I4)."""

    points: tuple
    I1: dict
    I2: dict
    I3: dict
    I4: dict

    def alternating_sum(self, q: int, s: int) -> int:
        key = (q, s)
        return (
            len(self.I1[key]) - len(self.I2[key])
            + len(self.I3[key]) - len(self.I4[key])
        )


def index_sets(nf: NormalForm) -> IndexSets:
    I1: dict = {}
    I2: dict = {}
    I3: dict = {}
    I4: dict = {}
    points = set()
    max_len = nf.max_length()
    for s in range(1, max_len):
        for k, (qp, qm) in enumerate(nf.groups[0]):
            if len(qp) > s:
                points.add((qp[-(s + 1)], s))
            if len(qm) > s:
                points.add((qm[-(s + 1)], s))
        for j in range(1, len(nf.groups)):
            for i, (qp, qm) in enumerate(nf.groups[j]):
                if len(qp) > s:
                    points.add((qp[-(s + 1)], s))
                if len(qm) > s:
                    points.add((qm[-(s + 1)], s))
    for (q, s) in points:
        I1[(q, s)] = frozenset(
            k for k, (qp, _) in enumerate(nf.groups[0])
            if len(qp) > s and qp[-(s + 1)] == q
        )
        I2[(q, s)] = frozenset(
            k for k, (_, qm) in enumerate(nf.groups[0])
            if len(qm) > s and qm[-(s + 1)] == q
        )
        I3[(q, s)] = frozenset(
            (j, i)
            for j in range(1, len(nf.groups))
            for i, (qp, _) in enumerate(nf.groups[j])
            if len(qp) > s and qp[-(s + 1)] == q
        )
        I4[(q, s)] = frozenset(
            (j, i)
            for j in range(1, len(nf.groups))
            for i, (_, qm) in enumerate(nf.groups[j])
            if len(qm) > s and qm[-(s + 1)] == q
        )
    ordered = tuple(sorted(points, key=lambda qs: (qs[1], -qs[0])))
    return IndexSets(points=ordered, I1=I1, I2=I2, I3=I3, I4=I4)


@dataclass(frozen=True)
class Decomposition:
    """The four blocks of the decomposed metabelian pairing: twisted atoms
    for the chosen prime's pairs (B1), cancelling twisted pairs for the
    other groups (B2), and per-level classical blocks (B3 twisted by the
    characters, B4 untwisted)."""

    B1: WittClass
    B2: WittClass
    B3: dict
    B4: dict


def _lambda_block(p: int, q: int, r: int, chi: Character, s: int, sign: int) -> list:
    power = p ** (s - 1)
    return [
        Classical(
            p=p,
            q=q,
            twist=RootOfUnity.normalized(power * a, r),
            power=power,
            coefficient=sign,
        )
        for a in chi.values
    ]


def decompose(nf: NormalForm, chi_a, chi_b) -> Decomposition:
    p, r = nf.p, nf.r
    m1 = nf.m1
    if len(chi_a) != m1 or len(chi_b) != m1:
        raise ValueError("one character per signed pair of the r-group is required")
    for chi in (*chi_a, *chi_b):
        if chi.r != r or chi.p != p:
            raise ValueError(f"character {chi} does not match p={p}, r={r}")
    sets = index_sets(nf)
    theta = Character(r, tuple([0] * p))
    B1 = WittClass(
        [Twisted(p, r, chi_a[i], +1) for i in range(m1)]
        + [Twisted(p, r, chi_b[i], -1) for i in range(m1)]
    )
    b2_atoms = []
    for j in range(1, len(nf.groups)):
        prime = nf.primes[j]
        theta_j = Character(prime, tuple([0] * p))
        for _ in nf.groups[j]:
            b2_atoms.append(Twisted(p, prime, theta_j, +1))
            b2_atoms.append(Twisted(p, prime, theta_j, -1))
    B2 = WittClass(b2_atoms)
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
    return Decomposition(B1=B1, B2=B2, B3=B3, B4=B4)


@dataclass(frozen=True)
class Certificate:
    basis: tuple
    case: int
    chi_a: tuple
    chi_b: tuple
    q: int
    s: int
    witness_omega: Fraction
    witness_jump: int

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
                "omega": f"{self.witness_omega.numerator}/{self.witness_omega.denominator}",
                "total_jump": self.witness_jump,
            },
        }


@dataclass(frozen=True)
class Verdict:
    kind: str
    p: int
    input_str: str
    algebraically_slice: bool | None = None
    witness: tuple | None = None
    r: int | None = None
    certificates: tuple = ()
    reason: str | None = None

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


def _obstruction_context(nf: NormalForm, sets: IndexSets) -> ObstructionContext:
    qs_points = tuple(
        (q, s) for (q, s) in sets.points if sets.I1[(q, s)] or sets.I2[(q, s)]
    )
    return ObstructionContext(
        pairs=nf.groups[0], qs_points=qs_points, I1=sets.I1, I2=sets.I2
    )


def _disjointness_ok(dec: Decomposition, q: int, s: int) -> bool:
    chosen = dec.B3[(q, s)] + dec.B4[(q, s)]
    chosen_support = set()
    for atom in chosen.atoms:
        chosen_support |= witt.support_of(atom)
    other_support = set()
    for atom in dec.B1.atoms:
        other_support |= witt.support_of(atom)
    for key, block in list(dec.B3.items()) + list(dec.B4.items()):
        if key == (q, s):
            continue
        for atom in block.atoms:
            other_support |= witt.support_of(atom)
    return not (chosen_support & other_support)


def _certify_metabolizer(L: Subspace, F: FormSpace, nf: NormalForm,
                         ctx: ObstructionContext, dec_cache: dict):
    """One certificate for one metabolizer, or a failure reason string."""
    choice = metabolizers.construct_character(L, F, ctx)
    if choice is None:
        return None, "no obstructing character found for a metabolizer"
    if isinstance(choice, NotSimplifiedWitness):
        return None, (
            "character construction reports a non-simplified combination "
            f"(pair {choice.k0}, X={sorted(choice.X)}, Y={sorted(choice.Y)}): caller bug"
        )
    key = (choice.chi_a, choice.chi_b)
    if key not in dec_cache:
        dec_cache[key] = decompose(nf, choice.chi_a, choice.chi_b)
    dec = dec_cache[key]
    if not dec.B2.is_empty():
        return None, "trivial-character block failed to cancel"
    if not _disjointness_ok(dec, choice.q, choice.s):
        return None, (
            f"root supports of the level ({choice.q},{choice.s}) block are "
            "not isolated; splitting hypothesis failed"
        )
    block = dec.B3[(choice.q, choice.s)] + dec.B4[(choice.q, choice.s)]
    metabolic, witness = witt.is_metabolic_classical(block)
    if metabolic:
        return None, (
            f"level ({choice.q},{choice.s}) block is metabolic despite the "
            "character conditions"
        )
    omega, jump = witness
    cert = Certificate(
        basis=L.rows,
        case=choice.case,
        chi_a=choice.chi_a,
        chi_b=choice.chi_b,
        q=choice.q,
        s=choice.s,
        witness_omega=omega,
        witness_jump=jump,
    )
    return cert, None


def obstruct(K: KnotCombination, options: Options = Options(),
             input_str: str | None = None) -> Verdict:
    """Full obstruction run; see the module docstring for the shape."""
    source = input_str if input_str is not None else str(K)
    hypothesis_problem = _hypotheses_ok(K)
    if hypothesis_problem and K.terms:
        return Verdict(
            kind="INCONCLUSIVE", p=K.p, input_str=source,
            reason=hypothesis_problem,
        )
    simplified = knots.simplify(K)
    if simplified.is_empty():
        return Verdict(
            kind="TRIVIAL_COMBINATION", p=K.p, input_str=source,
            algebraically_slice=True,
        )
    alg_slice, witness = knots.algebraically_slice(simplified)
    if not alg_slice:
        return Verdict(
            kind="NOT_ALGEBRAICALLY_SLICE", p=K.p, input_str=source,
            algebraically_slice=False, witness=witness,
        )
    candidates = [options.r] if options.r is not None else simplified.ending_primes()
    reasons = []
    for r in candidates:
        if r not in simplified.ending_primes():
            reasons.append(f"r={r}: not a final index of the combination")
            continue
        if r > options.max_r:
            reasons.append(f"r={r}: exceeds the configured prime budget {options.max_r}")
            continue
        nf = knots.normal_form(simplified, r)
        sets = index_sets(nf)
        for (q, s) in sets.points:
            if sets.alternating_sum(q, s) != 0:
                raise seifert.ConventionError(
                    f"level multiplicity sum nonzero at (q={q}, s={s}) for an "
                    "algebraically slice combination"
                )
        module = covers.model_module(K.p, r)
        F = FormSpace(module=module, m1=nf.m1)
        if F.ambient_dim > options.max_ambient_dim:
            reasons.append(
                f"r={r}: ambient dimension {F.ambient_dim} exceeds budget "
                f"{options.max_ambient_dim}"
            )
            continue
        try:
            mets = metabolizers.enumerate_invariant_metabolizers(F, options.budget)
        except BudgetExceeded as exc:
            reasons.append(f"r={r}: {exc}")
            continue
        ctx = _obstruction_context(nf, sets)
        certificates = []
        failure = None
        dec_cache: dict = {}
        for L in mets:
            cert, failure = _certify_metabolizer(L, F, nf, ctx, dec_cache)
            if failure:
                break
            certificates.append(cert)
        if failure:
            reasons.append(f"r={r}: {failure}")
            continue
        return Verdict(
            kind="NOT_SLICE", p=K.p, input_str=source,
            algebraically_slice=True, r=r, certificates=tuple(certificates),
        )
    return Verdict(
        kind="INCONCLUSIVE", p=K.p, input_str=source,
        algebraically_slice=True,
        reason="; ".join(reasons) if reasons else "no candidate prime available",
    )


# ---------------------------------------------------------------------------
# Certificate re-verification
# ---------------------------------------------------------------------------


def verify_verdict(doc: dict, *, budget: int = Options.budget) -> None:
    """Re-check a NOT_SLICE verdict document from scratch.

    Recomputes the metabolizer enumeration (in order, so a duplicated or
    reordered entry fails), the construction case, characters and level of
    each certificate, the characters' vanishing, the level conditions, and
    every witness jump, raising VerificationError at the first
    disagreement.  The recorded p must be the input's.  Non-NOT_SLICE
    documents re-run the cheap verdicts only.  ``budget`` bounds the
    enumeration as in ``obstruct``; a document produced under a larger
    budget needs that budget here, or BudgetExceeded is raised.
    """
    from .expr import parse

    if doc["input"].strip() == "0":
        K = KnotCombination(doc["p"], {})
    else:
        K = parse(doc["input"])
    if doc["p"] != K.p:
        raise VerificationError(f"recorded p={doc['p']} but the input has p={K.p}")
    if doc["verdict"] == "TRIVIAL_COMBINATION":
        if not knots.simplify(K).is_empty():
            raise VerificationError("combination does not cancel to the unknot")
        return
    if doc["verdict"] == "NOT_ALGEBRAICALLY_SLICE":
        ok, witness = knots.algebraically_slice(knots.simplify(K))
        if ok:
            raise VerificationError("combination is algebraically slice after all")
        return
    if doc["verdict"] != "NOT_SLICE":
        raise VerificationError(f"nothing to verify in a {doc['verdict']} verdict")
    r = doc["r"]
    simplified = knots.simplify(K)
    ok, _ = knots.algebraically_slice(simplified)
    if not ok or not doc.get("algebraically_slice"):
        raise VerificationError("NOT_SLICE verdict on a non-algebraically-slice input")
    nf = knots.normal_form(simplified, r)
    sets = index_sets(nf)
    module = covers.model_module(K.p, r)
    F = FormSpace(module=module, m1=nf.m1)
    mets = metabolizers.enumerate_invariant_metabolizers(F, budget)
    recorded = [
        Subspace([tuple(row) for row in entry["basis"]], module.r, F.ambient_dim)
        for entry in doc["metabolizers"]
    ]
    if [m.rows for m in mets] != [m.rows for m in recorded]:
        raise VerificationError(
            "recorded metabolizers do not match the enumeration "
            f"({len(recorded)} recorded, {len(mets)} enumerated)"
        )
    ctx = _obstruction_context(nf, sets)
    for entry, L in zip(doc["metabolizers"], recorded):
        if not metabolizers.is_invariant_metabolizer(L, F):
            raise VerificationError(f"recorded basis {entry['basis']} is not a metabolizer")
        chi_a = tuple(Character(r, tuple(v)) for v in entry["character"]["a"])
        chi_b = tuple(Character(r, tuple(v)) for v in entry["character"]["b"])
        q, s = entry["qs"]
        choice = metabolizers.construct_character(L, F, ctx)
        if not isinstance(choice, CharacterChoice) or (
            choice.case, choice.chi_a, choice.chi_b, choice.q, choice.s
        ) != (entry["case"], chi_a, chi_b, q, s):
            raise VerificationError(
                f"recorded case {entry['case']}, characters and level are not "
                "what the character construction gives for this metabolizer"
            )
        _verify_entry(entry, L, F, nf, sets, chi_a, chi_b, q, s)


def _verify_entry(entry, L, F, nf, sets, chi_a, chi_b, q, s):
    r = nf.r
    dim = F.block_dim
    # vanishing on the metabolizer, from the recorded characters alone
    orbit = F.module.orbit_rows()
    functional_parts = []
    for chi in (*chi_a, *chi_b):
        rows = [list(orbit[i]) for i in range(dim)]
        c = _solve_functional(rows, chi.values[:dim], r)
        if c is None or covers.character_from_functional(F.module, c).values != chi.values:
            raise VerificationError(f"character {chi} is not induced by any functional")
        functional_parts.append(c)
    for row in L.rows:
        total = 0
        for k, c in enumerate(functional_parts):
            block = row[k * dim : (k + 1) * dim]
            total += sum(a * b for a, b in zip(block, c))
        if total % r:
            raise VerificationError("recorded character does not vanish on the metabolizer")
    # the level conditions
    key = (q, s)
    if key not in sets.I1:
        raise VerificationError(f"level ({q},{s}) does not occur for this input")
    nontrivial_a = {k for k, chi in enumerate(chi_a) if not chi.is_trivial()}
    nontrivial_b = {k for k, chi in enumerate(chi_b) if not chi.is_trivial()}
    cond1 = not (nontrivial_b & sets.I2[key]) and bool(nontrivial_a & sets.I1[key])
    cond2 = not (nontrivial_a & sets.I1[key]) and bool(nontrivial_b & sets.I2[key])
    if not (cond1 or cond2):
        raise VerificationError("recorded characters satisfy neither level condition")
    # the witness jump, recomputed from scratch
    dec = decompose(nf, chi_a, chi_b)
    if not _disjointness_ok(dec, q, s):
        raise VerificationError("level block is not isolated")
    block = dec.B3[key] + dec.B4[key]
    omega_txt = entry["witness"]["omega"]
    num, den = omega_txt.split("/")
    omega = Fraction(int(num), int(den))
    total = sum(witt.jump_of(a, omega) for a in block.atoms)
    if total != entry["witness"]["total_jump"] or total == 0:
        raise VerificationError(
            f"witness jump mismatch at {omega_txt}: recomputed {total}, "
            f"recorded {entry['witness']['total_jump']}"
        )


def _solve_functional(rows, values, r):
    from . import modp

    return modp.solve(rows, list(values), r)
