"""The templated model language: parsing model text into a :class:`TemplatedModel`.

A model file declares predicates of arity 1 or 2 and a list of weighted
boolean formulas over atoms with logical variables.

Grammar (UTF-8, line oriented)::

    // comment
    predicate Name/arity          # optional; inferred from use when absent
    <weight> <formula>

``weight`` is a decimal literal or ``W`` (optionally signed), bound later via
:meth:`TemplatedModel.bind_weight`.  Formulas use ``^`` (and), ``v`` (or),
``!`` (not), ``->``, ``<->``, parentheses, atoms ``Name(x,y)`` and distinctness
guards ``x != y``.  Guards must appear as top-level conjuncts; an optional pair
of square brackets may enclose the whole formula body.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


class ModelError(Exception):
    """Raised on malformed model text or impossible grounding requests."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Weight:
    """A formula weight: a numeric literal or a multiple of the symbol W."""

    coeff: float
    symbolic: bool = False

    def resolve(self, w_value=None):
        if not self.symbolic:
            return self.coeff
        if w_value is None:
            raise ModelError("model uses the symbolic weight W but no value was bound")
        return self.coeff * w_value


@dataclass(frozen=True)
class AtomTemplate:
    pred: str
    args: tuple[str, ...]

    def __str__(self):
        return f"{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class Formula:
    """One weighted formula, normalized to a canonical atom order.

    ``table[idx]`` is the truth value of the formula under the atom assignment
    with bit ``i`` of ``idx`` giving the value of ``atoms[i]``.
    """

    weight: Weight
    atoms: tuple[AtomTemplate, ...]
    guards: frozenset[frozenset[str]]
    table: tuple[bool, ...]
    variables: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class TemplatedModel:
    predicates: tuple[tuple[str, int], ...]
    formulas: tuple[Formula, ...]

    def bind_weight(self, w_value):
        """Return a copy with every symbolic weight resolved to a number."""
        bound = tuple(
            Formula(Weight(f.weight.resolve(w_value)), f.atoms, f.guards, f.table,
                    f.variables, f.line)
            for f in self.formulas
        )
        return TemplatedModel(self.predicates, bound)

    @property
    def has_symbolic_weight(self):
        return any(f.weight.symbolic for f in self.formulas)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<iff><->)|(?P<imp>->)|(?P<ne>!=)"
    r"|(?P<not>!)|(?P<and>\^)|(?P<comma>,)|(?P<name>[A-Za-z_][A-Za-z0-9_]*))"
)

_PRED_DECL_RE = re.compile(r"^predicate\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)\s*$")
_WEIGHT_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?W)\s+(.*)$")


def _tokenize(text, line):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ModelError(f"unexpected character {text[pos:].strip()[0]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        tokens.append((kind, val))
    return tokens


class _FormulaParser:
    """Recursive descent over tokens.  Precedence: ! > ^ > v > -> > <->."""

    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None:
            raise ModelError("unexpected end of formula", self.line)
        if kind is not None and tok[0] != kind:
            raise ModelError(f"expected {kind}, found {tok[1]!r}", self.line)
        self.pos += 1
        return tok

    def parse(self):
        expr = self.parse_iff()
        if self.peek()[0] is not None:
            raise ModelError(f"trailing tokens near {self.peek()[1]!r}", self.line)
        return expr

    def parse_iff(self):
        left = self.parse_imp()
        while self.peek()[0] == "iff":
            self.take()
            right = self.parse_imp()
            left = ("iff", left, right)
        return left

    def parse_imp(self):
        left = self.parse_or()
        if self.peek()[0] == "imp":
            self.take()
            right = self.parse_imp()  # right associative
            return ("imp", left, right)
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.peek() == ("name", "v"):
            self.take()
            right = self.parse_and()
            left = ("or", left, right)
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.peek()[0] == "and":
            self.take()
            right = self.parse_not()
            left = ("and", left, right)
        return left

    def parse_not(self):
        if self.peek()[0] == "not":
            self.take()
            return ("not", self.parse_not())
        return self.parse_primary()

    def parse_primary(self):
        kind, val = self.peek()
        if kind == "lpar":
            self.take()
            expr = self.parse_iff()
            self.take("rpar")
            return expr
        if kind != "name":
            raise ModelError(f"expected atom or variable, found {val!r}", self.line)
        self.take()
        nxt = self.peek()
        if nxt[0] == "lpar":  # atom
            self.take()
            args = [self.take("name")[1]]
            while self.peek()[0] == "comma":
                self.take()
                args.append(self.take("name")[1])
            self.take("rpar")
            return ("atom", val, tuple(args))
        if nxt[0] == "ne":  # distinctness guard: var != var
            self.take()
            other = self.take("name")[1]
            return ("ne", val, other)
        raise ModelError(f"bare identifier {val!r} (expected atom or guard)", self.line)


def _split_guards(expr, line):
    """Split top-level conjuncts into guard pairs and the residual formula."""
    conjuncts = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if e[0] == "and":
            stack.append(e[1])
            stack.append(e[2])
        else:
            conjuncts.append(e)
    guards = []
    rest = []
    for c in conjuncts:
        if c[0] == "ne":
            guards.append(frozenset((c[1], c[2])))
        else:
            _check_no_guard(c, line)
            rest.append(c)
    if not rest:
        raise ModelError("formula reduces to guards only (no atoms)", line)
    body = rest[0]
    for c in rest[1:]:
        body = ("and", body, c)
    return frozenset(guards), body


def _check_no_guard(expr, line):
    if expr[0] == "ne":
        raise ModelError("distinctness guards must be top-level conjuncts", line)
    if expr[0] == "atom":
        return
    for sub in expr[1:]:
        if isinstance(sub, tuple):
            _check_no_guard(sub, line)


def _collect_atoms(expr, out):
    if expr[0] == "atom":
        out.append(AtomTemplate(expr[1], expr[2]))
        return
    for sub in expr[1:]:
        if isinstance(sub, tuple):
            _collect_atoms(sub, out)


def _eval_expr(expr, assignment):
    op = expr[0]
    if op == "atom":
        return assignment[AtomTemplate(expr[1], expr[2])]
    if op == "not":
        return not _eval_expr(expr[1], assignment)
    if op == "and":
        return _eval_expr(expr[1], assignment) and _eval_expr(expr[2], assignment)
    if op == "or":
        return _eval_expr(expr[1], assignment) or _eval_expr(expr[2], assignment)
    if op == "imp":
        return (not _eval_expr(expr[1], assignment)) or _eval_expr(expr[2], assignment)
    if op == "iff":
        return _eval_expr(expr[1], assignment) == _eval_expr(expr[2], assignment)
    raise AssertionError(op)


def _parse_weight(token, line):
    if token.endswith("W"):
        sign = -1.0 if token.startswith("-") else 1.0
        return Weight(sign, symbolic=True)
    value = float(token)
    if not math.isfinite(value):
        raise ModelError("weights must be finite (hard constraints unsupported)", line)
    return Weight(value)


def parse_model(text):
    """Parse model text into a :class:`TemplatedModel`.

    Predicates may be declared with ``predicate Name/arity`` lines; when at
    least one declaration is present every atom must use a declared predicate.
    Without declarations, predicates are inferred from first use and checked
    for consistent arity.
    """
    declared = {}
    inferred = {}
    strict = False
    formulas = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        decl = _PRED_DECL_RE.match(line)
        if decl:
            name, arity = decl.group(1), int(decl.group(2))
            if arity not in (1, 2):
                raise ModelError(f"predicate {name} has arity {arity}, only 1 or 2 supported", lineno)
            if name in declared and declared[name] != arity:
                raise ModelError(f"predicate {name} redeclared with different arity", lineno)
            declared[name] = arity
            strict = True
            continue
        m = _WEIGHT_RE.match(line)
        if m is None:
            raise ModelError("expected 'predicate Name/arity' or '<weight> <formula>'", lineno)
        weight = _parse_weight(m.group(1), lineno)
        body_text = m.group(2).strip()
        if body_text.startswith("[") and body_text.endswith("]"):
            body_text = body_text[1:-1]
        expr = _FormulaParser(_tokenize(body_text, lineno), lineno).parse()
        guards, body = _split_guards(expr, lineno)

        raw_atoms = []
        _collect_atoms(body, raw_atoms)
        atoms = tuple(sorted(set(raw_atoms), key=lambda a: (a.pred, a.args)))
        if len(atoms) > 3:
            raise ModelError(f"formula has {len(atoms)} distinct atoms, at most 3 supported", lineno)

        for atom in atoms:
            if strict:
                if atom.pred not in declared:
                    raise ModelError(f"undeclared predicate {atom.pred}", lineno)
                if declared[atom.pred] != len(atom.args):
                    raise ModelError(
                        f"predicate {atom.pred} used with arity {len(atom.args)}, "
                        f"declared {declared[atom.pred]}", lineno)
            else:
                if len(atom.args) not in (1, 2):
                    raise ModelError(f"predicate {atom.pred} has arity {len(atom.args)}, "
                                     "only 1 or 2 supported", lineno)
                if inferred.setdefault(atom.pred, len(atom.args)) != len(atom.args):
                    raise ModelError(f"predicate {atom.pred} used with inconsistent arity", lineno)

        variables = []
        for atom in atoms:
            for v in atom.args:
                if v not in variables:
                    variables.append(v)
        for g in guards:
            for v in g:
                if v not in variables:
                    raise ModelError(f"guard variable {v} appears in no atom", lineno)

        table = []
        for idx in range(2 ** len(atoms)):
            assignment = {atoms[i]: bool((idx >> i) & 1) for i in range(len(atoms))}
            table.append(_eval_expr(body, assignment))
        formulas.append(Formula(weight, atoms, guards, tuple(table), tuple(variables), lineno))

    preds = declared if strict else inferred
    return TemplatedModel(tuple(sorted(preds.items())), tuple(formulas))
