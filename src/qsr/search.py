"""Consistency decision by refinement search.

Composite labels are split down to base relations in a depth-first search
with algebraic closure as the propagation step.  Closure alone is sound but
not complete: a closed atomic network proves consistency only if closure
decides atomic networks, which ``decide`` takes as ``acl_decides_atomic``
(by default the calculus's fixed flag).  Otherwise an atomic closed leaf
yields ``closed_unknown``; an exhausted search yields ``inconsistent``.

Branching picks the smallest non-singleton cell first (ties by lowest pair
index) and tries base relations in declaration order, so node counts are
reproducible.

Only the root is closed from all pairs.  A split sets C[i][j] to one base
relation b of it and intersects C[j][i] with conv(b), so it tightens both
cells: without R7, conv(b) alone can be looser than the closed C[j][i],
and writing it would let the witness leave the input.  A child thus
differs from its closed parent in the split pair alone, only tightened, so
its closure is seeded with that pair (``a_closure(..., changed=(i, j))``,
as in GQR) and reaches the same fixpoint in work proportional to what the
split actually propagates.  The search runs on an explicit stack of open
nodes, one frame per level, so its depth is not bounded by the
interpreter's recursion limit.

``derive_completeness`` walks the atomic networks of a variable count the
same way: one level per pair, base relations in declaration order, each
child closed from its split pair.  Closure is monotone, and the greatest
fixpoint below cl(P) ∧ A equals the one below P ∧ A, so a prefix whose
closure is inconsistent makes every atomic network below it inconsistent:
the subtree is counted and skipped, like that of a split to a base relation
that the closed cell of its pair excludes, which is not even closed.  Only
the atomic networks whose closure is consistent reach brute force, in
product order, so the flag, the count and the counterexample are those of
closing every network from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .closure import a_closure
from .core import CalculusMismatchError, CalculusSpec
from .models import FiniteInterpretation, brute_force_solve
from .network import ConstraintNetwork


class Verdict(Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    CLOSED_UNKNOWN = "closed_unknown"


@dataclass
class Decision:
    verdict: Verdict
    witness: Optional[ConstraintNetwork]
    nodes_explored: int


def _pick_cell(net: ConstraintNetwork) -> Optional[tuple[int, int]]:
    n = len(net.var_names)
    cells = net.cells
    best: Optional[tuple[int, int]] = None
    best_size = 0
    for i in range(n):
        base = i * n
        for j in range(i + 1, n):
            size = cells[base + j].bit_count()
            if size > 1 and (best is None or size < best_size):
                if size == 2:
                    # no non-singleton cell is smaller, and ties go to the
                    # lowest pair index: the scan can stop here
                    return i, j
                best, best_size = (i, j), size
    return best


def decide(net: ConstraintNetwork, acl_decides_atomic: Optional[bool] = None) -> Decision:
    """Depth-first refinement search over ``net``; the input is not modified.

    ``acl_decides_atomic`` says whether a closed atomic network is
    consistent; ``None`` takes the calculus's ``flags.acl_decides_atomic``.
    """
    calc = net.calculus
    if acl_decides_atomic is None:
        acl_decides_atomic = calc.flags.acl_decides_atomic
    conv = calc.converse_mask
    n = len(net.var_names)
    nodes = 1
    out = a_closure(net)
    # one frame per open node: its closed network, the cell being split, the
    # base relations of that cell not tried yet and the closed mirror cell
    stack: list[list] = []
    while True:
        if out.closed:
            closed = out.network
            cell = _pick_cell(closed)
            if cell is None:
                if acl_decides_atomic:
                    return Decision(Verdict.CONSISTENT, closed, nodes)
                return Decision(Verdict.CLOSED_UNKNOWN, None, nodes)
            i, j = cell
            stack.append([closed, i, j, closed.cells[i * n + j], closed.cells[j * n + i]])
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return Decision(Verdict.INCONSISTENT, None, nodes)
        frame = stack[-1]
        closed, i, j, untried, mirror = frame
        bit = untried & -untried
        frame[3] = untried ^ bit
        # a_closure copies its input: split the open node's network in place;
        # only pair (i, j) was tightened since it was closed
        closed.cells[i * n + j] = bit
        closed.cells[j * n + i] = mirror & conv(bit)
        nodes += 1
        out = a_closure(closed, changed=(i, j))


@dataclass
class CompletenessResult:
    flag: str  # "yes" or "no"
    networks_checked: int
    counterexample: Optional[ConstraintNetwork]


def derive_completeness(
    calculus: CalculusSpec,
    model: FiniteInterpretation,
    n_vars: int,
    budget: int = 2_000_000,
) -> CompletenessResult:
    """Check, exhaustively, whether every closed atomic ``n_vars``-variable
    network is satisfiable in ``model``.

    Covers all |Rel| ** (n_vars choose 2) atomic networks, pairs (i, j) with
    i < j in row order and base relations in declaration order, the last
    pair varying fastest.  They are assigned pair by pair depth-first, and
    each partial assignment is closed incrementally from its parent's
    closure; an inconsistent prefix prunes every network below it.  Each
    network whose closure is consistent is brute-forced against the model,
    and the first unsatisfiable one is the counterexample.
    ``networks_checked`` counts the networks covered up to it, pruned ones
    included.  The answer is specific to the model and the variable count:
    a calculus complete over its usual infinite universe can fail over a
    small finite one.  Pass ``flag == "yes"`` to ``decide`` as its
    ``acl_decides_atomic`` to use it.
    """
    if model.calculus is not calculus:
        raise CalculusMismatchError("model interprets a different calculus")
    n_syms = len(calculus.symbols)
    pairs = [(i, j) for i in range(n_vars) for j in range(i + 1, n_vars)]
    depth = len(pairs)
    total = n_syms ** depth
    if total > budget:
        raise ValueError(f"{total} atomic networks exceed the budget of {budget}")

    names = [f"x{k}" for k in range(n_vars)]
    conv = calculus.converse_mask
    n = n_vars
    # below[d]: the atomic networks under a node that has assigned d pairs
    below = [n_syms ** (depth - d) for d in range(depth + 1)]
    checked = 0
    out = a_closure(ConstraintNetwork(calculus, names))
    # one frame per open node: its closed network, the next base relation to
    # give its pair and the pair's two closed cells
    stack: list[list] = []
    while True:
        level = len(stack)
        if out is None or not out.closed:
            checked += below[level]
        elif level < depth:
            closed = out.network
            i, j = pairs[level]
            stack.append([closed, 0, closed.cells[i * n + j], closed.cells[j * n + i]])
        else:
            checked += 1
            # brute force gets the atomic network itself: without R7 its
            # closure can be tighter, and the model need not make closure sound
            leaf = ConstraintNetwork(calculus, names)
            for (i, j), frame in zip(pairs, stack):
                bit = 1 << (frame[1] - 1)
                leaf.cells[i * n + j] = bit
                leaf.cells[j * n + i] = conv(bit)
            if brute_force_solve(leaf, model, budget=budget) is None:
                return CompletenessResult("no", checked, leaf)
        while stack and stack[-1][1] == n_syms:
            stack.pop()
        if not stack:
            return CompletenessResult("yes", checked, None)
        frame = stack[-1]
        closed, sym, ij, ji = frame
        frame[1] = sym + 1
        bit = 1 << sym
        i, j = pairs[len(stack) - 1]
        # a_closure copies its input: split the open node's network in place;
        # only pair (i, j) was tightened since it was closed.  A split that the
        # closed C[i][j] excludes is not closed: out = None prunes its subtree
        closed.cells[i * n + j] = ij & bit
        closed.cells[j * n + i] = ji & conv(bit)
        out = a_closure(closed, changed=(i, j)) if ij & bit else None
