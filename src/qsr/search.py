"""Consistency decision by refinement search.

Composite labels are split down to base relations in a depth-first search
with algebraic closure as the propagation step.  Closure alone is sound but
not complete: a closed atomic network proves consistency only if closure
decides atomic networks, which ``decide`` takes as ``acl_decides_atomic``
(by default the calculus's fixed flag).  Otherwise an atomic closed leaf
yields ``closed_unknown``; an exhausted search yields ``inconsistent``.

``decide`` splits the smallest non-singleton cell first (ties by lowest pair
index) and tries base relations in declaration order, so node counts are
reproducible.

One walk serves ``decide`` and ``derive_completeness``, which differ in
the pair each node splits and in what a leaf does.  Only the root is
closed in full.  A split sets C[i][j] to one base relation b of it
and intersects C[j][i] with conv(b), so it tightens both cells: without
R7, conv(b) alone can be looser than the closed C[j][i], and writing it
would let the witness leave the input.  A child thus differs from its
closed parent in the split pair alone, only tightened, so its closure is
seeded with that pair (``a_closure(..., changed=(i, j))``, as in GQR) and
reaches the same fixpoint in work proportional to what the split actually
propagates.  The walk keeps its open nodes on an explicit stack, so its
depth is not bounded by the interpreter's recursion limit.

``derive_completeness`` splits pair d at depth d, pairs in row order, so
its leaves are the atomic networks in product order.  Closure is monotone
and the greatest fixpoint below cl(P) ∧ A equals the one below P ∧ A, so
a split that a closed cell excludes, like a prefix whose closure is
inconsistent, has no atomic network below it that closes.  Brute force
thus sees the atomic networks that close, in product order, and the count
is the counterexample's rank in that order plus one, or all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

from .closure import ClosureOutcome, a_closure
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


def _search(out: ClosureOutcome, choose: Callable, leaf: Callable) -> tuple[Any, int]:
    """Depth-first split-and-close walk below the root closure ``out``.

    ``choose(network, depth)`` names the pair (i, j), i < j, that a closed
    node splits into the base relations of its cell, or None at a leaf;
    ``leaf(network, path)`` gets a closed leaf and its splits (i, j, base
    relation).  Returns the first leaf value that is not None, or None,
    with the number of nodes.
    """
    conv = out.network.calculus.converse_mask
    n = len(out.network.var_names)
    nodes = 1
    # one frame per open node: its closed network, the cell being split, the
    # base relations of that cell not tried yet and the closed mirror cell
    stack: list[list] = []
    while True:
        if out.closed:
            closed = out.network
            cell = choose(closed, len(stack))
            if cell is None:
                # each frame's network holds its current split in place
                value = leaf(closed, [(i, j, net.cells[i * n + j]) for net, i, j, _, _ in stack])
                if value is not None:
                    return value, nodes
            else:
                i, j = cell
                stack.append([closed, i, j, closed.cells[i * n + j], closed.cells[j * n + i]])
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return None, nodes
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


def decide(net: ConstraintNetwork, acl_decides_atomic: Optional[bool] = None) -> Decision:
    """Depth-first refinement search over ``net``; the input is not modified.

    ``acl_decides_atomic`` says whether a closed atomic network is
    consistent; ``None`` takes the calculus's ``flags.acl_decides_atomic``.
    """
    if acl_decides_atomic is None:
        acl_decides_atomic = net.calculus.flags.acl_decides_atomic
    closed, nodes = _search(a_closure(net), lambda closed, depth: _pick_cell(closed),
                            lambda closed, path: closed)
    if closed is None:
        return Decision(Verdict.INCONSISTENT, None, nodes)
    if acl_decides_atomic:
        return Decision(Verdict.CONSISTENT, closed, nodes)
    return Decision(Verdict.CLOSED_UNKNOWN, None, nodes)


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

    Covers all |Rel| ** (n_vars choose 2) atomic networks in product order
    (pairs (i, j), i < j, in row order, the last varying fastest; base
    relations in declaration order) and brute-forces those whose closure is
    consistent.  The first one unsatisfiable in the model is the
    counterexample; ``networks_checked`` counts the networks up to it, or
    all of them.  The answer is specific to the model and the variable
    count: a calculus complete over its usual infinite universe can fail
    over a small finite one.  Pass ``flag == "yes"`` to ``decide`` as its
    ``acl_decides_atomic`` to use it.
    """
    if model.calculus is not calculus:
        raise CalculusMismatchError("model interprets a different calculus")
    n_syms = len(calculus.symbols)
    pairs = [(i, j) for i in range(n_vars) for j in range(i + 1, n_vars)]
    total = n_syms ** len(pairs)
    if total > budget:
        raise ValueError(f"{total} atomic networks exceed the budget of {budget}")

    names = [f"x{k}" for k in range(n_vars)]

    def brute_force(closed: ConstraintNetwork, path: list) -> Optional[ConstraintNetwork]:
        # brute force gets the atomic network itself: without R7 its
        # closure can be tighter, and the model need not make closure sound
        atomic = ConstraintNetwork(calculus, names)
        for i, j, bit in path:
            atomic.cells[i * n_vars + j] = bit
            atomic.cells[j * n_vars + i] = calculus.converse_mask(bit)
        return atomic if brute_force_solve(atomic, model, budget=budget) is None else None

    steps = [*pairs, None]  # the pair split at each depth, then a leaf
    root = a_closure(ConstraintNetwork(calculus, names))
    counterexample, _ = _search(root, lambda closed, depth: steps[depth], brute_force)
    if counterexample is None:
        return CompletenessResult("yes", total, None)
    # the leaves come in product order: count up to the counterexample's rank
    rank = 0
    for i, j in pairs:
        rank = rank * n_syms + counterexample.cells[i * n_vars + j].bit_length() - 1
    return CompletenessResult("no", rank + 1, counterexample)
