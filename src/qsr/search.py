"""Consistency decision by refinement search.

Composite labels are split down to base relations in a depth-first search
with algebraic closure as the propagation step.  Closure alone is sound but
not complete: a closed atomic network proves consistency only if closure
decides atomic networks, which ``decide`` takes as ``acl_decides_atomic``
(by default the calculus's fixed flag).  Otherwise an atomic closed leaf
yields ``closed_unknown``; an exhausted search yields ``inconsistent``.

``decide`` splits the smallest non-singleton cell first (ties by lowest pair
index) and tries base relations in declaration order, so node counts are
reproducible.  It finds that cell without a scan: the upper cells are kept
in one set per size, and each choice refiles only the cells written since
the parent's choice and those that backtracking may have restored.

One walk serves ``decide`` and ``derive_completeness``, which differ in
the pair each node splits and in what a leaf does.  Only the root is
closed in full, by ``a_closure``; the walk works on that closure's copy of
the input through one closure session (``closure_runner``).  The session's
``restrict`` closes a child: it sets C[i][j] to one base relation b of the
closed cell and cuts C[j][i] by conv(b), so both cells only tighten
(without R7, conv(b) alone can be looser than the closed C[j][i], and
writing it would let the witness leave the input), and one run from that
pair reaches the child's fixpoint in work proportional to what the split
propagates (as in GQR).  A node's frame holds the session's mark, and
backtracking undoes to it, so no node copies the network and memory grows
with the writes on the current path, not with n^2 cells per open node.
Open nodes are on an explicit stack, so the depth is not bounded by the
interpreter's recursion limit.

``derive_completeness`` splits pair d at depth d, pairs in row order, so
its leaves are the atomic networks in product order.  Closure is monotone
and the greatest fixpoint below cl(P) ∧ A equals the one below P ∧ A, so
a split that a closed cell excludes, like a prefix whose closure is
inconsistent, has no atomic network below it that closes.  Brute force
thus sees the atomic networks that close, in product order, and the count
is the counterexample's rank in that order plus one, or all of them.  A
split to the one base relation a closed cell already holds is that cell's
only child, and its ``restrict`` runs nothing.  Under R7 each closed leaf
is its atomic network, as C[j][i] is conv(C[i][j]), so brute force reads
it in place and only a counterexample is copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

from .closure import ClosureOutcome, a_closure, closure_runner
from .core import CalculusMismatchError, CalculusSpec
from .models import BudgetExceededError, FiniteInterpretation, brute_force_solve
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


def _smallest_cell(net: ConstraintNetwork, session: Any) -> Callable:
    """``decide``'s cell choice on ``net``, worked on through ``session``:
    the upper cells (i < j) in one set of cell indices per size.

    The returned ``choose(depth, since)``, at a closed node below ``depth``
    open ones whose parent's frame holds the session mark ``since`` (0 at
    the root), first refiles the cells the session wrote since that mark,
    and those that choices below the parent refiled, which backtracking may
    have restored.  It returns the first cell of the smallest size above 1,
    ties to the lowest pair index, which is the lowest cell index.  The
    sizes it passes over are fewer than the children of that cell.
    """
    n = len(net.var_names)
    cells = net.cells
    upper = bytearray(n * n)
    # the size each upper cell is filed under
    filed = [cell.bit_count() for cell in cells]
    by_size = [set() for _ in range(len(net.calculus.symbols) + 1)]
    for i in range(n):
        for idx in range(i * n + i + 1, i * n + n):
            upper[idx] = 1
            by_size[filed[idx]].add(idx)
    written = session.written
    # by depth on the path: the cells refiled when each open node was chosen
    moved: list[list[int]] = []

    def choose(depth: int, since: int) -> Optional[tuple[int, int]]:
        groups = moved[depth:]
        del moved[depth:]
        new = written(since)
        moved.append(new)
        groups.append(new)
        for group in groups:
            for idx in group:
                if upper[idx]:
                    size = cells[idx].bit_count()
                    if size != filed[idx]:
                        by_size[filed[idx]].discard(idx)
                        by_size[size].add(idx)
                        filed[idx] = size
        for size in range(2, len(by_size)):
            if by_size[size]:
                idx = min(by_size[size])
                if cells[idx].bit_count() < 2:
                    # a stale filing would split this cell forever
                    raise RuntimeError(f"cell {divmod(idx, n)} is filed under size {size}")
                return divmod(idx, n)
        return None

    return choose


def _search(out: ClosureOutcome, session: Any, choose: Callable, leaf: Callable) -> tuple[Any, int]:
    """Depth-first split-and-close walk below the root closure ``out``,
    through ``session``, the closure session on ``out.network``.

    ``choose(depth, since)`` names the pair (i, j), i < j, that a closed
    node below ``depth`` open ones, the parent's at mark ``since`` (0 at the
    root), splits into the base relations of its cell, or None at a leaf;
    ``leaf(network)`` gets a closed leaf.  Returns the first leaf value
    that is not None, or None, with the number of nodes.
    """
    net = out.network
    cells = net.cells
    n = len(net.var_names)
    restrict, mark, undo = session.restrict, session.mark, session.undo
    closed = out.closed
    nodes = 1
    # one frame per open node: its mark, the cell being split and the base
    # relations of that cell not tried yet
    stack: list[list] = []
    while True:
        if closed:
            cell = choose(len(stack), stack[-1][0] if stack else 0)
            if cell is None:
                value = leaf(net)
                if value is not None:
                    return value, nodes
            else:
                i, j = cell
                stack.append([mark(), i, j, cells[i * n + j]])
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return None, nodes
        frame = stack[-1]
        at, i, j, untried = frame
        # back to the closed node, whose child differs in pair (i, j) alone
        undo(at)
        bit = untried & -untried
        frame[3] = untried ^ bit
        nodes += 1
        closed = restrict(i, j, bit)[0] is None


def decide(net: ConstraintNetwork, acl_decides_atomic: Optional[bool] = None) -> Decision:
    """Depth-first refinement search over ``net``; the input is not modified.

    ``acl_decides_atomic`` says whether a closed atomic network is
    consistent; ``None`` takes the calculus's ``flags.acl_decides_atomic``.
    """
    if acl_decides_atomic is None:
        acl_decides_atomic = net.calculus.flags.acl_decides_atomic
    # the root closure makes the one copy that the search works on
    root = a_closure(net)
    session = closure_runner(root.network)
    closed, nodes = _search(root, session, _smallest_cell(root.network, session), lambda closed: closed)
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

    ``budget`` bounds both the atomic networks and the valuations of one
    brute force, |universe| ** n_vars; either count above it raises before
    anything is closed (``ValueError`` and ``BudgetExceededError``).
    """
    if model.calculus is not calculus:
        raise CalculusMismatchError("model interprets a different calculus")
    n_syms = len(calculus.symbols)
    pairs = [(i, j) for i in range(n_vars) for j in range(i + 1, n_vars)]
    total = n_syms ** len(pairs)
    if total > budget:
        raise ValueError(f"{total} atomic networks exceed the budget of {budget}")
    valuations = len(model.universe) ** n_vars
    if valuations > budget:
        raise BudgetExceededError(f"{valuations} valuations exceed the budget of {budget}")

    names = [f"x{k}" for k in range(n_vars)]
    ra7 = calculus.flags.ra7_holds

    def brute_force(closed: ConstraintNetwork) -> Optional[ConstraintNetwork]:
        # every pair is split at a leaf, so C[i][j] holds its split.  Brute
        # force gets the atomic network itself: without R7 its closure can
        # be tighter, and the model need not make closure sound.  Under R7
        # the closed C[j][i] is conv(C[i][j]), so the leaf is that network
        # and is copied only as the counterexample.  Otherwise a copy has
        # C[j][i] reset; the closure leaves the diagonal as built
        if ra7:
            return closed.copy() if brute_force_solve(closed, model, budget=budget) is None else None
        atomic = closed.copy()
        for i, j in pairs:
            atomic.cells[j * n_vars + i] = calculus.converse_mask(atomic.cells[i * n_vars + j])
        return atomic if brute_force_solve(atomic, model, budget=budget) is None else None

    steps = [*pairs, None]  # the pair split at each depth, then a leaf
    root = a_closure(ConstraintNetwork(calculus, names))
    counterexample, _ = _search(root, closure_runner(root.network), lambda depth, since: steps[depth],
                                brute_force)
    if counterexample is None:
        return CompletenessResult("yes", total, None)
    # the leaves come in product order: count up to the counterexample's rank
    rank = 0
    for i, j in pairs:
        rank = rank * n_syms + counterexample.cells[i * n_vars + j].bit_length() - 1
    return CompletenessResult("no", rank + 1, counterexample)
