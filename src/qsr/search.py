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
in one set per size, and each closure and each undo refiles only the cells
that it wrote.

One walk serves ``decide`` and ``derive_completeness``, which differ in
the pair each node splits and in what a leaf does.  Only the root is
closed in full.  A split sets C[i][j] to one base relation b of it
and intersects C[j][i] with conv(b), so it tightens both cells: without
R7, conv(b) alone can be looser than the closed C[j][i], and writing it
would let the witness leave the input.  A child thus differs from its
closed parent in the split pair alone, only tightened, so its closure is
one run of the walk's ``closure_runner`` seeded with that pair (as in
GQR), which reaches the same fixpoint in work proportional to what the
split actually propagates.  The walk keeps its open nodes on an explicit
stack, so its depth is not bounded by the interpreter's recursion limit.

The walk works on one network, the root closure's copy of the input.  It
sets up its closure once (``closure_runner``), on that network and one
trail, and closes each child with one run of it.  A split and the run
write the network in place, and each write appends the cell's index and
old mask to the trail.  A node's frame holds the trail's length when it
was closed; backtracking to it restores the cells written since, last
first (as in GQR).  So no node copies the network, and memory grows with the writes on
the current path, not with n^2 cells per open node.

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

from .closure import ClosureOutcome, a_closure, closure_runner
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


def _undo(cells: list, trail: list, mark: int) -> None:
    """Restore the cells written since the trail had length ``mark``."""
    pop = trail.pop
    while len(trail) > mark:
        old = pop()
        cells[pop()] = old


class _SmallestCell:
    """``decide``'s cell choice on the working network: the upper cells
    (i < j) in one set of cell indices per size.

    ``choose`` first refiles the cells that the trail says were written
    since its last call, then returns the first cell of the smallest size
    above 1, ties to the lowest pair index, which is the lowest cell index.
    The sizes it passes over are fewer than the children of the cell it
    returns.  ``undo`` restores the trail and refiles each cell it
    restores.  Both rely on each write tightening its cell, so that its
    size falls with every write.
    """

    def __init__(self, net: ConstraintNetwork) -> None:
        n = self.n = len(net.var_names)
        upper = self.upper = bytearray(n * n)
        by_size = self.by_size = [set() for _ in range(len(net.calculus.symbols) + 1)]
        for i in range(n):
            for idx in range(i * n + i + 1, i * n + n):
                upper[idx] = 1
                by_size[net.cells[idx].bit_count()].add(idx)
        self.seen = 0  # trail entries refiled

    def choose(self, net: ConstraintNetwork, depth: int, trail: list) -> Optional[tuple[int, int]]:
        by_size, upper, cells = self.by_size, self.upper, net.cells
        for t in range(self.seen, len(trail), 2):
            idx = trail[t]
            if upper[idx]:
                old = trail[t + 1]
                # a cell written twice is also discarded from the size of
                # its second old mask, which is larger than its size now
                by_size[old.bit_count()].discard(idx)
                by_size[cells[idx].bit_count()].add(idx)
        self.seen = len(trail)
        for size in range(2, len(by_size)):
            if by_size[size]:
                return divmod(min(by_size[size]), self.n)
        return None

    def undo(self, cells: list, trail: list, mark: int) -> None:
        by_size, upper, pop = self.by_size, self.upper, trail.pop
        # a cell written only past ``seen`` is still filed under its size
        # before those writes; refiling it last first moves it back there
        while len(trail) > mark:
            old = pop()
            idx = pop()
            if upper[idx]:
                by_size[cells[idx].bit_count()].discard(idx)
                by_size[old.bit_count()].add(idx)
            cells[idx] = old
        self.seen = min(self.seen, mark)


def _search(out: ClosureOutcome, choose: Callable, leaf: Callable,
            undo: Callable = _undo) -> tuple[Any, int]:
    """Depth-first split-and-close walk below the root closure ``out``.

    The walk splits and closes ``out.network`` in place and keeps a trail
    of the index and the old mask of every cell written since the root;
    backtracking restores the trail to the mark of the node it returns to,
    so no node copies the network.  ``choose(network, depth, trail)`` names
    the pair (i, j), i < j, that a closed node splits into the base
    relations of its cell, or None at a leaf; ``leaf(network)`` gets a
    closed leaf.
    ``undo(cells, trail, mark)`` restores the trail to length ``mark``.
    Returns the first leaf value that is not None, or None, with the number
    of nodes.
    """
    net = out.network
    cells = net.cells
    conv = net.calculus.converse_mask
    n = len(net.var_names)
    trail: list = []
    run = closure_runner(net, trail)
    closed = out.closed
    nodes = 1
    # one frame per open node: its trail mark, the cell being split and the
    # base relations of that cell not tried yet
    stack: list[list] = []
    while True:
        if closed:
            cell = choose(net, len(stack), trail)
            if cell is None:
                value = leaf(net)
                if value is not None:
                    return value, nodes
            else:
                i, j = cell
                stack.append([len(trail), i, j, cells[i * n + j]])
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return None, nodes
        frame = stack[-1]
        mark, i, j, untried = frame
        # back to the closed node, whose child differs in pair (i, j) alone
        undo(cells, trail, mark)
        bit = untried & -untried
        frame[3] = untried ^ bit
        ij = i * n + j
        ji = j * n + i
        trail += (ij, cells[ij], ji, cells[ji])
        cells[ij] = bit
        cells[ji] &= conv(bit)
        nodes += 1
        closed = run((i, j))[0] is None


def decide(net: ConstraintNetwork, acl_decides_atomic: Optional[bool] = None) -> Decision:
    """Depth-first refinement search over ``net``; the input is not modified.

    ``acl_decides_atomic`` says whether a closed atomic network is
    consistent; ``None`` takes the calculus's ``flags.acl_decides_atomic``.
    """
    if acl_decides_atomic is None:
        acl_decides_atomic = net.calculus.flags.acl_decides_atomic
    # the root closure makes the one copy that the search works on
    root = a_closure(net)
    smallest = _SmallestCell(root.network)
    closed, nodes = _search(root, smallest.choose, lambda closed: closed, smallest.undo)
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

    def brute_force(closed: ConstraintNetwork) -> Optional[ConstraintNetwork]:
        # every pair is split at a leaf, so C[i][j] holds its split.  Brute
        # force gets the atomic network itself: without R7 its closure can
        # be tighter, and the model need not make closure sound.  The
        # closure leaves the diagonal as built, so only C[j][i] is reset
        atomic = closed.copy()
        for i, j in pairs:
            atomic.cells[j * n_vars + i] = calculus.converse_mask(atomic.cells[i * n_vars + j])
        return atomic if brute_force_solve(atomic, model, budget=budget) is None else None

    steps = [*pairs, None]  # the pair split at each depth, then a leaf
    root = a_closure(ConstraintNetwork(calculus, names))
    counterexample, _ = _search(root, lambda closed, depth, trail: steps[depth], brute_force)
    if counterexample is None:
        return CompletenessResult("yes", total, None)
    # the leaves come in product order: count up to the counterexample's rank
    rank = 0
    for i, j in pairs:
        rank = rank * n_syms + counterexample.cells[i * n_vars + j].bit_length() - 1
    return CompletenessResult("no", rank + 1, counterexample)
