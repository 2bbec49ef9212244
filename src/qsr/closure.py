"""Algebraic closure of constraint networks, with revision geared to the
calculus's algebraic properties.

The engine first makes each seeded unordered pair strongly 2-consistent:
each of its two cells is intersected with the converse of the other until
neither tightens.  One routine (``settle``) does this, in the prologue
and after each revision of the safe branches below.  Then the engine
drives the triangle refinement

    C[i][j] <- C[i][j] & (C[i][k] . C[k][j])

to its greatest fixpoint with a PC-2 style worklist.  The network always
stores both directions of every pair; two properties derived from the
calculus's tables (``calc.flags``) steer how a revision fills them:

* The worklist holds unordered pairs on every calculus.  A pop of (i, j)
  revises, for each third variable k, C[i][k] by C[i][j].C[j][k], C[k][i]
  by C[k][j].C[j][i], C[k][j] by C[k][i].C[i][j] and C[j][k] by
  C[j][i].C[i][k]: every triangle with either cell of the pair as an
  operand, just as a pop of (j, i) would.  So an update to either cell
  queues the pair once, even where opposite cells carry independent
  information (the converse is not involutive, ``ra7_holds`` is false).
* Only if R7 and converse-composition distributivity R9 (``ra9_holds``)
  both hold is C[j][i] written as the converse of the revised C[i][j].  In
  every other case a revision refines C[j][i] independently and
  cross-tightens each direction with the converse of the other; optimized
  reasoners that skip this produce wrong closures on such calculi.

Under R7 and R9, up to 16 base relations, each popped pair (i, j) is
revised in one fused pass with no call per triangle.  C[i][j] and C[j][i]
do not change while their pair is revised, so their composition rows
(``CalculusSpec.compose_row``) are read once per pop, and for every third
variable k the pass does

    C[i][k] <- C[i][k] & row_ij[C[j][k]]
    C[j][k] <- C[j][k] & row_ji[C[i][k]]

The second line is the converse of C[k][j] <- C[k][j] & C[k][i].C[i][j]:
converse is a permutation, so it distributes over &, and R9 turns
conv(C[k][i].C[i][j]) into C[j][i].C[i][k], since every cell is the
converse of its mirror.  It tightens the same cells in the same order as
that revision, so revisions, queue pops and reported pairs are unchanged.
How a row is read depends only on the width, so it is fixed once per call
(``calc.chunked_rows``): up to 8 base relations a row is indexed by the
mask itself, row[c].  From 9 to 16 the pass fetches lo = row(a & 255) and
hi = row(a & ~255) for each fixed operand a, and reads a.c as
lo[b] | lo[h] | hi[b] | hi[h] with b = c & 255 and h = 256 + (c >> 8):
composition distributes over union in its left argument, and a mask with
one non-zero byte has a row of its own in two bounded tables, so no pop
builds a row, no read makes a call and nothing is memoised.

The other branches (no R7, R7 without R9, or more than 16 base relations),
the safe branches, check each triangle inline: for the pair (i, k) of a
popped (i, j) they compute r = C[i][k] & C[i][j].C[j][k] and rp = C[k][i]
& C[k][j].C[j][i], likewise for (k, j), and only if r or rp is tighter
than its cell does ``settle`` cross-tighten and write the pair.  This
passes over no revision: every pair is 2-consistent on entry (the prologue
makes the seeded pairs so; the rest are closed or U both ways), and each
settled pair is left 2-consistent, so the cross-tightening of two
unchanged cells, r & conv(rp) and rp & conv(r), changes neither.
The safe branches share one loop, and each of its four compositions is a
``compose_masks`` call.  Up to 8 base relations (``calc.dense_rows``) it
visits only the third variables that the filter below finds, so table
reads of its own would save few calls; above 8 it visits every k, where
lazily filled rows, four per pop, cost more than the calls they saved.

Above 16 base relations, with no rows, every calculus takes this loop.
Under R7 and R9 it does the fused pass's revisions in the same order, but
an inconsistent outcome names the mirror of the fused pass's pair:
``settle`` checks C[b][a] first, and under R7 both cells are empty.

The chunked fused pass and the safe loop up to 8 relations start each pop
with a filter that finds, for all third variables at once, the k whose
triangle can tighten a cell; only those k run the loop, in increasing
order.  The filter turns row i and row j of the network into bytes (the
safe loop also column i and column j) and computes each composition of the
pass over every k with ``bytes.translate``, through 256-byte tables of the
fixed operand (``CalculusSpec._byte_table``): the row of C[i][j] or
C[j][i], and in the safe loop their columns, x.C[i][j] and x.C[j][i].
From 9 to 16 relations a cell is two bytes, and each composition is the
union of the four translates by the low and the high byte of the fixed
operand and of the cell: 16 per pop.  Each composition is ANDed with its target cells
through ``int.from_bytes``, and byte k of the result is non-zero where the
target would tighten: C[i][k] and C[j][k] in the fused pass, and C[k][i]
and C[k][j] as well in the safe loop.  The filter is exact: within one pop
the triangle at k reads and writes only the pairs (i, k) and (k, j),
besides C[i][j] and C[j][i], which do not change.  So a k whose
compositions, taken from the cells at the start of the pop, tighten
nothing still finds those cells when the loop reaches it, and changes
nothing (its second half reads the cells its first half left alone).  The
other k make the same writes in the same order as a loop over range(n), so
revisions, queue pops, the trail, the queue order and the reported pair
are unchanged.  The dense fused pass keeps its per-k loop: its half is two
reads, and a filter in place of its support sets (below) measured a third
slower on sparse networks of 200 variables.

If the universal relation U is idempotent (``universal_idempotent``: U.U
== U) and is its own converse, a pair whose cells C[i][j] and C[j][i] are
both U is not seeded by a full run; it joins the worklist once a revision
tightens one of its cells.  This is exact by the invariant of the PC-2
worklist: a triangle C[i][k] <- C[i][k] & C[i][j].C[j][k] can tighten its
cell only while the pair (i, j) or (j, k) is queued.  A triangle whose two
operand pairs are U both ways bounds its cell by U.U == U, so it tightens
nothing; every other one has a seeded operand pair; and a pair that is U
both ways is 2-consistent, as conv(U) == U.  The fixpoint is unchanged, but
the queue order, hence the revisions and the pair an inconsistent outcome
reports, can differ from seeding every pair.  Where U.U != U this is
unsound: an all-universal network of three or more variables is then
inconsistent if U.U is empty, and otherwise closure tightens each of its
cells to a subset of U.U.

If U moreover absorbs composition (``universal_absorbs``: U.{s} == {s}.U
== U for every base relation s, so C.U == U.C == U for every non-empty C),
a full closure's dense fused pass keeps a support set per variable,
nbr[x]: each y with a cell other than U between x and y.
The seeds fill the sets and ``write`` adds each pair it queues, so a pop
of (i, j) visits only the k of sorted(nbr[i] | nbr[j]), in the order of
range(n).  Skipping the other k is exact, as C[i][k] == C[j][k] == U there
and C[i][j].U == C[j][i].U == U tightens neither: revisions, pops, the
reported pair and the trail are unchanged.  The sets are kept only where
the seeds average fewer than n / 8 neighbours; on denser or smaller
networks they cost more than they skip.  Incremental runs (their sets
would cost an O(n^2) scan) keep range(n); the chunked fused pass and the
safe loop up to 8 relations filter their third variables instead.

Every pass stores cells through one nested routine, ``write(a, b, r,
rp)``, which sets C[a][b] to r and C[b][a] to rp, each a subset of its
cell.  It checks C[b][a] first and returns the pair of a cell that
empties.  Otherwise it counts one revision per tightened pair under R7 and
one per tightened cell elsewhere, appends each changed cell's index and old
mask to the trail, and queues the pair.  The fused passes call
write(k, i, conv(r), r) for C[i][k] and write(j, k, r, conv(r)) for
C[j][k]; ``settle`` ends in a write.

Inconsistency (an empty cell) is an outcome, not an exception: the result
carries the offending pair.  In the prologue that is the first seeded pair
(i, j), i < j, in row order that is or becomes empty, named (j, i) only if
C[i][j] stays non-empty.

``closure_runner`` sets up a session on one working network: it reads the
flags and tables, binds ``write`` and ``settle`` once, and owns the trail.
A run is the prologue and the worklist, on the network in place;
``a_closure`` closes a copy of its input with one set-up and one full run.
``run(changed=(i, j))`` is the incremental run.  Its precondition: the
network is closed except in the cells (i, j) and (j, i), which were only
tightened since.  Only those two cells are then checked for emptiness and
made 2-consistent, and the worklist starts from that pair alone instead
of from all O(n^2) pairs.  This holds for every calculus: a triangle that
bounds a cell of the pair by two unchanged cells still holds after the
cell shrank, so only the triangles that compose with the pair can fail,
and popping it revises those.  The result equals the full closure: the
greatest fixpoint below a network is unique.  ``restrict(i, j, b)`` makes
the precondition true by construction: it sets the closed C[i][j] to a
base relation b of it, cuts C[j][i] by conv(b) (the prologue would make
the same cut, and count it), and runs from (i, j).  If C[i][j] already
is b, it returns at once with no revision and no pop, and trails and
writes nothing: every pair of the closed network is 2-consistent, so
C[j][i] is within conv(b) already, and a run from an unchanged closed
network revises nothing.  Refinement search
sets up once per walk, closes each child with one ``restrict`` and
backtracks with ``undo(mark)``, so a node pays for what its split
propagates, not a set-up (as in GQR).

``naive_closure`` is an independent reference: it iterates the refinement
rule over all ordered triples and both cell directions, together with the
2-consistency rule, until nothing changes.  Both algorithms compute the same
greatest fixpoint regardless of worklist discipline.
"""

from __future__ import annotations

import random
from collections import deque, namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from struct import Struct
from typing import Optional

from .network import ConstraintNetwork

FIFO = "fifo"
LIFO = "lifo"
SHUFFLED = "shuffled"


class ClosureStatus(Enum):
    CLOSED = "closed"
    INCONSISTENT = "inconsistent"


@dataclass
class ClosureOutcome:
    status: ClosureStatus
    network: ConstraintNetwork
    # one per tightened unordered pair under R7 (the mirror cell is the
    # converse) and one per tightened cell otherwise; on an inconsistent
    # outcome it counts only the work done before the empty cell was met
    revisions: int
    # pairs taken from the worklist; where U.U == U and U is its own
    # converse, no pair that is U both ways is queued until a write tightens it
    queue_pops: int
    empty_pair: Optional[tuple[str, str]] = None

    @property
    def closed(self) -> bool:
        return self.status is ClosureStatus.CLOSED


def a_closure(net: ConstraintNetwork, queue_order: str = FIFO,
              seed: Optional[int] = None) -> ClosureOutcome:
    """Close a copy of ``net`` under the triangle refinement rule; ``net``
    is untouched.

    ``queue_order`` selects the worklist discipline (``fifo``, ``lifo`` or
    ``shuffled``, drawn from ``random.Random(seed)``); the fixpoint is the
    same for all of them.  Each pair it starts from (the module docstring
    says which) is first made strongly 2-consistent.
    """
    work = net.copy()
    empty, revisions, pops = closure_runner(work, queue_order, seed).run()
    if empty is None:
        return ClosureOutcome(ClosureStatus.CLOSED, work, revisions, pops)
    names = (work.var_names[empty[0]], work.var_names[empty[1]])
    return ClosureOutcome(ClosureStatus.INCONSISTENT, work, revisions, pops, names)


# the operations of closure_runner's session, bound once per set-up
_Session = namedtuple("_Session", "run restrict mark undo written")


def closure_runner(work: ConstraintNetwork, queue_order: str = FIFO,
                   seed: Optional[int] = None) -> _Session:
    """Set up closing ``work`` in place, and return the session's five
    operations (``_Session``).  ``run(changed=None)`` closes ``work`` as it
    stands: in full, or from the pair ``changed`` (indices, unchecked) under
    the precondition of the module docstring.  It returns the emptied
    cell's pair (indices) or None, its revisions and queue pops, and starts
    from a worklist of its own.  ``restrict(i, j, bit)`` splits a closed
    pair and runs from it, with run's result (module docstring); a split to
    the cell's own relation runs nothing and returns (None, 0, 0).  Each cell
    write is trailed with the cell's old mask, so ``undo(mark)`` gives back
    the cells as they were at ``mark()``, after a closed and an
    inconsistent outcome alike; ``written(mark)`` names the cells written
    since."""
    if queue_order not in (FIFO, LIFO, SHUFFLED):
        raise ValueError(f"unknown queue order {queue_order!r}")
    n = len(work.var_names)
    calc = work.calculus
    cells = work.cells
    conv = calc.converse_mask
    comp = calc.compose_masks
    comp_row = calc.compose_row
    flags = calc.flags
    ra7 = flags.ra7_holds
    dense = calc.dense_rows
    chunked = calc.chunked_rows
    # the fused pass reads rows, which exist up to 16 relations
    derive = ra7 and flags.ra9_holds and (dense or chunked)
    # a cell equal to ``waiting`` is U, U.U == U and U is its own converse;
    # no cell equals -1.  A pair that is U both ways is then 2-consistent
    # and waits for a write to queue it: it is not seeded.  The support sets
    # of the dense fused pass also need such a U to absorb composition, C.U
    # == U for every non-empty C
    universal = calc.universal
    waiting = universal if flags.universal_idempotent and conv(universal) == universal else -1
    supported = dense and derive and waiting != -1 and flags.universal_absorbs
    if (dense and not derive) or (chunked and derive):
        # the filter's byte tables (CalculusSpec._byte_table); a table not
        # built yet is None
        tables = calc._comp_bytes
        table = calc._byte_table
        from_bytes = int.from_bytes
        if dense:
            def tightening(i: int, j: int, c_ij: int, c_ji: int) -> bytes:
                # byte k is non-zero if C[i][j].C[j][k], C[j][i].C[i][k],
                # C[k][j].C[j][i] or C[k][i].C[i][j], read from the cells at
                # the start of the pop, tightens C[i][k], C[j][k], C[k][i]
                # or C[k][j]: four segments of n bytes, folded into one
                row_i = bytes(cells[i * n:i * n + n])
                row_j = bytes(cells[j * n:j * n + n])
                col_i = bytes(cells[i::n])
                col_j = bytes(cells[j::n])
                new = b"".join((row_j.translate(tables[c_ij] or table(c_ij)),
                                row_i.translate(tables[c_ji] or table(c_ji)),
                                col_j.translate(tables[256 + c_ji] or table(256 + c_ji)),
                                col_i.translate(tables[256 + c_ij] or table(256 + c_ij))))
                diff = from_bytes(row_i + row_j + col_i + col_j, "little") & ~from_bytes(new, "little")
                if not diff:
                    return b""
                diff |= diff >> 16 * n
                return (diff | diff >> 8 * n).to_bytes(4 * n, "little")[:n]
        else:
            # a row of n cells as 2n bytes, low byte first
            pack = Struct(f"<{n}H").pack
            block = 32 * n  # bits in four segments

            def tightening(i: int, j: int, c_ij: int, c_ji: int) -> bytes:
                # byte k is non-zero if C[i][j].C[j][k] or C[j][i].C[i][k],
                # read from the cells at the start of the pop, tightens
                # C[i][k] or C[j][k].  Cells and compositions are split
                # into their low and high bytes, four segments of n bytes:
                # lo_i, hi_i, lo_j, hi_j.  ``new`` holds four blocks of
                # such segments, one for each byte of the fixed operand
                # and of the varying cell; their union is the compositions
                row_i = pack(*cells[i * n:i * n + n])
                row_j = pack(*cells[j * n:j * n + n])
                lo_i, hi_i, lo_j, hi_j = row_i[::2], row_i[1::2], row_j[::2], row_j[1::2]
                a = c_ij & 255
                lo_ij = tables[a] or table(a)
                a = 256 + (c_ij >> 8)
                hi_ij = tables[a] or table(a)
                a = c_ji & 255
                lo_ji = tables[a] or table(a)
                a = 256 + (c_ji >> 8)
                hi_ji = tables[a] or table(a)
                new = from_bytes(b"".join((
                    lo_j.translate(lo_ij[0]), lo_j.translate(lo_ij[1]),
                    lo_i.translate(lo_ji[0]), lo_i.translate(lo_ji[1]),
                    hi_j.translate(lo_ij[2]), hi_j.translate(lo_ij[3]),
                    hi_i.translate(lo_ji[2]), hi_i.translate(lo_ji[3]),
                    lo_j.translate(hi_ij[0]), lo_j.translate(hi_ij[1]),
                    lo_i.translate(hi_ji[0]), lo_i.translate(hi_ji[1]),
                    hi_j.translate(hi_ij[2]), hi_j.translate(hi_ij[3]),
                    hi_i.translate(hi_ji[2]), hi_i.translate(hi_ji[3]))), "little")
                # the blocks shifted onto the first; the bits they leave
                # above it meet no bit of the cells
                new |= new >> block | new >> 2 * block | new >> 3 * block
                diff = from_bytes(lo_i + hi_i + lo_j + hi_j, "little") & ~new
                if not diff:
                    return b""
                diff |= diff >> 16 * n
                return (diff | diff >> 8 * n).to_bytes(4 * n, "little")[:n]
    # each write appends the cell's index and then its old mask
    trail: list = []
    # bound afresh by each run: its revisions, worklist, queued pairs and support sets
    revisions = queue = in_queue = nbr = None
    if queue_order == SHUFFLED:
        rng = random.Random(seed)

        def take_random() -> tuple[int, int]:
            # O(1): swap a random entry to the end and pop it
            idx = rng.randrange(len(queue))
            queue[idx], queue[-1] = queue[-1], queue[idx]
            return queue.pop()

    def write(a: int, b: int, r: int, rp: int) -> Optional[tuple[int, int]]:
        # C[a][b] <- r and C[b][a] <- rp; returns the pair that empties, if one does
        nonlocal revisions, trail
        ab = a * n + b
        ba = b * n + a
        old_ab = cells[ab]
        old_ba = cells[ba]
        if rp != old_ba:
            if rp == 0:
                return b, a
            # rp != 0 leaves r != 0: r is conv(rp), or settle cut it by conv(rp)
            if r != old_ab:
                # under R7, r = conv(rp): both cells revise one unordered pair
                revisions += 1 if ra7 else 2
                trail += (ba, old_ba, ab, old_ab)
                cells[ab] = r
            else:
                revisions += 1
                trail += (ba, old_ba)
            cells[ba] = rp
        elif r != old_ab:
            if r == 0:
                # r == 0 empties rp too, so C[b][a] was empty already: a
                # run(changed) precondition that does not hold.  Written
                # empty, the pair could let the closure end "closed"
                return a, b
            revisions += 1
            trail += (ab, old_ab)
            cells[ab] = r
        # one pop of the unordered pair revises the triangles of both cells;
        # a queued pair is already in the support sets
        p = (a, b) if a < b else (b, a)
        if p not in in_queue:
            in_queue.add(p)
            queue.append(p)
            if nbr is not None:
                nbr[a].add(b)
                nbr[b].add(a)
        return None

    def settle(a: int, b: int, r: int, rp: int) -> Optional[tuple[int, int]]:
        # C[a][b] and C[b][a] were refined on their own to r and rp (or are
        # a seeded pair that one exchange of converses would tighten): make
        # the pair 2-consistent by cross-tightening, then write it
        r &= conv(rp)
        tight = rp & conv(r)
        # without R7 one exchange need not leave the pair 2-consistent:
        # repeat while it still tightens C[b][a]
        while not ra7 and tight != rp:
            rp = tight
            r &= conv(rp)
            tight = rp & conv(r)
        return write(a, b, r, tight)

    def run(changed: Optional[tuple[int, int]] = None) -> tuple[Optional[tuple[int, int]], int, int]:
        nonlocal revisions, queue, in_queue, nbr
        nbr = None
        if changed is None:
            # the pairs with a cell other than U, row by row
            seeds = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if cells[i * n + j] != waiting or cells[j * n + i] != waiting]
            # the seeds average fewer than n / 8 neighbours
            if supported and 16 * len(seeds) < n * n:
                nbr = [set() for _ in range(n)]
                for i, j in seeds:
                    nbr[i].add(j)
                    nbr[j].add(i)
        else:
            # every other pair is still closed: check and settle this one only
            ci, cj = changed
            seeds = [(ci, cj) if ci < cj else (cj, ci)]
        revisions = pops = 0
        in_queue = set(seeds)
        if queue_order == FIFO:
            queue = deque(seeds)
            take = queue.popleft
        else:
            queue = seeds
            take = queue.pop if queue_order == LIFO else take_random

        # Strong 2-consistency of the seeded pairs, all queued already, so
        # write queues nothing here.  It checks C[b][a] first, so under R7,
        # where both cells empty together, settle(j, i) reports (i, j): the
        # cell that a row-order sweep over the ordered pairs meets first.
        for i, j in seeds:
            c_ij = cells[i * n + j]
            c_ji = cells[j * n + i]
            if c_ij == 0 or c_ji == 0:
                return (i, j) if c_ij == 0 else (j, i), revisions, pops
            if (c_ij & conv(c_ji)) != c_ij or (c_ji & conv(c_ij)) != c_ji:
                empty = settle(j, i, c_ji, c_ij)
                if empty is not None:
                    return empty, revisions, pops
        # Every pair is now 2-consistent.  Under R7 that makes each cell the
        # converse of its mirror, and each revision below keeps it so.

        while queue:
            p = take()
            in_queue.discard(p)
            i, j = p
            pops += 1
            bi = i * n
            bj = j * n
            # C[i][j] and C[j][i] do not change while their pair is revised
            c_ij = cells[bi + j]
            c_ji = cells[bj + i]
            if derive:
                # the fused pass: the rows of C[i][j] and C[j][i] are fetched
                # once per pop
                if chunked:
                    # the loop below with each read split into two byte chunks,
                    # the rows of the low and of the high byte of each fixed
                    # operand, over the k that the filter finds
                    keys = tightening(i, j, c_ij, c_ji)
                    if not keys:
                        continue
                    lo_ij = comp_row(c_ij & 255)
                    hi_ij = comp_row(c_ij & ~255)
                    lo_ji = comp_row(c_ji & 255)
                    hi_ji = comp_row(c_ji & ~255)
                    for k in compress(range(n), keys):
                        if k == i or k == j:
                            continue
                        c_ik = cells[bi + k]
                        c_jk = cells[bj + k]
                        b = c_jk & 255
                        h = 256 + (c_jk >> 8)
                        r = c_ik & (lo_ij[b] | lo_ij[h] | hi_ij[b] | hi_ij[h])
                        if r != c_ik:
                            empty = write(k, i, conv(r), r)
                            if empty is not None:
                                return empty, revisions, pops
                            c_ik = r
                        b = c_ik & 255
                        h = 256 + (c_ik >> 8)
                        r = c_jk & (lo_ji[b] | lo_ji[h] | hi_ji[b] | hi_ji[h])
                        if r != c_jk:
                            empty = write(j, k, r, conv(r))
                            if empty is not None:
                                return empty, revisions, pops
                    continue
                row_ij = comp_row(c_ij)
                row_ji = comp_row(c_ji)
                # a k outside the support has C[i][k] == C[j][k] == U
                for k in range(n) if nbr is None else sorted(nbr[i] | nbr[j]):
                    if k == i or k == j:
                        continue
                    c_ik = cells[bi + k]
                    c_jk = cells[bj + k]
                    # C[i][k] <- C[i][k] & C[i][j].C[j][k]
                    r = c_ik & row_ij[c_jk]
                    if r != c_ik:
                        empty = write(k, i, conv(r), r)
                        if empty is not None:
                            return empty, revisions, pops
                        c_ik = r
                    # C[j][k] <- C[j][k] & C[j][i].C[i][k], the converse of
                    # C[k][j] <- C[k][j] & C[k][i].C[i][j]
                    r = c_jk & row_ji[c_ik]
                    if r != c_jk:
                        empty = write(j, k, r, conv(r))
                        if empty is not None:
                            return empty, revisions, pops
                continue
            # the safe branches: every pair is 2-consistent here, so a triangle
            # whose compositions tighten neither cell of its pair revises
            # nothing; it takes no converse and does not call settle
            if dense:
                # only the k that the filter finds
                keys = tightening(i, j, c_ij, c_ji)
                if not keys:
                    continue
                ks = compress(range(n), keys)
            else:
                ks = range(n)
            for k in ks:
                if k == i or k == j:
                    continue
                bk = k * n
                c_ik = cells[bi + k]
                c_ki = cells[bk + i]
                c_jk = cells[bj + k]
                c_kj = cells[bk + j]
                # the pair (i, k) by C[i][j].C[j][k] and C[k][j].C[j][i]
                r = c_ik & comp(c_ij, c_jk)
                rp = c_ki & comp(c_kj, c_ji)
                if r != c_ik or rp != c_ki:
                    empty = settle(i, k, r, rp)
                    if empty is not None:
                        return empty, revisions, pops
                    c_ik = cells[bi + k]
                    c_ki = cells[bk + i]
                # the pair (k, j) by C[k][i].C[i][j] and C[j][i].C[i][k]
                r = c_kj & comp(c_ki, c_ij)
                rp = c_jk & comp(c_ji, c_ik)
                if r != c_kj or rp != c_jk:
                    empty = settle(k, j, r, rp)
                    if empty is not None:
                        return empty, revisions, pops

        return None, revisions, pops

    def restrict(i: int, j: int, bit: int) -> tuple[Optional[tuple[int, int]], int, int]:
        nonlocal trail
        ij = i * n + j
        if cells[ij] == bit:
            # the child is the closed parent: C[j][i] is within conv(bit)
            return None, 0, 0
        ji = j * n + i
        trail += (ij, cells[ij], ji, cells[ji])
        cells[ij] = bit
        cells[ji] &= conv(bit)
        return run((i, j))

    def undo(mark: int) -> None:
        pop = trail.pop
        while len(trail) > mark:
            old = pop()
            cells[pop()] = old

    return _Session(run, restrict, trail.__len__, undo, lambda mark: trail[mark::2])


def naive_closure(net: ConstraintNetwork) -> ClosureOutcome:
    """Reference closure: sweep all rules over the full matrix until stable.

    Kept deliberately free of worklists and of the converse-derivation
    shortcut so it can serve as an independent check of :func:`a_closure`.
    """
    calc = net.calculus
    work = net.copy()
    n = len(work.var_names)
    cells = work.cells
    conv = calc.converse_mask
    comp = calc.compose_masks
    revisions = 0

    def fail(i: int, j: int) -> ClosureOutcome:
        return ClosureOutcome(
            ClosureStatus.INCONSISTENT,
            work,
            revisions,
            0,
            (work.var_names[i], work.var_names[j]),
        )

    for i in range(n):
        for j in range(n):
            if i != j and cells[i * n + j] == 0:
                return fail(i, j)

    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                tight = cells[i * n + j] & conv(cells[j * n + i])
                if tight != cells[i * n + j]:
                    if tight == 0:
                        return fail(i, j)
                    cells[i * n + j] = tight
                    revisions += 1
                    changed = True
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                ij = i * n + j
                for k in range(n):
                    if k == i or k == j:
                        continue
                    tight = cells[ij] & comp(cells[i * n + k], cells[k * n + j])
                    if tight != cells[ij]:
                        if tight == 0:
                            return fail(i, j)
                        cells[ij] = tight
                        revisions += 1
                        changed = True

    return ClosureOutcome(ClosureStatus.CLOSED, work, revisions, 0)
