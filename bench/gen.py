"""Random constraint networks in Renz & Nebel's A(n, d, l) model.

A(n, d, l) has ``n`` variables.  Each of the n(n-1)/2 pairs is constrained with
probability d / (n - 1), so the average degree is ``d``.  A constrained pair
gets a label that holds each base relation with probability l / |Rel|, so the
average label size is about ``l``.  Labels that come out empty or universal
are drawn again (Renz & Nebel, "Efficient methods for qualitative spatial
reasoning", JAIR 15, 2001).

A network is a list of edges ``(i, j, mask)`` with i < j over variables
``x0 .. x{n-1}``; bit k of a mask is the k-th base relation in declaration
order.  The generator needs only the number of base relations, never the
calculus tables, so the inputs do not depend on the code under test.  The
caller seeds the ``random.Random`` it passes in.
"""

from __future__ import annotations

import random

Edge = tuple[int, int, int]


def a_network(rng: random.Random, n_rel: int, n: int, degree: float, label_size: float) -> list[Edge]:
    p_edge = degree / (n - 1)
    p_rel = label_size / n_rel
    universal = (1 << n_rel) - 1
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= p_edge:
                continue
            mask = 0
            while mask in (0, universal):
                mask = sum(1 << k for k in range(n_rel) if rng.random() < p_rel)
            edges.append((i, j, mask))
    return edges


def singleton_network(rng: random.Random, n_rel: int, n: int) -> list[Edge]:
    """A complete network whose every i < j label is one base relation."""
    return [(i, j, 1 << rng.randrange(n_rel)) for i in range(n) for j in range(i + 1, n)]


def network_text(name: str, calculus: str, symbols: tuple[str, ...], n: int, edges: list[Edge]) -> str:
    """The network in the ``qsr`` network-file format."""
    lines = [f'network "{name}"', f"calculus {calculus}",
             "vars " + " ".join(f"x{k}" for k in range(n))]
    for i, j, mask in edges:
        label = " ".join(s for k, s in enumerate(symbols) if mask >> k & 1)
        lines.append(f"x{i} ({label}) x{j}")
    return "\n".join(lines) + "\n"

