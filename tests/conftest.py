"""Shared test helpers."""

import pytest

from qsr.core import CalculusSpec


def _draw_calculus(rng, n_syms, name):
    # arbitrary total tables, drawn as in
    # test_closure_matches_reference_on_random_calculi: mostly violating
    # converse involution and distributivity
    syms = [f"s{i}" for i in range(n_syms)]
    u = (1 << n_syms) - 1
    conv = {
        s: [syms[b] for b in range(n_syms) if rng.randrange(1, u + 1) >> b & 1] or [rng.choice(syms)]
        for s in syms
    }
    comp = {}
    for a in syms:
        for b in syms:
            mask = rng.randrange(0, u + 1)
            comp[(a, b)] = [syms[k] for k in range(n_syms) if mask >> k & 1]
    ident = [rng.choice(syms)] if rng.random() < 0.7 else None
    return CalculusSpec(name, syms, ident, conv, comp)


@pytest.fixture
def random_calculus():
    """``random_calculus(rng, n_syms, name)`` draws a calculus with random tables."""
    return _draw_calculus
