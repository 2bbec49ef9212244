"""Shared test helpers."""

import signal

import pytest

from qsr.core import CalculusSpec

# the slowest test takes about a second; one that runs this long hangs
TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past ``TIME_LIMIT_S`` seconds, on platforms with
    ``SIGALRM``, instead of letting it hold the whole run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"the test ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def _cyclic_group(n):
    # Z_n as a calculus: i.j = i + j, conv(i) = -i; an RA, so R7 and R9 hold
    syms = [f"z{i}" for i in range(n)]
    conv = {syms[i]: [syms[-i % n]] for i in range(n)}
    comp = {(syms[i], syms[j]): [syms[(i + j) % n]] for i in range(n) for j in range(n)}
    return CalculusSpec(f"Z{n}", syms, [syms[0]], conv, comp)


def _dihedral_group(m):
    # D_m, the 2m symmetries of a regular m-gon, as a calculus: a group
    # relation algebra like Z_n, but not commutative
    elems = [(k, f) for f in (0, 1) for k in range(m)]
    syms = [f"{'s' if f else 'r'}{k}" for k, f in elems]
    name = dict(zip(elems, syms))

    def mul(x, y):
        return ((x[0] + (-y[0] if x[1] else y[0])) % m, x[1] ^ y[1])

    conv = {name[x]: [name[(-x[0] % m, 0) if not x[1] else x]] for x in elems}
    comp = {(name[x], name[y]): [name[mul(x, y)]] for x in elems for y in elems}
    return CalculusSpec(f"D{m}", syms, [name[(0, 0)]], conv, comp)


@pytest.fixture
def cyclic_group():
    """``cyclic_group(n)`` builds Z_n, a relation algebra with n base relations."""
    return _cyclic_group


@pytest.fixture
def dihedral_group():
    """``dihedral_group(m)`` builds D_m, a non-commutative relation algebra with 2m base relations."""
    return _dihedral_group


@pytest.fixture
def random_calculus():
    """``random_calculus(rng, n_syms, name)`` draws a calculus with random tables."""
    return _draw_calculus
