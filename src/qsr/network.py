"""Qualitative constraint networks: construction, normalization, file I/O, random generation.

A network holds exactly one composite relation per ordered pair of variables;
"unconstrained" is the universal relation, never a missing cell.  Diagonal
cells are fixed to the calculus's identity relation when one is designated,
else to the universal relation, and are never revised (networks are treated
as 1-consistent).

Cells live in one row-major n x n list, ``cells[i * n + j]`` for the
ordered pair (i, j).  Both directions of every pair are stored; no cell is
derived from its mirror on access, because that is lossless only for
calculi whose converse is an involutive permutation.

Network, model and spec files share one set of file rules, implemented here
once: :func:`read_clauses` reads every file, header clauses first, and
:func:`quoted_name`, :func:`name_line` and :func:`symbol_group` read and
write its names and ``( sym ... )`` groups.

    network "chain"
    calculus pc1
    vars x0 x1 x2
    x0 (<) x1
    x1 (< =) x2

A reader is given the calculus it reads into; the file's ``calculus``
line only names it, and a line naming another calculus is an error at that
line.  Duplicate pair lines are intersected, and a line for (y, x)
constrains (x, y) through its converse, exactly like :func:`normalize`.

This module imports nothing from the package but :mod:`qsr.core`.
"""

from __future__ import annotations

import random
import shlex
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import CalculusError, CalculusMismatchError, CalculusSpec, RelationSet


class NetworkError(Exception):
    """Malformed network data or misuse of network operations; ``line`` names a file line."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")


class ConstraintNetwork:
    """A qualitative CSP instance over one calculus."""

    __slots__ = ("calculus", "var_names", "cells", "name", "_index")

    def __init__(self, calculus: CalculusSpec, var_names: Sequence[str], name: str = "") -> None:
        if len(set(var_names)) != len(var_names):
            raise NetworkError("variable names must be distinct")
        if len(var_names) < 1:
            raise NetworkError("a network needs at least one variable")
        for v in var_names:
            if v in ("network", "calculus", "vars"):  # its lines would read as header clauses
                raise NetworkError(f"variable name {v!r} does not fit the file formats: it is a keyword")
            check_token("variable name", v)
        self.calculus = calculus
        self.var_names = tuple(var_names)
        self.name = name
        self._index = {v: i for i, v in enumerate(self.var_names)}
        n = len(self.var_names)
        diag = calculus.identity_mask if calculus.identity_mask is not None else calculus.universal
        cells = [calculus.universal] * (n * n)
        for i in range(n):
            cells[i * n + i] = diag
        self.cells = cells

    # -- indexing ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.var_names)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise NetworkError(f"unknown variable {name!r}") from None

    def _cell(self, i: int, j: int) -> int:
        """The position of cell (i, j) in ``cells``; an index outside 0..n-1 raises."""
        n = len(self.var_names)
        if not (0 <= i < n and 0 <= j < n):
            raise NetworkError(f"cell ({i}, {j}) is outside a network of {n} variables")
        return i * n + j

    def get_mask(self, i: int, j: int) -> int:
        return self.cells[self._cell(i, j)]

    def set_mask(self, i: int, j: int, mask: int) -> None:
        """Assign the (i, j) cell only; the (j, i) cell is left as it is."""
        cell = self._cell(i, j)
        if i == j:
            raise NetworkError("diagonal cells are fixed and cannot be assigned")
        if mask & ~self.calculus.universal:
            # a negative mask would read as a label through negative indexing
            raise NetworkError(f"mask {mask} has bits outside the calculus width")
        self.cells[cell] = mask

    def __getitem__(self, pair: tuple[str, str]) -> RelationSet:
        x, y = pair
        return self.calculus.from_mask(self.get_mask(self.var_index(x), self.var_index(y)))

    def __setitem__(self, pair: tuple[str, str], rel: RelationSet) -> None:
        if rel.calculus is not self.calculus:
            raise CalculusMismatchError("relation set belongs to a different calculus")
        x, y = pair
        self.set_mask(self.var_index(x), self.var_index(y), rel.bits)

    # -- structure ---------------------------------------------------------

    def copy(self) -> "ConstraintNetwork":
        dup = ConstraintNetwork.__new__(ConstraintNetwork)
        dup.calculus = self.calculus
        dup.var_names = self.var_names
        dup.cells = list(self.cells)
        dup.name = self.name
        dup._index = self._index
        return dup

    def to_full(self) -> "ConstraintNetwork":
        """Alias of :meth:`copy`: every network already stores both directions."""
        return self.copy()

    def has_empty_cell(self) -> bool:
        n = len(self.var_names)
        return any(
            self.cells[i * n + j] == 0 for i in range(n) for j in range(n) if i != j
        )

    def is_atomic(self) -> bool:
        """Every off-diagonal cell is a single base relation."""
        n = len(self.var_names)
        return all(
            self.cells[i * n + j].bit_count() == 1 for i in range(n) for j in range(n) if i != j
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintNetwork):
            return NotImplemented
        return (
            self.calculus is other.calculus
            and self.var_names == other.var_names
            and self.cells == other.cells
        )

    def __repr__(self) -> str:
        return (
            f"ConstraintNetwork({self.name or '<anon>'}, {self.calculus.name}, "
            f"{len(self.var_names)} vars)"
        )

    # -- export -------------------------------------------------------------

    def to_text(self) -> str:
        """Network-file text that parses back to this network if it is 2-consistent;
        a relation symbol that files cannot carry raises ``NetworkError``."""
        for s in self.calculus.symbols:
            check_token("relation symbol", s)
        lines = [name_line("network", self.name or "net"),
                 f"calculus {check_token('calculus name', self.calculus.name)}",
                 "vars " + " ".join(self.var_names)]
        n = len(self.var_names)
        fm = self.calculus.format_mask
        for i in range(n):
            for j in range(i + 1, n):
                mask = self.get_mask(i, j)
                if mask != self.calculus.universal:
                    lines.append(f"{self.var_names[i]} {fm(mask)} {self.var_names[j]}")
                # without R7 the mirror cell need not be the converse: write
                # it too, and parsing intersects the two lines
                back = self.get_mask(j, i)
                if back != self.calculus.converse_mask(mask):
                    lines.append(f"{self.var_names[j]} {fm(back)} {self.var_names[i]}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        n = len(self.var_names)
        cells = self.cells
        # the symbols of each distinct mask, read once
        symbols = {mask: self.calculus.symbols_of(mask) for mask in set(cells)}
        return {
            "name": self.name,
            "calculus": self.calculus.name,
            "vars": list(self.var_names),
            "matrix": [[list(symbols[mask]) for mask in cells[i * n:(i + 1) * n]] for i in range(n)],
        }


def normalize(
    calculus: CalculusSpec,
    edges: Iterable[tuple[str, RelationSet, str]],
    var_names: Optional[Sequence[str]] = None,
    name: str = "",
) -> ConstraintNetwork:
    """Integrate a list of directed constraint edges into the unique normalized network.

    For every ordered pair the result is the intersection of all constraints
    given for that pair and the converses of all constraints given for the
    opposite direction; pairs without edges are universal.  When
    ``var_names`` is supplied, edges over undeclared variables are an error;
    otherwise variables are collected in order of first appearance.

    The result may contain empty cells (a trivially inconsistent network);
    normalization reports, it does not reject.
    """
    edges = list(edges)
    for x, rel, y in edges:
        if rel.calculus is not calculus:
            raise CalculusMismatchError(
                f"edge {x!r}-{y!r} uses a relation set of calculus {rel.calculus.name!r}"
            )
    if var_names is None:
        var_names = list(dict.fromkeys(v for x, _, y in edges for v in (x, y)))
    net = ConstraintNetwork(calculus, var_names, name=name)
    n = len(net.var_names)
    for x, rel, y in edges:
        i, j = net.var_index(x), net.var_index(y)
        if i == j:
            raise NetworkError(f"self-loop constraint on variable {x!r}")
        net.cells[i * n + j] &= rel.bits
        net.cells[j * n + i] &= calculus.converse_mask(rel.bits)
    return net


def read_lines(text: str) -> Iterator[tuple[int, str]]:
    """The non-blank lines of ``text`` with their numbers, each cut at its first ``#``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        pos = raw.find("#")
        line = (raw if pos < 0 else raw[:pos]).strip()
        if line:
            yield lineno, line


def quoted_name(line: str, lineno: int, error: type[Exception] = NetworkError) -> str:
    """The name of a ``<keyword> "<name>"`` line as ``shlex`` unquotes it; a
    malformed line raises ``error(message, lineno)``."""
    try:
        parts = shlex.split(line)
    except ValueError as exc:
        raise error(str(exc), lineno) from None
    if len(parts) != 2:
        raise error(f'expected: {parts[0]} "<name>"', lineno)
    return parts[1]


def name_line(keyword: str, name: str, error: type[Exception] = NetworkError) -> str:
    """``<keyword> "<name>"`` with ``\\`` and ``"`` escaped, as :func:`quoted_name` reads
    it back; a name with ``#`` or a line break cannot be read back and raises ``error``."""
    if "#" in name or len((name + ".").splitlines()) != 1:
        raise error(f"{keyword} name {name!r} cannot be written: it holds '#' or a line break")
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'{keyword} "{escaped}"'


def check_token(kind: str, token: str, error: type[Exception] = NetworkError,
                forbidden: str = "#") -> str:
    """``token`` if files read it back as one token free of ``forbidden``; else raise ``error``."""
    if not isinstance(token, str):
        raise error(f"{kind} {token!r} is not a string")
    if token.split() != [token] or any(c in token for c in forbidden):
        shown = ", ".join(map(repr, forbidden))
        raise error(f"{kind} {token!r} does not fit the file formats: "
                    f"it is empty or holds whitespace or {shown}")
    return token


def symbol_group(tokens: list[str], lineno: int, error: type[Exception],
                 empty_ok: bool = True) -> list[str]:
    """The symbols of the ``( sym ... )`` group that ``tokens`` spell, its parentheses
    possibly glued to the first and last symbol; a malformed group raises ``error``."""
    text = " ".join(tokens)
    if not text.startswith("("):
        raise error("expected a '(' symbol group", lineno)
    if not text.endswith(")"):
        raise error("unterminated symbol group, expected ')'", lineno)
    inner = text[1:-1].split()
    if not (inner or empty_ok):
        raise error("symbol group may not be empty here", lineno)
    return inner


Handler = Callable[[int, str, list[str]], None]


def read_clauses(text: str, clauses: dict[str, Handler], required: Sequence[str],
                 body: Handler, error: type[Exception]) -> int:
    """Read a network, model or spec file in line order.  A line whose first token
    is a keyword of ``clauses`` is a header clause and goes to its handler; every
    other line goes to ``body``; both are called as ``(lineno, line, tokens)``.
    Each header clause may appear at most once and only before the first body line,
    which the ``required`` clauses must precede.  A broken rule, like a
    ``CalculusError`` from a handler, raises ``error(message, lineno)``.  Returns
    the file's last line, the line of errors about the whole file."""
    seen: set[str] = set()
    body_line = 0  # the first body line, once met

    def require(lineno: int) -> None:
        for keyword in required:
            if keyword not in seen:
                raise error(f"missing {keyword} clause", lineno)

    for lineno, line in read_lines(text):
        tokens = line.split()
        head = tokens[0]
        handler = clauses.get(head)
        if handler is None:
            if not body_line:
                require(lineno)
                body_line = lineno
            handler = body
        elif head in seen:
            raise error(f"duplicate {head} clause", lineno)
        elif body_line:
            raise error(f"{head} clause must come before the body, which starts at line {body_line}",
                        lineno)
        else:
            seen.add(head)
        try:
            handler(lineno, line, tokens)
        except CalculusError as exc:
            raise error(str(exc), lineno) from None
    end = max(1, len(text.splitlines()))
    if not body_line:
        require(end)
    return end


def calculus_clause(keyword: str, calculus: CalculusSpec) -> Handler:
    """The handler of the ``calculus <name>`` clause of a network or model file
    (``keyword``) read into ``calculus``: the name must be ``calculus``'s."""
    def clause(lineno: int, line: str, tokens: list[str]) -> None:
        if len(tokens) != 2:
            raise NetworkError("expected: calculus <name>", lineno)
        if tokens[1] != calculus.name:
            raise NetworkError(f"{keyword} declares calculus {tokens[1]!r} "
                               f"but {calculus.name!r} was supplied", lineno)
    return clause


def parse_network(text: str, calculus: CalculusSpec) -> ConstraintNetwork:
    """Parse network-file text over ``calculus``, whose name the file's ``calculus``
    line must give; symbols are read in ``calculus``, and each constraint is
    intersected into the network at its line."""
    name = ""
    net: ConstraintNetwork

    def network(lineno: int, line: str, tokens: list[str]) -> None:
        nonlocal name
        name = quoted_name(line, lineno)

    def variables(lineno: int, line: str, tokens: list[str]) -> None:
        nonlocal net
        if len(tokens) < 2:
            raise NetworkError("vars clause needs at least one name", lineno)
        try:
            net = ConstraintNetwork(calculus, tokens[1:])
        except NetworkError as exc:
            raise NetworkError(str(exc), lineno) from None

    def edge(lineno: int, line: str, tokens: list[str]) -> None:
        if len(tokens) < 3:
            raise NetworkError("expected: <var> (<sym>+) <var>", lineno)
        mask = calculus.relation(*symbol_group(tokens[1:-1], lineno, NetworkError)).bits
        x, y = tokens[0], tokens[-1]
        if x == y:
            raise NetworkError(f"self-loop constraint on variable {x!r}", lineno)
        for v in (x, y):
            if v not in net._index:
                raise NetworkError(f"unknown variable {v!r}", lineno)
        i, j, n = net._index[x], net._index[y], len(net.var_names)
        net.cells[i * n + j] &= mask
        net.cells[j * n + i] &= calculus.converse_mask(mask)

    read_clauses(text, {"network": network, "calculus": calculus_clause("network", calculus),
                        "vars": variables}, ("calculus", "vars"), edge, NetworkError)
    net.name = name
    return net


def load_network(path: str, calculus: CalculusSpec) -> ConstraintNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read(), calculus)


def random_network(
    calculus: CalculusSpec,
    n_vars: int,
    density: float,
    label_size: str = "uniform",
    seed: Optional[int] = None,
) -> ConstraintNetwork:
    """Generate a random normalized network, deterministic under ``seed``.

    ``density`` is the fraction of unordered off-diagonal pairs that receive
    a constraint; the rest stay universal.  ``label_size`` selects the label
    distribution: ``"uniform"`` draws uniformly among non-empty proper
    composite relations, ``"singletons"`` draws a single base relation.
    A one-relation calculus has no uniform label to draw: asking for one
    raises ``NetworkError``.
    """
    if n_vars < 2:
        raise NetworkError("random networks need at least 2 variables")
    if not 0.0 <= density <= 1.0:
        raise NetworkError("density must lie in [0, 1]")
    if label_size not in ("uniform", "singletons"):
        raise NetworkError(f"unknown label distribution {label_size!r}")
    rng = random.Random(seed)

    names = [f"x{i}" for i in range(n_vars)]
    net = ConstraintNetwork(calculus, names, name="random")
    pairs = [(i, j) for i in range(n_vars) for j in range(i + 1, n_vars)]
    k = round(density * len(pairs))
    chosen = rng.sample(pairs, k) if k < len(pairs) else pairs
    n = n_vars
    u = calculus.universal
    nsyms = len(calculus.symbols)
    if label_size == "uniform" and nsyms == 1 and chosen:
        raise NetworkError(
            f"calculus {calculus.name!r} has a single base relation: no label is non-empty and proper"
        )
    for i, j in sorted(chosen):
        if label_size == "singletons":
            mask = 1 << rng.randrange(nsyms)
        else:
            mask = rng.randrange(1, u)  # non-empty, proper
        net.cells[i * n + j] = mask
        net.cells[j * n + i] = calculus.converse_mask(mask)
    return net
