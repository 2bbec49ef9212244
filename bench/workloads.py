"""The four workloads: inputs drawn from the seed, the calls that are timed, and their checks.

A workload draws its batch from the seed once, as plain data.  For every
pass it builds fresh ``qsr`` objects from that data, so each pass does the
same work.  A calculus with more than 8 base relations is loaded again for
every pass, so that its composition cache fills inside the timed part, as it
does in each run of the ``qsr`` command.

* ``close``: ``a_closure`` on rcc5 A(40, 3, 2.5), where about 3 in 4
  networks close and the rest fail late in the closure.  Dense tables and
  the fast closure branch only.  At degree 4 about half close, and the
  median call time jumps between the two kinds from seed to seed.
* ``close-wide``: ``a_closure`` on the branches that leave the fast path:
  IA13 A(30, 8, 6.5) (large path and its cache), appendixB1 with singleton
  labels (non-involutive converse), appendixB2 A(40, 1, 2.0) (converse does
  not distribute over composition).
* ``decide``: ``decide`` on rcc5 A(15, 2.5, 2.5).  About 9 in 10 are
  consistent and take 20 to 60 search nodes each; the rest fail at the root.
  Instances of 25 variables take about a second each, too few per run to be
  steady across seeds.
* ``audit``: the calls behind ``qsr analyze`` (classify and validate) on the
  three calculi derived in ``calculi.py`` and behind ``qsr model-check`` on the
  21-interval model, a completeness derivation, and brute force on an
  unsolvable and a solvable chain.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle
from gen import a_network, network_text, singleton_network


@dataclass
class Item:
    """One timed call, its check against the oracle, and a digest to compare passes."""

    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    digest: Callable[[object], object] = repr
    span: Optional[str] = None  # span the runner records; None when a wrapper does


@dataclass
class Cli:
    """A ``qsr`` command on one of the workload's inputs, and the check of its output."""

    args: list[str]
    files: dict[str, str]
    check: Callable[[int, str], Optional[str]]


@dataclass
class Env:
    """What set-up loaded: the ``qsr`` package, calculi and models by name, and their text."""

    qsr: object
    calculi: dict
    models: dict
    specs: dict[str, str]
    model_texts: dict[str, tuple[str, str]]

    def fresh(self, name: str):
        """A newly loaded copy of a spec-file calculus, or the shared builtin."""
        if name in self.specs:
            return self.qsr.parse_spec(self.specs[name])
        return self.calculi[name]


def build(qsr, calc, n: int, edges) -> object:
    net = qsr.ConstraintNetwork(calc, [f"x{k}" for k in range(n)])
    for i, j, mask in edges:
        net.set_mask(i, j, mask)
        net.set_mask(j, i, calc.converse_mask(mask))
    return net


def _closure_digest(out):
    return out.status.value, tuple(out.network.cells) if out.closed else None


def closure_item(qsr, net) -> Item:
    return Item(lambda: qsr.a_closure(net), lambda out: oracle.closure(qsr, net, out),
                _closure_digest)


def _json_check(expected: Callable[[int, dict], bool]):
    def check(code: int, stdout: str) -> Optional[str]:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"exit {code}, output is not JSON"
        return None if expected(code, payload) else f"exit {code}, unexpected output"
    return check


def _closure_cli(calc_args, files, net_text, out) -> Cli:
    """``qsr closure`` must give the status, and the cells, of the in-process closure."""
    files["input.net"] = net_text
    status = out.status.value
    matrix = out.network.to_json_dict()["matrix"] if out.closed else None
    return Cli(["closure", *calc_args, "--network", "input.net", "--format", "json"], files,
               _json_check(lambda code, p: code == (0 if out.closed else 1) and p["status"] == status
                           and p.get("network", {}).get("matrix") == matrix))


def _median_closed(outs, count: int) -> int:
    """Among the first ``count`` closures, the closed one with the median queue pops.

    Its cost is typical of the batch, so it varies little from seed to seed.
    """
    closed = sorted((out.queue_pops, i) for i, out in enumerate(outs[:count]) if getattr(out, "closed", False))
    return closed[len(closed) // 2][1] if closed else 0


class Close:
    name = "close"
    N, DEGREE, LABEL, COUNT = 40, 3.0, 2.5, 250
    pass_s = 5.0  # nominal pass time at the seed commit

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"close/{seed}")
        self.edges = [a_network(rng, 5, self.N, self.DEGREE, self.LABEL) for _ in range(self.COUNT)]

    def items(self, env: Env) -> list[Item]:
        calc = env.calculi["rcc5"]
        return [closure_item(env.qsr, build(env.qsr, calc, self.N, e)) for e in self.edges]

    def cli(self, env: Env, items, outs) -> Cli:
        idx = _median_closed(outs, len(outs))
        text = network_text("close", "rcc5", env.calculi["rcc5"].symbols, self.N, self.edges[idx])
        return _closure_cli(["--builtin", "rcc5"], {}, text, outs[idx])


class CloseWide:
    name = "close-wide"
    IA = (30, 8.0, 6.5, 100)
    B1 = (40, 12)
    B2 = (40, 1.0, 2.0, 60)
    pass_s = 5.0

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"close-wide/{seed}")
        n, d, l, count = self.IA
        self.ia = [a_network(rng, 13, n, d, l) for _ in range(count)]
        n, count = self.B1
        self.b1 = [singleton_network(rng, 2, n) for _ in range(count)]
        n, d, l, count = self.B2
        self.b2 = [a_network(rng, 4, n, d, l) for _ in range(count)]

    def items(self, env: Env) -> list[Item]:
        qsr = env.qsr
        ia = env.fresh("IA13")
        nets = [build(qsr, ia, self.IA[0], e) for e in self.ia]
        nets += [build(qsr, env.calculi["appendixB1"], self.B1[0], e) for e in self.b1]
        nets += [build(qsr, env.calculi["appendixB2"], self.B2[0], e) for e in self.b2]
        return [closure_item(qsr, net) for net in nets]

    def cli(self, env: Env, items, outs) -> Cli:
        idx = _median_closed(outs, len(self.ia))
        text = network_text("close-wide", "IA13", env.calculi["IA13"].symbols, self.IA[0], self.ia[idx])
        return _closure_cli(["--spec", "IA13.spec"], {"IA13.spec": env.specs["IA13"]}, text, outs[idx])


def _decision_digest(out):
    return out.verdict.value, out.nodes_explored, None if out.witness is None else tuple(out.witness.cells)


class Decide:
    name = "decide"
    N, DEGREE, LABEL, COUNT = 15, 2.5, 2.5, 170
    pass_s = 5.0

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"decide/{seed}")
        self.edges = [a_network(rng, 5, self.N, self.DEGREE, self.LABEL) for _ in range(self.COUNT)]

    def items(self, env: Env) -> list[Item]:
        qsr, calc = env.qsr, env.calculi["rcc5"]
        items = []
        for e in self.edges:
            net = build(qsr, calc, self.N, e)
            items.append(Item(lambda net=net: qsr.decide(net),
                              lambda out, net=net: oracle.decision(qsr, net, out),
                              _decision_digest, span="search.decide"))
        return items

    def cli(self, env: Env, items, outs) -> Cli:
        # the instance with the median node count
        nodes, idx = sorted((out.nodes_explored, idx) for idx, out in enumerate(outs))[len(outs) // 2]
        verdict = outs[idx].verdict.value
        text = network_text("decide", "rcc5", env.calculi["rcc5"].symbols, self.N, self.edges[idx])
        return Cli(["consistency", "--builtin", "rcc5", "--network", "input.net", "--format", "json"],
                   {"input.net": text},
                   _json_check(lambda code, p: code == (0 if verdict == "consistent" else 1)
                               and p["verdict"] == verdict and p["nodes_explored"] == nodes))


class Audit:
    """The calls of ``qsr analyze`` and ``qsr model-check``, a completeness
    derivation and two exhaustive searches.  The seed only shuffles the symbol
    order of the derived calculi (``calculi.texts``), so every run does the
    same work."""

    name = "audit"
    # chains x0 < x1 < ... over the 5-element model: 7 variables have no
    # solution, 5 have exactly one
    UNSOLVABLE, SOLVABLE = 7, 5
    # six passes of seven calls: the tail (p75) is the second sample of the
    # sixth-slowest call, not the edge of a group of samples
    pass_s = 1.6

    def __init__(self, seed: int) -> None:
        """Nothing to draw: the seed reaches this workload through the calculi."""

    def items(self, env: Env) -> list[Item]:
        qsr = env.qsr
        calcs = {name: env.fresh(name) for name in oracle.CLASSIFICATION}
        ia13 = calcs["IA13"]
        model = qsr.parse_model(env.model_texts["IA13-21"][0], ia13)
        pc1 = env.calculi["pc1"]
        chain5 = env.models["pc1-chain5"]
        chains = {n: build(qsr, pc1, n, [(k, k + 1, pc1.mask_of("<")) for k in range(n - 1)])
                  for n in (self.UNSOLVABLE, self.SOLVABLE)}

        items = [Item(lambda c=calc: (qsr.classify(c), qsr.validate(c)),
                      lambda out, name=name: oracle.analysis(name, *out),
                      lambda out: (out[0].classification.value, out[0].violated(), repr(out[1])),
                      span="axioms.classify")
                 for name, calc in calcs.items()]
        items += [
            Item(lambda: (qsr.check_jepd(model), qsr.check_partition_scheme(model),
                          qsr.classify_operation(model, ia13, "converse"),
                          qsr.classify_operation(model, ia13, "composition")),
                 lambda out: oracle.interval_model(*out), span="models.grade"),
            Item(lambda: qsr.derive_completeness(pc1, chain5, 5),
                 lambda r: oracle.expect("completeness", r.flag == "yes"
                                         and r.networks_checked == oracle.COMPLETENESS_NETWORKS),
                 span="models.completeness"),
            Item(lambda: qsr.brute_force_solve(chains[self.UNSOLVABLE], chain5),
                 lambda r: oracle.expect("unsolvable chain", r is None)),
            Item(lambda: qsr.brute_force_solve(chains[self.SOLVABLE], chain5),
                 lambda r: oracle.expect("solvable chain",
                                         r is not None and [r[f"x{k}"] for k in range(5)] == list("01234"))),
        ]
        return items

    def cli(self, env: Env, items, outs) -> Cli:
        return Cli(["analyze", "--spec", "IA13.spec", "--format", "json"],
                   {"IA13.spec": env.specs["IA13"]},
                   _json_check(lambda code, p: code == 0 and p["classification"] == "RA"))


WORKLOADS = {w.name: w for w in (Close, CloseWide, Decide, Audit)}
