"""Correctness checks for the benchmark's outputs, run outside the timed region.

Every function returns ``None`` when the output is right and a short reason
when it is not.  ``naive_closure`` is the toolkit's own reference closure: it
sweeps every rule over every triple, with no worklist and no shortcut, so it
is independent of the engine paths of ``a_closure``.  The expected audit
values are fixed here from the mathematics, not from the program.
"""

from __future__ import annotations


def closure(qsr, net, out) -> str | None:
    """``a_closure`` agrees with ``naive_closure`` in status and, when closed, in every cell."""
    ref = qsr.naive_closure(net)
    if ref.status is not out.status:
        return f"status {out.status.value}, reference {ref.status.value}"
    if out.closed and ref.network.cells != out.network.cells:
        return "closed network differs from the reference fixpoint"
    return None


def decision(qsr, net, out) -> str | None:
    """A consistent witness is atomic, refines the input and is closed; a root
    inconsistency agrees with ``naive_closure``."""
    verdict = out.verdict.value
    if verdict == "consistent":
        w = out.witness
        n = len(net.var_names)
        if not w.is_atomic():
            return "witness is not atomic"
        if any(w.get_mask(i, j) & ~net.get_mask(i, j) for i in range(n) for j in range(n) if i != j):
            return "witness does not refine the input"
        ref = qsr.naive_closure(w)
        if not ref.closed or ref.network.cells != w.to_full().cells:
            return "witness is not closed"
        return None
    if verdict == "inconsistent":
        if out.nodes_explored == 1 and qsr.naive_closure(net).closed:
            return "root inconsistency, but the reference closure closes"
        return None
    return f"verdict {verdict} on a calculus whose closure decides atomic networks"


def expect(label: str, ok: bool) -> str | None:
    return None if ok else f"{label}: unexpected result"


def analysis(name: str, report, findings) -> str | None:
    """``classify`` and ``validate`` of one derived calculus."""
    return expect(f"analysis of {name}", report.classification.value == CLASSIFICATION[name]
                  and {f.kind for f in findings} == FINDINGS[name])


def interval_model(jepd, scheme, converse, composition) -> str | None:
    """The checks of the 21-interval model of IA13.

    Its relations partition the pairs, ``eq`` is the identity and converse is
    exact.  Seven points realise every configuration of three intervals, so
    every composition cell is the tightest sound one, but b.b is not strong:
    no interval fits between (0,1) and (2,3).
    """
    return expect("IA13-21 model", jepd.certified and scheme.has_identity_base
                  and scheme.converse_closed and scheme.declared_identity_matches
                  and converse.strong and composition.weak and not composition.strong)


# Expected audit results.  A product of relation algebras is a relation
# algebra; the appendixB2 factor breaks associativity and the identity law,
# and its empty cells survive in the product.
CLASSIFICATION = {"IA13": "RA", "pc1xIA13": "RA", "appendixB2xcycb": "NA-or-weaker"}
FINDINGS = {"IA13": set(), "pc1xIA13": set(), "appendixB2xcycb": {"identity-law", "empty-cell"}}
# 5 variables have 10 pairs, each takes one of the 3 point relations
COMPLETENESS_NETWORKS = 3 ** 10
