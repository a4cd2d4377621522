"""verify-all output pinned byte for byte, and its derivations built once."""

import hashlib
import itertools
import json
import sys

import pytest

from congform import algebras, corpus, operators
from congform.verify import run_verification

# sha256 of json.dumps(run_verification(kind, max_size), indent=2, sort_keys=True)
PINNED_DIGESTS = {
    ("groups", 8): "dc41c9c471310f658cd3f900008ad0db9a069407ea3e2301995bed8f551076c2",
    ("rngs", 12): "a5b5b76264beef99f1e8f077f7f0f913c90bd1ebc334157fb1fad290d76a1fea",
    ("quandles", 3): "4cbbb5f7517fa21bb398321ea93a3dfa298cc441ea88f5f8f53950cc7a9e01bc",
    ("quandles", 5): "45c25b2e36ff53e15333ddeee335e0d29f72ab5ecea19216925c260004116e8e",
}


def fresh_corpus(kind, max_size):
    """``corpus(kind, max_size)`` built anew, with no table built yet; the
    corpus cache then hands it to ``run_verification``."""
    corpus.cache_clear()
    return corpus(kind, max_size)


@pytest.mark.parametrize("kind,max_size", list(PINNED_DIGESTS))
def test_verify_all_output_matches_pinned_digest(kind, max_size):
    text = json.dumps(run_verification(kind, max_size), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[kind, max_size]


def test_run_verification_builds_three_operators_per_builtin(monkeypatch):
    # per operator: the built-in, the one derived back from its reflector,
    # and the one derived from the oracle reflector; every operator that
    # verify-all builds passes through ``_natural_operator``
    original = operators._natural_operator
    names = []

    def counting(u, name, rows):
        names.append(name)
        return original(u, name, rows)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("congform") and \
                getattr(module, "_natural_operator", None) is original:
            monkeypatch.setattr(module, "_natural_operator", counting)
    run_verification("quandles", 3)
    assert names == ["identity", "top", "quandle"] * 2 + \
        ["oracle(everything)", "oracle(one-element)", "oracle(trivial-quandle)"]


def test_run_verification_merges_no_congruences():
    # the built-in operators are read off each Con(X)'s pair masks and the
    # oracle's meet is one relabeling, so once the corpus is built no
    # congruence is merged, joined, met or generated
    corpus("quandles", 5)
    codes = {getattr(algebras, name).__code__: name
             for name in ("_merge", "join", "meet", "generated_congruence")}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        report = run_verification("quandles", 5)
    finally:
        sys.setprofile(None)
    assert report["pass"] and calls == []


def test_run_verification_searches_homs_only_into_subcategories(monkeypatch):
    # surjections come from quotient maps and automorphisms, so the only
    # hom search left is make_reflector's, from members outside each
    # subcategory into members inside it
    original = algebras.enumerate_homs
    pairs = set()

    def counting(x, y):
        pairs.add((x, y))
        return original(x, y)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("congform") and \
                getattr(module, "enumerate_homs", None) is original:
            monkeypatch.setattr(module, "enumerate_homs", counting)
    run_verification("quandles", 3)
    assert len(pairs) <= 8, len(pairs)


def test_run_verification_enumerates_no_homs(monkeypatch):
    # the universal property is checked through quotient maps and embeddings
    # of members into members, each found once per universe
    u = fresh_corpus("quandles", 4)
    original = algebras.enumerate_homs
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return original(x, y)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("congform") and \
                getattr(module, "enumerate_homs", None) is original:
            monkeypatch.setattr(module, "enumerate_homs", counting)
    run_verification("quandles", 4)
    assert calls == []
    # one look-up per ordered pair of members, keyed by member indices
    assert set(u._embeddings) <= set(itertools.product(range(len(u)), repeat=2))


def test_run_verification_builds_no_identity_pull_tables():
    # make_reflector and pullback_rule read f*S = S along the quotient map
    # X -> X/diagonal when it is the identity, so only other maps get a table
    u = fresh_corpus("quandles", 5)
    run_verification("quandles", 5)
    pulls = u._pulls
    assert not [f for f in pulls if f.dom == f.cod and f.map == tuple(range(f.dom.size))]
    assert len(pulls) == 278


def test_run_verification_refutes_every_embedding_by_counts(monkeypatch):
    # on quandles 5 the element counts of _embedding_profile rule out every
    # embedding make_reflector asks for, so find_embedding never searches
    fresh_corpus("quandles", 5)
    lookups, callers = [], []
    original_find, original_search = operators.find_embedding, algebras._hom_search

    def finding(x, y):
        lookups.append((x, y))
        return original_find(x, y)

    def searching(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original_search(*args, **kwargs)

    monkeypatch.setattr(operators, "find_embedding", finding)
    monkeypatch.setattr(algebras, "_hom_search", searching)
    run_verification("quandles", 5)
    assert len(lookups) == 149
    assert "find_embedding" not in callers


def test_run_verification_checks_coheredity_once_per_row_tuple(monkeypatch):
    # per built-in: its report, the derived operator's axiom suite and both
    # reflector_from_closure calls ask for the verdict; the derived rows equal
    # the built-in's, so the quotient maps are scanned once per built-in
    fresh_corpus("quandles", 5)
    asked, scanned = [], []
    original, original_scan = operators.is_cohereditary, operators._along_quotient_maps

    def asking(c):
        asked.append(c.rows)
        return original(c)

    def scanning(c, key, sides):
        if key == "S":
            scanned.append(c.rows)
        return original_scan(c, key, sides)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("congform") and \
                getattr(module, "is_cohereditary", None) is original:
            monkeypatch.setattr(module, "is_cohereditary", asking)
    monkeypatch.setattr(operators, "_along_quotient_maps", scanning)
    run_verification("quandles", 5)
    assert (len(asked), len(set(asked))) == (12, 3)
    assert sorted(scanned) == sorted(set(asked))


class RecordingSet(set):
    """A set that records every ``add``."""

    def __init__(self):
        super().__init__()
        self.added = []

    def add(self, item):
        self.added.append(item)
        super().add(item)


@pytest.mark.parametrize("kind,max_size,distinct", [("quandles", 5, 3), ("groups", 8, 4)])
def test_run_verification_validates_each_table_and_rho_once(kind, max_size, distinct):
    # per built-in: its rows and rho, again from the derived operator and the
    # oracle's reflector, which equal them; only the first of each is checked
    u = fresh_corpus(kind, max_size)
    vars(u).update(natural=RecordingSet(), reflective=RecordingSet())
    run_verification(kind, max_size)
    for kept in (u.natural, u.reflective):
        assert len(kept.added) == len(kept) == distinct
