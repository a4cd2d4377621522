"""Input fuzzing of the command-line front end, in process.

Random JSON algebras, maps, block lists and operator files go through
``cli.main`` for the single-algebra and single-map commands.  Whatever the
input, no exception escapes, the exit code is 0, 1 or 2, stdout is one JSON
value, and exit 1 comes only with the document of a ``CheckFailure``.  The
inputs mix well-formed values (corpus algebras, their congruences, their
homs) with near misses and junk, so both the checks and the input errors
are reached.  Each family runs a fixed number of derandomized examples.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from congform import (
    BUILTIN_OPERATOR_NAMES,
    algebra_to_json,
    con_lattice,
    congruence_to_blocks,
    corpus,
    cyclic_group,
    cyclic_rng,
    enumerate_homs,
    errors,
    klein_four_group,
    leq,
)
from congform.algebras import FiniteAlgebra, Signature
from congform.cli import main

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)

VALID = [cyclic_group(3), cyclic_group(4), klein_four_group(), cyclic_rng(4),
         *corpus("quandles", 3).algebras, FiniteAlgebra(3, Signature(()), ()),
         FiniteAlgebra(3, Signature((("f", 1),)), ((1, 0, 0),))]

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def table(size: int, arity: int):
    """Nested lists of the shape an arity needs, entries one past the carrier."""
    if arity == 0:
        return st.integers(-1, size)
    return st.lists(table(size, arity - 1), min_size=size, max_size=size)


@st.composite
def algebra_docs(draw):
    """A corpus algebra, one with an entry changed (which may break its tag's
    axioms), a random table set, or junk."""
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "random", "random", "junk"]))
    if kind in ("valid", "mutated"):
        doc = algebra_to_json(draw(st.sampled_from(VALID)))
        rows = [t for t in doc["tables"].values() if isinstance(t, list)]
        if kind == "mutated" and rows:
            row = draw(st.sampled_from(rows))
            while isinstance(row[0], list):
                row = draw(st.sampled_from(row))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(0, doc["size"] - 1))
        return doc
    if kind == "junk":
        return draw(JUNK)
    size = draw(st.integers(0, 4))
    ops = draw(st.lists(st.tuples(st.sampled_from(["f", "lhd", "lhd_inv", "mul", "inv", "e"]),
                                  st.integers(0, 3)), max_size=3, unique_by=lambda op: op[0]))
    doc = {"size": size, "signature": [{"name": n, "arity": k} for n, k in ops],
           "tables": {n: draw(table(max(size, 1), k)) for n, k in ops},
           "tag": draw(st.sampled_from([None, "group", "quandle", "commutative-rng", "ring"]))}
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return doc


def blocks(algebra_doc):
    """Block-list text: a congruence of a corpus algebra, random blocks, junk,
    or text that is not JSON."""
    size = algebra_doc.get("size") if isinstance(algebra_doc, dict) else None
    n = size if isinstance(size, int) and 0 < size < 8 else 3
    random_blocks = st.lists(st.lists(st.integers(-1, n), max_size=3), max_size=3)
    return st.one_of(random_blocks, random_blocks, JUNK).map(json.dumps) | st.just("[[0,")


def congruence_blocks(a):
    return st.sampled_from([json.dumps(congruence_to_blocks(r)) for r in con_lattice(a)])


class Files:
    """JSON documents written to a temporary directory, one path each."""

    def __init__(self, root):
        self.root, self.count = Path(root), 0

    def __call__(self, doc) -> str:
        self.count += 1
        path = self.root / f"{self.count}.json"
        path.write_text(json.dumps(doc))
        return str(path)


def check_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    doc = json.loads(out.getvalue())
    if code == 1:
        assert issubclass(getattr(errors, doc["error"]), errors.CheckFailure), doc
    if code == 2:
        assert issubclass(getattr(errors, doc["error"]), errors.CongformError), doc
    return code


def fuzz(test):
    """Run ``test(data, files)`` with a fresh temporary directory per example."""
    @FUZZ
    @given(st.data())
    def run(data):
        with tempfile.TemporaryDirectory() as root:
            test(data, Files(root))
    run.__name__ = test.__name__
    return run


@fuzz
def test_single_algebra_commands_on_random_algebras(data, files):
    doc = data.draw(algebra_docs())
    command = data.draw(st.sampled_from(["validate", "con-lattice"]))
    check_main([command, "--algebra", files(doc)])


@fuzz
def test_close_on_random_block_lists(data, files):
    if data.draw(st.booleans()):
        a = data.draw(st.sampled_from(VALID))
        doc, congruence = algebra_to_json(a), data.draw(congruence_blocks(a) | blocks({}))
    else:
        doc = data.draw(algebra_docs())
        congruence = data.draw(blocks(doc))
    operator = data.draw(st.sampled_from(BUILTIN_OPERATOR_NAMES))
    check_main(["close", "--operator", operator, "--algebra", files(doc),
                "--congruence", congruence])


@st.composite
def operator_files(draw, a):
    """An operator file for ``a``: one entry per congruence, each closing to a
    congruence above it or to a random one, with entries dropped or swapped
    for junk; or junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    lattice = con_lattice(a)
    entries = [{"congruence": congruence_to_blocks(r), "closure": congruence_to_blocks(
        draw(st.sampled_from([s for s in lattice if leq(r, s)] if draw(st.booleans())
                             else lattice)))} for r in lattice]
    entries = draw(st.permutations(entries))[:len(entries) - draw(st.integers(0, 1))]
    if draw(st.integers(0, 4)) == 0:
        entries.append(draw(JUNK))
    doc = {"entries": entries}
    if draw(st.booleans()):
        doc["name"] = draw(st.text(max_size=3) | st.integers())
    return doc


@fuzz
def test_close_and_reflect_on_random_operator_files(data, files):
    a = data.draw(st.sampled_from(VALID))
    operator = files(data.draw(operator_files(a)))
    command = data.draw(st.sampled_from(["close", "reflect"]))
    if data.draw(st.integers(0, 4)) == 0:
        algebra = files(data.draw(algebra_docs()))
    else:
        algebra = files(algebra_to_json(a))
    extra = ["--congruence", data.draw(congruence_blocks(a) | blocks({}))] \
        if command == "close" else []
    check_main([command, "--operator", operator, "--algebra", algebra, *extra])


@fuzz
def test_map_commands_on_random_maps(data, files):
    dom = data.draw(st.sampled_from(VALID))
    cod = data.draw(st.sampled_from([b for b in VALID if b.sig == dom.sig] * 3 + VALID))
    homs = [list(f.map) for f in enumerate_homs(dom, cod)] if dom.sig == cod.sig else []
    random_map = st.lists(st.integers(-1, cod.size), min_size=dom.size, max_size=dom.size)
    mapping = data.draw(st.sampled_from(homs) if homs and data.draw(st.booleans())
                        else random_map | JUNK)
    dom_doc = algebra_to_json(dom) if data.draw(st.integers(0, 9)) else data.draw(algebra_docs())
    argv = ["--dom", files(dom_doc), "--cod", files(algebra_to_json(cod)),
            "--map", json.dumps(mapping)]
    source = data.draw(congruence_blocks(dom) | blocks(dom_doc))
    target = data.draw(congruence_blocks(cod) | blocks({"size": cod.size}))
    command = data.draw(st.sampled_from(["lift", "push", "pull"]))
    if command == "lift":
        argv += ["--source", source, "--target", target]
    else:
        argv += ["--congruence", source if command == "push" else target]
    check_main([command, *argv])
