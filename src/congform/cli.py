"""Command-line front end.

JSON on stdout, one value per invocation; a short human summary goes to
stderr.  Exit codes: 0 success, 1 a mathematical check failed (stdout
carries the witness), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebras import (
    algebra_from_json,
    algebra_to_json,
    con_lattice,
    congruence_from_blocks,
    congruence_to_blocks,
    diagonal,
    homomorphism,
    quotient,
)
from .errors import (CheckFailure, CongformError, InputError, NotExtensive,
                     OperatorFileIncomplete, OperatorFileShape)
from .forms import image_congruence, leq, lifts, preimage_congruence
from .instances import (
    BUILTIN_OPERATOR_NAMES,
    CORPUS_KINDS,
    builtin_operator,
    closure_rule,
    corpus,
    corpus_kind,
    corpus_manifest,
)
from .operators import is_minimal, operator_report
from .reflection import closed_under_quotients, predicate_from_operator, subcategory_members
from .verify import THEOREMS, Subject, run_verification


def _emit(doc, report_path: str | None = None) -> None:
    if isinstance(doc, list):
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(doc, indent=2, sort_keys=True)
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write report {report_path}: {exc}")
    print(text)  # after the report: a failed write leaves stdout to the error document


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _decode(text: str, what: str):
    """Parse JSON; malformed or too deeply nested input is an ``InputError``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed {what}: {exc}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return _decode(text, f"JSON in {path}")


def _load_algebra(path: str):
    return algebra_from_json(_load_json(path))


def _parse_blocks(text: str):
    doc = _decode(text, "congruence JSON")
    if not isinstance(doc, list):
        raise InputError("a congruence is a JSON list of blocks")
    return doc


def _parse_congruence(algebra, text: str):
    return congruence_from_blocks(algebra, _parse_blocks(text))


def _load_hom(args):
    dom = _load_algebra(args.dom)
    cod = _load_algebra(args.cod)
    mapping = _decode(args.map, "map JSON")
    if not isinstance(mapping, list):
        raise InputError("--map takes a JSON list of codomain elements")
    return homomorphism(dom, cod, mapping)


def _operator_rule(selector: str, a):
    """Built-in rule by name, or an extensional table file for the algebra ``a``.

    File entries are parsed once against ``a`` and must be extensive and
    cover Con(a); the first entry for a congruence wins.
    """
    if selector in BUILTIN_OPERATOR_NAMES:
        return closure_rule(selector), selector
    doc = _load_json(selector)
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and all(isinstance(e.get(k), list) for k in ("congruence", "closure"))
            for e in entries):
        raise OperatorFileShape("operator file needs 'entries' with 'congruence' and "
                                "'closure' block lists")
    name = doc.get("name", selector)
    if not isinstance(name, str):
        raise OperatorFileShape("operator file 'name' must be a string")
    table = {}
    for k, entry in enumerate(entries):
        r = congruence_from_blocks(a, entry["congruence"])
        c = congruence_from_blocks(a, entry["closure"])
        if not leq(r, c):
            raise NotExtensive(f"operator file entry {k} is not extensive", witness={
                "entry": k, "congruence": congruence_to_blocks(r),
                "closure": congruence_to_blocks(c)})
        table.setdefault(r, c)
    missing = next((r for r in con_lattice(a) if r not in table), None)
    if missing is not None:
        raise OperatorFileIncomplete("operator file has no entry for a congruence of the algebra",
                                     witness={"congruence": congruence_to_blocks(missing)})
    return (lambda x, r: table[r]), name


# --- commands -----------------------------------------------------------------

def _cmd_validate(args) -> int:
    a = _load_algebra(args.algebra)
    _say(f"valid {a.tag or 'untagged'} algebra of size {a.size}")
    _emit({"ok": True, "algebra": algebra_to_json(a)}, args.report)
    return 0


def _cmd_con_lattice(args) -> int:
    a = _load_algebra(args.algebra)
    lattice = con_lattice(a)
    _say(f"{len(lattice)} congruences on a size-{a.size} algebra")
    _emit({
        "size": a.size,
        "count": len(lattice),
        "congruences": [congruence_to_blocks(r) for r in lattice],
    }, args.report)
    return 0


def _cmd_close(args) -> int:
    a = _load_algebra(args.algebra)
    r = _parse_congruence(a, args.congruence)
    rule, name = _operator_rule(args.operator, a)
    closed = rule(a, r)
    _say(f"{name}: {r.n_blocks} blocks -> {closed.n_blocks} blocks")
    _emit(congruence_to_blocks(closed), args.report)
    return 0


def _cmd_lift(args) -> int:
    f = _load_hom(args)
    r = _parse_congruence(f.dom, args.source)
    s = _parse_congruence(f.cod, args.target)
    ok = lifts(f, r, s)
    _say("lifts" if ok else "does not lift")
    _emit({"lifts": ok}, args.report)
    return 0


def _cmd_push(args) -> int:
    f = _load_hom(args)
    r = _parse_congruence(f.dom, args.congruence)
    _emit(congruence_to_blocks(image_congruence(f, r)), args.report)
    return 0


def _cmd_pull(args) -> int:
    f = _load_hom(args)
    s = _parse_congruence(f.cod, args.congruence)
    _emit(congruence_to_blocks(preimage_congruence(f, s)), args.report)
    return 0


def _cmd_reflect(args) -> int:
    a = _load_algebra(args.algebra)
    rule, name = _operator_rule(args.operator, a)
    rho = rule(a, diagonal(a))
    q, _ = quotient(a, rho)
    member = rho == diagonal(a)
    _say(f"{name}: reflection has {rho.n_blocks} elements"
         + (" (already a member)" if member else ""))
    _emit({
        "congruence": congruence_to_blocks(rho),
        "member": member,
        "quotient": algebra_to_json(q),
    }, args.report)
    return 0


def _max_size(args) -> int:
    return corpus_kind(args.corpus).default_size if args.max_size is None else args.max_size


def _universe_and_operator(args):
    u = corpus(args.corpus, _max_size(args))
    return u, builtin_operator(args.operator, u)


def _cmd_check_operator(args) -> int:
    u, c = _universe_and_operator(args)
    report = operator_report(c)
    report["corpus"] = {"kind": args.corpus, "members": len(u)}
    flags = [k for k in ("idempotent", "cohereditary", "minimal", "preserves_pushouts")
             if report[k]]
    _say(f"{c.name} on {args.corpus}: valid; " + ", ".join(flags))
    _emit(report, args.report)
    return 0


def _cmd_roundtrip(args) -> int:
    s = Subject(args.operator, corpus(args.corpus, _max_size(args)))
    check, passes, _ = THEOREMS["roundtrip_identities"]
    item = check(s)
    ok = passes(item)
    _say(f"{s.operator.name}: round-trips {'pass' if ok else 'FAIL'}")
    _emit({
        "operator": s.operator.name,
        "closure_roundtrip": item["closure"],
        "reflector_roundtrip": item["reflector"],
        "pass": ok,
    }, args.report)
    return 0 if ok else 1


def _cmd_birkhoff(args) -> int:
    u, c = _universe_and_operator(args)
    minimal = is_minimal(c)
    closed = closed_under_quotients(predicate_from_operator(c), u)
    ok = bool(minimal) == bool(closed)
    _say(f"{c.name}: minimal={bool(minimal)} closed-under-quotients={bool(closed)}"
         f" -> {'consistent' if ok else 'INCONSISTENT'}")
    _emit({
        "operator": c.name,
        "minimal": minimal.as_json(),
        "closed_under_quotients": closed.as_json(),
        "pass": ok,
    }, args.report)
    return 0 if ok else 1


def _cmd_antitone(args) -> int:
    u = corpus(args.corpus, _max_size(args))
    first, second = Subject(args.operator, u), Subject(args.operator2, u)
    check, passes, _ = THEOREMS["antitone_order"]
    item = check(first, second)
    ok = passes(item)
    c1, c2 = first.operator, second.operator
    _say(f"antitone {c1.name} / {c2.name}: {'pass' if ok else 'FAIL'}")
    _emit({
        "first": c1.name,
        "second": c2.name,
        "subcategory_first": [u.lookup(a) for a in subcategory_members(c1)],
        "subcategory_second": [u.lookup(a) for a in subcategory_members(c2)],
        "check": item,
        "pass": ok,
    }, args.report)
    return 0 if ok else 1


def _cmd_corpus(args) -> int:
    manifest = corpus_manifest(args.corpus, _max_size(args))
    _say(f"{len(manifest['algebras'])} algebras in corpus {args.corpus}")
    _emit(manifest, args.report)
    return 0


def _cmd_verify_all(args) -> int:
    report = run_verification(args.corpus, args.max_size)
    for name, theorem in report["theorems"].items():
        _say(("PASS " if theorem["pass"] else "FAIL ") + name)
    _say(("PASS" if report["pass"] else "FAIL")
         + f" verify-all on {args.corpus} (max size {report['corpus']['max_size']})")
    _emit(report, args.report)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congform",
        description="Congruence lattices, quotient closure operators, and "
                    "reflective-subcategory checks for finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, flags):
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--report", help="also write the JSON output to this path")
        p.set_defaults(fn=fn)
        return p

    algebra = ("--algebra", {"required": True, "help": "path to an algebra JSON file"})
    congruence = ("--congruence", {"required": True,
                                   "help": "congruence as a JSON block list"})
    builtins = f"one of {', '.join(BUILTIN_OPERATOR_NAMES)}"
    operator = ("--operator", {"required": True,
                               "help": f"{builtins}, or a path to an operator table file"})
    builtin = ("--operator", {"required": True, "help": builtins})
    corpus_flag = ("--corpus", {"required": True, "choices": CORPUS_KINDS})
    max_size = ("--max-size", {"type": int, "dest": "max_size",
                               "help": "largest carrier in the corpus"})
    hom = [
        ("--dom", {"required": True, "help": "path to the domain algebra"}),
        ("--cod", {"required": True, "help": "path to the codomain algebra"}),
        ("--map", {"required": True, "help": "JSON list: image of each domain element"}),
    ]

    add("validate", _cmd_validate, "check an algebra file", [algebra])
    add("con-lattice", _cmd_con_lattice, "list all congruences", [algebra])
    add("close", _cmd_close, "apply a closure operator to a congruence",
        [operator, algebra, congruence])
    add("lift", _cmd_lift, "does a map send one congruence into another?",
        hom + [("--source", {"required": True, "help": "congruence on the domain"}),
               ("--target", {"required": True, "help": "congruence on the codomain"})])
    add("push", _cmd_push, "image congruence along a surjection", hom + [congruence])
    add("pull", _cmd_pull, "preimage congruence along a map", hom + [congruence])
    add("reflect", _cmd_reflect, "reflection quotient under a closure operator",
        [operator, algebra])
    add("check-operator", _cmd_check_operator, "operator axiom report over a corpus",
        [builtin, corpus_flag, max_size])
    add("roundtrip", _cmd_roundtrip, "closure/reflector round-trip check",
        [builtin, corpus_flag, max_size])
    add("birkhoff", _cmd_birkhoff, "minimality vs quotient-closure equivalence",
        [builtin, corpus_flag, max_size])
    add("antitone", _cmd_antitone, "operator order vs subcategory inclusion",
        [builtin, ("--operator2", {"required": True, "help": f"second operator, {builtins}"}),
         corpus_flag, max_size])
    add("corpus", _cmd_corpus, "emit the corpus manifest", [corpus_flag, max_size])
    add("verify-all", _cmd_verify_all, "run the full theorem suite on a corpus",
        [corpus_flag, max_size])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CongformError as exc:
        failure = isinstance(exc, CheckFailure)
        _say(("check failed" if failure else "input error" if isinstance(exc, InputError)
              else "error") + f": {exc}")
        _emit({"error": type(exc).__name__, "message": str(exc), "witness": exc.witness})
        return 1 if failure else 2


if __name__ == "__main__":
    raise SystemExit(main())
