import argparse
import itertools
import json

import pytest

from congform import BUILTIN_OPERATOR_NAMES, algebra_to_json, cyclic_group, cyclic_rng
from congform.cli import build_parser, main
from congform.instances import CORPUS_KINDS, corpus_operators

from oracles import trivial_quandle


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, a in [
        ("z8-rng", cyclic_rng(8)),
        ("z4-group", cyclic_group(4)),
        ("z8-group", cyclic_group(8)),
        ("z2-group", cyclic_group(2)),
        ("tq3", trivial_quandle(3)),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(algebra_to_json(a)))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(files, capsys):
    code, out, err = run(capsys, "validate", "--algebra", files["z4-group"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["algebra"]["size"] == 4


def test_validate_axiom_violation_exits_1(tmp_path, capsys):
    t = [[x for _ in range(3)] for x in range(3)]
    t[0][0] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "size": 3,
        "signature": [{"name": "lhd", "arity": 2}, {"name": "lhd_inv", "arity": 2}],
        "tables": {"lhd": t, "lhd_inv": t},
        "tag": "quandle",
    }))
    code, out, err = run(capsys, "validate", "--algebra", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "AxiomViolation"
    assert "a ◁ a = a" in doc["message"]


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, _ = run(capsys, "validate", "--algebra", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "InputError"


def test_directory_as_algebra_file_exits_2(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", "--algebra", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == "InputError"


def test_non_utf8_algebra_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"size": 1, "tag": "caf\xe9"}')
    code, out, _ = run(capsys, "validate", "--algebra", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "InputError"


@pytest.mark.parametrize("command,flags", [
    ("check-operator", ["--operator", "identity"]),
    ("roundtrip", ["--operator", "identity"]),
    ("birkhoff", ["--operator", "identity"]),
    ("antitone", ["--operator", "identity", "--operator2", "top"]),
    ("corpus", []),
    ("verify-all", []),
])
def test_max_size_zero_exits_2(capsys, command, flags):
    code, out, _ = run(capsys, command, *flags, "--corpus", "groups", "--max-size", "0")
    assert code == 2
    assert json.loads(out)["error"] == "OutOfRange"


@pytest.mark.parametrize("tag", [[1], {}], ids=["tag-is-a-list", "tag-is-an-object"])
def test_non_string_tag_exits_2(files, tmp_path, capsys, tag):
    with open(files["tq3"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["tag"] = tag
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", "--algebra", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "UnknownTag"


def _z2_doc(signature):
    return {"size": 2, "signature": signature,
            "tables": {"f": [[0, 1], [1, 0]]}}


@pytest.mark.parametrize("signature", [
    [{"name": "f", "arity": "x"}],
    [{"name": "f", "arity": 2}, {"name": "f", "arity": 2}],
], ids=["arity-not-an-integer", "duplicate-names"])
def test_malformed_signature_exits_2(tmp_path, capsys, signature):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(_z2_doc(signature)))
    code, out, _ = run(capsys, "validate", "--algebra", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "SignatureShape"


@pytest.mark.parametrize("doc", [
    {"entries": [{"closure": [[0, 2], [1, 3]]}]},
    [{"congruence": [], "closure": []}],
], ids=["entry-without-congruence", "file-is-a-list"])
def test_malformed_operator_file_exits_2(files, tmp_path, capsys, doc):
    opfile = tmp_path / "op.json"
    opfile.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "close", "--operator", str(opfile),
                       "--algebra", files["z4-group"], "--congruence", "[]")
    assert code == 2
    assert json.loads(out)["error"] == "OperatorFileShape"


@pytest.mark.parametrize("command", ["close", "reflect"])
def test_operator_file_name_not_a_string_exits_2(files, tmp_path, capsys, command):
    opfile = tmp_path / "op.json"
    opfile.write_text(json.dumps({
        "name": ["x"],
        "entries": [{"congruence": [[0], [1], [2], [3]], "closure": [[0, 1, 2, 3]]},
                    {"congruence": [[0, 2], [1, 3]], "closure": [[0, 1, 2, 3]]},
                    {"congruence": [[0, 1, 2, 3]], "closure": [[0, 1, 2, 3]]}],
    }))
    extra = ["--congruence", "[]"] if command == "close" else []
    code, out, _ = run(capsys, command, "--operator", str(opfile),
                       "--algebra", files["z4-group"], *extra)
    assert code == 2
    assert json.loads(out)["error"] == "OperatorFileShape"


def test_bare_integer_block_exits_2(files, capsys):
    code, out, _ = run(capsys, "close", "--operator", "abelianization",
                       "--algebra", files["z4-group"], "--congruence", "[1]")
    assert code == 2
    assert json.loads(out)["error"] == "NotACongruence"


@pytest.mark.parametrize("mapping", ['[0,1,"x",1]', "[0,1,0.5,1]", "[0,1,true,1]"],
                         ids=["string-entry", "float-entry", "bool-entry"])
def test_non_integer_map_entry_exits_2(files, capsys, mapping):
    code, out, _ = run(capsys, "pull", "--dom", files["z4-group"], "--cod", files["z4-group"],
                       "--map", mapping, "--congruence", "[]")
    assert code == 2
    assert json.loads(out)["error"] == "OutOfRange"


_DEEP = "[" * 5000 + "]" * 5000  # nested past the JSON decoder's recursion limit


@pytest.mark.parametrize("where", ["algebra-file", "congruence", "map", "operator-file"])
def test_deeply_nested_json_exits_2(files, tmp_path, capsys, where):
    deep_file = tmp_path / "deep.json"
    deep_file.write_text(_DEEP)
    z4 = files["z4-group"]
    argv = {
        "algebra-file": ["validate", "--algebra", str(deep_file)],
        "congruence": ["close", "--operator", "identity", "--algebra", z4, "--congruence", _DEEP],
        "map": ["pull", "--dom", z4, "--cod", z4, "--map", _DEEP, "--congruence", "[]"],
        "operator-file": ["close", "--operator", str(deep_file), "--algebra", z4,
                          "--congruence", "[]"],
    }[where]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "InputError"
    assert "Traceback" not in err


def test_non_extensive_operator_file_exits_1(files, tmp_path, capsys):
    opfile = tmp_path / "op.json"
    opfile.write_text(json.dumps({
        "entries": [{"congruence": [[0, 1, 2, 3]], "closure": []}],
    }))
    code, out, _ = run(capsys, "close", "--operator", str(opfile),
                       "--algebra", files["z4-group"], "--congruence", "[[0,1,2,3]]")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "NotExtensive"
    assert doc["witness"] == {"entry": 0, "congruence": [[0, 1, 2, 3]],
                              "closure": [[0], [1], [2], [3]]}


def test_con_lattice(files, capsys):
    code, out, _ = run(capsys, "con-lattice", "--algebra", files["z4-group"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert [[0, 2], [1, 3]] in doc["congruences"]


def test_close_nilradical(files, capsys):
    code, out, _ = run(capsys, "close", "--operator", "nilradical",
                       "--algebra", files["z8-rng"], "--congruence", "[[0]]")
    assert code == 0
    assert json.loads(out) == [[0, 2, 4, 6], [1, 3, 5, 7]]


def test_close_output_is_byte_stable(files, capsys):
    args = ("close", "--operator", "nilradical",
            "--algebra", files["z8-rng"], "--congruence", "[[0]]")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_close_wrong_tag_exits_2(files, capsys):
    code, out, _ = run(capsys, "close", "--operator", "nilradical",
                       "--algebra", files["z4-group"], "--congruence", "[[0]]")
    assert code == 2
    assert json.loads(out)["error"] == "NotRng"


def test_close_with_operator_file(files, tmp_path, capsys):
    opfile = tmp_path / "op.json"
    opfile.write_text(json.dumps({
        "name": "swap-free",
        "entries": [{"congruence": [[0], [1], [2], [3]], "closure": [[0, 2], [1, 3]]},
                    {"congruence": [[0, 2], [1, 3]], "closure": [[0, 2], [1, 3]]},
                    {"congruence": [[0, 1, 2, 3]], "closure": [[0, 1, 2, 3]]}],
    }))
    code, out, _ = run(capsys, "close", "--operator", str(opfile),
                       "--algebra", files["z4-group"], "--congruence", "[]")
    assert code == 0
    assert json.loads(out) == [[0, 2], [1, 3]]


@pytest.mark.parametrize("command", ["close", "reflect"])
def test_operator_file_missing_a_congruence_exits_2(files, tmp_path, capsys, command):
    # Con(Z4) is the chain diagonal < {0,2}{1,3} < full; the file skips the middle.
    opfile = tmp_path / "op.json"
    opfile.write_text(json.dumps({
        "entries": [{"congruence": [[0], [1], [2], [3]], "closure": [[0, 1, 2, 3]]},
                    {"congruence": [[0, 1, 2, 3]], "closure": [[0, 1, 2, 3]]}],
    }))
    extra = ["--congruence", "[]"] if command == "close" else []
    code, out, _ = run(capsys, command, "--operator", str(opfile),
                       "--algebra", files["z4-group"], *extra)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "OperatorFileIncomplete"
    assert doc["witness"] == {"congruence": [[0, 2], [1, 3]]}


def test_lift(files, capsys):
    code, out, _ = run(capsys, "lift",
                       "--dom", files["z8-group"], "--cod", files["z4-group"],
                       "--map", "[0,1,2,3,0,1,2,3]",
                       "--source", "[[0,4],[1,5],[2,6],[3,7]]",
                       "--target", "[]")
    assert code == 0 and json.loads(out) == {"lifts": True}
    code, out, _ = run(capsys, "lift",
                       "--dom", files["z8-group"], "--cod", files["z4-group"],
                       "--map", "[0,1,2,3,0,1,2,3]",
                       "--source", "[[0,2,4,6],[1,3,5,7]]",
                       "--target", "[]")
    assert code == 0 and json.loads(out) == {"lifts": False}


def test_push_and_pull(files, capsys):
    code, out, _ = run(capsys, "push",
                       "--dom", files["z8-group"], "--cod", files["z4-group"],
                       "--map", "[0,1,2,3,0,1,2,3]",
                       "--congruence", "[[0,2,4,6],[1,3,5,7]]")
    assert code == 0 and json.loads(out) == [[0, 2], [1, 3]]
    code, out, _ = run(capsys, "pull",
                       "--dom", files["z8-group"], "--cod", files["z4-group"],
                       "--map", "[0,1,2,3,0,1,2,3]",
                       "--congruence", "[[0,2],[1,3]]")
    assert code == 0 and json.loads(out) == [[0, 2, 4, 6], [1, 3, 5, 7]]


def test_push_requires_surjection(files, capsys):
    code, out, _ = run(capsys, "push",
                       "--dom", files["z2-group"], "--cod", files["z4-group"],
                       "--map", "[0,2]", "--congruence", "[]")
    assert code == 2
    assert json.loads(out)["error"] == "NotInE"


def test_reflect(files, capsys):
    code, out, _ = run(capsys, "reflect", "--operator", "nilradical",
                       "--algebra", files["z8-rng"])
    assert code == 0
    doc = json.loads(out)
    assert doc["congruence"] == [[0, 2, 4, 6], [1, 3, 5, 7]]
    assert doc["member"] is False
    assert doc["quotient"]["size"] == 2


def test_check_operator(files, capsys):
    code, out, _ = run(capsys, "check-operator", "--operator", "quandle",
                       "--corpus", "quandles", "--max-size", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["idempotent"] and doc["cohereditary"] and doc["minimal"]


def test_roundtrip_command(capsys):
    code, out, _ = run(capsys, "roundtrip", "--operator", "abelianization",
                       "--corpus", "groups", "--max-size", "6")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_birkhoff_command(capsys):
    code, out, _ = run(capsys, "birkhoff", "--operator", "nilradical",
                       "--corpus", "rngs", "--max-size", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True


def test_antitone_command(capsys):
    code, out, _ = run(capsys, "antitone", "--operator", "abelianization",
                       "--operator2", "exp2-abelianization",
                       "--corpus", "groups", "--max-size", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert set(doc["subcategory_second"]) < set(doc["subcategory_first"])


@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_roundtrip_and_antitone_commands_match_verify_all(capsys, kind):
    # both commands run one entry of the theorem table, as verify-all does
    _, out, _ = run(capsys, "verify-all", "--corpus", kind)
    theorems = json.loads(out)["theorems"]
    names = corpus_operators(kind)
    for name in names:
        _, out, _ = run(capsys, "roundtrip", "--operator", name, "--corpus", kind)
        doc = json.loads(out)
        assert {"closure": doc["closure_roundtrip"], "reflector": doc["reflector_roundtrip"]} \
            == theorems["roundtrip_identities"]["operators"][name]
    for a, b in itertools.permutations(names, 2):
        _, out, _ = run(capsys, "antitone", "--operator", a, "--operator2", b, "--corpus", kind)
        assert json.loads(out)["check"] == theorems["antitone_order"]["pairs"][f"{a} / {b}"]


def test_corpus_command_and_report_flag(tmp_path, capsys):
    report = tmp_path / "manifest.json"
    code, out, _ = run(capsys, "corpus", "--corpus", "quandles", "--max-size", "3",
                       "--report", str(report))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["algebras"]) == 5
    assert json.loads(report.read_text()) == doc


@pytest.mark.parametrize("command,flags", [
    ("corpus", ("--corpus", "groups", "--max-size", "2")),
    ("verify-all", ("--corpus", "quandles", "--max-size", "2")),
])
def test_unwritable_report_path_exits_2(tmp_path, capsys, command, flags):
    report = tmp_path / "no-such-dir" / "x.json"
    code, out, _ = run(capsys, command, *flags, "--report", str(report))
    assert code == 2
    doc = json.loads(out)  # the error document is all of stdout
    assert doc["error"] == "InputError"
    assert str(report) in doc["message"]


def test_verify_all_quandles(capsys):
    code, out, err = run(capsys, "verify-all", "--corpus", "quandles",
                         "--max-size", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert set(doc["theorems"]) == {
        "axiom_suite", "minimality_pushout_equivalence", "roundtrip_identities",
        "birkhoff_equivalence", "antitone_order", "oracle_agreement",
    }
    assert err.count("PASS") == 7


def test_verify_all_over_the_size_limit_exits_2(capsys):
    code, out, err = run(capsys, "verify-all", "--corpus", "quandles", "--max-size", "9")
    assert code == 2
    assert json.loads(out)["error"] == "SizeTooLarge"
    assert err == "input error: corpus kind 'quandles' supports max_size <= 6\n"


def test_verify_all_output_is_byte_stable(capsys):
    args = ("verify-all", "--corpus", "quandles", "--max-size", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def operator_help(command: str) -> dict:
    """Help text of each operator flag of ``command``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a.help for a in sub.choices[command]._actions
            if a.option_strings and a.option_strings[0].startswith("--operator")}


@pytest.mark.parametrize("command", ["check-operator", "roundtrip", "birkhoff", "antitone"])
def test_corpus_commands_offer_only_builtin_operators(capsys, command, tmp_path):
    # these commands take no operator file, so their help lists only the built-ins
    for text in operator_help(command).values():
        assert "file" not in text
        assert text.endswith("one of " + ", ".join(BUILTIN_OPERATOR_NAMES))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "file" not in " ".join(capsys.readouterr().out.split())
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"entries": []}))
    second = ["--operator2", "top"] if command == "antitone" else []
    code, out, _ = run(capsys, command, "--operator", str(path), *second, "--corpus", "groups")
    assert code == 2
    assert "unknown operator" in json.loads(out)["message"]


@pytest.mark.parametrize("command", ["close", "reflect"])
def test_single_algebra_commands_offer_operator_files(command):
    assert operator_help(command)["--operator"].endswith("or a path to an operator table file")


def test_operator_corpus_mismatch_exits_2(capsys):
    code, out, _ = run(capsys, "check-operator", "--operator", "nilradical",
                       "--corpus", "groups", "--max-size", "4")
    assert code == 2
    assert json.loads(out)["error"] == "NotRng"


def test_module_entry_point(files):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "congform", "validate", "--algebra", files["z4-group"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_validate_prints_a_high_arity_algebra(tmp_path):
    # The table of an arity-900 operation nests 900 lists deep: reading it
    # back into nested lists must not recurse once per level.  Run in a
    # subprocess, since the indenting JSON encoder recurses once per level
    # and pytest's own stack depth would add to it.
    import subprocess
    import sys

    table = 0
    for _ in range(900):
        table = [table]
    doc = {"size": 1, "signature": [{"name": "w", "arity": 900}], "tables": {"w": table},
           "tag": None}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "congform", "validate", "--algebra", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["algebra"] == doc
