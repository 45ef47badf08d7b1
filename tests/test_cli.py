import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tgs.analysis import analyze
from tgs.cli import _parser, cmd_analyze, main
from tgs.core import (InputError, _json_text, dumps_structure, parse_structure,
                      structure_from_bytes, structure_to_dict)
from tgs.enumeration import classify
from tgs.fixtures import CLAIMED, DERIVED
from tgs.ideals import lattice_dot
from tgs.spectrum import spectrum_dot


@pytest.fixture
def order6(monkeypatch):
    """M6 has order 6, one above the default cap of the exhaustive commands
    (analyze, export, verify --suite all); raise the cap to take it."""
    monkeypatch.setenv("TGS_MAX_ORDER", "6")


def _write(tmp_path, name, s):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps_structure(s))
    return str(path)


def test_classify_stdout_and_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["classify", "--order", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "classification order=2 gamma=1" in text
    assert "claimed" in text and "MISMATCH" in text
    files = sorted(os.listdir(out))
    assert files == ["report.json", "report.txt",
                     "structure_000.json", "structure_001.json",
                     "structure_002.json", "structure_003.json"]
    assert (out / "report.txt").read_text() == text
    doc = json.loads((out / "report.json").read_text())
    assert doc["structure_count"] == 4
    assert len(doc["structures"]) == 4


def test_classify_report_identical_across_jobs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["classify", "--order", "3", "--out", str(a)]) == 0
    assert main(["classify", "--order", "3", "--jobs", "4",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def _tree_digest(path) -> tuple:
    """(file count, sha256 of the manifest) of a directory: the manifest has
    one line "<sha256 of the file>  <name>" per file, by name, as printed by
    `sha256sum *` there."""
    names = sorted(os.listdir(path))
    lines = "".join(f"{hashlib.sha256((path / f).read_bytes()).hexdigest()}  {f}\n"
                    for f in names)
    return len(names), hashlib.sha256(lines.encode()).hexdigest()


# every file `tgs classify --out` writes (report.json, report.txt and each
# structure file), frozen from the release before per-monoid summaries
CLASSIFY_TREES = {
    (3, 1): (21, "81a46e17ab4e19925e319a94cf1c7588fefca92ddacbca9b8f2c1445424a74d5"),
    (4, 1): (177, "b6e4c56e942fa0571fc14477f0d66f7b29e37c58f6f1942555e08e79d78fe71a"),
    (2, 2): (18, "0374229c70f35d4fda081318d1c1682b00d6dec1fa1af49dfa4ec471cac3cf2a"),
    (3, 2): (177, "4be00da7b1e385d2f0fca234718ba16fcd8a6d60b091f24553c0cfce1deb6560"),
}


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("n, m", sorted(CLASSIFY_TREES))
def test_classify_files_frozen(tmp_path, capsys, n, m, jobs):
    out = tmp_path / "out"
    assert main(["classify", "--order", str(n), "--gamma", str(m),
                 "--jobs", str(jobs), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (out / "report.txt").read_text()
    assert _tree_digest(out) == CLASSIFY_TREES[(n, m)]


def test_classify_refuses_a_directory_with_earlier_output(tmp_path, capsys,
                                                          monkeypatch):
    out = tmp_path / "out"
    assert main(["classify", "--order", "3", "--out", str(out)]) == 0
    before = _tree_digest(out)
    assert before == CLASSIFY_TREES[(3, 1)]

    def no_search(*args, **kwargs):
        raise AssertionError("search started")

    monkeypatch.setattr("tgs.cli.classify", no_search)
    capsys.readouterr()
    # a smaller run into the same directory would leave 15 stale files
    assert main(["classify", "--order", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {out} already holds classify output"
                            " (report.json); give an empty or new directory\n")
    assert _tree_digest(out) == before
    # one structure file is enough; other files do not count
    (out / "report.json").unlink()
    (out / "report.txt").unlink()
    for f in out.glob("structure_*.json"):
        if f.name != "structure_007.json":
            f.unlink()
    (out / "notes.txt").write_text("kept\n")
    assert main(["classify", "--order", "2", "--out", str(out)]) == 1
    assert "(structure_007.json)" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["notes.txt", "structure_007.json"]
    monkeypatch.undo()
    (out / "structure_007.json").unlink()
    assert main(["classify", "--order", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(os.listdir(out)) == 7


def test_analyze_text(tmp_path, capsys, order6):
    path = _write(tmp_path, "m6", DERIVED["M6"])
    assert main(["analyze", path]) == 0
    text = capsys.readouterr().out
    assert "axioms: pass" in text
    assert "jacobson radical: {0} (semisimple)" in text
    assert "[pass] crt-for-comaximal-maximals" in text
    assert "[FAIL] idempotent-count-equals-component-count" in text


def test_analyze_json(tmp_path, capsys, order6):
    path = _write(tmp_path, "m6", DERIVED["M6"])
    dest = tmp_path / "report.json"
    assert main(["analyze", path, "--format", "json",
                 "--out", str(dest)]) == 0
    capsys.readouterr()
    doc = json.loads(dest.read_text())
    assert doc["kind"] == "analysis"
    assert doc["structure"]["order"] == 6
    assert doc["jacobson"]["semisimple"] is True
    assert [c["name"] for c in doc["suite"]["asserted"]]


def test_analyze_axiom_failure_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "add3", CLAIMED["add3"])
    assert main(["analyze", path]) == 3
    text = capsys.readouterr().out
    assert "analysis skipped" in text or "FAIL" in text


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/no/such/file.json"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["analyze", str(path)]) == 1
    assert "invalid JSON at line 1 column 2" in capsys.readouterr().err


def test_verify_single_file_codes(tmp_path, capsys, order6):
    ok = _write(tmp_path, "m6", DERIVED["M6"])
    assert main(["verify", ok]) == 0

    broken = _write(tmp_path, "n3", DERIVED["N3"])
    assert main(["verify", broken]) == 4
    text = capsys.readouterr().out
    assert "[FAIL] maximal-implies-prime" in text
    assert "([0, 2], [1, 1, 1, 0, 0])" in text

    claimed = _write(tmp_path, "add3", CLAIMED["add3"])
    assert main(["verify", claimed]) == 3
    text = capsys.readouterr().out
    assert "axioms FAIL" in text
    assert "distributivity-0 at (0, 0, 0, 1, 0, 0)" in text
    assert "absorbing-zero at (0, 0, 1, 0, 0)" in text


def test_verify_axioms_suite_skips_theorems(tmp_path, capsys):
    path = _write(tmp_path, "n3", DERIVED["N3"])
    assert main(["verify", path, "--suite", "axioms"]) == 0
    assert "maximal-implies-prime" not in capsys.readouterr().out
    # "all" is the only suite beyond the axioms
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--suite", "theorems"])
    assert exc.value.code == 1


def test_verify_directory_severity(tmp_path, capsys, order6):
    _write(tmp_path, "a_m6", DERIVED["M6"])
    _write(tmp_path, "b_n3", DERIVED["N3"])
    assert main(["verify", str(tmp_path)]) == 4
    _write(tmp_path, "c_add3", CLAIMED["add3"])
    assert main(["verify", str(tmp_path)]) == 3
    capsys.readouterr()


def test_verify_directory_goes_past_malformed_file(tmp_path, capsys, order6):
    for i, s in enumerate(DERIVED.values()):
        _write(tmp_path, f"s{i}", s)
    text = dumps_structure(DERIVED["B2"])
    (tmp_path / "s0a.json").write_text(text[:len(text) // 2])
    # the input error outranks the assertion failure of N3
    assert main(["verify", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    for i in range(len(DERIVED)):
        assert f"s{i}.json: axioms pass" in out
    assert err.startswith(f"error: {tmp_path / 's0a.json'}: invalid JSON")
    assert err.count("error:") == 1


def test_malformed_structure_exits_1_without_traceback(tmp_path, capsys):
    doc = json.loads(dumps_structure(DERIVED["B2"]))
    # a huge gamma is refused by its key count before any key is built
    texts = [json.dumps(dict(doc, **{key: value})).encode()
             for key, value in (("addition", 3), ("names", 5), ("order", True),
                                ("gamma", 300), ("gamma", 10 ** 9))]
    # not UTF-8, and nested beyond the parser's recursion limit
    texts += [b"\xff\xfe" + texts[0], b"[" * 200000]
    for i, text in enumerate(texts):
        folder = tmp_path / f"bad_{i}"
        folder.mkdir()
        path = folder / "structure.json"
        path.write_bytes(text)
        for argv in (["analyze", str(path)], ["verify", str(folder)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "Traceback" not in err
            assert len(err) < len(str(path)) + 200


def _malformed_documents(rng, doc, count):
    """count seeded corruptions of the structure document doc: a wrong shape
    or order, a bool or float entry, a missing key, or names of the wrong
    length."""
    n = doc["order"]
    out = []
    while len(out) < count:
        bad = json.loads(json.dumps(doc))
        key = rng.choice(sorted(bad["ternary"]))
        cube = bad["ternary"][key]
        kind = rng.randrange(8)
        if kind == 0:  # a row one entry short or long
            row = rng.choice(bad["addition"] + [rng.choice(rng.choice(cube))])
            if rng.random() < 0.5:
                row.append(0)
            else:
                row.pop()
        elif kind == 1:  # a table one row or plane short
            rng.choice([bad["addition"], cube, rng.choice(cube)]).pop()
        elif kind == 2:  # a list replaced by a scalar
            plane = rng.choice(cube)
            plane[rng.randrange(n)] = rng.choice([0, "0", None])
        elif kind == 3:  # an order that does not match the tables
            bad["order"] = rng.choice([n - 1, n + 1, 256, 0, -1])
        elif kind == 4:  # a bool or float entry
            row = rng.choice(bad["addition"] + [rng.choice(rng.choice(cube))])
            i = rng.randrange(n)
            row[i] = rng.choice([True, False, float(row[i]), 0.5])
        elif kind == 5:  # a bool or float order or gamma
            bad[rng.choice(["order", "gamma"])] = rng.choice([True, 1.0, 2.0])
        elif kind == 6:  # a missing key, at the top or among the cubes
            if rng.random() < 0.3:
                del bad["ternary"][key]
            else:
                del bad[rng.choice(["order", "gamma", "addition", "ternary"])]
        else:  # names of the wrong length
            bad["names"] = [str(i) for i in range(rng.choice([1, n - 1, n + 1]))]
        out.append(bad)
    return out


def test_loader_fuzz_raises_input_error_and_exits_1(tmp_path, capsys):
    rng = random.Random(20261018)
    docs = []
    for s in (DERIVED["M3"], DERIVED["M4"]):
        docs += _malformed_documents(rng, json.loads(dumps_structure(s)), 40)
    s22 = json.loads(dumps_structure(DERIVED["B2"]))
    s22["gamma"] = 2
    s22["ternary"] = {f"{al},{be}": s22["ternary"]["0,0"]
                      for al in range(2) for be in range(2)}
    parse_structure(json.dumps(s22))  # the uncorrupted document loads
    docs += _malformed_documents(rng, s22, 40)
    for i, doc in enumerate(docs):
        text = json.dumps(doc)
        with pytest.raises(InputError):
            parse_structure(text)
        path = tmp_path / f"bad_{i}.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1, doc
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_structure_bytes_of_every_length_near_the_expected():
    rng = random.Random(7)
    # the two short encodings that reach the nesting with a zero dimension
    for data in (bytes([0, 1]), bytes([2, 0, 0, 1, 1, 0])):
        with pytest.raises(InputError):
            structure_from_bytes(data)
    for n, m in ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (2, 1),
                 (3, 1), (2, 2)):
        need = 2 + n * n + m * m * n ** 3
        for length in range(max(0, need - 4), need + 5):
            data = bytes([n, m] + [rng.randrange(max(n, 1))
                                   for _ in range(length - 2)])[:length]
            if length == need and n and m:
                assert structure_from_bytes(data).order == n
                continue
            with pytest.raises(InputError):
                structure_from_bytes(data)


def test_verify_empty_directory(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 1
    assert "no structure files" in capsys.readouterr().err


def test_verify_missing_target(capsys):
    assert main(["verify", "/no/such/thing"]) == 1
    capsys.readouterr()


def test_verify_fixtures_report(capsys):
    assert main(["verify", "fixtures"]) == 0
    text = capsys.readouterr().out
    assert "fixture M6 (order 6):" in text
    assert ("idempotent-count-equals-component-count: 1 discrepancies,"
            " first: ([0, 1, 2, 3, 4, 5], 2)") in text
    assert "collisions: 1 of 4 congruences" in text  # L3
    assert "collisions: 1 of 3 congruences" in text  # N3
    assert "add3-axioms" in text and "refuted" in text
    assert "'law': 'absorbing-zero'" in text
    assert "add4-not-semisimple" in text and "confirmed" in text
    assert "not-evaluable" in text


def test_export_targets(tmp_path, capsys, order6):
    m6 = _write(tmp_path, "m6", DERIVED["M6"])
    assert main(["export", m6, "--target", "ideals"]) == 0
    assert capsys.readouterr().out == lattice_dot(DERIVED["M6"])

    m3 = _write(tmp_path, "m3", DERIVED["M3"])
    dest = tmp_path / "spec.dot"
    assert main(["export", m3, "--target", "spec", "--out", str(dest)]) == 0
    capsys.readouterr()
    assert dest.read_text() == spectrum_dot(DERIVED["M3"])
    assert dest.read_text() == (
        'digraph spectrum {\n  rankdir=BT;\n  p0 [label="{0}"];\n}\n')


def test_export_byte_stable(tmp_path, capsys, order6):
    m6 = _write(tmp_path, "m6", DERIVED["M6"])
    outs = []
    for _ in range(2):
        assert main(["export", m6, "--target", "ideals"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_bad_flags_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # missing required --order
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["export", "x.json", "--target", "nonsense"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_resource_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TGS_MAX_ORDER", "2")
    assert main(["classify", "--order", "3"]) == 2
    assert "TGS_MAX_ORDER" in capsys.readouterr().err

    # the exhaustive commands refuse an order above the cap; the axiom
    # check is polynomial and takes any order
    monkeypatch.delenv("TGS_MAX_ORDER")
    path = _write(tmp_path, "m6", DERIVED["M6"])
    exhaustive = (["analyze", path], ["export", path, "--target", "spec"],
                  ["verify", path], ["verify", str(tmp_path)])
    for argv in exhaustive:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: order 6 exceeds cap 5"
                       " (set TGS_MAX_ORDER to raise)\n")
    assert main(["verify", path, "--suite", "axioms"]) == 0
    monkeypatch.setenv("TGS_MAX_ORDER", "6")
    for argv in exhaustive:
        assert main(argv) == 0
    capsys.readouterr()


def test_json_writer_bytes_equal_the_stdlib_on_every_cli_document(corpus_reps):
    # the documents the CLI writes: analyze reports of the corpus, then the
    # classify report.json and structure files of each shape it covers
    docs = [analyze(s) for reps in corpus_reps.values() for s in reps]
    for n, m in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2)):
        report = classify(n, m)
        docs.append(report.to_dict())
        docs.extend(structure_to_dict(s) for s in report.representatives)
    for doc in docs:
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _outcome(run, argv, tmp_path):
    """(exit code, stdout, stderr, {file name: bytes} under tmp_path) of run(argv),
    from a tmp_path emptied first."""
    for path in sorted(tmp_path.rglob("*"), reverse=True):
        path.rmdir() if path.is_dir() else path.unlink()
    code, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv])
    files = {str(p.relative_to(tmp_path)): p.read_bytes()
             for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    return code, out, err, files


def test_one_parser_serves_every_call_as_a_fresh_process(tmp_path, capsys):
    structure = tmp_path / "l3.json"
    structure.write_text(dumps_structure(DERIVED["L3"]))
    calls = [["classify", "--order", "3", "--out", "{tmp}/corpus"],
             ["analyze", str(structure), "--format", "json"],
             ["analyze", str(structure), "--format", "json",
              "--out", "{tmp}/a.json"],
             ["analyze", "--bogus", str(structure)],
             ["analyze", str(structure)]]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(argv):
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-m", "tgs", *argv], env=env,
                              capture_output=True, text=True, check=False)
        return done.returncode, done.stdout, done.stderr

    work = tmp_path / "work"
    work.mkdir()
    together = [_outcome(in_process, argv, work) for argv in calls]
    alone = [_outcome(fresh, argv, work) for argv in calls]
    assert [outcome[0] for outcome in together] == [0, 0, 0, 1, 0]
    assert together == alone
    # each parse starts from the defaults, whatever the call before it set
    assert vars(_parser().parse_args(["analyze", str(structure)])) == {
        "command": "analyze", "file": str(structure), "format": "text",
        "out": None, "func": cmd_analyze}


def test_import_leaves_multiprocessing_unloaded():
    # classify imports its pool only when it starts one; every other start
    # of the CLI skips those imports
    code = ("import sys, tgs, tgs.cli; "
            "print('multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.stdout == "False\n"
