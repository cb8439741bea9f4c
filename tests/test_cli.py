"""Command line interface, driven in-process through run()."""

import io
import json

import pytest

from kcdag.cli import run
from kcdag.cnf import format_dimacs, parse_dimacs
from kcdag.compiler import SCHEDULES, compile_cnf
from kcdag.diagram_io import deserialize, serialize
from kcdag.engine import KIND_TRUE, DiagramStore
from kcdag.families import chain_family, random_cnf
from kcdag.ops import model_count
from kcdag.ordering import natural_order
from kcdag.store import INF


@pytest.fixture()
def cnf_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(format_dimacs(random_cnf(8, 16, seed=5)))
    return str(path)


def _compile(capsys, cnf_file, tmp_path, bound, name="d.kdag", extra=()):
    out = str(tmp_path / name)
    assert run(["compile", cnf_file, "--bound", bound, "-o", out,
                *extra]) == 0
    return out, json.loads(capsys.readouterr().out)


def test_compile_reports_and_writes(capsys, cnf_file, tmp_path):
    out, info = _compile(capsys, cnf_file, tmp_path, "1")
    assert set(info) == {"vertices", "edges", "ms", "interned"}
    assert info["vertices"] >= 1
    assert info["interned"] >= info["vertices"]
    text = open(out).read()
    assert text.startswith("kdag 1 ")
    assert text.split()[4] == "1"  # header records the bound


def test_compile_from_stdin(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_dimacs(chain_family(2, 0))))
    assert run(["compile", "-", "--bound", "inf",
                "-o", str(tmp_path / "c.kdag"), "--order", "natural"]) == 0
    json.loads(capsys.readouterr().out)


def test_compile_to_stdout_pipes_into_the_next_command(capsys, cnf_file,
                                                      monkeypatch):
    # `compile f.cnf -o - | count -`: the diagram alone goes to stdout, the
    # stats line to stderr
    assert run(["compile", cnf_file, "--bound", "1", "-o", "-"]) == 0
    captured = capsys.readouterr()
    store, root, bound = deserialize(captured.out)
    assert bound == 1
    info = json.loads(captured.err)
    assert info["vertices"] == store.vertex_count(root)
    monkeypatch.setattr("sys.stdin", io.StringIO(captured.out))
    assert run(["count", "-"]) == 0
    count = json.loads(capsys.readouterr().out)["models"]
    assert count == str(model_count(store, root, scope=store.order.vars))


def test_compile_matches_library(capsys, cnf_file, tmp_path):
    out, _ = _compile(capsys, cnf_file, tmp_path, "2", extra=("--order", "natural"))
    cnf = parse_dimacs(open(cnf_file).read())
    store, root = compile_cnf(cnf, 2, order=natural_order(cnf.num_vars))
    assert open(out).read() == serialize(store, root, 2)


def test_every_schedule_writes_the_same_diagram(capsys, cnf_file, tmp_path):
    texts = {
        open(_compile(capsys, cnf_file, tmp_path, "1", name=f"{s}.kdag",
                      extra=("--schedule", s))[0]).read()
        for s in SCHEDULES
    }
    assert len(texts) == 1


def test_count_and_enumerate(capsys, tmp_path):
    path = tmp_path / "eq.cnf"
    path.write_text(format_dimacs(chain_family(1, 0)))  # x1 <-> x2
    out = str(tmp_path / "eq.kdag")
    run(["compile", str(path), "--bound", "0", "-o", out])
    capsys.readouterr()

    assert run(["count", out]) == 0
    assert json.loads(capsys.readouterr().out) == {"models": "2"}

    assert run(["enumerate", out]) == 0
    assert capsys.readouterr().out == "-1 -2\n1 2\n"
    assert run(["enumerate", out, "--limit", "1"]) == 0
    assert capsys.readouterr().out == "-1 -2\n"
    assert run(["enumerate", out, "--limit", "0"]) == 0
    assert capsys.readouterr().out == ""
    assert run(["enumerate", out, "--limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_queries(capsys, cnf_file, tmp_path):
    out, _ = _compile(capsys, cnf_file, tmp_path, "1")
    other, _ = _compile(capsys, cnf_file, tmp_path, "0", name="d0.kdag")

    def ask(*argv):
        assert run(list(argv)) == 0
        return json.loads(capsys.readouterr().out)["result"]

    assert ask("query", "co", out) is True
    assert ask("query", "va", out) is False
    assert ask("query", "eq", out, other) is True
    assert ask("query", "se", out, other) is True
    assert ask("query", "ce", out, "--clause", "1 -1") is True
    assert isinstance(ask("query", "im", out, "--term", "1 2 3 4 5 6 7 8"), bool)
    assert run(["query", "ce", out]) == 1  # --clause missing
    assert "error:" in capsys.readouterr().err


def test_entailment_at_mixed_bounds(capsys, tmp_path):
    # interleaved pairs x_k <-> x_{12+k}: bounds 1 and inf meet at bound 1,
    # where each pair is a factor; at bound 0 both would be exponential
    full = chain_family(12, 0)
    weak = chain_family(12, 0)
    weak.clauses.pop()
    paths = {}
    for name, cnf in (("full", full), ("weak", weak)):
        src = tmp_path / f"{name}.cnf"
        src.write_text(format_dimacs(cnf))
        for bound in ("1", "inf"):
            paths[name, bound] = _compile(capsys, str(src), tmp_path, bound,
                                          name=f"{name}{bound}.kdag",
                                          extra=("--order", "natural"))[0]

    def se(a, b):
        assert run(["query", "se", paths[a], paths[b]]) == 0
        return json.loads(capsys.readouterr().out)["result"]

    assert se(("full", "1"), ("weak", "inf")) is True
    assert se(("full", "inf"), ("weak", "1")) is True
    assert se(("weak", "1"), ("full", "inf")) is False
    assert se(("full", "inf"), ("full", "1")) is True


def test_apply_roundtrip(capsys, cnf_file, tmp_path):
    out, _ = _compile(capsys, cnf_file, tmp_path, "1")
    neg = str(tmp_path / "neg.kdag")
    back = str(tmp_path / "back.kdag")
    assert run(["apply", "not", out, "-o", neg]) == 0
    assert run(["apply", "not", neg, "-o", back]) == 0
    assert open(back).read() == open(out).read()
    both = str(tmp_path / "both.kdag")
    assert run(["apply", "and", out, neg, "-o", both]) == 0
    with open(both) as fh:
        assert "F" in fh.read().splitlines()
    assert run(["apply", "or", out, neg, "-o", both, "--bound", "0"]) == 0
    assert "T" in open(both).read().splitlines()


def test_condition_forget_decompose_convert(capsys, cnf_file, tmp_path):
    out, _ = _compile(capsys, cnf_file, tmp_path, "0")
    cond = str(tmp_path / "cond.kdag")
    assert run(["condition", out, "--set", "1=true,2=false", "-o", cond]) == 0
    assert run(["query", "co", cond]) == 0
    capsys.readouterr()
    # the same value twice is allowed; two different values are an error
    assert run(["condition", out, "--set", "1=true,2=false,1=t", "-o", cond]) == 0
    assert run(["condition", out, "--set", "1=true,1=false", "-o", cond]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: variable 1 is set to both true and false"]

    gone = str(tmp_path / "gone.kdag")
    assert run(["forget", out, "--vars", "1,2", "-o", gone]) == 0

    up = str(tmp_path / "up.kdag")
    assert run(["decompose", out, "--bound", "inf", "-o", up]) == 0
    down = str(tmp_path / "down.kdag")
    assert run(["convert", up, "--bound", "0", "-o", down]) == 0
    assert open(down).read() == open(out).read()
    capsys.readouterr()


def test_validate_command(capsys, cnf_file, tmp_path):
    out, _ = _compile(capsys, cnf_file, tmp_path, "2")
    assert run(["validate", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["bound"] == "2"
    assert report["finest"] is True
    assert report["skipped"] == 0
    store, root, _ = deserialize(open(out).read())
    inner = [u for u in store.topological(root) if store.kind(u) > KIND_TRUE]
    assert report["exact_checked"] == len(inner) > 0

    # a bound-2 diagram with a 2-child conjunction is not canonical at 1
    store = DiagramStore(natural_order(4))
    xor12 = store.make_decision(1, store.literal(2), store.literal(2, False))
    xor34 = store.make_decision(3, store.literal(4), store.literal(4, False))
    conj = store.conjoin(xor12, xor34, 2)
    bad = tmp_path / "bad.kdag"
    bad.write_text(serialize(store, conj, 2))
    assert run(["validate", str(bad), "--bound", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["bounded"] is False
    assert run(["validate", str(bad), "--semantic-limit", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["finest"] == "skipped"
    assert (report["exact_checked"], report["skipped"]) == (0, 7)
    assert run(["validate", str(bad), "--semantic-limit", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["finest"] == "skipped"
    assert (report["exact_checked"], report["skipped"]) == (6, 1)
    # a negative limit would check nothing and pass: one error line instead
    assert run(["validate", str(bad), "--semantic-limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_stats_and_dot(capsys, cnf_file, tmp_path):
    out, _ = _compile(capsys, cnf_file, tmp_path, "inf")
    assert run(["stats", out]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["bound"] == "inf"
    assert stats["num_vars"] == 8
    assert run(["dot", out]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_gen_families(capsys, tmp_path):
    assert run(["gen", "chain", "--chains", "3", "--length", "1"]) == 0
    cnf = parse_dimacs(capsys.readouterr().out)
    assert cnf.num_vars == chain_family(3, 1).num_vars
    dest = tmp_path / "r.cnf"
    assert run(["gen", "random", "--vars", "6", "--clauses", "9",
                "--seed", "4", "-o", str(dest)]) == 0
    parsed = parse_dimacs(dest.read_text())
    assert parsed.num_vars == 6 and len(parsed.clauses) == 9
    assert run(["gen", "random", "--vars", "3", "--clauses", "-1"]) == 1


def test_errors(capsys, tmp_path):
    assert run(["compile", str(tmp_path / "missing.cnf"), "--bound", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 0\n")
    assert run(["compile", str(bad), "--bound", "-3"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        run(["compile"])  # missing required --bound
    with pytest.raises(SystemExit):
        run([])
    capsys.readouterr()
    # a 600-variable chain converts to bound 0 whatever its depth
    cnf = chain_family(1, 598, mode="all-equal")
    store, root = compile_cnf(cnf, 1, order=natural_order(cnf.num_vars))
    deep = tmp_path / "deep.kdag"
    deep.write_text(serialize(store, root, 1))
    down = tmp_path / "down.kdag"
    assert run(["convert", str(deep), "--bound", "0", "-o", str(down)]) == 0
    assert run(["count", str(down)]) == 0
    assert json.loads(capsys.readouterr().out) == {"models": "2"}
    assert run(["apply", "and", str(deep)]) == 1  # second diagram missing
    assert capsys.readouterr().err.startswith("error:")
    # input that is not UTF-8: one error line, no traceback
    binary = tmp_path / "binary.cnf"
    binary.write_bytes(b"p cnf 2 1\n\xff\xfe 1 0\n")
    assert run(["compile", str(binary), "--bound", "0"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
