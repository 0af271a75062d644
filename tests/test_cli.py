import json

import pytest

from dirlang import cli

NFA_TEXT = """\
alphabet: a b c d e f
states: 0 1 2 3
initial: 0
final: 2 3
0 a 0
0 b 0
0 c 1
1 d 1
1 e 1
1 eps 2
2 a 2
2 c 2
2 f 2
0 c 3
3 b 3
0 a 1
"""

K1_TEXT = "terminals: a b c\nstart: S\nS -> a b S a b | c\n"
TWO_WAY = ("alphabet: a b\nstates: 0 1 2\ninitial: 0\nfinal: 1 2\n"
           "0 a 1\n0 b 2\n1 a 1\n2 b 2\n")
AB_LOOP = "alphabet: a b\nstates: 0\ninitial: 0\nfinal: 0\n0 a 0\n0 b 0\n"
WORD_SLP = "terminals: a b\nstart: P2\nP0 -> a b\nP1 -> P0 P0\nP2 -> P1 P1\n"


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return put


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_directed_nfa_negative(files, capsys):
    f = files("a.nfa", NFA_TEXT)
    code, out, err = run(capsys, "directed", "nfa", f)
    assert code == 1
    assert out == ("not directed\n"
                   "candidate: {a,b}* c? {d,e}* {a,c,f}*\n"
                   "witness: cb\n")
    assert err == ""


def test_directed_nfa_positive(files, capsys):
    f = files("loop.nfa", AB_LOOP)
    code, out, _ = run(capsys, "directed", "nfa", f)
    assert code == 0
    assert out == "directed\ncandidate: {a,b}*\n"


def test_directed_cfg(files, capsys):
    f = files("k1.cfg", K1_TEXT)
    code, out, _ = run(capsys, "directed", "cfg", f)
    assert code == 0
    assert out == "directed\ncandidate: {a,b}* c? {a,b}*\n"


def test_directed_no_witness(files, capsys):
    f = files("a.nfa", NFA_TEXT)
    code, out, _ = run(capsys, "--no-witness", "directed", "nfa", f)
    assert code == 1
    assert "witness" not in out


def test_directed_json(files, capsys):
    f = files("a.nfa", NFA_TEXT)
    code, out, _ = run(capsys, "--json", "directed", "nfa", f)
    assert code == 1
    rec = json.loads(out)
    assert list(rec) == ["kind", "input", "directed", "candidate",
                         "witness", "probabilistic", "millis"]
    assert rec["kind"] == "directed"
    assert rec["directed"] is False
    assert rec["candidate"] == "{a,b}* c? {d,e}* {a,c,f}*"
    assert rec["witness"] == "cb"
    assert rec["probabilistic"] is False


def test_candidate_cfg(files, capsys):
    f = files("k1.cfg", K1_TEXT)
    code, out, _ = run(capsys, "candidate", "cfg", f)
    assert code == 0
    assert out == "{a,b}* c? {a,b}*\n"


def test_include_nfa_inline_rep(files, capsys):
    f = files("loop.nfa", AB_LOOP)
    code, out, _ = run(capsys, "include", "nfa", f, "--ideal", "{a,b}*")
    assert (code, out) == (0, "included\n")
    code, out, _ = run(capsys, "include", "nfa", f, "--ideal", "a?")
    assert (code, out) == (1, "not included\nwitness: b\n")


def test_include_cfg_witness(files, capsys):
    f = files("k1.cfg", K1_TEXT)
    code, out, _ = run(capsys, "include", "cfg", f, "--ideal", "c?")
    assert (code, out) == (1, "not included\nwitness: abcab\n")


def test_include_rejects_letter_slp(files, capsys):
    f = files("k1.cfg", K1_TEXT)
    prog = files("word.slp", WORD_SLP)
    code, out, err = run(capsys, "include", "cfg", f, "--ideal", prog)
    assert code == 2
    assert out == ""
    assert err == ("error: the ideal program must be over atoms; "
                   "'a' is a letter\n")


def test_count_and_decompose(files, capsys):
    f = files("a.nfa", NFA_TEXT)
    code, out, _ = run(capsys, "count-ideals", "nfa", f)
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "decompose", "nfa", f)
    assert (code, out) == (0, "{a,b}* c? {b}*\n{a,b}* c? {d,e}* {a,c,f}*\n")


def test_decompose_json_and_determinism(files, capsys):
    f = files("a.nfa", NFA_TEXT)
    code1, out1, _ = run(capsys, "decompose", "nfa", f)
    code2, out2, _ = run(capsys, "decompose", "nfa", f)
    assert out1 == out2 and code1 == code2 == 0
    _, jout, _ = run(capsys, "--json", "decompose", "nfa", f)
    rec = json.loads(jout)
    assert rec["candidate"] == ["{a,b}* c? {b}*", "{a,b}* c? {d,e}* {a,c,f}*"]
    assert rec["directed"] is None


def test_dce_nfa(files, capsys):
    big = files("big.nfa", AB_LOOP)
    small = files("small.nfa",
                  "alphabet: a b\nstates: 0 1\ninitial: 0\nfinal: 1\n"
                  "0 a 1\n1 b 0\n")
    code, out, _ = run(capsys, "dce", "nfa", big, small)
    assert (code, out) == (0, "equal\n")


def test_dce_rejects_undirected(files, capsys):
    f = files("two.nfa", TWO_WAY)
    code, out, err = run(capsys, "dce", "nfa", f, f)
    assert code == 2
    assert err.startswith("error:") and "directed" in err
    code, out, _ = run(capsys, "--assume-directed", "dce", "nfa", f, f)
    assert (code, out) == (0, "equal\n")


def test_dce_cfg_probabilistic_note(files, capsys):
    f = files("k1.cfg", K1_TEXT)
    code, out, _ = run(capsys, "dce", "cfg", f, f)
    assert code == 0
    assert out in ("equal\n", "equal (probabilistic)\n")
    _, jout, _ = run(capsys, "--json", "dce", "cfg", f, f)
    rec = json.loads(jout)
    assert rec["directed"] is True
    assert rec["probabilistic"] in (True, False)


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "{a}*", "a?", "b?", "{b}*", "a?")
    assert (code, out) == (0, "{a}* {b}* a?\n")


def test_complement_ideal(files, capsys):
    prog = files("word.slp", WORD_SLP)
    code, out, _ = run(capsys, "complement-ideal", "slp", prog)
    assert code == 0
    # (ab)^4 complement: alternating blocked stars, printed as a plain rep
    assert out.startswith("{b}* a? {a}* b?")
    assert out.count("a?") == 4 and out.count("b?") == 3


def test_transform_pad_eps(files, capsys):
    f = files("loop.nfa", AB_LOOP)
    code, out, _ = run(capsys, "transform", "pad-eps", "nfa", f)
    assert code == 0
    assert "#" in out.splitlines()[0]  # alphabet gains the pad letter


def test_transform_determinize(files, capsys):
    f = files("a.nfa", NFA_TEXT)
    code, out, _ = run(capsys, "transform", "determinize", "nfa", f)
    assert code == 0
    assert "eps" not in out


def test_oracle_directed_and_dcl(files, capsys):
    f = files("two.nfa", TWO_WAY)
    code, out, _ = run(capsys, "oracle", "directed", "nfa", f)
    assert (code, out) == (1, "not directed\n")
    code, out, _ = run(capsys, "oracle", "dcl", "nfa", f, "--bound", "2")
    assert code == 0
    assert out == "eps\na\nb\naa\nbb\n"


def test_oracle_decompose(files, capsys):
    f = files("two.nfa", TWO_WAY)
    code, out, _ = run(capsys, "oracle", "decompose", "nfa", f)
    assert (code, out) == (0, "{a}*\n{b}*\n")


def test_missing_file(capsys):
    code, out, err = run(capsys, "directed", "nfa", "/nonexistent/x.nfa")
    assert code == 2
    assert err.startswith("error:")


def test_bad_input_text(files, capsys):
    f = files("bad.nfa", "this is not an automaton\n")
    code, _, err = run(capsys, "directed", "nfa", f)
    assert code == 2
    assert err.startswith("error:")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_cap_exceeded_exit_code(files, capsys):
    f = files("a.nfa", NFA_TEXT)
    code, out, err = run(capsys, "--cap-enum", "1", "count-ideals", "nfa", f)
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap exceeded:")


def test_internal_error_exits_4(files, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "_run_directed", broken)
    f = files("a.nfa", AB_LOOP)
    code, out, err = run(capsys, "directed", "nfa", f)
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_count_ideals_deep_chain(files, capsys):
    # 3000 links: deeper than the recursion limit, one accepting path
    n = 3000
    text = ("alphabet: a b\nstates: " + " ".join(map(str, range(n + 1)))
            + f"\ninitial: 0\nfinal: {n}\n"
            + "".join(f"{i} {'ab'[i % 2]} {i + 1}\n" for i in range(n)))
    code, out, err = run(capsys, "count-ideals", "nfa", files("deep.nfa", text))
    assert (code, out, err) == (0, "1\n", "")
