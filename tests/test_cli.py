import contextlib
import hashlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from basilica import ConsistencyError, basilica, core, descent, norms, quotients, structure
from basilica.cli import main

from conftest import BASILICA_TEXT, D3_TEXT, EXPANDING_TEXT, fresh_interpreter, fresh_interpreter_output

GOLDEN = Path(__file__).with_name("golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_golden(capsys):
    code, out, _ = run(capsys, "eval", "ab")
    assert code == 0
    assert out == "word: ab\nroot: (0 1)\nsection 0: ba\nsection 1: e\n"


def test_eval_with_portrait(capsys):
    code, out, _ = run(capsys, "eval", "a", "--depth", "2")
    assert code == 0
    assert "portrait e: e" in out
    assert "portrait 1: (0 1)" in out


def test_eval_error_leaves_stdout_empty(tmp_path, capsys):
    assert run(capsys, "eval", "ab", "--depth", "-1") == (
        2, "", "parse error: portrait depth must be non-negative, got -1\n"
    )
    path = tmp_path / "eleven.txt"
    path.write_text("alphabet 11\ngen a perm=1,2,3,4,5,6,7,8,9,10,0 sections=a,e,e,e,e,e,e,e,e,e,e\n")
    too_wide = "parse error: string vertices only supported for alphabets up to 10\n"
    assert run(capsys, "eval", "a", "--system", str(path), "--depth", "2") == (2, "", too_wide)
    assert run(capsys, "portrait", "a", "--system", str(path), "--depth", "3") == (2, "", too_wide)
    assert run(capsys, "portrait", "a", "--system", str(path), "--depth", "1") == (
        0, "e\t(0 1 2 3 4 5 6 7 8 9 10)\n", ""
    )
    for text, message in (
        ("alphabet 2\n", "a generator system needs at least one generator"),
        ("alphabet 2\ngen a perm=0,1 sections=e,e\ngen a perm=1,0 sections=e,e\n",
         "generator names must be distinct"),
    ):
        path.write_text(text)
        assert run(capsys, "eval", "a", "--system", str(path)) == (2, "", f"parse error: {message}\n")
    assert run(capsys, "stab", "--gens", ",", "--vertex", "0") == (
        2, "", "parse error: no subgroup generators given\n"
    )


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", "xz")
    assert code == 2
    assert "column 1" in err


def test_norm_golden(capsys):
    code, out, _ = run(capsys, "norm", "ABab")
    assert code == 0
    assert out == "norm: 4\ngeodesic: ABab\n"


def test_ball_golden(capsys):
    code, out, _ = run(capsys, "ball", "1")
    assert code == 0
    assert out == "0\te\n1\ta\n1\tA\n1\tb\n1\tB\n"


def test_find_ab_golden(capsys):
    code, out, _ = run(capsys, "find-ab", "ba")
    assert code == 0
    assert out == "vertex=1 k=1\n"


def test_find_ab_precondition(capsys):
    code, _, err = run(capsys, "find-ab", "a")
    assert code == 3
    assert "precondition" in err


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.text("aAbB", min_size=1, max_size=12))
def test_find_ab_exits_3_outside_its_class(word):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["find-ab", word])
    if core.exponent_sums(basilica().parse_word(word), 2) == (1, 1):
        assert code == 0 and out.getvalue().startswith("vertex=")
    else:
        assert code == 3 and err.getvalue().startswith("precondition error:")


def test_find_binva_golden(capsys):
    code, out, _ = run(capsys, "find-binva", "aB")
    assert code == 0
    assert out == "vertex=00 k=2\n"


def test_orbit_golden(capsys):
    code, out, _ = run(capsys, "orbit", "--gens", "b", "--vertex", "0")
    assert code == 0
    assert out == "0\te\n1\tg0\n"


def test_orbit_prints_root_as_e(capsys):
    code, out, _ = run(capsys, "orbit", "--gens", "a", "--vertex", "")
    assert code == 0
    assert out == "e\te\n"


@pytest.mark.parametrize(
    "argv",
    [("orbit", "--gens", "a,b", "--vertex"), ("stab", "--gens", "a,b", "--vertex"), ("lift", "ABab")],
)
def test_root_vertex_e_prints_as_empty_vertex(capsys, argv):
    # every command prints the root as e, and reads e back as the root
    assert run(capsys, *argv, "e") == run(capsys, *argv, "")
    assert run(capsys, "orbit", "--gens", "a", "--vertex", "e") == (0, "e\te\n", "")


# orbit tables of vertices past the key level (8 when d = 2, 5 when d = 3),
# read through the generators' level permutations of that level
_DEEP_ORBITS = {
    "binary": (
        None,
        "0000000000",
        1024,
        "c28b5084f04f22c71824ca8e25046653744df839800d5d69c2f2d4de1990e3b9",
    ),
    "d3": (
        D3_TEXT,
        "000000",
        729,
        "1fbbe954faa7a1e284c39b3606d007c1150459663a59282d8be8c70a080c107e",
    ),
}


@pytest.mark.parametrize("kind", sorted(_DEEP_ORBITS))
def test_deep_orbit_tables_keep_their_digests(capsys, tmp_path, kind):
    text, vertex, lines, digest = _DEEP_ORBITS[kind]
    argv = ["orbit", "--gens", "a,b", "--vertex", vertex]
    if text is not None:
        path = tmp_path / "system.txt"
        path.write_text(text)
        argv += ["--system", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_orbit_non_ascii_vertex_is_parse_error(capsys):
    for vertex in ("0\u00b2", "\u06601"):
        code, out, err = run(capsys, "orbit", "--gens", "ab", "--vertex", vertex)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: bad vertex letter")


def test_orbit_budget_exit_code(capsys, monkeypatch):
    # a vertex whose level has more than core.MAX_LEVEL_POINTS vertices
    # stops before any walk, however small its orbit
    monkeypatch.setattr(core, "MAX_LEVEL_POINTS", 100)
    for command, gens in (("orbit", "a,b"), ("orbit", "a"), ("stab", "a,b")):
        assert run(capsys, command, "--gens", gens, "--vertex", "0" * 7) == (
            4, "", "budget exhausted: level 7 of a 2-letter alphabet has more than 100 vertices\n"
        )


def test_stab_golden(capsys):
    code, out, _ = run(capsys, "stab", "--gens", "a,b", "--vertex", "0")
    assert code == 0
    assert out == "a\tg0\nbb\tg1 g1\nBab\tG1 g0 g1\n"


def test_orbit_and_stab_goldens_below_the_root(tmp_path, capsys):
    # pins BFS order, inverse letters and cap tie-breaks; each block of the
    # file is "== argv" and then the output, and d3.txt names the d = 3 test
    # system
    (tmp_path / "d3.txt").write_text(D3_TEXT)
    blocks = (GOLDEN / "orbit_stab.txt").read_text().split("== ")[1:]
    assert len(blocks) == 6
    for block in blocks:
        header, want = block.split("\n", 1)
        argv = [str(tmp_path / arg) if arg == "d3.txt" else arg for arg in header.split()]
        assert run(capsys, *argv) == (0, want, "")


def test_stab_cap(capsys):
    for cap, want in (("0", ""), ("1", "BAba\tG0 g1\n")):
        code, out, _ = run(capsys, "stab", "--gens", "ab,ba", "--vertex", "0", "--cap", cap)
        assert (code, out) == (0, want)
    assert run(capsys, "stab", "--gens", "a,b", "--vertex", "0", "--cap", "-1") == (
        2, "", "parse error: stabilizer cap must be non-negative, got -1\n"
    )


def test_order_golden(capsys):
    code, out, _ = run(capsys, "order", "--gens", "a,b", "--level", "2")
    assert code == 0
    assert out == "8\n"


def test_lift_golden(capsys):
    code, out, _ = run(capsys, "lift", "ABab", "1")
    assert code == 0
    assert out == "BBAbba\n"


def test_lift_deep_golden(capsys):
    # a 40-letter word of B' at a vertex of 12 levels: 2494 letters, its
    # image cancelling 40 letters into the conjugator at each end; CI runs
    # the same command through the console script
    code, out, _ = run(capsys, "lift", "BBBBBBAbABAbaaabaBaBBAbbbABAbAbbAbaaBabb", "011010011101")
    assert code == 0
    assert out == (GOLDEN / "lift_deep.txt").read_text()


def test_lift_budget_exit_code(capsys, monkeypatch):
    # the lift of ABab to the vertex of ten zeros builds 252 letters, which
    # reduce to 220
    argv = ("lift", "ABab", "0" * 10)
    monkeypatch.setattr(core, "MAX_CLOSURE_LETTERS", 252)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out) == 221
    monkeypatch.setattr(core, "MAX_CLOSURE_LETTERS", 251)
    assert run(capsys, *argv) == (
        4, "", "budget exhausted: lift would build a word of 252 letters, more than 251\n"
    )


def test_lift_precondition(capsys):
    code, _, err = run(capsys, "lift", "ab", "1")
    assert code == 3


def test_quotient_commands(capsys):
    assert run(capsys, "abelianize", "Bab") == (0, "(1,0)\n", "")
    assert run(capsys, "heis", "ABab") == (0, "(0,0,1)\n", "")
    assert run(capsys, "bprime", "ABab") == (0, "(1,0,0)\n", "")
    code, _, err = run(capsys, "bprime", "ab")
    assert code == 3


def test_portrait_dot(capsys):
    code, out, _ = run(capsys, "portrait", "b", "--depth", "1", "--dot")
    assert code == 0
    assert out == 'digraph portrait {\n  root [label="(0 1)"];\n}\n'


def test_portrait_dot_edges(capsys):
    code, out, _ = run(capsys, "portrait", "ab", "--depth", "3", "--dot")
    assert code == 0
    assert out == (
        "digraph portrait {\n"
        '  root [label="(0 1)"];\n'
        '  v0 [label="(0 1)"];\n'
        '  v1 [label="e"];\n'
        '  v00 [label="e"];\n'
        '  v01 [label="(0 1)"];\n'
        '  v10 [label="e"];\n'
        '  v11 [label="e"];\n'
        '  root -> v0 [label="0"];\n'
        '  root -> v1 [label="1"];\n'
        '  v0 -> v00 [label="0"];\n'
        '  v0 -> v01 [label="1"];\n'
        '  v1 -> v10 [label="0"];\n'
        '  v1 -> v11 [label="1"];\n'
        "}\n"
    )


def test_portrait_table(capsys):
    code, out, _ = run(capsys, "portrait", "aa", "--depth", "2")
    assert code == 0
    assert out == "e\te\n0\te\n1\te\n"


def test_prodense_failure_exit_code(capsys):
    code, out, _ = run(capsys, "prodense", "--gens", "ab")
    assert code == 4
    assert "stage=4" in out
    assert "lattice=(1,1)" in out


@pytest.mark.parametrize(
    "gens, vertex",
    [
        ("AaAbAa,babbAbAbA,AABAABb", "0000000111"),
        ("aba,bbAbb,bbA", "0000001111"),
        ("bAba,BBABB,abaBAb", "00011111"),
    ],
)
def test_prodense_certifies_past_a_deep_stage_4_miss(tmp_path, capsys, gens, vertex):
    # stage 4 misses in the capped full-level projection and hits in the
    # one taken level by level
    cert_file = tmp_path / "cert.txt"
    code, out, _ = run(capsys, "prodense", "--gens", gens, "--out", str(cert_file))
    assert code == 0
    text = cert_file.read_text()
    assert f"vertex: {vertex}\n" in text
    assert " level by level generators " in text
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 0
    assert "certificate valid" in out


def test_prodense_certificate_golden(capsys):
    code, out, _ = run(capsys, "prodense", "--gens", "ba,bb")
    assert code == 0
    assert out == (
        "basilica-certificate: 1\n"
        "engine: basilica 0.1.0\n"
        "subgroup: ba, bb\n"
        "vertex: 1001\n"
        "expr-a: g0 g0 g0 g0 g0 g0 g0 g0 g0 g0 G1 G1 g0 g0 G1 G1 g0 g0 G1 G1 g0 g0 G1 G1\n"
        "expr-b: g1 g1 G0 G0 g1 g1 G0 G0 g1 g1 G0 G0 g1 g1 g0 g0 g0 g0 g0 g0\n"
        "budget-states: 100000\n"
        "budget-schreier: 64\n"
        "budget-depth: 16\n"
        "stage1: coset target (1,1) expr g0\n"
        "stage2: descend-ab vertex 1 k 1\n"
        "stage3: stabilizer vertex 1 generators 3\n"
        "stage4: coset target (1,-1) expr g0 g0 G2 over stabilizer generators\n"
        "stage5: descend-binva vertex 00 k 2\n"
        "stage6: persist vertex 00 final ba\n"
    )


def test_prodense_verify_round_trip(tmp_path, capsys):
    cert_file = tmp_path / "cert.txt"
    code, out, _ = run(capsys, "prodense", "--gens", "a,b", "--out", str(cert_file))
    assert code == 0
    assert "vertex=001" in out
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 0
    assert "certificate valid" in out


def test_verify_tampered(tmp_path, capsys):
    cert_file = tmp_path / "cert.txt"
    run(capsys, "prodense", "--gens", "a,b", "--out", str(cert_file))
    text = cert_file.read_text()
    cert_file.write_text(text.replace("vertex: 001", "vertex: 00"))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 5
    assert "INVALID" in out


def test_verify_repeated_field_is_parse_error(tmp_path, capsys):
    # the first of two vertex lines must not be overruled by the second
    cert_file = tmp_path / "cert.txt"
    run(capsys, "prodense", "--gens", "a,b", "--out", str(cert_file))
    text = cert_file.read_text()
    for old, new, key in (
        ("vertex: 001\n", "vertex: 0\nvertex: 001\n", "vertex"),
        ("expr-b:", "expr-a: g0\nexpr-b:", "expr-a"),
        ("stage2:", "stage1: x\nstage2:", "stage1"),
    ):
        cert_file.write_text(text.replace(old, new))
        assert run(capsys, "verify", "--cert", str(cert_file)) == (
            2, "", f"parse error: certificate states {key!r} twice\n"
        )


def test_verify_non_ascii_generator_index_is_parse_error(tmp_path, capsys):
    cert_file = tmp_path / "cert.txt"
    run(capsys, "prodense", "--gens", "a,b", "--out", str(cert_file))
    text = cert_file.read_text()
    expr_a = next(line for line in text.splitlines() if line.startswith("expr-a:"))
    for token in ("g\u00b2", "g\u0661"):
        cert_file.write_text(text.replace(expr_a, f"expr-a: {token}"))
        code, out, err = run(capsys, "verify", "--cert", str(cert_file))
        assert code == 2
        assert out == ""
        assert err == f"parse error: bad generator token {token!r}\n"


def test_verify_non_ascii_budget_value_is_parse_error(tmp_path, capsys):
    cert_file = tmp_path / "cert.txt"
    run(capsys, "prodense", "--gens", "a,b", "--out", str(cert_file))
    text = cert_file.read_text()
    assert "budget-depth: 16\n" in text
    cert_file.write_text(text.replace("budget-depth: 16", "budget-depth: \u0661\u0666"))
    code, out, err = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 2
    assert out == ""
    assert err == "parse error: bad budget value\n"


def test_prodense_negative_budget_is_parse_error(tmp_path, capsys):
    cert_file = tmp_path / "c.txt"
    code, out, err = run(
        capsys, "prodense", "--gens", "ab,Ba", "--budget", "-1", "--out", str(cert_file)
    )
    assert code == 2
    assert out == ""
    assert err == "parse error: budget-states must be non-negative, got -1\n"
    assert not cert_file.exists()


@pytest.mark.parametrize(
    "command, word", [("find-ab", "bAbbbaBBaB"), ("find-ab", "ab"), ("find-binva", "aB")]
)
def test_descent_negative_budget_is_parse_error(capsys, command, word):
    code, out, err = run(capsys, command, word, "--budget", "-1")
    assert code == 2
    assert out == ""
    assert err == "parse error: descent budget must be non-negative, got -1\n"


@pytest.mark.parametrize("text", ["\u0662", "1_0", "+5", " 5", "5.0"])
@pytest.mark.parametrize(
    "argv",
    [
        ("ball", "N"),
        ("order", "--gens", "a,b", "--level", "N"),
        ("find-ab", "ba", "--budget", "N"),
        ("stab", "--gens", "a,b", "--vertex", "0", "--cap", "N"),
        ("prodense", "--gens", "ba,bb", "--max-depth", "N"),
        ("check-paper", "--only", "psi1", "--seed", "N"),
    ],
    ids=lambda argv: argv[0],
)
def test_numbers_are_ascii_decimals(capsys, argv, text):
    # int() would read an Arabic-Indic two, 1_0, +5, " 5" as numbers
    with pytest.raises(SystemExit) as info:
        main([text if arg == "N" else arg for arg in argv])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"not an ASCII decimal: {text!r}" in err


def test_prodense_state_budget_failures(capsys):
    for budget, stage in (("1", 2), ("2", 5)):
        assert run(capsys, "prodense", "--gens", "ba,bb", "--budget", budget) == (
            4, f"stage={stage} descent budget exhausted (descent exceeded {budget} states)\n", ""
        )


def test_descent_zero_budget(capsys):
    assert run(capsys, "find-ab", "ab", "--budget", "0") == (0, "vertex=e k=0\n", "")


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--cert", "/nonexistent/cert.txt")
    assert code == 2


def test_verify_directory(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--cert", str(tmp_path))
    assert code == 2
    assert "Is a directory" in err


def test_verify_loads_only_core_and_certificate(tmp_path, capsys):
    # verify's trusted base is the replay in `certificate` on `core`: a cold
    # verify loads no search, norm, order, structure or check code
    assert run(capsys, "prodense", "--gens", "ba,bb", "--out", str(tmp_path / "cert.txt"))[0] == 0
    text = (tmp_path / "cert.txt").read_text()
    edits = {
        "tampered": ("vertex: 1001", "vertex: 1000"),
        "token": ("expr-a: g", "expr-a: x"),
        "digit": ("vertex: 1001", "vertex: 1002"),
    }
    for name, (old, new) in edits.items():
        (tmp_path / f"{name}.txt").write_text(text.replace(old, new))
    probe = f"""
import contextlib, io, sys
from basilica import cli
for name in ("cert", "tampered", "token", "digit"):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--cert", {str(tmp_path)!r} + "/" + name + ".txt"])
    print(code, repr(out.getvalue()), repr(err.getvalue()))
print(sorted(m for m in sys.modules if m.startswith("basilica")))
"""
    assert fresh_interpreter_output(probe) == (
        "0 'certificate valid: projection at 1001 is the full group\\n' ''\n"
        "5 'certificate INVALID\\n' ''\n"
        "2 '' \"parse error: bad generator token 'x0'\\n\"\n"
        "2 '' \"parse error: bad vertex letter '2' at position 4\\n\"\n"
        "['basilica', 'basilica.certificate', 'basilica.cli', 'basilica.core']\n"
    )


def test_out_of_memory_exit_code():
    # the child caps its address space 32 MB above where it starts, as the
    # benchmark's workers do; stab <a, b> at 14 zeros needs about 184 MB,
    # so it runs out of memory and says so in one line
    probe = """
import resource, sys
from basilica import cli
with open("/proc/self/statm") as statm:
    cap = int(statm.read().split()[0]) * resource.getpagesize() + (32 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(cli.main(["stab", "--gens", "a,b", "--vertex", "0" * 14]))
"""
    done = fresh_interpreter(probe)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == "out of memory: the command needs more than the process may allocate\n"


def test_prodense_out_directory(tmp_path, capsys):
    code, _, err = run(capsys, "prodense", "--gens", "ba,bb", "--out", str(tmp_path))
    assert code == 2
    assert "Is a directory" in err


def test_norm_budget_exit_code(tmp_path, capsys, monkeypatch):
    # a system file gives a fresh ball registry, left out of other tests
    path = tmp_path / "basilica.txt"
    path.write_text(BASILICA_TEXT)
    monkeypatch.setattr(norms, "MAX_CLASSES", 100)
    code, out, err = run(capsys, "norm", "ABabABab", "--system", str(path))
    assert code == 4
    assert out == ""
    assert "budget exhausted" in err


def test_norm_closure_budget_exit_code(tmp_path, capsys, monkeypatch):
    # a = (a^2, 1) is trivial, but the closure a, a^2, a^4, ... never ends
    path = tmp_path / "expanding.txt"
    path.write_text(EXPANDING_TEXT)
    monkeypatch.setattr(core, "MAX_CLOSURE_LETTERS", 1000)
    code, out, err = run(capsys, "norm", "a", "--system", str(path))
    assert code == 4
    assert out == ""
    assert "budget exhausted: section closure exceeded 1000 letters" in err
    assert "Traceback" not in err


def test_norm_missed_word_exit_code(tmp_path, capsys, monkeypatch):
    # a registry that marks radii done without enumerating them breaks an
    # engine invariant: one line and exit 6, not a traceback
    path = tmp_path / "basilica.txt"
    path.write_text(BASILICA_TEXT)

    def skip(self, radius):
        self.radius_done = max(self.radius_done, radius)

    monkeypatch.setattr(norms._BallRegistry, "extend", skip)
    code, out, err = run(capsys, "norm", "a", "--system", str(path))
    assert code == 6
    assert out == ""
    assert err == "internal consistency error: ball enumeration missed a word of its own radius\n"


def test_order_sift_budget_exit_code(tmp_path, capsys, monkeypatch):
    # a d = 3 system takes the Schreier-Sims path; its level-2 chain makes 38 sifts
    path = tmp_path / "d3.txt"
    path.write_text(D3_TEXT)
    argv = ("order", "--system", str(path), "--gens", "a,b", "--level", "2")
    monkeypatch.setattr(quotients, "MAX_SCHREIER_SIFTS", 38)
    assert run(capsys, *argv)[:2] == (0, "1296\n")
    monkeypatch.setattr(quotients, "MAX_SCHREIER_SIFTS", 10)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err == "budget exhausted: stabilizer chain exceeded 10 sifts with 5 base points\n"


def test_order_tree_work_budget_exit_code(capsys, monkeypatch):
    # a binary system takes the polycyclic path; the level-5 quotient of
    # the Basilica group makes its last join after 67 products of degree 32
    argv = ("order", "--gens", "a,b", "--level", "5")
    monkeypatch.setattr(quotients, "MAX_TREE_WORK", 67 * 32)
    assert run(capsys, *argv)[:2] == (0, f"{2**23}\n")
    monkeypatch.setattr(quotients, "MAX_TREE_WORK", 1000)
    assert run(capsys, *argv) == (
        4, "", "budget exhausted: polycyclic sequence exceeded 1000 points of work with 14 elements\n"
    )


def test_portrait_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(core, "MAX_LEVEL_POINTS", 4)
    assert run(capsys, "portrait", "ab", "--depth", "3")[0] == 0
    code, out, err = run(capsys, "portrait", "ab", "--depth", "4")
    assert code == 4
    assert out == ""
    assert err == "budget exhausted: portrait level 3 has more than 4 vertices\n"


def test_level_budget_exit_code(capsys):
    code, out, err = run(capsys, "order", "--gens", "a,b", "--level", "22")
    assert code == 4
    assert out == ""
    assert err == "budget exhausted: level 22 of a 2-letter alphabet has more than 65536 vertices\n"


def test_consistency_error_exit_code(capsys, monkeypatch):
    def broken(g):
        raise ConsistencyError("section images violate the derived-subgroup shape")

    # the handler looks the image up on ``structure`` when it runs
    monkeypatch.setattr(structure, "bprime_coords", broken)
    code, out, err = run(capsys, "bprime", "ABab")
    assert code == 6
    assert out == ""
    assert err == "internal consistency error: section images violate the derived-subgroup shape\n"


def _trivial_root_at(word):
    # the level-1 walk of ``word`` reports the identity root permutation
    walk = core.GeneratorSystem._walk_level

    def broken(self, w, k):
        root, sections = walk(self, w, k)
        return ((0, 1) if w == word else root), sections

    return core.GeneratorSystem, "_walk_level", broken


def _exponent_sums_of_letters_only():
    # every word longer than one letter reads as image (0, 0)
    sums = core.exponent_sums
    return descent, "exponent_sums", lambda word, d: sums(word, d) if len(word) <= 1 else (0, 0)


@pytest.mark.parametrize(
    "patch, argv, message",
    [
        (
            lambda: _trivial_root_at(basilica().parse_word("bAbbbaBBaB")),
            ("find-ab", "bAbbbaBBaB"),
            "descent state has trivial root permutation; class invariant broken",
        ),
        (
            lambda: (descent, "geodesic_rep", lambda target: (1,) * 20),
            ("find-ab", "bAbbbaBBaB"),
            "descent exhausted its reachable states without finding the target",
        ),
        (
            _exponent_sums_of_letters_only,
            ("prodense", "--gens", "a,b"),
            "coset solve produced image (0, 0) != (1, 1)",
        ),
        (
            lambda: (descent, "verify_certificate", lambda H, cert: False),
            ("prodense", "--gens", "ba,bb"),
            "search assembled a certificate that fails replay",
        ),
        (
            lambda: (structure, "heis_image", lambda g: structure.HeisenbergElement(1, 0, 0)),
            ("bprime", "ABab"),
            "section images a^1 b^0 c^0 / a^1 b^0 c^0 violate the derived-subgroup shape",
        ),
    ],
    ids=["trivial-root", "unreachable-target", "coset-image", "replay", "heis-shape"],
)
def test_broken_invariant_is_one_line_and_exit_6(capsys, monkeypatch, patch, argv, message):
    # one collaborator breaks an invariant the command checks; the command
    # reports it in one stderr line with exit 6
    monkeypatch.setattr(*patch())
    code, out, err = run(capsys, *argv)
    assert code == 6
    assert out == ""
    assert err == f"internal consistency error: {message}\n"


def test_check_paper_subset(capsys):
    code, out, _ = run(capsys, "check-paper", "--only", "relators")
    assert code == 0
    assert "[PASS] relators-m1-k0" in out
    assert "summary: 17 passed, 0 failed" in out


def test_check_paper_full_run_passes(capsys):
    code, out, _ = run(capsys, "check-paper")
    assert code == 0
    assert "0 failed" in out
    assert "[FAIL]" not in out
    # the default seed is 0, whose report is fixed byte for byte
    assert out == (GOLDEN / "check_paper_seed0.txt").read_text()


def test_check_paper_unknown_suite(capsys):
    code, _, err = run(capsys, "check-paper", "--only", "bogus")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize(
    "only, message",
    [("psi1,psi1", "suite 'psi1' selected more than once"), (",", "no suite selected"), ("", "no suite selected")],
)
def test_check_paper_repeated_or_empty_selection(capsys, only, message):
    code, out, err = run(capsys, "check-paper", "--only", only)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {message}") and err.count("\n") == 1


def test_ball_negative_radius(capsys):
    code, _, err = run(capsys, "ball", "-1")
    assert code == 2


@pytest.mark.parametrize("argv", [("verify", "--cert"), ("eval", "ab", "--system")])
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfealphabet 2\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: 'utf-8' codec can't decode") and err.count("\n") == 1


def test_system_file_equals_the_builtin(tmp_path):
    # a --system file of the Basilica definition is the same system as
    # basilica(), as a dict key or set member too
    path = tmp_path / "basilica.txt"
    path.write_text(BASILICA_TEXT)
    loaded = core.load_system(str(path))
    assert loaded is not basilica()
    assert loaded == basilica() and hash(loaded) == hash(basilica())
    assert len({loaded, basilica()}) == 1


def test_custom_system_file(tmp_path, capsys):
    path = tmp_path / "odometer.txt"
    path.write_text("alphabet 2\ngen c perm=1,0 sections=e,c\n")
    code, out, _ = run(capsys, "eval", "cc", "--system", str(path))
    assert code == 0
    assert "root: e" in out
