import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mzvkit import relations
from mzvkit.cli import _ACT_ELEMS, _DERIVE_OPS, _PRODUCTS, _SERIES_OPS, build_parser, main
from mzvkit.words import Poly, poly_to_obj


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dual(capsys):
    code, out = run_cli(capsys, "dual", "(3)")
    assert code == 0
    assert out.strip() == "(2,1)"
    code, out = run_cli(capsys, "--format", "json", "dual", "(2,3)")
    assert json.loads(out) == {"dual": [2, 1, 2]}


def test_dual_rejects_inadmissible(capsys):
    code = main(["dual", "(1,2)"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_shuffle_and_harmonic(capsys):
    code, out = run_cli(capsys, "--format", "json", "shuffle", "xy", "xy")
    assert code == 0
    assert json.loads(out) == poly_to_obj(Poly({"xyxy": 2, "xxyy": 4}))
    code, out = run_cli(capsys, "harmonic", "y", "y")
    assert out.strip() == "xy + 2 yy"


def test_word_input_forms(capsys):
    _, out1 = run_cli(capsys, "shuffle", "z2", "z1")
    _, out2 = run_cli(capsys, "shuffle", "(2)", "y")
    _, out3 = run_cli(capsys, "shuffle", "xy", "y")
    assert out1 == out2 == out3


def test_derive(capsys):
    code, out = run_cli(capsys, "derive", "--op", "D", "xy")
    assert out.strip() == "xxy"
    code, out = run_cli(capsys, "derive", "--op", "C", "xxyxxy")
    assert out.strip() == "2 xxxyxxy"
    code, out = run_cli(capsys, "derive", "--op", "partial_n", "--n", "2", "x")
    assert out.strip() == "xxy + xyy"


def test_act(capsys):
    code, out = run_cli(capsys, "act", "--elem", "hn", "--n", "2", "y")
    assert out.strip() == "xxy"
    code, out = run_cli(capsys, "act", "--elem", "word", "z1", "xy")
    assert out.strip() == "xxy"
    code = main(["act", "--elem", "hn", "y"])
    capsys.readouterr()
    assert code == 1  # missing --n


def test_series(capsys):
    code, out = run_cli(capsys, "--format", "json", "series", "--op", "sigma", "--order", "3", "y")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 4
    assert lines[2]["degree"] == 2
    assert lines[2]["coeff"] == poly_to_obj(Poly.word("xxy"))


def test_relations_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "relations", "--weight", "4", "--families", "cyclic")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    elements = [obj["element"] for obj in lines]
    assert poly_to_obj(Poly({"xxxy": 1, "xxyy": -1, "xyxy": -1})) in elements
    assert all(obj["family"] == "cyclic" and obj["weight"] == 4 for obj in lines)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_no_output_lines_print_nothing(capsys, fmt):
    # double shuffle needs two admissible factors, so weight 3 has no relation
    code = main(["--format", fmt, "relations", "--weight", "3", "--families", "double_shuffle"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "", "")


def test_relations_bad_family(capsys):
    code = main(["relations", "--weight", "4", "--families", "bogus"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown family" in captured.err


def test_rank_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "rank", "--weight", "4")
    obj = json.loads(out)
    assert obj["cumulative_rank"] == 3
    assert obj["nullity"] == 1
    assert obj["basis"] == ["xxxy", "xxyy", "xyxy", "xyyy"]


def test_verify_exit_codes(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "verify", "--weight", "3", "--cutoff", "20000"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert reports and all(r["passed"] for r in reports)


def test_verify_exits_1_on_a_false_relation(monkeypatch, capsys):
    # 2 zeta(3) - zeta(2,1) = zeta(3) is far from 0 at any cutoff
    corrupted = relations.Relation(Poly({"xxy": 2, "xyy": -1}), 3, "duality", (("source", "xxy"),))
    monkeypatch.setattr(relations, "generate", lambda *args: [corrupted])
    code, out = run_cli(capsys, "verify", "--weight", "3", "--cutoff", "20000")
    assert code == 1
    assert out.startswith("FAIL duality[w=3; source=xxy] residual=")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "(2)", "--cutoff", "0"],
        ["eval", "(2)", "--cutoff", "-5"],
        ["eval", "(2)", "--precision", "0"],
        ["verify", "--weight", "1"],  # below the least weight with admissible words
        ["verify", "--weight", "2"],  # no relation exists: not a vacuous pass
        ["verify", "--weight", "4", "--families", ","],
        ["relations", "--weight", "-3"],
        ["act", "--elem", "word", "xy"],  # no target
        ["act", "--elem", "hn", "--n", "2", "xy", "yx"],  # two targets
        ["eval", "abc"],
        ["--out", f"{__file__}/out.txt", "eval", "(2)", "--cutoff", "10"],  # not a directory
        ["series", "--op", "phi", "--order", "-1", "x"],
        ["eval", "(2)", "--cutoff", "4611686018427387904"],  # 2^62: no int64 limb width is left
        ["verify", "--weight", "3", "--cutoff", "4611686018427387904"],
        # an index past sys.maxsize: refused before anything is allocated
        ["derive", "--op", "Dn", "--n", "99999999999999999999", "x"],
        *(["act", "--elem", e, "--n", "99999999999999999999", "y"] for e in ("pn", "en", "hn")),
        ["shuffle", "z99999999999999999999", "x"],
        ["dual", "(99999999999999999999)"],
    ],
)
def test_out_of_domain_arguments_are_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("bad", [["--cutoff", "0"], ["--precision", "0"]])
def test_verify_checks_arguments_before_generating(monkeypatch, capsys, bad):
    def generate(*args, **kwargs):
        raise AssertionError("relations generated before the arguments were checked")

    monkeypatch.setattr(relations, "generate", generate)
    assert main(["verify", "--weight", "9", *bad]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# Byte-exact stdout of a fixed command set, recorded from the CLI when all
# coefficients were Fractions.  Regenerate a file (main's stdout for its argv
# below) only when a change to the output is intended and stated.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = {
    f"series_{op}_{w}.{ext}": fmt + ["series", "--op", op, "--order", "6", w]
    for op in ("sigma", "exp-partial", "phi")
    for w in ("xy", "yxy")
    for ext, fmt in (("txt", []), ("json", ["--format", "json"]))
}
GOLDEN.update(
    {
        f"derive_{op}_xxyxy.txt": ["derive", "--op", op, "--n", "2", "xxyxy"]
        for op in ("D", "Dbar", "Dn", "partial_n", "C", "Cbar")
    }
)
GOLDEN["act_hn3_xyxy.txt"] = ["act", "--elem", "hn", "--n", "3", "xyxy"]
GOLDEN["act_hn3_xxyy.json"] = ["--format", "json", "act", "--elem", "hn", "--n", "3", "xxyy"]
GOLDEN["act_word_xyy_xyxy.txt"] = ["act", "--elem", "word", "xyy", "xyxy"]
GOLDEN["act_pn2_yxy.txt"] = ["act", "--elem", "pn", "--n", "2", "yxy"]
GOLDEN["act_en2_xyyxy.txt"] = ["act", "--elem", "en", "--n", "2", "xyyxy"]
GOLDEN["relations_w6.txt"] = ["relations", "--weight", "6"]
GOLDEN["relations_w6.json"] = ["--format", "json", "relations", "--weight", "6"]
GOLDEN["relations_w8.txt"] = ["relations", "--weight", "8"]
GOLDEN["shuffle_xxyxy_xyxyy.txt"] = ["shuffle", "xxyxy", "xyxyy"]
GOLDEN["harmonic_xxyxy_xyxyy.txt"] = ["harmonic", "xxyxy", "xyxyy"]
GOLDEN["rank_w8.json"] = ["--format", "json", "rank", "--weight", "8"]
GOLDEN["rank_w6.txt"] = ["rank", "--weight", "6"]
GOLDEN["eval_3.txt"] = ["eval", "(3)", "--cutoff", "10000"]
GOLDEN["eval_3.json"] = ["--format", "json", "eval", "(3)", "--cutoff", "10000"]
# 559/5120 is a half-way point at 9 digits, so this value comes from the exact Fraction sum
GOLDEN["eval_2111_tie.txt"] = ["eval", "(2,1,1,1)", "--cutoff", "9", "--precision", "9"]
GOLDEN["eval_411_p40.txt"] = ["eval", "(4,1,1)", "--cutoff", "20000", "--precision", "40"]
GOLDEN["verify_w5.txt"] = ["verify", "--weight", "5", "--cutoff", "3000"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(capsys, name):
    code, out = run_cli(capsys, *GOLDEN[name])
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_readme_examples_print_their_comments(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"^mzv ((?:dual|shuffle|derive|act) .*?)\s+# (.+)$", readme, re.M)
    assert len(examples) == 4
    for command, expected in examples:
        code, out = run_cli(capsys, *shlex.split(command))
        assert (code, out) == (0, expected + "\n"), command


def test_readme_quick_tour_prints_its_comments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Quick tour\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    namespace: dict = {}
    matched = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.startswith("from "):
            exec(code, namespace)
        elif code.strip():
            value = str(eval(code, namespace))
            if comment.strip().startswith(value):
                matched.append(value)
    assert matched == [
        "(2, 1)",
        "4 xxyy + 2 xyxy",
        "xxxy + 2 xyxy",
        "2 xxxyxxy",
        "2 xxyxxyy + 2 xyxxyxy",
        "1",
    ]


def test_readme_agrees_with_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"^mzv (.*?)(?:\s+#.*)?$", readme, re.M) + re.findall(r"`mzv ([^`]*)`", readme)
    assert len(examples) >= 10
    for example in examples:
        try:
            build_parser().parse_args(shlex.split(example))
        except SystemExit:
            pytest.fail(f"README example does not parse: mzv {example}")
    top = build_parser()
    (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {o for p in (top, *sub.choices.values()) for a in p._actions for o in a.option_strings}
    prose = "\n".join(line for line in readme.splitlines() if not re.search(r"\b(pip|pytest)\b", line))
    options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", prose))
    assert "--cutoff" in options and options <= defined, options - defined


def test_eval(capsys):
    code, out = run_cli(capsys, "--format", "json", "eval", "(2)", "--cutoff", "10000")
    obj = json.loads(out)
    assert obj["composition"] == [2]
    assert obj["value"].startswith("1.644")
    assert obj["cutoff"] == 10000
    # depth above the cutoff: a sum with no terms is exactly 0
    code, out = run_cli(capsys, "eval", "(2,1,1,1,1)", "--cutoff", "3")
    assert (code, out) == (0, "(2,1,1,1,1) = 0  (cutoff 3, tail <= 2.552e+00)\n")
    code, out = run_cli(capsys, "--format", "json", "eval", "(2,1,1)", "--cutoff", "2")
    assert json.loads(out)["value"] == "0"
    # an exact tie, 559/5120 = 0.1091796875, rounds half-even
    code, out = run_cli(capsys, "eval", "(2,1,1,1)", "--cutoff", "9", "--precision", "9")
    assert (code, out) == (0, "(2,1,1,1) = 0.109179688  (cutoff 9, tail <= 1.640e+00)\n")
    # an exact partial sum still prints digits significant digits
    code, out = run_cli(capsys, "eval", "(2,3)", "--cutoff", "3", "--precision", "5")
    assert (code, out) == (0, "(2,3) = 0.37500  (cutoff 3, tail <= 1.033e+00)\n")
    # depth 172: the tail bound, about e^(1 + ln N) / N = e, is exact rational and fits a float
    deep = "(2" + ",1" * 171 + ")"
    code, out = run_cli(capsys, "eval", deep, "--cutoff", "10")
    assert (code, out) == (0, f"{deep} = 0  (cutoff 10, tail <= 2.718e+00)\n")


# one command per key of each CLI dispatch table, so that every entry is reached
TABLE_COMMANDS = (
    [["series", "--op", op, "--order", "2", "xy"] for op in _SERIES_OPS]
    + [["act", "--elem", elem, "--n", "2", "xy"] for elem in _ACT_ELEMS]
    + [["act", "--elem", "word", "y", "xy"]]
    + [[name, "xy", "y"] for name in _PRODUCTS]
    + [["derive", "--op", op, "--n", "2", "xxy"] for op in _DERIVE_OPS]
)


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=" ".join)
def test_every_table_entry_runs(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() and captured.err == ""


def test_global_flags_after_subcommand(capsys):
    _, out1 = run_cli(capsys, "--format", "json", "dual", "(3)")
    _, out2 = run_cli(capsys, "dual", "(3)", "--format", "json")
    assert out1 == out2
    _, out3 = run_cli(capsys, "--format", "json", "dual", "(3)", "--format", "text")
    assert out3.strip() == "(2,1)"


def test_deterministic_output(capsys):
    args = ["--format", "json", "relations", "--weight", "5"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(["--out", str(target), "dual", "(3)"])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().strip() == "(2,1)"


def _console(*argv):
    return subprocess.run([sys.executable, "-m", "mzvkit.cli", *argv], capture_output=True, text=True)


def test_console_entry_point():
    proc = _console("dual", "(3)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(2,1)"
    # a failure reaches the process exit status, so a shell or CI step sees it
    proc = _console("dual", "(1)")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    proc = _console("verify", "--weight", "2")  # no relations to verify
    assert proc.returncode == 1
