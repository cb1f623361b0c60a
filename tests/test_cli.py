import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mzvkit import relations
from mzvkit.cli import _ACT_ELEMS, _DERIVE_OPS, _PRODUCTS, _SERIES_OPS, main
from mzvkit.words import Poly, poly_from_obj


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
    assert poly_from_obj(json.loads(out)) == Poly({"xyxy": 2, "xxyy": 4})
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
    assert poly_from_obj(lines[2]["coeff"]) == Poly.word("xxy")


def test_relations_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "relations", "--weight", "4", "--families", "cyclic")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    elements = [poly_from_obj(obj["element"]) for obj in lines]
    assert Poly({"xxxy": 1, "xxyy": -1, "xyxy": -1}) in elements
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
    # starving the threshold makes the same residuals fail
    code, _ = run_cli(
        capsys, "verify", "--weight", "3", "--cutoff", "20000", "--slack", "1e-9"
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "(2)", "--cutoff", "0"],
        ["eval", "(2)", "--cutoff", "-5"],
        ["eval", "(2)", "--precision", "0"],
        ["verify", "--weight", "1"],  # no relation exists: not a vacuous pass
        ["verify", "--weight", "4", "--families", ","],
        ["relations", "--weight", "-3"],
        ["verify", "--weight", "3", "--cutoff", "100", "--slack", "-1"],
        ["--out", f"{__file__}/out.txt", "eval", "(2)", "--cutoff", "10"],  # not a directory
        ["MZV_PRECISION=abc", "eval", "(2)"],
    ],
)
def test_out_of_domain_arguments_are_errors(monkeypatch, capsys, argv):
    while "=" in argv[0]:  # leading NAME=value items set the environment, as in a shell
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("bad", [["--slack", "-1"], ["--cutoff", "0"], ["--precision", "0"]])
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
GOLDEN["relations_w6.txt"] = ["relations", "--weight", "6"]
GOLDEN["relations_w6.json"] = ["--format", "json", "relations", "--weight", "6"]
GOLDEN["rank_w8.json"] = ["--format", "json", "rank", "--weight", "8"]


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


def test_eval(capsys):
    code, out = run_cli(capsys, "--format", "json", "eval", "(2)", "--cutoff", "10000")
    obj = json.loads(out)
    assert obj["composition"] == [2]
    assert obj["value"].startswith("1.644")
    assert obj["cutoff"] == 10000
    # depth above the cutoff: a sum with no terms is exactly 0
    code, out = run_cli(capsys, "eval", "(2,1,1,1,1)", "--cutoff", "3")
    assert (code, out) == (0, "(2,1,1,1,1) = 0  (cutoff 3, tail <= 2.550e+00)\n")
    code, out = run_cli(capsys, "--format", "json", "eval", "(2,1,1)", "--cutoff", "2")
    assert json.loads(out)["value"] == "0"
    # an exact tie, 559/5120 = 0.1091796875, rounds half-even
    code, out = run_cli(capsys, "eval", "(2,1,1,1)", "--cutoff", "9", "--precision", "9")
    assert (code, out) == (0, "(2,1,1,1) = 0.109179688  (cutoff 9, tail <= 1.639e+00)\n")


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


def test_precision_env_var(monkeypatch, capsys):
    monkeypatch.setenv("MZV_PRECISION", "8")
    code, out = run_cli(capsys, "eval", "(2)", "--cutoff", "1000")
    assert code == 0
    digits = out.split("=")[1].split("(")[0].strip().replace(".", "")
    assert len(digits) <= 9  # 8 significant digits plus slack for the exponent form


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mzvkit.cli", "dual", "(3)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(2,1)"
