import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crystaframe.cli import main
from crystaframe.report import Report
from crystaframe.runner import run_scenario
from crystaframe.scenario import (
    ScenarioParseError,
    ScenarioSemanticError,
    parse_scenario,
    parse_monomial,
    validate_scenario,
)

ROOT = Path(__file__).resolve().parents[1]
SCN = ROOT / "scenarios"

MINIMAL = """
format_version 1
prime 2
precision 2
depth 1
budget max_carrier 65536
budget max_enum 1048576
budget max_cap 16
frame L kind lift precision 2
command validate L
command classify L rank 1
"""


def test_parse_monomial():
    from fractions import Fraction

    assert parse_monomial("x") == [("x", Fraction(1))]
    assert parse_monomial("x^2*y") == [("x", Fraction(2)), ("y", Fraction(1))]
    assert parse_monomial("Y^1/2") == [("Y", Fraction(1, 2))]
    with pytest.raises(ScenarioParseError):
        parse_monomial("2x")


def test_parse_minimal():
    sc = parse_scenario(MINIMAL)
    assert sc.prime == 2 and sc.precision == 2
    assert len(sc.commands) == 2
    objects = validate_scenario(sc)
    assert "L" in objects["frames"]


def test_missing_version_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("prime 2\n")


def test_unknown_directive_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("format_version 1\nfoo bar\n")


def test_missing_budget_is_semantic_error():
    sc = parse_scenario(
        "format_version 1\nprime 2\nprecision 2\nframe L kind lift\ncommand validate L\n"
    )
    with pytest.raises(ScenarioSemanticError):
        validate_scenario(sc)


def test_unknown_names_are_semantic_errors():
    sc = parse_scenario(MINIMAL + "command validate NOPE\n")
    with pytest.raises(ScenarioSemanticError):
        validate_scenario(sc)


def test_run_scenario_report_deterministic():
    sc = parse_scenario(MINIMAL)
    objects = validate_scenario(sc)
    r1 = run_scenario(sc, objects).to_json()
    sc2 = parse_scenario(MINIMAL)
    objects2 = validate_scenario(sc2)
    r2 = run_scenario(sc2, objects2).to_json()
    assert r1 == r2
    doc = json.loads(r1)
    assert doc["format_version"] == 1
    assert doc["exit_code"] == 0
    assert all(r["status"] in ("pass", "fail", "finding") for r in doc["results"])


def test_report_bans_floats():
    rep = Report("x")
    with pytest.raises(TypeError):
        rep.add(["cmd"], "pass", {"bad": 1.5})
        rep.to_json()


def test_cli_run_bundled_scenarios(tmp_path):
    for name in ("witt_frame_f2.scn", "classify_rank1_zp2.scn"):
        out = tmp_path / (name + ".json")
        code = main(["run", str(SCN / name), "--report", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["exit_code"] == 0


def test_cli_golden_report_byte_identical(tmp_path):
    golden = ROOT / "scenarios" / "golden" / "classify_rank1_zp2.json"
    out = tmp_path / "fresh.json"
    code = main(["run", str(SCN / "classify_rank1_zp2.scn"), "--report", str(out)])
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()


def test_cli_pd_desk_golden_report_byte_identical(tmp_path):
    # pins the torsion-probe and solve-connection bytes
    golden = ROOT / "scenarios" / "golden" / "pd_desk.json"
    out = tmp_path / "fresh.json"
    code = main(["run", str(SCN / "pd_desk.scn"), "--report", str(out)])
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("format_version 1\nthisisnota directive\n")
    assert main(["run", str(bad)]) == 2
    sem = tmp_path / "sem.scn"
    sem.write_text(MINIMAL + "command validate MISSING\n")
    assert main(["run", str(sem)]) == 3
    # budget: a quotient carrier larger than max_carrier
    budg = tmp_path / "budget.scn"
    budg.write_text(
        """
format_version 1
prime 2
precision 2
depth 1
budget max_carrier 4
budget max_enum 1048576
budget max_cap 16
ring S field Fp vars Y:2:2
frame Q kind quotient ring S length 2 ideal Y
command validate Q
"""
    )
    assert main(["run", str(budg)]) == 4  # budget exceeded at validation
    missing = tmp_path / "missing.scn"
    assert main(["run", str(missing)]) == 2
    # classify ranks: not an integer is a parse error, out of 0..2 semantic
    for k, (args, code) in enumerate((("L rank x", 2), ("L rank -1", 3), ("L rank 3", 3), ("", 3))):
        scn = tmp_path / f"classify_{k}.scn"
        scn.write_text(MINIMAL + f"command classify {args}\n")
        assert main(["run", str(scn)]) == code, args
    # an enumeration over max_enum is a budget error (typed, not by message)
    enum = tmp_path / "enum.scn"
    enum.write_text(MINIMAL.replace("max_enum 1048576", "max_enum 16") + "command classify L rank 2\n")
    assert main(["run", str(enum)]) == 4
    # wrong token counts, a rejected window and an unknown verify keyword
    # are semantic errors, never a traceback or a silent pass
    windows = "window a frame L d 0 t 1 psi 1\nwindow b frame L d 1 t 0 psi 1\n"
    for k, line in enumerate((
        "command validate",
        "command hom",
        "command hom a",
        "command base-change",
        "command classify L rank 1 extra",
        "command validate L extra",
        "command hom a b mode window extra",
        "window c frame L d 1 t 0 psi 2",
        "command verify sigma1-formula bogus=1",
        "command verify pd-axioms cap=notanint",
        "command verify sigma1-formula nmax=x",
        "command verify pd-axioms cap=1,2",
        "command verify gamma-vp primes=2,x",
        # values of the right type but out of range
        "command verify pd-axioms p=4",
        "command verify pd-axioms precision=0",
        "command verify sigma1-formula nmax=-1",
        "command verify win-phi-mod rank=5",
        "command verify win-phi-mod precision=1",
    )):
        scn = tmp_path / f"shape_{k}.scn"
        scn.write_text(MINIMAL + windows + line + "\n")
        assert main(["run", str(scn)]) == 3, line
    # objects their constructors reject are semantic errors; a zero
    # denominator is a parse error
    for k, (text, code) in enumerate((
        (MINIMAL.replace("prime 2", "prime 4"), 3),
        (MINIMAL + "frame D kind pd vars x gens y cap 3\n", 3),
        (MINIMAL + "frame D kind pd vars x gens x^0 cap 3\n", 3),
        (MINIMAL + "ring S field Fp vars x:0:1/0\n", 2),
        (MINIMAL + "frame D kind pd vars x gens x^1/0 cap 3\n", 2),
        # frame, ring and hom keys are checked when parsed, ranges when built
        (MINIMAL + "frame M kind lift precison 3\n", 2),
        (MINIMAL + "frame M kind lift precision x\n", 2),
        (MINIMAL + "frame M kind lift precision 0\n", 3),
        (MINIMAL + "frame D kind pd vars x gens x\n", 2),
        (MINIMAL + "frame D kind pd vars x gens x cap 5 precision 0\n", 3),
        (MINIMAL + "hom h from L\n", 2),
        (MINIMAL + "ring S field Fp vars -1\n", 2),
        (MINIMAL + "ring S field Fp vars y\n", 3),
        (MINIMAL + "ring S field Fp vars y:1:1\nframe Q kind quotient ring S length 2 ideal z\n", 3),
        (MINIMAL + "ring S field Fp vars y:1:1\nframe Q kind quotient ring S length -1 ideal y\n", 3),
        (MINIMAL.replace("max_enum 1048576", "max_enum 0"), 3),
        (
            MINIMAL + "frame D kind pd vars x gens x cap 3\nwindow u frame D d 0 t 1 psi 1\n"
            "command solve-connection D u\n",
            3,
        ),
        # Witt lengths and lift precisions meet the carrier budget before
        # any polynomial or modulus is built
        (MINIMAL + "frame M kind lift precision 1000000000\n", 4),
        (MINIMAL + "ring R field Fp\nframe W kind witt ring R length 65536\n", 4),
        (MINIMAL + "ring S field Fp vars y:1:1\nframe Q kind quotient ring S length 65536 ideal y\n", 4),
        # no nonzero ideal generator within max_enum 1
        (
            MINIMAL.split("frame L")[0].replace("max_enum 1048576", "max_enum 1")
            + "ring S field Fp vars Y:2:2\nframe Q kind quotient ring S length 2 ideal Y\n"
            "command validate Q\n",
            4,
        ),
    )):
        scn = tmp_path / f"object_{k}.scn"
        scn.write_text(text)
        assert main(["run", str(scn)]) == code, text.splitlines()[-1]
    # a tuple-valued verify parameter also takes a single int
    validate_scenario(parse_scenario(MINIMAL + "command verify gamma-vp primes=2 nmax=1\n"))
    validate_scenario(parse_scenario(MINIMAL + "command verify gamma-vp primes=2,3\n"))
    ok = tmp_path / "shape_ok.scn"
    ok.write_text(MINIMAL + windows + "command hom a b\ncommand hom a b mode phi_module\n")
    assert main(["run", str(ok)]) == 0


def test_cli_verify_subcommand():
    assert main(["verify", "gamma-vp"]) == 0
    assert main(["verify", "sigma1-formula", "--p", "2", "--grid", "nmax=4"]) == 0


def test_env_budget_override(monkeypatch, tmp_path):
    monkeypatch.setenv("CRYSTAFRAME_MAX_CARRIER", "2")
    scn = tmp_path / "s.scn"
    scn.write_text(MINIMAL)
    # Z/4 carrier (size 4) now exceeds the overridden budget of 2
    assert main(["run", str(scn)]) == 4


def test_internal_precision_ledger_stability(tmp_path):
    scn = tmp_path / "conn.scn"
    scn.write_text(
        """
format_version 1
prime 2
precision 2
depth 1
budget max_carrier 65536
budget max_enum 1048576
budget max_cap 16
frame D kind pd vars x gens x cap 5
window ss frame D d 1 t 1 psi 0,1,1,0
command solve-connection D ss
"""
    )
    out = tmp_path / "conn.json"
    code = main(["run", str(scn), "--report", str(out), "--internal-precision", "3"])
    assert code == 0
    doc = json.loads(out.read_text())
    result = doc["results"][0]
    assert result["status"] == "pass"
    assert result["data"]["ledger_stability"] is True
    assert doc["ledger"]  # the extra digit is recorded


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "crystaframe.cli", "verify", "gamma-vp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


# -- exit-code fuzz: one-token mutations of the bundled scenarios -------------

# Replacements sit at the edges of the range checks or are not values at all.
# None enlarges a value, so every mutant stays as cheap as its scenario.
EDGE_TOKENS = ["-1", "0", "1", "x", "#", "1/2", "1/0", "x^0", ",", "="]


@st.composite
def mutated_scenario(draw):
    path = draw(st.sampled_from(sorted(SCN.glob("*.scn"))))
    lines = path.read_text().splitlines()
    spots = [
        (i, j)
        for i, line in enumerate(lines)
        if not line.startswith("#")
        for j in range(len(line.split()))
    ]
    i, j = draw(st.sampled_from(spots))
    tokens = lines[i].split()
    edit = draw(st.sampled_from(["replace", "delete", "duplicate", "swap"]))
    if edit == "replace":
        tokens[j] = draw(st.sampled_from(EDGE_TOKENS))
    elif edit == "delete":
        del tokens[j]
    elif edit == "duplicate":
        tokens.insert(j, tokens[j])
    else:
        k = (j + 1) % len(tokens)
        tokens[j], tokens[k] = tokens[k], tokens[j]
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(text=mutated_scenario())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_scenarios_keep_the_exit_code_contract(text, tmp_path):
    scn = tmp_path / "mutant.scn"
    scn.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(scn)])
    assert code in (0, 1, 2, 3, 4), text
    assert "Traceback" not in err.getvalue(), text
