"""CLI: grammar round trips, subcommands, exit codes."""

import hashlib
import json
import random

import pytest

from hyperalg.cli import main, parse_element, serialize_element, ParseError
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mul_commutation_example(capsys):
    code, out = run_cli(
        capsys, "mul", "e[1]^(1)", "f[1]^(1)", "--type", "A1", "--p", "2",
        "--level", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["text"] == "H(0,1) + f[1]^(1)*e[1]^(1)"


def test_normalize_straightens(capsys):
    code, out = run_cli(
        capsys, "normalize", "e[0 1]^(1)*e[1 0]^(1)", "--type", "A2",
        "--p", "3", "--level", "1",
    )
    assert code == 0
    payload = json.loads(out)
    # e_(0,1) e_(1,0) = e_(1,0) e_(0,1) - e_(1,1) = e_(1,0)e_(0,1) + 2 e_(1,1)
    assert payload["text"] == "2*e[1 1]^(1) + e[1 0]^(1)*e[0 1]^(1)"


@pytest.mark.parametrize("label,p", [("A2", 2), ("B2", 3), ("G2", 2)])
def test_parse_serialize_roundtrip(label, p):
    eng = Engine(build_root_system(label), p)
    rng = random.Random(61)
    level = 2
    for _ in range(10):
        x = eng.one(level)
        for _ in range(3):
            g = rng.choice(eng.rs.roots)
            x = eng.multiply(x, eng.divided_power(g, rng.randint(0, 3), level))
        text = serialize_element(x)
        assert parse_element(text, eng, level).equals(x)


def test_parse_rejects_garbage():
    eng = Engine(build_root_system("A1"), 2)
    for bad in ("e[2]^(1)", "e[1]^(1)*)", "", "q[1]^(2)", "e[1 0]^(1)"):
        with pytest.raises(ParseError):
            parse_element(bad, eng, 1)


def test_mu_subcommand(capsys):
    code, out = run_cli(
        capsys, "mu", "--lambda", "1", "--n", "1", "--type", "A1", "--p", "2",
        "--level", "1",
    )
    assert code == 0
    payload = json.loads(out)
    # indicator of the odd coset: binom(h, 1) in the binomial basis
    assert payload["text"] == "H(0,1)"


def test_structconsts_subcommand(capsys):
    code, out = run_cli(capsys, "structconsts", "--type", "G2")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "G2"
    rows = payload["constants"]
    assert {"first": [1, 0], "second": [0, 1], "sum": [1, 1],
            "bracket_const": 1} in rows


def test_basis_subcommand(capsys):
    code, out = run_cli(
        capsys, "basis", "--space", "zero", "--r", "1", "--type", "A2",
        "--p", "2", "--level", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 4
    assert all(lab.startswith("mu(") for lab in payload["elements"])


def test_verify_subcommand_pass(capsys):
    code, out = run_cli(
        capsys, "verify", "--statement", "Thm4.5-first", "--type", "A1",
        "--p", "2", "--r", "1", "--n", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["bijective"] is True


def _error(captured):
    """The message of the one JSON error line on stderr."""
    assert captured.out == ""
    line, rest = captured.err.split("\n", 1)
    assert rest == ""
    payload = json.loads(line)
    assert list(payload) == ["error"] and isinstance(payload["error"], str)
    return payload["error"]


def test_verify_requires_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["verify"])


@pytest.mark.parametrize("p", ["0", "1"])
def test_verify_rejects_non_prime(capsys, p):
    code = main(["verify", "--statement", "Thm4.5-first", "--type", "A2", "--p", p])
    captured = capsys.readouterr()
    assert code == 1
    assert _error(captured) == f"p={p} is not a prime"


def test_verify_rejects_n_on_iterated_statement(capsys):
    code = main(["verify", "--statement", "Prop5.1-second", "--type", "A2",
                 "--p", "2", "--r", "2", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert _error(captured) == "Prop5.1-second multiplies depth-1 factors only; n=3 must be 1"


def test_parse_error_exit_code(capsys):
    code = main(["normalize", "e[9 9]^(1)", "--type", "A2", "--p", "2",
                 "--level", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert _error(captured)


def test_verify_accepts_threads_flag(capsys):
    code, out = run_cli(
        capsys, "verify", "--statement", "Thm4.5-first", "--type", "A1",
        "--p", "2", "--threads", "1",
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["bijective"] is True


def test_fr_subcommand(capsys):
    code, out = run_cli(
        capsys, "fr", "e[1]^(2)", "--type", "A1", "--p", "2", "--level", "2",
    )
    assert code == 0
    assert json.loads(out)["text"] == "e[1]^(1)"


def test_frsplit_subcommand(capsys):
    code, out = run_cli(
        capsys, "frsplit", "e[1]^(1)", "--type", "A1", "--p", "2",
        "--level", "2",
    )
    assert code == 0
    assert json.loads(out)["text"] == "e[1]^(2)"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(
        ["normalize", "1", "--type", "A1", "--p", "2", "--level", "1",
         "--out", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text())["text"] == "1"


@pytest.mark.parametrize("p", ["4", "191"])
def test_mul_rejects_unsupported_prime(capsys, p):
    code = main(["mul", "e[1]^(1)", "f[1]^(1)", "--type", "A1", "--p", p,
                 "--level", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert _error(captured)


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "e[1]^(1)", "f[1]^(1)", "--p", "2", "--level", "-1"],
        ["mul", "e[1]^(1)", "f[1]^(1)", "--p", "2", "--level", "0"],
        ["verify", "--statement", "Thm4.5-first", "--type", "A1", "--p", "2", "--r", "-1"],
        ["verify", "--statement", "Thm4.5-first", "--type", "A1", "--p", "2", "--n", "0"],
        ["fr", "e[1]^(2)", "--r", "-1"],
        ["frsplit", "e[1]^(2)", "--r", "-1"],
        ["basis", "--r", "-1"],
        ["mu", "--lambda", "1", "--n", "1", "--type", "A2"],
        ["mu", "--lambda", "1 0", "--n", "1", "--type", "A1"],
        ["mu", "--lambda", "1", "--n", "-1"],
        # Fr'^r past the level on a table that is not constant
        ["frsplit", "H(0,1)", "--type", "A2", "--p", "2", "--level", "1", "--r", "2"],
        # grammar refusals: weight rank, idempotent level above the torus
        # level, a coefficient after a factor, Cartan index out of range
        ["normalize", "mu(1; 1)", "--type", "A2", "--p", "2", "--level", "1"],
        ["normalize", "mu(1 0; 2)", "--type", "A2", "--p", "2", "--level", "1"],
        ["normalize", "e[1 0]^(1)*2", "--type", "A2", "--p", "2", "--level", "1"],
        ["normalize", "H(2,1)", "--type", "A2", "--p", "2", "--level", "1"],
    ],
)
def test_rejects_out_of_range_level_and_depth(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert _error(captured)


def test_mu_factor_normalizes_to_the_mu_subcommand(capsys):
    flags = ["--type", "A2", "--p", "2", "--level", "1"]
    code, out = run_cli(capsys, "normalize", "mu(1 0; 1)", *flags)
    assert code == 0
    assert run_cli(capsys, "mu", "--lambda", "1 0", "--n", "1", *flags) == (0, out)


def test_depth_zero_is_the_identity(capsys):
    x = "e[1]^(2)*f[1]^(1)"
    _, normal = run_cli(capsys, "normalize", x)
    for cmd in ("fr", "frsplit"):
        assert run_cli(capsys, cmd, x, "--r", "0") == (0, normal)
    code, out = run_cli(capsys, "basis", "--r", "0")
    assert code == 0
    assert json.loads(out)["elements"] == ["1"]


# sha256 of the JSON each command prints, pinned so that an engine change
# which alters any coefficient, torus table or term order shows here.  Every
# input has raising-lowering collisions with raising factors to their left.
_PINNED = [
    ("mul", "A2", "3", ["e[1 0]^(1)*e[1 1]^(2)", "f[1 1]^(2)*f[1 0]^(1)"],
     "990748658e0cf6a864c2795265e4e60a217c5258c83fb2c8637d288bc78c7f2b"),
    ("normalize", "A2", "3", ["e[1 1]^(1)*H(0,2)*f[1 1]^(2)"
                              " + 2*e[0 1]^(2)*e[1 1]^(1)*f[0 1]^(1)*f[1 0]^(1)"],
     "58ab6e9dbbb0f1199eaf4eaf7bbb7521f00ab89481809f7c64abae5cf50c6116"),
    ("frsplit", "A2", "3", ["e[1 0]^(1)*e[1 1]^(1)*f[1 1]^(1)*f[0 1]^(1)"],
     "8ee972b26dfb8aa8f82edf05e47a2f1e53e5f0da373ec7abeb4be47ae4df37a9"),
    ("mul", "B2", "3", ["e[1 0]^(1)*e[1 1]^(2)", "f[1 1]^(1)*f[1 0]^(2)"],
     "b3e30ece865e4edee50bbd3be3c3eacf5308577631e543802495e94db9d5f08a"),
    ("normalize", "B2", "3", ["e[0 1]^(2)*e[1 1]^(1)*f[2 1]^(1)*f[1 0]^(1)"
                              " + H(1,1)*f[1 1]^(1)"],
     "db477f4e75b724b6cb793b7c2f23faa42b9f84aa10b6e709c28e78f0cf988cda"),
    ("frsplit", "B2", "2", ["e[1 0]^(1)*e[1 1]^(1)*f[1 1]^(1)*f[0 1]^(1)"],
     "9946a9b445cef51b42d2b387dcd1d07e1b887326d8540fc632393c2e8b6d9d98"),
    ("mul", "G2", "3", ["e[1 0]^(1)*e[2 1]^(1)", "f[2 1]^(1)*f[3 1]^(1)"],
     "e0577d137768542aab46613b60cc6025731f7dff49352a0f9bd32dd8bfe40018"),
    ("normalize", "G2", "2", ["e[1 0]^(2)*e[1 1]^(1)*f[1 1]^(2)*f[0 1]^(1)"],
     "5d2391ec926a0ae71bb02a2086f3e04163863c57fbcac407283767be066e9168"),
    ("frsplit", "G2", "2", ["e[1 0]^(1)*e[1 1]^(1)*f[1 1]^(1)*f[0 1]^(1)"],
     "4d7856471a6fe0c92f97b72834e309c6fcf71fb5fd8516387806476443b38399"),
]


@pytest.mark.parametrize("cmd,system,p,elements,digest", _PINNED,
                         ids=[f"{cmd}-{system}-p{p}" for cmd, system, p, _, _ in _PINNED])
def test_output_is_pinned(capsys, cmd, system, p, elements, digest):
    code, out = run_cli(capsys, cmd, *elements, "--type", system, "--p", p, "--level", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
