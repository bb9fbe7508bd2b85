"""Command-line interface: exit codes, determinism, formats, environment."""

import json
import os
import pathlib
import subprocess
import sys
from time import perf_counter, process_time

import pytest

from gaext.cli import (EXIT_FAIL, EXIT_INDETERMINATE, EXIT_PASS, EXIT_USAGE,
                       build_parser, main)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_family2_passes(capsys):
    code, out, _ = run(capsys, "verify", "family2", "--p", "2", "--q", "1",
                       "--nu-max", "1")
    assert code == EXIT_PASS
    assert out.startswith("suite\tfamily2")
    assert "overall=pass" in out


def test_verify_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "gluing", "--n", "2")
    _, out2, _ = run(capsys, "verify", "gluing", "--n", "2")
    assert out1 == out2


def test_structured_format_is_json(capsys):
    code, out, _ = run(capsys, "verify", "smoothext", "--format", "structured")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["suite"] == "smoothext"
    assert payload["overall"] == "pass"
    assert payload["checks"]


def test_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "family1", "--n", "0")
    assert code == EXIT_USAGE
    assert "family1 needs --n >= 1" in err
    code, _, _ = run(capsys, "verify", "no-such-suite")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_negative_nu_max_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "family1", "--n", "1", "--nu-max", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error:")
    assert "--nu-max" in err


def test_seed_flag_is_rejected(capsys):
    code, out, _ = run(capsys, "verify", "smoothext", "--seed", "1")
    assert code == EXIT_USAGE
    assert out == ""


def test_membership_member(capsys):
    code, out, _ = run(capsys, "membership", "u*v + v^2", "--n", "1")
    assert code == EXIT_PASS
    assert any(line.startswith("member\t") for line in out.splitlines())


def test_membership_nonmember(capsys):
    code, out, _ = run(capsys, "membership", "t^5*u", "--n", "1")
    assert code == EXIT_FAIL
    assert any(line.startswith("not-member\t") for line in out.splitlines())


def test_membership_parse_error(capsys):
    code, _, err = run(capsys, "membership", "t + x", "--n", "1")
    assert code == EXIT_USAGE
    assert "parse error" in err


def test_membership_zero_denominator_is_a_parse_error(capsys):
    code, out, err = run(capsys, "membership", "--n", "1", "--", "2/0")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "parse error: zero denominator in 2/0\n"


def test_trunc_scale_env(capsys, monkeypatch):
    monkeypatch.setenv("LND_TRUNC_SCALE", "1.5")
    code, out, _ = run(capsys, "verify", "family1", "--n", "1", "--nu-max", "1")
    assert code == EXIT_PASS
    # the scaled degree bound 7 -> 10 appears in the graded-ideal check line
    assert "d=10" in out
    for bad in ("-1", "nan", "inf", "1e308"):
        monkeypatch.setenv("LND_TRUNC_SCALE", bad)
        code, _, _ = run(capsys, "verify", "family1", "--n", "1", "--nu-max", "1")
        assert code == EXIT_USAGE


def test_scaled_family2_spans_stay_one_generator_long(capsys, monkeypatch):
    # a scale of 2 doubles family two's word bound to 2; its generators span
    # the truncated algebra already, so the words stay one generator long
    monkeypatch.setenv("LND_TRUNC_SCALE", "2")
    start = process_time()
    code, out, _ = run(capsys, "verify", "family2", "--p", "1", "--q", "1", "--nu-max", "1")
    assert process_time() - start < 2  # tens of seconds with two-generator words
    assert code == EXIT_PASS
    assert out.splitlines() == [
        "suite\tfamily2\tp=1,q=1,nu_max=1\toverall=pass",
        "derivation-homogeneous\tpass\tp=1,q=1\tweight shift 2",
        "base-identity\tpass\tp=1,q=1\t",
        "bezout\tpass\tp=1,q=1\tm=1,n=0",
        "graded-ideal\tpass\tp=1,q=1,nu=1,L=2,d=16\tm_1 vs weighted(1,1,1)",
        "positive-weight-stable\tpass\tp=1,q=1\t",
    ]


def test_explicit_truncation_flags(capsys):
    code, out, _ = run(capsys, "verify", "family1", "--n", "1", "--nu-max", "1",
                       "--trunc-deg", "8")
    assert code == EXIT_PASS
    assert "d=8" in out


def test_cross_family_probe_honours_truncation_flags(capsys):
    code, out, _ = run(capsys, "verify", "cross-family", "--nu-max", "1")
    assert code == EXIT_PASS
    probe_lines = [line for line in out.splitlines()
                   if line.startswith(("dominating-level", "generator-membership"))]
    assert len(probe_lines) == 7
    assert probe_lines[0] == ("dominating-level\tpass\tL=1,d=10\t"
                              "least n with <x,y>^(n+2) inside m_1: 1")
    assert all("L=1,d=10" in line for line in probe_lines)
    code, out, _ = run(capsys, "verify", "cross-family", "--nu-max", "1",
                       "--trunc-deg", "8")
    assert code == EXIT_PASS
    probe_lines = [line for line in out.splitlines()
                   if line.startswith(("dominating-level", "generator-membership"))]
    assert len(probe_lines) == 7
    assert all("L=1,d=8\t" in line for line in probe_lines)


def test_sequence_axioms_suite(capsys):
    code, out, _ = run(capsys, "verify", "sequence-axioms", "--nu-max", "2",
                       "--n", "1")
    assert code == EXIT_PASS
    assert "axiom-descending" in out
    assert "axiom-multiplicative" in out


def test_parser_help_does_not_crash():
    parser = build_parser()
    assert parser.prog == "gaext"


@pytest.mark.parametrize("module", ["gaext", "gaext.cli"])
def test_module_entry_points(module, capsys):
    env = dict(os.environ)
    env.pop("LND_TRUNC_SCALE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120, check=False)

    done = run_module("verify", "gluing", "--n", "1")
    _, expected, _ = run(capsys, "verify", "gluing", "--n", "1")
    assert done.returncode == EXIT_PASS
    assert done.stdout == expected
    assert expected.startswith("suite\tgluing")
    assert run_module("verify", "gluing", "--n", "1", "--nu-max", "-1").returncode == EXIT_USAGE


def test_family1_nu_max_4_is_fast(capsys):
    start = perf_counter()
    code, out, _ = run(capsys, "verify", "family1", "--n", "1", "--nu-max", "4")
    assert code == EXIT_PASS
    assert "graded-ideal\tpass\tn=1,nu=4" in out
    assert perf_counter() - start < 30


@pytest.mark.parametrize("argv, message", [
    (("membership", "u*v", "--n", "1", "--max-steps", "-1"), "--max-steps must be >= 0"),
    (("verify", "section7", "--trunc-deg", "-3"), "--trunc-deg must be >= 0"),
    (("verify", "family1", "--n", "1", "--trunc-len", "-1"), "--trunc-len must be >= 0"),
    (("verify", "gluing", "--n", "1", "--p", "0"), "--p must be >= 1"),
    (("verify", "smoothext", "--q", "0"), "--q must be >= 1"),
    (("verify", "gluing", "--n", "-1"), "--n must be >= 0"),
])
def test_out_of_range_flags_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_zero_max_steps_is_valid(capsys):
    code, out, _ = run(capsys, "membership", "u*v", "--n", "1", "--max-steps", "0")
    assert code == EXIT_INDETERMINATE
    assert "status\tStepLimit(max_steps=0)" in out.splitlines()


@pytest.mark.parametrize("argv, lines", [
    (("verify", "family1", "--n", "1", "--nu-max", "2", "--trunc-deg", "4"),
     ["graded-ideal\tindeterminate\tn=1,nu=2,L=2,d=4\tm_2 vs <x,y>^6: missing x^6",
      "degree-one-generation\tindeterminate\tn=1,nu=2,L_1=1,d_1=4,L_2=2,d_2=4\t"
      "y^6 in m_1^2 but not in m_2"]),
    (("verify", "cross-family", "--trunc-deg", "2"),
     ["p0-graded-ideal\tindeterminate\tnu=2,L=1,d=2\tm_2(P(1,1)) vs <x,y>^4: missing x^4",
      "dominating-level\tindeterminate\tL=1,d=2\t"
      "least n with <x,y>^(n+2) inside m_1: None"]),
])
def test_truncated_lower_bounds_are_indeterminate(capsys, argv, lines):
    # the computed m_2 is the zero ideal here, strictly inside the expected one
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_INDETERMINATE
    indeterminate = [line for line in out.splitlines() if "\tindeterminate\t" in line]
    assert indeterminate == lines
    assert "\tfail\t" not in out


@pytest.mark.parametrize("scale, flags", [
    (None, ("--trunc-deg", "3")),
    (None, ("--trunc-len", "1")),
    ("0.5", ()),
])
@pytest.mark.parametrize("suite", [
    ("family1", "--n", "1"),
    ("family2", "--p", "2", "--q", "1"),
    ("cross-family",),
    ("sequence-axioms", "--n", "1"),
])
def test_tighter_bounds_never_fail(capsys, monkeypatch, suite, scale, flags):
    # every computed level is a lower bound, so cutting it shorter can leave
    # a claim open but never disprove it
    if scale is None:
        monkeypatch.delenv("LND_TRUNC_SCALE", raising=False)
    else:
        monkeypatch.setenv("LND_TRUNC_SCALE", scale)
    code, out, _ = run(capsys, "verify", *suite, "--nu-max", "2", *flags)
    assert code != EXIT_FAIL
    assert "\tfail\t" not in out


def test_step_limit_status_line(capsys):
    code, out, _ = run(capsys, "membership", "u*v", "--n", "1", "--max-steps", "0")
    assert code == EXIT_INDETERMINATE
    assert out.splitlines()[:2] == ["input\tv*u\tn=1", "status\tStepLimit(max_steps=0)"]
