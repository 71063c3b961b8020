"""Exit-code contract, report records, and byte-level determinism."""

import contextlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


# a deadlocked worker pool fails the test instead of hanging the suite
CLI_TIMEOUT_S = 300


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "qcongruence", *args],
        capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S,
    )


# flags a kind would not read, given last: usage errors, not ignored
UNREAD_FLAGS = [
    ("verify", "thm1", "--d", "5", "--r", "1", "--n", "4", "--p", "7"),
    ("verify", "thm1", "--d", "5", "--r", "1", "--n", "4", "--alpha", "1"),
    ("verify", "thm1", "--d", "5", "--r", "1", "--n", "4", "--k-max", "3"),
    ("verify", "lemma4", "--d", "5", "--r", "1", "--n", "7", "--trunc", "upper"),
    ("verify", "modsquare", "--r", "1", "--n", "7", "--trunc", "full"),
    ("verify", "vanhamme", "--p", "5", "--trunc", "upper"),
    ("verify", "vanhamme", "--p", "5", "--d", "5"),
]

# one exit-code row per contract case: 0 pass, 1 fail, 2 usage/hypothesis
EXIT_MATRIX = [
    (("verify", "thm1", "--d", "5", "--r", "1", "--n", "4", "--trunc", "upper"), 0),
    (("verify", "thm1", "--d", "5", "--r", "3", "--n", "9"), 2),
    (("verify", "thm1", "--d", "5", "--r", "1", "--n", "8"), 2),
    (("verify", "thm2", "--d", "5", "--r", "1", "--n", "7", "--trunc", "full"), 0),
    (("verify", "conj1", "--d", "5", "--n", "9", "--trunc", "full"), 0),
    (("verify", "conj3", "--d", "5", "--r", "1", "--n", "7"), 0),
    (("verify", "lemma3", "--d", "5", "--r", "1", "--n", "4"), 0),
    (("verify", "lemma3", "--d", "5", "--r", "1", "--n", "5"), 2),
    (("verify", "lemma4", "--d", "5", "--r", "1", "--n", "7"), 0),
    (("verify", "lemma4", "--d", "5", "--r", "1", "--n", "8"), 2),
    (("verify", "modsquare", "--alpha", "1", "--r", "1", "--n", "7", "--d", "5"), 0),
    (("verify", "vanhamme", "--p", "5"), 0),
    (("verify", "vanhamme", "--p", "3"), 2),
    (("verify", "thm1", "--d", "5", "--r", "1"), 2),          # missing --n
    (("verify", "nonsense",), 2),
    (("verify", "thm1", "--d", "5", "--r", "1", "--n", "4", "--seed", "3"), 2),
    *((args, 2) for args in UNREAD_FLAGS),
]


@pytest.mark.parametrize("args,code", EXIT_MATRIX, ids=[" ".join(a) for a, _ in EXIT_MATRIX])
def test_exit_codes(args, code):
    proc = run_cli(*args)
    assert proc.returncode == code, proc.stderr


def test_verify_fail_exit_code():
    # verified counterexample to the stated profile: FAIL -> exit 1
    proc = run_cli("verify", "thm1", "--d", "5", "--r", "1", "--n", "9")
    assert proc.returncode == 1
    rec = json.loads(proc.stdout)
    assert rec["status"] == "FAIL"
    assert rec["achieved"]["3"] == 0


def test_verify_record_shape():
    proc = run_cli("verify", "thm1", "--d", "5", "--r", "1", "--n", "4", "--oracle")
    rec = json.loads(proc.stdout)
    assert rec["command"] == "verify thm1"
    assert rec["case"] == {"d": 5, "r": 1, "n": 4, "variant": "thm1", "trunc": "upper"}
    assert rec["modulus"] == {"2": 1, "4": 3}
    assert rec["status"] == "PASS"
    assert rec["oracle"] == "PASS"
    assert rec["elapsed_ms"] is None
    assert rec["term_count"] == 4


def test_verify_power_override():
    proc = run_cli("verify", "thm2", "--d", "5", "--r", "1", "--n", "7",
                   "--power", "3")
    rec = json.loads(proc.stdout)
    assert rec["modulus"] == {"7": 4}
    assert proc.returncode == 0
    # the override can also push a true statement past its actual strength
    proc = run_cli("verify", "thm1", "--d", "5", "--r", "1", "--n", "4",
                   "--power", "3")
    rec = json.loads(proc.stdout)
    assert rec["modulus"] == {"2": 1, "4": 4}
    assert proc.returncode == 1 and rec["achieved"]["4"] == 3


def test_hypothesis_violations_named():
    proc = run_cli("verify", "thm1", "--d", "5", "--r", "3", "--n", "9")
    assert "r <= d - 4" in proc.stderr


def test_verify_output_file(tmp_path):
    out = tmp_path / "check.jsonl"
    proc = run_cli("verify", "vanhamme", "--p", "7", "--output", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    rec = json.loads(out.read_text())
    assert rec["status"] == "PASS" and rec["modulus"] == {"7": 4}


def test_identity_commands():
    proc = run_cli("identity", "andrews", "--m", "2", "--N", "3",
                   "--trials", "4", "--seed", "42")
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 4
    assert all(r["status"] == "PASS" for r in records)
    proc = run_cli("identity", "gasper-km", "--m", "2", "--N", "3",
                   "--trials", "4", "--seed", "7")
    assert proc.returncode == 0
    proc = run_cli("identity", "multi-km", "--m", "3", "--trials", "2", "--seed", "1")
    assert proc.returncode == 0


def test_identity_deterministic_for_seed():
    a = run_cli("identity", "watson", "--trials", "3", "--seed", "5").stdout
    b = run_cli("identity", "watson", "--trials", "3", "--seed", "5").stdout
    assert a == b


def test_sweep_deterministic_across_jobs(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base = ("sweep", "--theorem", "thm2", "--d-max", "5", "--n-max", "9",
            "--r-min", "-3", "--r-max", "1", "--seed", "11")
    p1 = run_cli(*base, "--jobs", "1", "--output", str(out1))
    p2 = run_cli(*base, "--jobs", "3", "--output", str(out2))
    assert p1.returncode == p2.returncode
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_empty_grid():
    # a grid that selects no case is a usage error that names its bounds
    # (conj1 and conj2 fix r, so the line names that r and not the r range)
    for args, named, unnamed in (
            (("--theorem", "thm1", "--d-max", "5", "--n-max", "3",
              "--r-min", "1", "--r-max", "1"),
             ("d <= 5", "n <= 3", "1 <= r <= 1"), ()),
            (("--theorem", "thm1", "--r-min", "5", "--r-max", "-5"),
             ("5 <= r <= -5",), ()),
            (("--theorem", "thm1", "--d-max", "3"), ("d <= 3",), ()),
            (("--conjecture", "conj1", "--d-max", "3"),
             ("d <= 3", "r = 1"), ("<= r <=",)),
            (("--conjecture", "conj2", "--d-max", "3"),
             ("d <= 3", "r = -1"), ("<= r <=",))):
        proc = run_cli("sweep", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert all(text in line for text in named)
        assert not any(text in line for text in unnamed)


@pytest.mark.parametrize("kind,r", [("conj1", 1), ("conj2", -1)])
@pytest.mark.parametrize("bounds", [("--r-min", "3", "--r-max", "3"), ("--r-min", "-5"),
                                    ("--r-max", "5")], ids=" ".join)
def test_sweep_fixed_r_conjecture_rejects_r_bounds(kind, r, bounds):
    # conj1 and conj2 fix r, so an r range there would be echoed but not used
    proc = run_cli("sweep", "--conjecture", kind, "--d-max", "5", "--n-max", "9", *bounds)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"fixes r = {r}" in proc.stderr and "--r-min" in proc.stderr


def test_sweep_fixed_r_conjecture_accepts_the_default_bounds():
    base = ("sweep", "--conjecture", "conj1", "--d-max", "5", "--n-max", "9")
    plain = run_cli(*base)
    spelled = run_cli(*base, "--r-min", "-7", "--r-max", "7")
    assert plain.returncode == spelled.returncode == 0
    assert plain.stdout == spelled.stdout
    header = json.loads(plain.stdout.splitlines()[0])
    assert (header["r_min"], header["r_max"]) == (-7, 7)


def test_sweep_conjecture_mode_informational():
    # conjecture sweeps exit 0 regardless of verdicts
    proc = run_cli("sweep", "--conjecture", "conj3", "--d-max", "5",
                   "--n-max", "8", "--r-min", "-1", "--r-max", "-1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    statuses = {json.loads(l)["status"] for l in lines[1:]}
    assert statuses  # records were produced


def test_sweep_bounds_guard():
    proc = run_cli("sweep", "--theorem", "thm1", "--d-max", "11", "--n-max", "10")
    assert proc.returncode == 2


def test_verify_power_keeps_oracle_and_timing():
    proc = run_cli("verify", "thm1", "--d", "5", "--r", "1", "--n", "4",
                   "--power", "3", "--oracle")
    rec = json.loads(proc.stdout)
    assert rec["modulus"] == {"2": 1, "4": 4}
    assert rec["oracle"] == "FAIL"
    assert proc.returncode == 1
    # the record's elapsed_ms is None by design, so the timing shows only on
    # stderr; it must be read there as a number, not matched as rounded text
    timing = re.search(r"\(([0-9.]+) ms\)", proc.stderr)
    assert timing and float(timing.group(1)) > 0


# verify records pinned byte for byte, so that a change to how a kind is
# dispatched cannot change a record
PINNED_VERIFY = [
    (("thm1", "--d", "5", "--r", "1", "--n", "4", "--power", "3", "--oracle"), 1,
     '{"command": "verify thm1", "case": {"d": 5, "r": 1, "n": 4, "variant": "thm1", '
     '"trunc": "upper"}, "modulus": {"2": 1, "4": 4}, "achieved": {"2": 4, "4": 3}, '
     '"status": "FAIL", "term_count": 4, "elapsed_ms": null, "seed": null, "oracle": "FAIL"}'),
    (("conj1", "--d", "5", "--n", "9", "--trunc", "full"), 0,
     '{"command": "verify conj1", "case": {"d": 5, "r": 1, "n": 9, "variant": "thm1", '
     '"trunc": "full"}, "modulus": {"9": 3}, "achieved": {"9": 3}, "status": "PASS", '
     '"term_count": 9, "elapsed_ms": null, "seed": null}'),
    (("conj2", "--d", "5", "--n", "3"), 0,
     '{"command": "verify conj2", "case": {"d": 5, "r": -1, "n": 3, "variant": "thm2", '
     '"trunc": "upper"}, "modulus": {"3": 4}, "achieved": {"3": 4}, "status": "PASS", '
     '"term_count": 3, "elapsed_ms": null, "seed": null}'),
    # each optional flag left out, so that its default shows
    (("vanhamme",), 0,
     '{"command": "verify vanhamme", "case": {"p": 5}, "modulus": {"5": 4}, '
     '"achieved": {"5": 4}, "status": "PASS", "term_count": 3, "elapsed_ms": null, '
     '"seed": null}'),
    (("modsquare", "--r", "1", "--n", "5"), 0,
     '{"command": "verify modsquare", "case": {"alpha": 1, "r": 1, "n": 5, "d": 5, '
     '"k_max": 3}, "modulus": {"5": 2}, "achieved": {"5": 2}, "status": "PASS", '
     '"term_count": 4, "elapsed_ms": null, "seed": null}'),
    (("lemma3", "--r", "1", "--n", "4"), 0,
     '{"command": "verify lemma3", "case": {"d": 5, "r": 1, "n": 4, "trunc": "upper"}, '
     '"modulus": {"2": 1, "4": 1}, "achieved": {"2": 4, "4": 3}, "status": "PASS", '
     '"term_count": 4, "elapsed_ms": null, "seed": null}'),
    (("lemma4", "--r", "1", "--n", "7"), 0,
     '{"command": "verify lemma4", "case": {"d": 5, "r": 1, "n": 7}, "modulus": {}, '
     '"achieved": {}, "status": "PASS", "term_count": 4, "elapsed_ms": null, "seed": null}'),
    (("conj2", "--n", "6"), 0,
     '{"command": "verify conj2", "case": {"d": 5, "r": -1, "n": 6, "variant": "thm1", '
     '"trunc": "upper"}, "modulus": {"6": 3}, "achieved": {"6": 3}, "status": "PASS", '
     '"term_count": 6, "elapsed_ms": null, "seed": null}'),
    # an identically-zero difference: its valuation is written "infinite"
    (("modsquare", "--alpha", "0", "--r", "1", "--n", "7"), 0,
     '{"command": "verify modsquare", "case": {"alpha": 0, "r": 1, "n": 7, "d": 5, '
     '"k_max": 3}, "modulus": {"7": 2}, "achieved": {"7": "infinite"}, "status": "PASS", '
     '"term_count": 4, "elapsed_ms": null, "seed": null}'),
]


@pytest.mark.parametrize("args,code,line", PINNED_VERIFY,
                         ids=[" ".join(a) for a, _, _ in PINNED_VERIFY])
def test_verify_record_bytes(args, code, line):
    proc = run_cli("verify", *args)
    assert proc.returncode == code
    assert proc.stdout == line + "\n"


# identity records pinned byte for byte, one row per (kind, m) the benchmark
# draws: a draw that starts or stops raising VanishingDenominator shifts
# "resamples" and every later draw of the run, which comparing a run with
# itself cannot show
PINNED_IDENTITY = [
    (("andrews", 2), [
        '{"command": "identity andrews", "trial": 0, "params": {"a": 11, "pairs": [[8, '
         '4], [-12, 2]], "N": 3}, "status": "PASS", "resamples": 1, "elapsed_ms": null, '
         '"seed": 5}',
        '{"command": "identity andrews", "trial": 1, "params": {"a": 12, '
         '"pairs": [[-5, 8], [-11, -7]], "N": 3}, "status": "PASS", "resamples": 0, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity andrews", "trial": 2, "params": {"a": -9, '
         '"pairs": [[-1, 3], [-5, 0]], "N": 3}, "status": "PASS", "resamples": 0, '
         '"elapsed_ms": null, "seed": 5}',
    ]),
    (("andrews", 3), [
        '{"command": "identity andrews", "trial": 0, "params": {"a": 4, '
         '"pairs": [[-12, 2], [12, -5], [8, -11]], "N": 3}, "status": "PASS", '
         '"resamples": 1, "elapsed_ms": null, "seed": 5}',
        '{"command": "identity andrews", "trial": 1, "params": {"a": -8, "pairs": [[7, '
         '7], [2, -8], [-8, -12]], "N": 3}, "status": "PASS", "resamples": 3, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity andrews", "trial": 2, "params": {"a": -2, '
         '"pairs": [[-6, 5], [9, 8], [-6, -7]], "N": 3}, "status": "PASS", '
         '"resamples": 1, "elapsed_ms": null, "seed": 5}',
    ]),
    (("andrews", 4), [
        '{"command": "identity andrews", "trial": 0, "params": {"a": 1, "pairs": [[-4, '
         '-7], [12, 0], [-7, 12], [-10, -8]], "N": 3}, "status": "PASS", '
         '"resamples": 3, "elapsed_ms": null, "seed": 5}',
        '{"command": "identity andrews", "trial": 1, "params": {"a": 7, "pairs": [[7, '
         '2], [-8, -8], [-12, -12], [-6, 12]], "N": 3}, "status": "PASS", '
         '"resamples": 0, "elapsed_ms": null, "seed": 5}',
        '{"command": "identity andrews", "trial": 2, "params": {"a": 10, '
         '"pairs": [[-2, -7], [3, 3], [10, -7], [-11, -4]], "N": 3}, "status": "PASS", '
         '"resamples": 4, "elapsed_ms": null, "seed": 5}',
    ]),
    (("watson", 2), [
        '{"command": "identity watson", "trial": 0, "params": {"a": 11, "b": 8, '
         '"c": 4, "d": -12, "e": 2, "N": 3}, "status": "PASS", "resamples": 1, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity watson", "trial": 1, "params": {"a": 12, "b": -5, '
         '"c": 8, "d": -11, "e": -7, "N": 3}, "status": "PASS", "resamples": 0, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity watson", "trial": 2, "params": {"a": -9, "b": -1, '
         '"c": 3, "d": -5, "e": 0, "N": 3}, "status": "PASS", "resamples": 0, '
         '"elapsed_ms": null, "seed": 5}',
    ]),
    (("gasper-km", 2), [
        '{"command": "identity gasper-km", "trial": 0, "params": {"a": 11, "e": [8, '
         '4], "nondeg": [2, 0], "N": 3}, "status": "PASS", "resamples": 1, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity gasper-km", "trial": 1, "params": {"a": 12, "e": [-5, '
         '8], "nondeg": [0, 1], "N": 3}, "status": "PASS", "resamples": 0, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity gasper-km", "trial": 2, "params": {"a": 11, "e": [-6, '
         '1], "nondeg": [0, 0], "N": 3}, "status": "PASS", "resamples": 2, '
         '"elapsed_ms": null, "seed": 5}',
    ]),
    (("gasper-km", 3), [
        '{"command": "identity gasper-km", "trial": 0, "params": {"a": 8, "e": [4, '
         '-12, 2], "nondeg": [2, 0, 0], "N": 3}, "status": "PASS", "resamples": 1, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity gasper-km", "trial": 1, "params": {"a": -8, "e": [7, 7, '
         '2], "nondeg": [1, 0, 0], "N": 3}, "status": "PASS", "resamples": 3, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity gasper-km", "trial": 2, "params": {"a": -12, "e": [-6, '
         '12, -6], "nondeg": [0, 0, 0], "N": 3}, "status": "PASS", "resamples": 0, '
         '"elapsed_ms": null, "seed": 5}',
    ]),
    (("multi-km", 2), [
        '{"command": "identity multi-km", "trial": 0, "params": {"a": 11, "e": [8, 4], '
         '"nondeg": [2, 0], "N": 3}, "status": "PASS", "resamples": 1, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity multi-km", "trial": 1, "params": {"a": 12, "e": [-5, '
         '8], "nondeg": [0, 1], "N": 3}, "status": "PASS", "resamples": 0, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity multi-km", "trial": 2, "params": {"a": 11, "e": [-6, '
         '1], "nondeg": [0, 0], "N": 3}, "status": "PASS", "resamples": 2, '
         '"elapsed_ms": null, "seed": 5}',
    ]),
    (("multi-km", 3), [
        '{"command": "identity multi-km", "trial": 0, "params": {"a": -8, "e": [7, 7, '
         '2], "nondeg": [1, 0, 0], "N": 3}, "status": "PASS", "resamples": 5, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity multi-km", "trial": 1, "params": {"a": -2, "e": [-6, 5, '
         '9], "nondeg": [0, 0, 1], "N": 3}, "status": "PASS", "resamples": 1, '
         '"elapsed_ms": null, "seed": 5}',
        '{"command": "identity multi-km", "trial": 2, "params": {"a": -6, "e": [-7, '
         '10, -6], "nondeg": [2, 0, 0], "N": 3}, "status": "PASS", "resamples": 0, '
         '"elapsed_ms": null, "seed": 5}',
    ]),
]


@pytest.mark.parametrize("spec,lines", PINNED_IDENTITY,
                         ids=[f"{kind}-m{m}" for (kind, m), _ in PINNED_IDENTITY])
def test_identity_record_bytes(spec, lines, capsys):
    from qcongruence import cli

    kind, m = spec
    argv = ["identity", kind, "--m", str(m), "--N", "3", "--trials", "3", "--seed", "5"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def test_identity_watson_evaluates_each_trial_once(monkeypatch, capsys):
    from qcongruence import cli

    calls = []
    real = cli.watson_pair

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "watson_pair", counting)
    assert cli.main(["identity", "watson", "--trials", "3", "--seed", "5"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 3
    assert len(calls) == 3 + sum(r["resamples"] for r in records)


# flags that do not apply to a verify kind are usage errors, not no-ops;
# the misused flag is the last one given
FLAG_MISUSE = [
    ("verify", "conj1", "--d", "5", "--n", "9", "--trunc", "full", "--power", "7"),
    ("verify", "lemma3", "--d", "5", "--r", "1", "--n", "4", "--power", "1"),
    ("verify", "vanhamme", "--p", "5", "--power", "2"),
    ("verify", "lemma4", "--d", "5", "--r", "1", "--n", "7", "--oracle"),
    ("verify", "modsquare", "--alpha", "1", "--r", "1", "--n", "7", "--d", "5", "--oracle"),
    ("verify", "vanhamme", "--p", "5", "--oracle"),
    *UNREAD_FLAGS,
]


@pytest.mark.parametrize("args", FLAG_MISUSE, ids=[" ".join(a) for a in FLAG_MISUSE])
def test_verify_flag_misuse_is_usage_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    flag = [a for a in args if a.startswith("--")][-1]
    error = proc.stderr.splitlines()[-1]
    assert error.endswith(f"error: {flag} does not apply to verify {args[1]}")
    assert proc.stdout == ""


# a value for each verify flag; the zeros must count as given
VERIFY_FLAG_VALUES = {"d": "0", "r": "0", "n": "0", "p": "0", "alpha": "0", "k_max": "0",
                      "trunc": "upper", "power": "0", "oracle": None}


def _verify_argv(kind, names):
    argv = ["verify", kind]
    for name in names:
        value = VERIFY_FLAG_VALUES[name]
        argv += ["--" + name.replace("_", "-")] + ([value] if value is not None else [])
    return argv


VERIFY_KIND_NAMES = ["thm1", "thm2", "conj1", "conj2", "conj3", "lemma3", "lemma4",
                     "modsquare", "vanhamme"]


@pytest.mark.parametrize("kind", VERIFY_KIND_NAMES)
def test_verify_accepts_exactly_the_flags_of_its_row(kind, capsys):
    # in-process: every verify flag, given with its required ones, parses
    # exactly when the kind's row names it; leaving out a required flag fails
    from qcongruence import cli

    required, optional = cli.VERIFY_KINDS[kind]
    for name in VERIFY_FLAG_VALUES:
        argv = _verify_argv(kind, dict.fromkeys((*required, name)))
        if name in required + optional:
            cli._parse_args(cli.build_parser(), argv)
            continue
        with pytest.raises(SystemExit):
            cli._parse_args(cli.build_parser(), argv)
        flag = "--" + name.replace("_", "-")
        assert capsys.readouterr().err.endswith(f"{flag} does not apply to verify {kind}\n")
    for name in required:
        with pytest.raises(SystemExit):
            cli._parse_args(cli.build_parser(), _verify_argv(kind, set(required) - {name}))
        assert capsys.readouterr().err.endswith(f"verify {kind} requires --{name}\n")


def test_verify_kinds_name_every_verify_flag():
    # a new verify flag cannot bypass the table: every row names a flag the
    # verify parser has, and every flag it has is named by some row
    import argparse

    from qcongruence import cli

    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices["verify"]._actions} - {"help", "kind", "output"}
    named = {name for required, optional in cli.VERIFY_KINDS.values()
             for name in required + optional}
    assert named == dests == set(VERIFY_FLAG_VALUES)
    assert list(cli.VERIFY_KINDS) == VERIFY_KIND_NAMES


def test_sweep_parse_keeps_what_the_benchmark_reads():
    # bench/workloads.py enumerates the reference sweep's cases from these
    # parsed attributes; a None among them breaks the benchmark's set-up
    from qcongruence import cli

    args = cli.build_parser().parse_args(["sweep", "--theorem", "thm1",
                                          "--d-max", "7", "--n-max", "20"])
    assert args.theorem == "thm1"
    assert (args.d_max, args.n_max, args.r_min, args.r_max) == (7, 20, -7, 7)


def test_conjecture_zero_d_names_hypothesis():
    proc = run_cli("verify", "conj1", "--d", "0", "--n", "9")
    assert proc.returncode == 2
    assert "hypothesis violated: d must be an odd integer >= 5" in proc.stderr
    assert "error:" not in proc.stderr


def test_verify_bad_power_fails_before_summing(monkeypatch, capsys):
    from qcongruence import cli, hypergeom

    sums = []
    real = hypergeom.truncated_sum

    def counting(*args):
        sums.append(args)
        return real(*args)

    monkeypatch.setattr(hypergeom, "truncated_sum", counting)
    code = cli.main(["verify", "thm1", "--d", "5", "--r", "1", "--n", "4",
                     "--power", "-5"])
    assert code == 2
    assert sums == []
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,checker", [
    (["verify", "vanhamme", "--p", "7"], "van_hamme_check"),
    (["sweep", "--theorem", "thm1", "--d-max", "5", "--n-max", "9"], "check_theorem"),
])
def test_output_into_missing_directory_fails_before_any_sum(monkeypatch, capsys, tmp_path,
                                                            argv, checker):
    from qcongruence import cli

    calls = []
    monkeypatch.setattr(cli, checker, lambda *a, **k: calls.append(a))
    target = tmp_path / "missing" / "x.jsonl"
    assert cli.main(argv + ["--output", str(target)]) == 2
    assert calls == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not target.parent.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_modsquare_nonpositive_n_names_n(n):
    proc = run_cli("verify", "modsquare", "--alpha", "1", "--r", "1", "--n", n, "--d", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["hypothesis violated: n must be a positive integer"]


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_identity_nonpositive_trials_is_usage_error(trials):
    proc = run_cli("identity", "andrews", "--trials", trials)
    assert proc.returncode == 2
    assert "--trials" in proc.stderr
    assert proc.stdout == ""


EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "expected")
with open(os.path.join(EXPECTED, "sweep.json")) as fh:
    STORED_SWEEPS = json.load(fh)


@pytest.mark.parametrize("name", ["tiny", "full"])
def test_sweep_matches_stored_bytes(name):
    sweep = STORED_SWEEPS[name]
    with open(os.path.join(EXPECTED, sweep["stdout"]), "rb") as fh:
        want = fh.read()
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "qcongruence", *sweep["argv"]],
        capture_output=True, env=env,
    )
    assert proc.returncode == sweep["exit"]
    assert proc.stdout == want


TINY_SWEEP = ("sweep", "--theorem", "thm1", "--d-max", "5", "--n-max", "9")
TINY_SWEEP_OUT = os.path.join(EXPECTED, "sweep_tiny.out")


def test_sweep_writes_each_record_when_done(monkeypatch, tmp_path):
    from qcongruence import cli

    real = cli._check_case
    done = []

    def dies_on_third(*args):
        if len(done) == 2:
            raise RuntimeError("worker died")
        done.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_check_case", dies_on_third)
    out = tmp_path / "sweep.jsonl"
    with pytest.raises(RuntimeError):
        cli.main([*TINY_SWEEP, "--jobs", "1", "--output", str(out)])
    with open(TINY_SWEEP_OUT, "rb") as fh:
        want = fh.read().splitlines(keepends=True)[:3]
    assert out.read_bytes() == b"".join(want)


def test_identity_writes_each_record_when_done(monkeypatch, tmp_path):
    from qcongruence import cli

    real = cli._identity_trial
    done = []

    def dies_on_third(*args):
        if len(done) == 2:
            raise RuntimeError("trial died")
        done.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_identity_trial", dies_on_third)
    out = tmp_path / "identity.jsonl"
    with pytest.raises(RuntimeError):
        cli.main(["identity", "andrews", "--trials", "5", "--output", str(out)])
    lines = out.read_text().splitlines()
    assert [json.loads(line)["trial"] for line in lines] == [0, 1]


@pytest.mark.parametrize("kind,m", [("andrews", "1"), ("andrews", "-2"), ("multi-km", "1"),
                                    ("multi-km", "-3"), ("gasper-km", "0")])
def test_identity_m_below_the_kinds_minimum_is_usage_error(kind, m):
    proc = run_cli("identity", kind, "--m", m, "--trials", "1")
    assert proc.returncode == 2
    assert "--m" in proc.stderr and kind in proc.stderr
    assert proc.stdout == ""


def test_identity_gasper_km_runs_with_one_pair():
    proc = run_cli("identity", "gasper-km", "--m", "1", "--trials", "2", "--seed", "3")
    assert proc.returncode == 0
    assert [len(json.loads(line)["params"]["e"]) for line in proc.stdout.splitlines()] == [1, 1]


@pytest.mark.parametrize("power", ["-1", "-5"])
def test_verify_negative_power_names_power(power):
    proc = run_cli("verify", "thm1", "--d", "5", "--r", "1", "--n", "4", "--power", power)
    assert proc.returncode == 2
    assert "--power" in proc.stderr
    assert proc.stdout == ""


def test_sweep_pool_never_exceeds_the_case_count(monkeypatch, capsys):
    # the pool forks every worker it is given, so --jobs is capped at the
    # number of cases; the fake pool maps in-process and forks nothing
    from qcongruence import cli

    sizes = []

    def in_process(fn, count, workers):
        sizes.append(workers)
        yield from map(fn, range(count))

    monkeypatch.setattr(cli, "_fork_map", in_process)
    with open(TINY_SWEEP_OUT) as fh:
        want = fh.read()
    cases = len(want.splitlines()) - 1
    for jobs in (2, cases + 50):
        assert cli.main([*TINY_SWEEP, "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().out == want
    assert sizes == [2, cases]


# runs in one fresh interpreter; prints, per step, the exit codes and
# whether the process pool's (and other unneeded) modules are loaded
POOL_IMPORT_SCRIPT = """
import contextlib, io, json, sys
from qcongruence import cli

def loaded():
    return [name in sys.modules
            for name in ("multiprocessing", "concurrent.futures.process",
                         "dataclasses", "inspect", "fractions", "decimal")]

sweep = ["sweep", "--theorem", "thm1", "--d-max", "5", "--n-max", "9"]
steps = [[[], loaded()]]
for group in ([["verify", "thm1", "--d", "5", "--r", "1", "--n", "9"],
               ["verify", "vanhamme", "--p", "13"],
               ["identity", "gasper-km", "--trials", "1", "--seed", "3"],
               ["identity", "andrews", "--trials", "1"],
               [*sweep, "--jobs", "1"]],
              [[*sweep, "--jobs", "2"]]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in group]
    steps.append([codes, loaded()])
print(json.dumps(steps))
"""


def test_no_command_loads_the_process_pool():
    # a parallel sweep forks its own workers, so no command, the parallel
    # sweep included, pays for importing multiprocessing or
    # concurrent.futures; none needs dataclasses or fractions (nor what
    # they import) either
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", POOL_IMPORT_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    unused = [False] * 6
    assert json.loads(proc.stdout) == [[[], unused],
                                       [[1, 0, 0, 0, 1], unused],
                                       [[1], unused]]


# runs a parallel sweep whose check raises on one case, in a fresh
# interpreter so that its forked workers are this script's children only
WORKER_RAISES_SCRIPT = """
import os, sys
from qcongruence import cli

real = cli._check_case

def dies_on_one_case(kind, case, oracle, power=None):
    if (case.d, case.r, case.n, case.truncation.value) == (5, 1, 4, "full"):
        raise RuntimeError("the check died")
    return real(kind, case, oracle, power)

cli._check_case = dies_on_one_case
try:
    cli.main([*sys.argv[1:], "--jobs", "2"])
except cli.WorkerError:
    print("WorkerError")
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child left")
"""


def test_sweep_worker_that_raises_is_a_named_error(tmp_path):
    # the worker's traceback goes to stderr; the parent raises WorkerError
    # without hanging, and reaps every worker on the way out
    out = tmp_path / "sweep.jsonl"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", WORKER_RAISES_SCRIPT, *TINY_SWEEP,
                           "--output", str(out)],
                          capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["WorkerError", "no child left"]
    assert proc.stderr.splitlines()[-1] == "RuntimeError: the check died"
    # what was written is the stored output's first lines, and stops
    # before the case that died
    with open(TINY_SWEEP_OUT) as fh:
        want = fh.read().splitlines(keepends=True)
    died = next(i for i, line in enumerate(want)
                if '"d": 5, "r": 1, "n": 4' in line and '"full"' in line)
    got = out.read_text().splitlines(keepends=True)
    assert 1 <= len(got) <= died and got == want[:len(got)]


# a parallel sweep whose reader stops after the first record, while both
# workers sit in slow cases; prints to stderr, since the CLI points a
# closed stdout at devnull
STOPPED_EARLY_SCRIPT = """
import os, sys, time
from qcongruence import cli

real = cli._check_case
first = cli._sweep_cases("thm1", 5, 9, cli.SWEEP_R_RANGE)[0]

def slow_after_the_first(kind, case, oracle, power=None):
    if case != first:
        time.sleep(60)
    return real(kind, case, oracle, power)

def reader_stops_after_one_record(lines, output):
    for count, _line in enumerate(lines):
        if count == 1:
            raise BrokenPipeError

cli._check_case = slow_after_the_first
cli._emit = reader_stops_after_one_record
start = time.perf_counter()
code = cli.main([*sys.argv[1:], "--jobs", "2"])
print(code, "fast" if time.perf_counter() - start < 30 else "slow", file=sys.stderr)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left", file=sys.stderr)
except ChildProcessError:
    print("no child left", file=sys.stderr)
"""


def test_sweep_stopped_early_kills_its_busy_workers():
    # the early exit kills the workers mid-case and reaps them, instead of
    # waiting for the cases they hold
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", STOPPED_EARLY_SCRIPT, *TINY_SWEEP],
                          capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
    assert proc.stderr.splitlines() == ["error: stdout closed before the run finished",
                                        "2 fast", "no child left"]


@pytest.mark.parametrize("workers", range(1, 6))
def test_owner_deals_round_by_round_reversing_every_other_round(workers):
    # a plain index % workers deal gives the same bytes but puts every
    # full sum of a sweep's upper/full pairs on one of two workers
    from qcongruence import cli

    for count in range(51):
        owners = [cli._owner(index, workers) for index in range(count)]
        assert set(owners) <= set(range(workers))
        dealt = [[i for i, owner in enumerate(owners) if owner == worker]
                 for worker in range(workers)]
        # each index once, each worker's in increasing order
        assert sorted(sum(dealt, [])) == list(range(count))
        assert all(jobs == sorted(jobs) for jobs in dealt)
        shares = [len(jobs) for jobs in dealt]
        assert max(shares) - min(shares) <= 1
    if workers == 2:
        assert owners[:6] == [0, 1, 1, 0, 0, 1]


# maps four jobs over two workers; the worker of the last job dies halfway
# through writing its line
SHORT_LINE_SCRIPT = """
import os
from qcongruence import cli

real_write = os.write

def dies_mid_line(fd, data):
    real_write(fd, data[:len(data) // 2])
    os._exit(0)

def job(index):
    if index == 3:
        os.write = dies_mid_line
    return f"job {index}"

got = []
try:
    got.extend(cli._fork_map(job, 4, 2))
except cli.WorkerError:
    got.append("WorkerError")
print(got)
"""


def test_fork_map_short_last_line_is_a_named_error():
    # a line cut short is a worker that died, not a result
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SHORT_LINE_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['job 0', 'job 1', 'job 2', 'WorkerError']\n"


def test_sweep_stopped_by_sigterm_kills_its_workers(tmp_path):
    # SIGTERM takes Ctrl-C's path: the parent kills and reaps its workers
    # before it exits, and no worker prints a traceback
    err_path = tmp_path / "stderr"
    with open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "qcongruence", "sweep", "--theorem",
                                 "thm1", "--d-max", "9", "--n-max", "40", "--jobs", "2"],
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                env=dict(os.environ, PYTHONPATH=SRC),
                                start_new_session=True)
        try:
            for _ in range(2):   # the header and the first record
                proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=20)
        finally:
            proc.kill()
            proc.stdout.close()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert "Traceback" not in err_path.read_text()
    assert code == 128 + signal.SIGTERM


def test_sweep_workers_of_a_killed_parent_exit_quietly():
    # a parent killed outright cannot stop its workers: each exits at its
    # next record, on the broken pipe, without a traceback
    proc = subprocess.Popen([sys.executable, "-m", "qcongruence", "sweep", "--theorem",
                             "thm1", "--d-max", "9", "--n-max", "40", "--jobs", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC), start_new_session=True)
    try:
        for _ in range(2):   # the header and the first record
            proc.stdout.readline()
        proc.kill()
        # the workers hold stdout and stderr open until they exit
        _out, err = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert "Traceback" not in err


def test_parallel_sweep_without_fork_is_a_usage_error(monkeypatch, capsys):
    from qcongruence import cli

    monkeypatch.delattr(os, "fork")
    assert cli.main([*TINY_SWEEP, "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--jobs" in captured.err
    # a serial sweep needs no fork
    assert cli.main([*TINY_SWEEP, "--jobs", "1"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_nonpositive_jobs_is_usage_error(jobs):
    proc = run_cli(*TINY_SWEEP, "--jobs", jobs)
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr
    assert proc.stdout == ""


# command paths that must not reach the general gcd, with their exit codes
GCD_FREE = ([(args, code) for args, code in EXIT_MATRIX if code == 0]
            + [(("identity", kind, "--trials", "1"), 0)
               for kind in ("andrews", "watson", "gasper-km", "multi-km")]
            + [(TINY_SWEEP, 1)])


@pytest.mark.parametrize("args,code", GCD_FREE, ids=[" ".join(a) for a, _ in GCD_FREE])
def test_commands_never_need_a_general_gcd(monkeypatch, args, code):
    from qcongruence import cli, exactalg

    def forbidden(*_):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(exactalg, "poly_gcd", forbidden)
    assert cli.main(list(args)) == code


@pytest.mark.parametrize("kind", ["andrews", "watson"])
def test_canonical_form_takes_binomial_steps_only(monkeypatch, kind):
    # to_ratfunc cancels each Phi_c through (q^d - 1) steps, and builds
    # each Phi_c it counts by them: no product of polynomials and no exact
    # division by one
    from qcongruence import cli, exactalg
    from qcongruence.hypergeom import TheoremCase, Truncation, Variant, theorem_sum

    exactalg.cyclotomic.cache_clear()
    value = theorem_sum(TheoremCase(5, 1, 9, Variant.THM1, Truncation.FULL))

    def forbidden(*_):
        raise AssertionError("Poly product or exact division called")

    for name in ("div_exact", "__mul__", "__rmul__"):
        monkeypatch.setattr(exactalg.Poly, name, forbidden)
    assert not value.to_ratfunc().is_zero
    assert cli.main(["identity", kind, "--N", "4", "--trials", "5"]) == 0


@pytest.mark.parametrize("args", [
    ("identity", "andrews", "--trials", "50"),
    ("sweep", "--theorem", "thm1", "--d-max", "9", "--n-max", "40", "--jobs", "2"),
], ids=" ".join)
def test_closed_stdout_exits_2(args, tmp_path):
    # the reader stops after one line: one stderr line and exit 2, no
    # traceback; the sweep drops its pending cases instead of finishing a
    # grid that takes far longer than the timeout, and leaves no worker
    # running (the CLI leads a process group of its own, so any worker
    # left would keep the group alive)
    err_path = tmp_path / "stderr"
    with open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "qcongruence", *args],
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                env=dict(os.environ, PYTHONPATH=SRC),
                                start_new_session=True)
        try:
            proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=20)
        finally:
            proc.kill()
    assert code == 2
    assert err_path.read_text().splitlines() == ["error: stdout closed before the run finished"]
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_commands_parse():
    # every command of the README's "Command line" block is accepted as
    # written ([--flag] marks an optional flag, taken here); nothing runs
    from qcongruence import cli

    with open(README) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line.replace("[", "").replace("]", ""))[1:]
                for line in block.splitlines() if line.startswith("qcongruence ")]
    assert len(commands) >= 10
    for argv in commands:
        try:
            args = cli._parse_args(cli.build_parser(), argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: qcongruence {' '.join(argv)}")
        assert args.command == argv[0]


@pytest.mark.parametrize("m,code", [("9", 2), ("2", 0)])
def test_identity_watson_takes_only_the_default_m(m, code, capsys):
    # watson has no parameter pairs; the default --m stays accepted
    from qcongruence import cli

    assert cli.main(["identity", "watson", "--m", m, "--trials", "1"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: --m does not apply to identity watson")
    else:
        assert json.loads(captured.out)["status"] == "PASS"


def test_verify_oracle_disagreement_exits_2(monkeypatch, capsys):
    from qcongruence import cli, congruence

    monkeypatch.setattr(congruence, "oracle_check", lambda *_: congruence.CheckStatus.FAIL)
    assert cli.main(["verify", "thm1", "--d", "5", "--r", "1", "--n", "4", "--oracle"]) == 2
    captured = capsys.readouterr()
    rec = json.loads(captured.out)
    assert (rec["status"], rec["oracle"]) == ("PASS", "FAIL")
    assert captured.err.splitlines()[-1] == "oracle verdict disagrees with valuation verdict"


def test_sweep_oracle_disagreements_exit_2(monkeypatch, capsys):
    from qcongruence import cli, congruence

    monkeypatch.setattr(congruence, "oracle_check", lambda *_: congruence.CheckStatus.ERROR)
    assert cli.main([*TINY_SWEEP, "--oracle", "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()[1:]]
    assert records and all(rec["oracle"] == "ERROR" for rec in records)
    assert captured.err.splitlines()[-1] == f"oracle disagreements: {len(records)}"


def test_sweep_oracle_walks_in_the_pool():
    # the real oracle in forked workers: it agrees with every verdict, and
    # without its key each line is the stored sweep's
    proc = run_cli(*TINY_SWEEP, "--oracle", "--jobs", "2")
    assert proc.returncode == 1
    assert "oracle disagreements" not in proc.stderr
    header, *records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert records and all(rec["oracle"] == rec["status"] for rec in records)
    for rec in records:
        del rec["oracle"]
    with open(TINY_SWEEP_OUT) as fh:
        assert [json.dumps(rec) for rec in (header, *records)] == fh.read().splitlines()


def test_theorem_sweep_with_an_error_report_exits_2(monkeypatch, capsys):
    # a sum with a pole at Phi_n: the check is an ERROR and says where
    from qcongruence import cli, congruence
    from qcongruence.exactalg import RatFunc, cyclotomic

    def pole(kind, case, oracle, power=None):
        return congruence.check_congruence(RatFunc(1, cyclotomic(case.n)),
                                           congruence.q_integer_modulus(case.n, 1))

    monkeypatch.setattr(cli, "_check_case", pole)
    assert cli.main([*TINY_SWEEP, "--jobs", "1"]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[1:]]
    assert records and all(rec["status"] == "ERROR" for rec in records)
    assert all(rec["detail"] == f"denominator not invertible at cyclotomic index {rec['case']['n']}"
               for rec in records)


# each named hypothesis or error, with the whole stderr it gives
H = "hypothesis violated: "
NAMED_ERRORS = [
    (("verify", "thm1", "--d", "7", "--r", "2", "--n", "5"), [H + "r must be odd"]),
    (("verify", "thm1", "--d", "9", "--r", "3", "--n", "6"), [H + "gcd(d, r) = 1 violated"]),
    (("verify", "thm1", "--d", "5", "--r", "-1", "--n", "1"),
     [H + "n > 1 violated", H + "n >= d - r violated"]),
    (("verify", "thm2", "--d", "5", "--r", "1", "--n", "-3"),
     [H + "n > 1 violated", H + "n >= (d - r)/2 violated"]),
    (("verify", "lemma3", "--d", "0", "--r", "1", "--n", "0"),
     [H + "d must be a positive integer", H + "n must be a positive integer"]),
    (("verify", "lemma3", "--d", "5", "--r", "2", "--n", "4"),
     [H + "d(d - r - 2) must be even for an integral q-power"]),
    (("verify", "modsquare", "--d", "0", "--r", "1", "--n", "0", "--k-max", "-1"),
     [H + "k_max must be non-negative", H + "d must be a positive integer",
      H + "n must be a positive integer"]),
    (("identity", "andrews", "--N", "-1", "--trials", "1"),
     ["error: termination order must be non-negative"]),
    (("verify", "vanhamme", "--p", "3"), [H + "p = 3 must be a prime greater than 3"]),
    (("verify", "vanhamme", "--p", "9"), [H + "p = 9 must be a prime greater than 3"]),
    (("verify", "vanhamme", "--p", "318665857834031151167461"),
     ["error: primality of 318665857834031151167461 is not decided: bases 2..37 prove it "
      "only below psi_12 = 318665857834031151167461"]),
]


@pytest.mark.parametrize("args,lines", NAMED_ERRORS, ids=[" ".join(a) for a, _ in NAMED_ERRORS])
def test_each_error_is_named(args, lines, capsys):
    from qcongruence import cli

    assert cli.main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == lines
