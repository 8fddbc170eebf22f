"""repro.lint self-tests: fixture pairs, suppressions, CLI, self-run.

Every shipped rule has a good/bad fixture pair under
``tests/lint_fixtures/``: the bad file must fire the rule (regression
proof that the rule detects what it claims) and the good file must stay
silent under it (false-positive guard).  The suite also pins the
suppression grammar, the CLI exit-code contract, and — the actual
gate — that the tree itself lints clean.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.lint import all_rules, lint_file, lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: rule id -> (good fixture, bad fixture) relative to FIXTURES
PAIRS = {
    "RNG001": ("rng001_good.py", "rng001_bad.py"),
    "RNG002": ("rng002_good.py", "rng002_bad.py"),
    "API001": ("api001_good.py", "api001_bad.py"),
    "KRN001": (
        os.path.join("krn001_good", "repro", "kernels", "__init__.py"),
        os.path.join("krn001_bad", "repro", "kernels", "__init__.py"),
    ),
    "BEN001": ("bench_gate_good.py", "bench_gate_bad.py"),
    "DUP001": ("dup001_good.py", "dup001_bad.py"),
    "SHD001": ("shd001_good.py", "shd001_bad.py"),
}


def _lint_one(rel: str, rule_id: str):
    path = os.path.join(FIXTURES, rel)
    rules = {rule_id: all_rules()[rule_id]}
    return lint_file(path, rules)


# ------------------------------------------------------------------ rules


def test_every_shipped_rule_has_a_fixture_pair():
    assert set(PAIRS) == set(all_rules())


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_bad_fixture_fires(rule_id):
    findings = _lint_one(PAIRS[rule_id][1], rule_id)
    assert findings, f"{rule_id} bad fixture produced no findings"
    assert all(f.rule_id == rule_id for f in findings)
    for f in findings:
        assert f.line >= 1
        assert rule_id in f.render()


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_good_fixture_is_silent(rule_id):
    findings = _lint_one(PAIRS[rule_id][0], rule_id)
    assert findings == [], [f.render() for f in findings]


def test_bad_fixture_finding_counts():
    # pin the exact detection surface of the denser fixtures
    assert len(_lint_one(PAIRS["DUP001"][1], "DUP001")) == 2  # both idioms
    assert len(_lint_one(PAIRS["RNG002"][1], "RNG002")) == 2  # kwarg + assign
    assert len(_lint_one(PAIRS["KRN001"][1], "KRN001")) == 2  # twin + HAVE_NUMBA
    assert len(_lint_one(PAIRS["SHD001"][1], "SHD001")) >= 4


# ----------------------------------------------------------- suppressions


def test_justified_suppression_silences_finding():
    findings = _lint_one("suppress_good.py", "RNG001")
    assert findings == [], [f.render() for f in findings]


def test_bare_suppression_keeps_finding_and_adds_lnt001():
    findings = _lint_one("suppress_bad.py", "RNG001")
    ids = sorted(f.rule_id for f in findings)
    assert "RNG001" in ids, "bare marker must NOT suppress"
    assert "LNT001" in ids, "bare marker must itself be flagged"


def test_syntax_error_reports_lnt000(tmp_path):
    p = tmp_path / "broken.py"
    p.write_text("def f(:\n")
    findings = lint_file(str(p))
    assert [f.rule_id for f in findings] == ["LNT000"]


# ------------------------------------------------------------------ driver


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="NOP999"):
        lint_paths([FIXTURES], select=["NOP999"])


def test_findings_sorted_and_structured():
    findings = lint_paths([FIXTURES])
    assert findings, "fixture dir must produce findings"
    assert findings == sorted(findings)
    for f in findings:
        assert f.severity == "error"
        parts = f.render().split(" ", 2)
        assert len(parts) == 3 and parts[0].count(":") >= 2


# --------------------------------------------------------------------- CLI


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def test_cli_exit_one_on_findings():
    proc = _run_cli(
        os.path.join(FIXTURES, "rng001_bad.py"), "--select", "RNG001"
    )
    assert proc.returncode == 1
    assert "RNG001" in proc.stdout


def test_cli_exit_zero_on_clean():
    proc = _run_cli(
        os.path.join(FIXTURES, "rng001_good.py"), "--select", "RNG001"
    )
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in PAIRS:
        assert rule_id in proc.stdout


# ------------------------------------------------------------ the gate


def test_tree_lints_clean():
    findings = lint_paths(
        [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "benchmarks")]
    )
    assert findings == [], "\n".join(f.render() for f in findings)
