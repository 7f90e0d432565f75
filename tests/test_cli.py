"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import orbitcohom
from orbitcohom import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--group", "z2",
                           "--n", "2", "--a", "even", "--b", "even")
    assert code == 0
    assert "verdict: free-action-possible" in out
    assert "F2[x(1),z(2)]/(z^2, x^3*z, x^7)" in out
    assert "index: 6" in out


def test_classify_no_free_action(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "2",
                           "--a", "odd", "--b", "even")
    assert code == 0
    assert "verdict: no-free-action" in out
    assert "warning:" in out or "outcomes: 0" in out


def test_classify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "1", "--a", "0",
                           "--b", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"] == {"a": "even", "b": "even", "group": "z2", "n": 1}
    assert doc["verdict"] == "free-action-possible"
    assert len(doc["outcomes"]) == 1
    outcome = doc["outcomes"][0]
    assert outcome["poincare"] == [1, 2, 2, 1]
    assert outcome["index"] == 3
    assert "rejected" not in doc


def test_classify_show_rejected(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "2", "--a", "odd",
                           "--b", "even", "--format", "json",
                           "--show-rejected")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcomes"] == []
    assert doc["rejected"]
    assert all(rb["reason"] for rb in doc["rejected"])


def test_json_byte_deterministic(capsys):
    args = ("classify", "--n", "3", "--a", "even", "--b", "odd",
            "--format", "json", "--show-rejected")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    # canonical form round-trips byte-identically
    doc = json.loads(first)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == first


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("z2", "s1"))]
    assert len(lines) == 8
    assert sum("no-free-action" in ln for ln in lines) == 5


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 8
    odd_odd = [r for r in doc["rows"]
               if r["group"] == "z2" and r["a"] == "odd" and r["b"] == "odd"]
    assert odd_odd[0]["indices"] == [1]


def test_index_command(capsys):
    code, out, _ = run_cli(capsys, "index", "--n", "2", "--a", "even",
                           "--b", "even", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["indices"] == [6]
    assert doc["max_index"] == 6


def test_index_rejects_circle(capsys):
    code, _, err = run_cli(capsys, "index", "--group", "s1", "--n", "2")
    assert code == 1
    assert "z2" in err


def test_oracle_check_agreement(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "1",
                           "--a", "even", "--b", "odd")
    assert code == 0
    assert "agreement: yes" in out


def test_self_check_flag(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "1", "--a", "0",
                           "--b", "0", "--self-check")
    assert code == 0
    assert "verdict:" in out


def test_fiber_file_input(tmp_path, capsys):
    doc = {
        "basis": [{"name": "1", "degree": 0}, {"name": "v1", "degree": 1},
                  {"name": "v2", "degree": 2}, {"name": "v3", "degree": 3}],
        "unit": "1",
        "products": [{"left": "v1", "right": "v1", "result": []},
                     {"left": "v1", "right": "v2", "result": []},
                     {"left": "v1", "right": "v3", "result": []},
                     {"left": "v2", "right": "v2", "result": []},
                     {"left": "v2", "right": "v3", "result": []},
                     {"left": "v3", "right": "v3", "result": []}],
        "top_degree": 3,
    }
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", "--fiber", str(path),
                           "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["inputs"]["fiber_file"] == str(path)
    assert parsed["verdict"] == "free-action-possible"


def test_fiber_file_bad_references_exit_one(tmp_path, capsys):
    unknown_product = {
        "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2}],
        "unit": "1",
        "products": [{"left": "u", "right": "u", "result": ["w"]}],
        "top_degree": 4,
    }
    negative_degree = {
        "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": -2}],
        "unit": "1",
        "top_degree": 0,
    }
    for doc in (unknown_product, negative_degree):
        path = tmp_path / "fiber.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "classify", "--fiber", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


def test_closed_stdout_pipe_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=str(Path(orbitcohom.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orbitcohom.cli", "classify", "--n", "40",
             "--a", "1", "--b", "1", "--show-rejected"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "classify", "--group", "bogus")[0] == 1
    assert run_cli(capsys, "classify", "--n", "0")[0] == 1
    assert run_cli(capsys, "classify")[0] == 1  # neither --fiber nor --n
    assert run_cli(capsys, "index", "--fiber", "/nonexistent.json")[0] == 1


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "orbitcohom" in out
