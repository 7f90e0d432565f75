"""Tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import orbitcohom
from orbitcohom import cli, engine

from helpers import cyclic_garbage

GOLDEN = Path(__file__).with_name("golden_cli.json")
GOLDEN_LARGE = Path(__file__).with_name("golden_cli_large.json")
FIBER_U6 = str(Path(__file__).with_name("fiber_truncated_u6.json"))
FIBER_RANK_TWO = str(Path(__file__).with_name("fiber_rank_two.json"))
FIBER_NOT_ASSOCIATIVE = str(Path(__file__).with_name("fiber_not_associative.json"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_captured(argv):
    """cli.main with its output captured, for tests that cannot use capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


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

    # The text lists each branch by its differentials, then its reason.
    code, out, _ = run_cli(capsys, "classify", "--n", "2", "--a", "odd",
                           "--b", "even", "--show-rejected")
    assert code == 0
    lines = out.splitlines()
    start = lines.index(f"rejected branches: {len(doc['rejected'])}") + 1
    steps = lines[start::2]
    assert len(steps) == len(doc["rejected"]) == 13
    assert len(set(steps)) == 13
    assert "  - differentials: d3: zero, d5: [4, 6]" in steps
    assert lines[start + 1::2] == [f"    reason: {rb['reason']}"
                                   for rb in doc["rejected"]]


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
    code, out, err = run_cli(capsys, "index", "--group", "s1", "--n", "2")
    assert code == 1
    assert out == ""
    assert "z2" in err
    assert err.splitlines() == [
        "error: the mod-2 cohomology index is defined for --group z2 only"]


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


@pytest.mark.parametrize("argv", [["classify", "--self-check"],
                                  ["oracle-check"]],
                         ids=["classify", "oracle-check"])
def test_cap_is_not_an_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n", "1", "--cap", "20")
    assert code == 1
    assert out == ""
    assert "orbitcohom: error: unrecognized arguments: --cap 20" in err.splitlines()


@pytest.mark.parametrize("argv", [["classify", "--self-check"],
                                  ["oracle-check"]],
                         ids=["classify", "oracle-check"])
def test_oracle_above_its_cell_limit_exits_one(capsys, argv):
    # n = 1281 under Z/2 is the smallest n with more than MAX_CELLS cells.
    code, out, err = run_cli(capsys, *argv, "--n", "1281")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: 23070 cells exceeds the oracle limit of 23052"]


def test_classify_refuses_a_tree_of_more_than_max_branches(capsys,
                                                           monkeypatch):
    # the truncated-u6 fiber has 58 branches under Z/2; a bound one lower
    # must refuse it in the library and exit 1 with one line in the CLI
    fiber = orbitcohom.load_fiber(FIBER_U6)
    report = engine.classify(fiber, engine.GroupChoice.Z2)
    total = len(report.outcomes) + len(report.rejected)
    monkeypatch.setattr(engine, "MAX_BRANCHES", total)
    assert engine.classify(fiber, engine.GroupChoice.Z2) == report
    monkeypatch.setattr(engine, "MAX_BRANCHES", total - 1)
    message = (f"more than {total - 1} branches; the fiber is too large to "
               "classify")
    with pytest.raises(orbitcohom.OversizedInstanceError, match=message):
        engine.classify(fiber, engine.GroupChoice.Z2)
    code, out, err = run_cli(capsys, "classify", "--fiber", FIBER_U6,
                             "--group", "z2", "--format", "json")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("group", ["z2", "s1"])
def test_oracle_check_runs_at_the_smallest_cap(capsys, group):
    from orbitcohom.oracle import min_cap
    fiber = orbitcohom.make_type_ab(2, 1, 0)
    code, out, _ = run_cli(capsys, "oracle-check", "--group", group, "--n", "2",
                           "--a", "odd", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cap"] == min_cap(fiber, engine.GroupChoice(group))
    assert doc["reliable_degree"] == fiber.top_degree


def test_self_check_catches_an_index_mismatch(capsys, monkeypatch):
    real = engine.classify

    def off_by_one(fiber, group):
        report = real(fiber, group)
        return report._replace(outcomes=tuple(
            o._replace(index=o.index + 1) for o in report.outcomes))

    monkeypatch.setattr(engine, "classify", off_by_one)
    code, out, err = run_cli(capsys, "classify", "--n", "2", "--a", "even",
                             "--b", "even", "--self-check")
    assert code == 2
    assert out == ""
    assert "self-check failed:" in err and "index" in err


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


@pytest.mark.parametrize("command", ["classify", "index", "oracle-check"])
@pytest.mark.parametrize("flag", [("--n", "2"), ("--a", "0"), ("--b", "odd")])
def test_fiber_with_a_type_ab_flag_exits_one(capsys, command, flag):
    # an explicit --a 0 is refused too, not read as the default
    code, out, err = run_cli(capsys, command, "--fiber", FIBER_U6, *flag)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: --fiber cannot be combined with --n, --a or --b"]


@pytest.mark.parametrize("command", ["classify", "index", "oracle-check"])
def test_rank_two_fiber_exits_one(capsys, command):
    # two basis elements in degree 2 would make row 2 free of rank two
    code, out, err = run_cli(capsys, command, "--fiber", FIBER_RANK_TWO)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: rows of rank > 1 are not classifiable"]


@pytest.mark.parametrize("command", ["classify", "index", "oracle-check"])
def test_non_associative_fiber_exits_one(capsys, command):
    # (v1*v1)*v2 = v2*v2 = 0 but v1*(v1*v2) = v1*v3 = v4
    code, out, err = run_cli(capsys, command, "--fiber", FIBER_NOT_ASSOCIATIVE)
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: invalid fiber ring: associativity: "
                           "(v1*v1)*v2 = [] but v1*(v1*v2) = ['v4']")


@pytest.mark.parametrize("field, value", [
    ("name", None), ("name", 7), ("unit", None), ("unit", 1),
    ("left", None), ("right", ["u"])])
def test_fiber_file_name_that_is_not_a_string_exits_one(tmp_path, capsys,
                                                         field, value):
    # str() would read null as the name "None" and 7 as "7"
    doc = {"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2}],
           "unit": "1", "top_degree": 4,
           "products": [{"left": "u", "right": "u", "result": []}]}
    if field == "name":
        doc["basis"][0]["name"] = value
        doc["unit"] = str(value)
    elif field == "unit":
        doc["unit"] = value
    else:
        doc["products"][0][field] = value
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "classify", "--fiber", str(path))
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error:") and "must be a string" in line


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


@pytest.mark.parametrize("field, value", [
    ("degree", "Infinity"), ("degree", "2.5"), ("degree", "true"),
    ("top_degree", "NaN"), ("top_degree", "4.0"), ("top_degree", "false")])
def test_fiber_file_non_integer_degree_exits_one(tmp_path, capsys, field, value):
    fields = {"degree": "2", "top_degree": "2", field: value}
    path = tmp_path / "fiber.json"
    path.write_text('{"basis": [{"name": "1", "degree": 0}, '
                    '{"name": "u", "degree": %(degree)s}], '
                    '"unit": "1", "top_degree": %(top_degree)s}' % fields)
    code, out, err = run_cli(capsys, "classify", "--fiber", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "must be an integer" in err


def test_fiber_file_string_result_exits_one(tmp_path, capsys):
    # a string is not read as the set of its characters
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps({
        "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1},
                  {"name": "v", "degree": 2}],
        "unit": "1", "top_degree": 2,
        "products": [{"left": "u", "right": "u", "result": "v"}]}))
    code, out, err = run_cli(capsys, "classify", "--fiber", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "list of names" in err


@pytest.mark.parametrize("results", [(["v"], []), ([], ["v"])],
                         ids=["v-then-zero", "zero-then-v"])
def test_fiber_file_repeated_product_exits_one(tmp_path, capsys, results):
    # with the last entry kept, the order of the two entries picked the verdict
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps({
        "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2},
                  {"name": "v", "degree": 4}, {"name": "w", "degree": 6}],
        "unit": "1", "top_degree": 6,
        "products": [{"left": "u", "right": "u", "result": result}
                     for result in results]}))
    code, out, err = run_cli(capsys, "classify", "--fiber", str(path))
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error:") and line.endswith("product u*u is listed twice")


def _exits_one_without_allocating(capsys, *argv):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "supported maximum" in err
    assert peak < 2**20, peak


def test_huge_n_exits_one_without_allocating(capsys):
    _exits_one_without_allocating(capsys, "classify", "--n", "100000000")


def test_huge_fiber_degree_exits_one_without_allocating(tmp_path, capsys):
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps({
        "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 10**18}],
        "unit": "1", "top_degree": 10**18}))
    _exits_one_without_allocating(capsys, "classify", "--fiber", str(path))


def test_output_matches_golden_file():
    """classify --show-rejected and table JSON for n <= 3, byte for byte.

    golden_cli.json maps each command line to the stdout of ``cli.main``;
    rewrite it only together with an intended change of the output.
    """
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 27
    for command, expected in golden.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(command.split()) == 0, command
        assert out.getvalue() == expected, command


def test_large_n_output_matches_golden_digests(capsys):
    """classify output at n = 3000 (3001 for the circle, which has no
    outcome at even n) and at n = 100000, as sha256 of ``cli.main``'s stdout.

    Long dense Poincare lists make these outputs megabytes long, so
    golden_cli_large.json keeps only their digests.
    """
    with open(GOLDEN_LARGE, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 25
    for command, digest in golden.items():
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command


def _assert_clean_exit(code, err):
    """Exit 0, or exit 1 with an error line; an escaped exception fails the
    test by itself."""
    assert code in (0, 1), (code, err)
    if code == 1:
        assert any("error:" in line for line in err.splitlines()), err


# Degrees and --n stay at or below 64 so each example is cheap; the oracle
# commands take n <= 4, because the brute force grows quickly with n. One
# example in four is broken: it may draw junk values, names and flags.
_junk = st.one_of(st.floats(allow_nan=True), st.booleans(), st.none(),
                  st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2))
_names = st.sampled_from(["1", "u", "v", "w", "x"])


@st.composite
def _fiber_docs(draw):
    """JSON fiber descriptions, well formed unless the example is broken."""
    broken = draw(st.integers(0, 3)) == 0

    def pick(valid, junk):
        return draw(st.one_of(valid, junk) if broken else valid)

    names = _names if broken else st.sampled_from(["u", "v", "w", "x"])
    degrees = draw(st.lists(st.integers(1, 64), max_size=4))
    basis = [{"name": name, "degree": pick(st.just(degree), _junk)}
             for name, degree in zip(draw(st.lists(
                 names, min_size=len(degrees), max_size=len(degrees),
                 unique=not broken)), degrees)]
    # Outside broken examples every listed product is zero and leaves out the
    # unit (load_fiber fills in its products), so the ring is valid.
    known = st.sampled_from([b["name"] for b in basis]
                            + (["1"] if broken or not basis else []))
    top = max(degrees, default=0) + draw(st.integers(0, 3))
    doc = {
        "basis": [{"name": "1", "degree": 0}] + basis,
        "unit": pick(st.just("1"), _names),
        "products": draw(st.lists(st.fixed_dictionaries({
            "left": known, "right": known,
            "result": st.lists(known, max_size=2 if broken else 0)}),
            max_size=3)),
        "top_degree": pick(st.just(top), _junk),
    }
    if broken and draw(st.booleans()):
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fiber_docs(), st.sampled_from(["classify", "index"]),
       st.sampled_from(["z2", "s1"]), st.sampled_from(["text", "json"]))
def test_fuzz_fiber_files_never_traceback(doc, command, group, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fiber.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, _, err = run_cli_captured(
            [command, "--fiber", path, "--group", group, "--format", fmt])
    _assert_clean_exit(code, err)


# flag -> (valid values, junk values); flags with no valid value are drawn
# only in broken examples.
_FLAG_VALUES = {
    "--group": (st.sampled_from(["z2", "s1"]), st.sampled_from(["z3", ""])),
    "--n": (st.integers(1, 64).map(str),
            st.one_of(st.integers(-3, 0).map(str),
                      st.sampled_from(["x", "2.5", ""]))),
    "--a": (st.sampled_from(["even", "odd", "0", "1", "-7"]),
            st.sampled_from(["sometimes", "1e3", ""])),
    "--b": (st.sampled_from(["even", "odd", "0", "1", "12"]),
            st.sampled_from(["sometimes", "1e3", ""])),
    "--format": (st.sampled_from(["text", "json"]), st.just("xml")),
    "--cap": (st.nothing(), st.integers(-5, 10 ** 12).map(str)),
    "--fiber": (st.nothing(), st.just("/nonexistent/fiber.json")),
}
_VALID_FLAGS = ["--group", "--a", "--b", "--format", "--show-rejected"]
_ALL_FLAGS = sorted(_FLAG_VALUES) + ["--show-rejected", "--self-check",
                                     "--version", "--bogus"]


@st.composite
def _argvs(draw):
    """CLI argument lists, valid unless the example is broken."""
    broken = draw(st.integers(0, 3)) == 0
    commands = ["classify", "table", "index", "oracle-check"]
    argv = [draw(st.sampled_from(commands + ["nonsense"] if broken else commands))]
    flags = _ALL_FLAGS if broken else (
        ["--format"] if argv[0] == "table" else _VALID_FLAGS)
    for flag in ["--n"] + draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv.append(flag)
        if flag in _FLAG_VALUES:
            valid, junk = _FLAG_VALUES[flag]
            argv.append(draw(st.one_of(valid, junk) if broken else valid))
    # Keep the oracle cheap: the self-check and oracle-check run it.
    if "--self-check" in argv or argv[0] == "oracle-check":
        argv += ["--n", str(draw(st.integers(1, 4)))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_fuzz_argv_never_traceback(argv):
    code, _, err = run_cli_captured(argv)
    _assert_clean_exit(code, err)


def _child_env():
    """Environment for a fresh interpreter that imports this package, in the
    mode of the benchmark host (no bytecode written)."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=str(Path(orbitcohom.__file__).resolve().parents[1]))


def test_closed_stdout_pipe_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orbitcohom.cli", "classify", "--n", "40",
             "--a", "1", "--b", "1", "--show-rejected"],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(),
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident size from /proc")
def test_large_n_json_output_peak_rss_stays_bounded():
    """Peak resident size of the longest JSON output, measured by the child.

    ``classify --group z2 --n 100000 --a even --b odd --format json`` prints
    three dense Poincare lists of 300001 entries. Written in blocks, the run
    peaks at about 28 MB (Python 3.11, Linux); building the indented text in
    memory first took it to 99 MB. The child reads VmHWM, the peak of its
    own address space: ru_maxrss would also count the pages of the forked
    test process before exec.
    """
    script = ("import sys\n"
              "from orbitcohom import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "sys.stdout.flush()\n"
              "with open('/proc/self/status') as fh:\n"
              "    peak = [ln.split()[1] for ln in fh if ln.startswith('VmHWM:')]\n"
              "print(code, *peak, file=sys.stderr)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "classify", "--group", "z2", "--n",
         "100000", "--a", "even", "--b", "odd", "--format", "json"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_child_env(),
        text=True, timeout=120)
    code, peak_kb = proc.stderr.split()[-2:]
    assert code == "0", proc.stderr
    assert int(peak_kb) < 60 * 1024, f"peak {int(peak_kb) / 1024:.1f} MB"


def test_cli_import_leaves_out_dataclasses_and_the_oracle():
    """``import orbitcohom.cli`` loads neither ``dataclasses`` and its
    ``inspect`` chain nor the oracle or the self-check, which the package
    imports on first use of one of their names. The first use keeps the
    name in the package's globals, so later uses resolve it directly."""
    script = ("import json, sys\n"
              "import orbitcohom, orbitcohom.cli\n"
              "loaded = sorted({'dataclasses', 'inspect', 'orbitcohom.oracle',\n"
              "                 'orbitcohom.selfcheck'} & set(sys.modules))\n"
              "kept = ['brute_force_classify' in vars(orbitcohom)]\n"
              "lazy = orbitcohom.brute_force_classify\n"
              "kept.append(vars(orbitcohom).get('brute_force_classify') is lazy)\n"
              "oracle = sys.modules.get('orbitcohom.oracle')\n"
              "print(json.dumps([loaded, kept, oracle is not None\n"
              "                  and lazy is oracle.brute_force_classify]))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [False, True], True]


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "classify", "--group", "bogus")[0] == 1
    assert run_cli(capsys, "classify", "--n", "0")[0] == 1
    assert run_cli(capsys, "classify")[0] == 1  # neither --fiber nor --n
    assert run_cli(capsys, "index", "--fiber", "/nonexistent.json")[0] == 1


def test_main_leaves_no_reference_cycle():
    """The parser is built once per process, so a text command leaves
    nothing for the cyclic collector, nor do a usage error and --version,
    which leave argparse through SystemExit after formatting a message.
    JSON output leaves what the standard library's pure-Python indent
    encoder leaves on a small document: its nested functions refer to each
    other through their closures."""
    run_cli_captured(["table", "--n", "2"])  # builds the parser
    for argv in (["table", "--n", "2"], ["classify", "--n", "2"],
                 ["classify", "--group", "bogus"], ["--version"]):
        assert cyclic_garbage(lambda: run_cli_captured(argv)) == 0, argv
    encoder = cyclic_garbage(lambda: "".join(json.JSONEncoder(
        indent=2, sort_keys=True).iterencode({"a": [1, {"b": None}]})))
    assert cyclic_garbage(lambda: run_cli_captured(
        ["classify", "--n", "2", "--format", "json"])) == encoder


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "orbitcohom" in out
