"""The package's public surface: its exported names and the README's
library examples."""

import contextlib
import io
import re
import tokenize
from pathlib import Path

import orbitcohom
import orbitcohom.engine
import orbitcohom.fiber
import orbitcohom.oracle
import orbitcohom.selfcheck

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    # eager names and the ones the package imports on first use
    missing = [name for name in orbitcohom.__all__
               if not hasattr(orbitcohom, name)]
    assert missing == []


def test_second_ways_to_step_a_page_are_gone():
    for name in ("enumerate_patterns", "turn_page", "_round_schedule"):
        assert not hasattr(orbitcohom, name), name
        assert not hasattr(orbitcohom.engine, name), name


def test_lazy_names_are_the_selfcheck_module_functions():
    assert orbitcohom.basis_problems is orbitcohom.selfcheck.basis_problems


def _used(name, text, code):
    """Whether name occurs in text outside the lines that define it; in
    Python code only as a code token, not in a docstring or comment."""
    word = re.escape(name)
    definition = re.compile(rf"\s*(?:def|class)\s+{word}\b|{word}\s*[:=]")
    if code:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        lines = [token.line for token in tokens
                 if token.type == tokenize.NAME and token.string == name]
    else:
        lines = [line for line in text.splitlines()
                 if re.search(rf"\b{word}\b", line)]
    return any(not definition.match(line) for line in lines)


def test_every_exported_name_is_used_outside_its_definition():
    """A name the package exports is used by a package module, documented in
    the README or used by the benchmark; one that only the tests use
    belongs under tests/."""
    package = Path(orbitcohom.__file__).parent
    paths = [path for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"]
    paths.append(README)
    paths += [path for path in sorted((ROOT / "perfbench").rglob("*"))
              if path.suffix in (".py", ".md")]
    texts = [(path.read_text(), path.suffix == ".py") for path in paths]
    unused = [name for name in orbitcohom.__all__
              if not any(_used(name, text, code) for text, code in texts)]
    assert unused == []


def test_test_only_helpers_left_the_package():
    for module, name in ((orbitcohom.selfcheck, "same_presentation"),
                         (orbitcohom.oracle, "cap_stable"),
                         (orbitcohom.fiber, "point_ring")):
        assert name not in orbitcohom.__all__
        assert not hasattr(orbitcohom, name), name
        assert not hasattr(module, name), name


def _library_blocks():
    """(code, documented output) of each python block of the README's
    Library section; the output is the block's trailing ``# `` lines."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    for code in re.findall(r"```python\n(.*?)```", section, re.S):
        lines = code.rstrip("\n").split("\n")
        expected = []
        while lines[-1].startswith("# "):
            expected.insert(0, lines.pop()[2:])
        yield code, expected


def test_readme_library_examples_print_what_they_document():
    blocks = list(_library_blocks())
    assert len(blocks) == 2
    for code, expected in blocks:
        assert expected == ["F2[x(1),z(2)]/(z^2, x^3*z, x^7) 6"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
