"""``tools/unrun_lines.py``: the statements a traced run never reached.

The listing is checked on a small module with a known set of run lines,
first given by hand and then traced from a call that skips one branch.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "unrun_lines.py"
_SPEC = importlib.util.spec_from_file_location("unrun_lines", _PATH)
unrun = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unrun)

SOURCE = '''"""Module docstring."""


def f(x):
    """Function docstring."""
    if x:
        raise ValueError(
            "x"
        )
    return x


class C:
    """Class docstring."""

    @staticmethod
    def g():
        return 1
'''


def test_a_missed_raise_is_listed_and_a_docstring_is_not():
    # import runs lines 1, 4, 13, 16 and 17; f(0) runs lines 6 and 10
    assert unrun.unrun_lines(SOURCE, {1, 4, 6, 10, 13, 16, 17}) == [7, 18]
    assert unrun.unrun_lines(SOURCE, {1, 4, 6, 8, 10, 13, 16, 17, 18}) == []  # any line of a span
    assert unrun.unrun_lines(SOURCE, set()) == [4, 6, 7, 10, 13, 16, 18]


def test_a_traced_call_lists_the_branch_it_skipped(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE, encoding="utf-8")

    def run():
        namespace = {}
        exec(compile(SOURCE, str(path), "exec"), namespace)
        namespace["f"](0)

    hits = unrun.trace_lines(run, tmp_path)
    assert list(hits) == [str(path.resolve())]
    assert unrun.unrun_lines(SOURCE, hits[str(path.resolve())]) == [7, 18]
