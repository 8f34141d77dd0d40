"""The boundary of ``artifacts``, the one module that knows a derived file's format."""

import inspect
import re
import sys
from pathlib import Path

import anticipation
from anticipation import artifacts

FORMAT_NAMES = re.compile(r"anticipation-\w+-v\d+|\b(?:SUMMARY_ARRAYS|CHECKPOINT_FORMAT|"
                          r"SUMMARY_FORMAT|BASELINE_ARRAYS|BASELINE_FORMAT)\b")


def test_no_other_module_names_a_format():
    sources = sorted(Path(anticipation.__file__).parent.glob("*.py"))
    named = {path.name: sorted(set(FORMAT_NAMES.findall(path.read_text(encoding="utf-8"))))
             for path in sources}
    assert named.pop("artifacts.py") == sorted([
        artifacts.CHECKPOINT_FORMAT, artifacts.SUMMARY_FORMAT, artifacts.BASELINE_FORMAT,
        "BASELINE_ARRAYS", "BASELINE_FORMAT", "CHECKPOINT_FORMAT", "SUMMARY_ARRAYS",
        "SUMMARY_FORMAT"])
    assert {name: found for name, found in named.items() if found} == {}


def test_package_root_exports_what_the_demos_and_readme_use():
    """The root's public names are exactly the ``ant.<name>`` references of the demos
    and README.md, plus ``__version__``; each is its defining module's object."""
    root = Path(__file__).resolve().parents[1]
    texts = [path.read_text(encoding="utf-8")
             for path in [*sorted(root.glob("demos/*.py")), root / "README.md"]]
    used = {name for text in texts for name in re.findall(r"\bant\.(\w+)", text)}
    exported = {name for name, value in vars(anticipation).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == used
    assert isinstance(anticipation.__version__, str)
    for name in exported:
        value = getattr(anticipation, name)
        assert value.__module__ != anticipation.__name__, name
        assert getattr(sys.modules[value.__module__], name) is value, name
