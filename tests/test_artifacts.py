"""The boundary of ``artifacts``, the one module that knows a derived file's format."""

import re
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


def test_package_file_functions_are_the_artifacts_ones():
    for name in ("save_params", "load_params", "save_baseline", "load_baseline"):
        assert getattr(anticipation, name) is getattr(artifacts, name)
