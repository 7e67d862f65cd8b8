"""tools/parity.py: one tree run twice is identical, and a changed number
is named with its file."""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_run_twice_is_identical_and_a_perturbed_number_is_named(tmp_path):
    parity = _parity()
    for run in ("a", "b"):
        parity.run_set(ROOT / "src", tmp_path / run, parity.QUICK)
    rows = parity.compare(tmp_path / "a", tmp_path / "b")
    names = [name for name, _ in rows]
    assert len(names) == 3 * len(parity.QUICK) + 7
    assert {"sample/samples.json", "solve_world/solve_result.json",
            "eval_solver/metrics.json", "sgd/checkpoint.json"} <= set(names)
    assert all(verdict == "identical" for _, verdict in rows)
    assert all((tmp_path / "a" / f"{step[0]}.exit").read_text() == "0\n"
               for step in parity.QUICK)

    shutil.copytree(tmp_path / "b", tmp_path / "c")
    out = tmp_path / "c" / "solve_world" / "solve_result.json"
    text = out.read_text()
    rms = re.search(r'"weighted_rms_residual": ([-0-9.e]+)', text)
    out.write_text(text.replace(rms.group(0), f'"weighted_rms_residual": '
                                              f'{float(rms.group(1)) * (1 + 1e-9)!r}'))
    (tmp_path / "c" / "sample" / "samples.json").unlink()
    changed = {name: v for name, v in parity.compare(tmp_path / "a", tmp_path / "c")
               if v != "identical"}
    assert changed.keys() == {"solve_world/solve_result.json", "sample/samples.json"}
    assert changed["solve_world/solve_result.json"].startswith("numbers differ: max abs ")
    assert changed["sample/samples.json"] == "only in PARENT"


def test_a_checkout_directory_or_the_working_tree_is_its_own_source(tmp_path):
    parity = _parity()
    assert parity.source_tree(None, tmp_path) == ROOT / "src"
    assert parity.source_tree(str(ROOT), tmp_path) == ROOT / "src"


def test_verdicts():
    verdict = _parity().verdict
    assert verdict(b'{"a": [1.5, NaN]}', b'{"a": [1.5, NaN]}') == "identical"
    assert verdict(b'{"a": [1.5, NaN]}', b'{"a": [2.0, NaN]}') == \
        "numbers differ: max abs 0.5, max rel 0.25"
    assert verdict(b'{"a": 1.5}', b'{"b": 1.5}') == "differs"
    assert verdict(b"a,1\n", b"a,1,2\n") == "differs"
