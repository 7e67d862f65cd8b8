"""tools/parity.py: one tree run twice is identical, a changed number is
named with its file, and a tree's source lines are counted as `wc -l` does."""

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


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    parity = _parity()
    package = ROOT / "src" / "flowpose"
    assert parity.src_lines(ROOT / "src") == sum(len(p.read_text().splitlines())
                                                 for p in package.glob("*.py"))
    (tmp_path / "flowpose" / "sub").mkdir(parents=True)
    (tmp_path / "flowpose" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "flowpose" / "b.py").write_text("z = 3")       # no final newline
    (tmp_path / "flowpose" / "notes.txt").write_text("one\ntwo\n")
    (tmp_path / "flowpose" / "sub" / "c.py").write_text("w = 4\n")
    assert parity.src_lines(tmp_path) == 3


def test_verdicts():
    verdict = _parity().verdict
    assert verdict(b'{"a": [1.5, NaN]}', b'{"a": [1.5, NaN]}') == "identical"
    assert verdict(b'{"a": [1.5, NaN]}', b'{"a": [2.0, NaN]}') == \
        "numbers differ: max abs 0.5, max rel 0.25"
    assert verdict(b'{"a": 1.5}', b'{"b": 1.5}') == "differs"
    assert verdict(b"a,1\n", b"a,1,2\n") == "differs"
