"""tools/pass_timer.py on this checkout against itself."""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import pass_timer  # noqa: E402


def listing(root):
    return sorted(p.relative_to(root).as_posix()
                  for p in (root / "src").rglob("*")
                  if "__pycache__" not in p.parts)


def test_times_both_sides_and_writes_nothing_into_the_checkout(tmp_path,
                                                               capsys):
    before = listing(ROOT)
    out = tmp_path / "rows.json"
    assert pass_timer.main([str(ROOT), str(ROOT), "--passes", "2", "--only",
                            "k50/mplp", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["case"] for r in rows] == ["k50/mplp"]
    assert rows[0]["phi_identical"] and rows[0]["passes"] == 2
    assert rows[0]["parent_build_median_ms"] > 0
    assert rows[0]["change_build_median_ms"] > 0
    for side in ("parent", "change"):
        for part in pass_timer.BUILD_PARTS + ("record", "pass_record"):
            assert rows[0][f"{side}_{part}_median_ms"] > 0
        assert rows[0][f"{side}_pass_record_median_ms"] > \
            rows[0][f"{side}_record_median_ms"]
    assert rows[0]["pass_record_ratio"] > 0
    assert 0 <= rows[0]["pass_record_faster_in"] <= 2
    assert "break_even_passes" in rows[0]
    assert json.loads(out.read_text())["build_sums"] == {}
    loads = json.loads(out.read_text())["load"]
    names = [*pass_timer.WORKLOADS, "hard_lists"]
    for side in ("parent", "change"):
        assert list(loads[side]) == names
        assert all(ms > 0 for ms in loads[side].values())
    sizes = json.loads(out.read_text())["source"]
    chars = {p.name: len(p.read_text()) for p in
             sorted((ROOT / "src" / "dualbca").glob("*.py"))}
    largest = max(chars, key=chars.get)
    assert sizes["parent"] == sizes["change"] == {
        "lines": sum(p.read_text().count("\n") for p in
                     (ROOT / "src" / "dualbca").glob("*.py")),
        "chars": sum(chars.values()), "largest_module": largest,
        "largest_module_chars": chars[largest]}
    out = capsys.readouterr().out
    assert "k50/mplp" in out and "even after" in out and "record" in out
    assert "first pass" in out
    assert "pass+record parent" in out
    for name in names:
        assert f"load {name}: parent {loads['parent'][name]:.3f} ms" in out
    assert f"change src/dualbca: {sizes['change']['lines']} lines" in out
    assert listing(ROOT) == before
    assert "pass_timer_parent" not in sys.modules


def test_rejects_fewer_than_two_passes():
    with pytest.raises(SystemExit):
        pass_timer.main([str(ROOT), str(ROOT), "--passes", "1"])


def test_rejects_a_negative_seed_before_loading_a_checkout(capsys):
    with pytest.raises(SystemExit) as exc:
        pass_timer.main([str(ROOT), str(ROOT), "--seed", "-1", "--only",
                         "k50/mplp"])
    assert exc.value.code != 0
    assert "--seed" in capsys.readouterr().err
    assert "pass_timer_parent" not in sys.modules


def test_rejects_an_only_entry_that_names_no_case(capsys):
    with pytest.raises(SystemExit) as exc:
        pass_timer.main([str(ROOT), str(ROOT), "--only", "k50/mplp",
                         "grid/spamm"])
    assert exc.value.code != 0
    assert "grid/spamm" in capsys.readouterr().err


def test_break_even_counts_the_passes_that_pay_for_the_build():
    # (parent, change) medians: passes in ms, then build and compile.
    assert pass_timer.break_even((10, 8), (5, 6)) == 1
    assert pass_timer.break_even((10, 8), (5, 9)) == 2
    assert pass_timer.break_even((10, 8), (5, 4)) == 0
    assert pass_timer.break_even((10, 12), (5, 4)) is None
    assert pass_timer.break_even((10, 10), (5, 6)) is None


def test_build_sums_add_the_workload_methods_only():
    rows = [{"case": f"k50/{m}", "parent_build_median_ms": 2.0,
             "change_build_median_ms": 1.5} for m in pass_timer.WORKLOADS["k50"]]
    assert pass_timer.build_sums(rows) == {
        "k50": {"parent": 10.0, "change": 7.5, "ratio": 0.75}}
    assert pass_timer.build_sums(rows[1:]) == {}


def test_a_static_build_takes_its_first_pass_beyond_a_pass():
    # Rounds in seconds: (whole, emission, levelling, rest of the compile,
    # first pass).  A static run's build also takes what its program's
    # first pass costs beyond the side's median pass: the median of the
    # whole plus the first pass, less that pass.  A dynamic run's passes
    # include their build, so its build is the whole alone.
    rounds = [(0.004, 0.001, 0.001, 0.002, 0.003),
              (0.006, 0.002, 0.001, 0.003, 0.005),
              (0.005, 0.002, 0.002, 0.001, 0.004)]
    static = pass_timer.build_medians(rounds, 0.002, False)
    assert static == pytest.approx([7.0, 2.0, 1.0, 2.0, 4.0])
    dynamic = pass_timer.build_medians(rounds, 0.002, True)
    assert dynamic == pytest.approx([5.0, 2.0, 1.0, 2.0, 4.0])
