"""``scripts/unrun_lines.py`` on one small test: the lines it lists are the
``src/hamdg`` lines that test never reaches."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST = "tests/test_constructions.py::TestRandomGraphs::test_random_digraph_probability_extremes"


def _line_of(module: str, text: str) -> str:
    """``path:line`` of the one line of ``src/hamdg/<module>`` holding ``text``."""
    path = f"src/hamdg/{module}"
    lines = (ROOT / path).read_text().splitlines()
    (i,) = [i for i, line in enumerate(lines) if text in line]
    return f"{path}:{i + 1}"


def test_lists_the_lines_one_test_never_runs():
    proc = subprocess.run(
        [sys.executable, "scripts/unrun_lines.py", "-q", "-p", "no:cacheprovider", TEST],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = set(re.findall(r"^(src/hamdg/\w+\.py:\d+)  ", proc.stdout, re.M))
    # the cover pipeline is never called; random_digraph draws its arcs
    assert _line_of("decomp.py", "extract = greedy_extract_undirected if both_ways") in listed
    assert _line_of("constructions.py", "keep = rng.random((n, n)) < arc_prob") not in listed
    last = proc.stdout.splitlines()[-1]
    assert re.fullmatch(r"\d+ lines never run \(pytest exit 0\)", last)
    assert int(last.split()[0]) == len(listed)
