"""List the executable lines of ``src/hamdg`` that the tier-1 tests never run.

    python3 scripts/unrun_lines.py [PYTEST_ARGS...]

Run it from the repository root.  It runs ``pytest.main`` in this process
(by default ``-q --continue-on-collection-errors -p no:cacheprovider
tests``, the tier-1 run) under ``sys.settrace`` and prints, one per line,
``path:line  source`` for every line of a ``src/hamdg`` module that some
code object holds and that no test reached, then a count per file.  Code
run in a subprocess is not seen.  It needs only the standard library and
pytest; no coverage tool.  Tracing makes the run several times slower.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hamdg"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some instruction of the module's code maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run, by file, of the package.

    A code object's lines not yet seen are kept in ``left``; once none is
    left its frames stop sending line events, so a fully run hot loop costs
    one call event per frame instead of one event per line."""
    import pytest

    prefix = str(PACKAGE) + "/"
    left: dict = {}  # code object -> its lines not yet run; empty if foreign
    lines: dict = {}  # code object of the package -> all its lines

    def local(frame, event, arg):
        if event == "line":
            todo = left[frame.f_code]
            todo.discard(frame.f_lineno)
            if not todo:
                frame.f_trace_lines = False
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        todo = left.get(code)
        if todo is None:
            todo = left[code] = set()
            if code.co_filename.startswith(prefix):
                lines[code] = {n for _, _, n in code.co_lines() if n is not None}
                todo |= lines[code]
        todo.discard(frame.f_lineno)
        return local if todo else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    seen: dict[str, set[int]] = {}
    for obj, all_lines in lines.items():
        seen.setdefault(obj.co_filename, set()).update(all_lines - left[obj])
    return int(code), seen


def main(argv: list[str]) -> int:
    code, seen = traced_run(argv or TIER1)
    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        unrun = sorted(executable_lines(path) - seen.get(str(path), set()))
        rel = path.relative_to(ROOT)
        for line in unrun:
            print(f"{rel}:{line}  {source[line - 1].strip()}")
        counts.append(f"{rel}: {len(unrun)}")
        total += len(unrun)
    print("\n".join(counts))
    print(f"{total} lines never run (pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
