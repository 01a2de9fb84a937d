"""The three demos run to the end, and their stdout is pinned by sha256."""

import hashlib
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

PINNED = {
    "cover_pipeline": "c2858b56a927f1f5da2f2eeeb9262725fd7259c5f761b4408651a7997360be1b",
    # the blow-up assembly: walk links, merges and the Hamilton cycle
    "expander_assembly": "2b4a23a4df57c4f2f09c0314f7a89c62744227984916712f59abd1ede51de15c",
    # the lazy residual search's decompositions
    "kelly_small_orders": "2803d62222ba094c0edb2914fe537722eda8d1ab05dcf72959f790c7622cb256",
}
# the kelly demo's output when every decomposition comes from the exact
# cover over all Hamilton cycles, the search before the lazy one
EXACT_COVER_KELLY = "1d52ff386b30b1a8b11dd57786237fcb8658ed7e763f843554a129caa54f986a"


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(PINNED)


def _digest(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_output(capsys, name):
    assert _digest(capsys, name) == PINNED[name]


def test_exact_cover_gives_the_earlier_kelly_output(capsys, monkeypatch):
    # the search is all that changed: with the exact cover put back, the
    # demo prints byte for byte what it printed before
    import oracles

    import hamdg.decomp as decomp

    monkeypatch.setattr(decomp, "decompose_exact", oracles.decompose_exact_cover)
    assert _digest(capsys, "kelly_small_orders") == EXACT_COVER_KELLY
