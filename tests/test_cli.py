"""CLI: exit codes, round trips, deterministic experiment tables."""

import dataclasses
import hashlib
import io
import json

import pytest

from hamdg import cli, conditions, core
from hamdg import constructions as cons
from hamdg import io as hio
from hamdg.cli import main
from hamdg.conditions import DEGREE_RULES, SEQUENCE_RULES
from hamdg.constructions import circulant_tournament
from hamdg.decomp import Decomposition, validate
from hamdg.errors import CoverFailure
from hamdg.solvers import OrientationPattern, validate_oriented


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_circulant_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "circulant", "--n", "7")
        assert code == 0
        assert hio.parse(out) == circulant_tournament(7)

    def test_round_trip_byte_identical(self, capsys, tmp_path):
        path = str(tmp_path / "g.dg")
        code, out, _ = run(
            capsys, "gen", "--family", "circulant", "--n", "9", "--output", path
        )
        assert code == 0
        text = open(path).read()
        assert hio.serialize(hio.parse(text)) == text

    def test_parts_sidecar(self, capsys, tmp_path):
        parts = str(tmp_path / "g.parts")
        code, _, _ = run(
            capsys,
            "gen", "--family", "fig2", "--n", "7",
            "--output", str(tmp_path / "g.dg"), "--parts", parts,
        )
        assert code == 0
        assert open(parts).read().startswith("PARTS 1\n")

    def test_parts_refused_before_any_output(self, capsys, tmp_path):
        # the digraph went to stdout or --output before the refusal
        parts = tmp_path / "p.txt"
        code, out, err = run(
            capsys, "gen", "--family", "circulant", "--n", "5", "--parts", str(parts)
        )
        assert code == 2 and out == "" and "no part map" in err
        output = tmp_path / "g.dg"
        code, out, err = run(
            capsys, "gen", "--family", "circulant", "--n", "5",
            "--output", str(output), "--parts", str(parts),
        )
        assert code == 2 and out == "" and "no part map" in err
        assert not output.exists() and not parts.exists()

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "moebius", "--n", "5")
        assert code == 2 and "error" in err

    def test_circulant_shifts(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "circulant", "--n", "9", "--param", "shifts=1,2,3,5"
        )
        assert code == 0
        assert hio.parse(out) == circulant_tournament(9, (1, 2, 3, 5))
        assert hio.parse(out) != circulant_tournament(9)

    def test_unused_param_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "gen", "--family", "circulant", "--n", "7", "--param", "degree=3"
        )
        assert code == 2 and out == "" and "'degree'" in err

    @pytest.mark.parametrize(
        "argv,missing",
        [
            (("--family", "complete_bipartite", "--param", "b=2"), "'a'"),
            (("--family", "random_tournament"), "--n"),
        ],
    )
    def test_missing_param_is_usage_error(self, capsys, argv, missing):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == "" and missing in err

    @pytest.mark.parametrize(
        "family,params",
        [
            ("complete_bipartite", ("a=2", "b=3")),
            ("fig1", ("s=2",)),
            ("fig3_haggkvist", ("m=3",)),
            ("fig4_square", ("m=2",)),
            ("two_regular_tournaments", ("d=2",)),
        ],
    )
    def test_unused_n_is_usage_error(self, capsys, family, params):
        argv = [arg for kv in params for arg in ("--param", kv)]
        assert run(capsys, "gen", "--family", family, *argv)[0] == 0
        code, out, err = run(capsys, "gen", "--family", family, "--n", "99", *argv)
        assert code == 2 and out == "" and "--n" in err

    def test_regular_tournament_of_order_one(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "random_regular_tournament", "--n", "1"
        )
        assert code == 0
        assert hio.parse(out) == circulant_tournament(1)

    @pytest.mark.parametrize("d", ["-1", "-2"])
    def test_negative_degree_is_usage_error(self, capsys, d):
        code, out, err = run(
            capsys, "gen", "--family", "random_regular_graph", "--n", "6",
            "--param", f"d={d}", "--graph",
        )
        assert code == 2 and out == "" and f"d={d}" in err


class TestCheck:
    def test_negative_verdict_exit_1(self, capsys, tmp_path):
        path = str(tmp_path / "fig2.dg")
        run(capsys, "gen", "--family", "fig2", "--n", "7", "--output", path)
        code, out, _ = run(capsys, "check", "--rule", "meyniel", "--input", path)
        assert code == 1
        assert '"holds": false' in out

    def test_positive_verdict_exit_0(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "complete_digraph", "--n", "5", "--output", path)
        code, out, _ = run(capsys, "check", "--rule", "ghouila_houri", "--input", path)
        assert code == 0 and '"holds": true' in out


    def test_unknown_rule_is_usage_error(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "complete_digraph", "--n", "5", "--output", path)
        code, out, err = run(capsys, "check", "--rule", "dirac", "--input", path)
        assert code == 2 and out == "" and "unknown rule 'dirac'" in err

    @pytest.mark.parametrize(
        "family,argv,alpha2",
        [("random_regular_graph", ("--n", "60", "--param", "d=4", "--seed", "0"), 24),
         ("random_tournament", ("--n", "31", "--seed", "1"), 31)],
    )
    def test_jackson_past_thirty_vertices(self, capsys, tmp_path, family, argv, alpha2):
        # these orders used to exceed a fixed independence cap and exit 3
        path = str(tmp_path / "g.dg")
        run(capsys, "gen", "--family", family, *argv, "--output", path)
        code, out, _ = run(capsys, "check", "--rule", "jackson_ordaz", "--input", path)
        assert code == 1 and f'"alpha2": {alpha2}' in out

    def test_jackson_budget_exit_3(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("kappa computed after the alpha budget ran out")

        path = str(tmp_path / "g.dg")
        run(capsys, "gen", "--family", "random_regular_graph", "--n", "24",
            "--param", "d=4", "--seed", "0", "--output", path)
        monkeypatch.setattr(conditions, "vertex_connectivity", never)
        monkeypatch.setattr(core, "DEFAULT_BUDGET", 10)
        code, out, err = run(capsys, "check", "--rule", "jackson_ordaz", "--input", path)
        assert code == 3 and out == "" and "budget" in err


class TestSolveCount:
    def test_solve_emits_cycle_record(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "7", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path)
        assert code == 0 and out.startswith("CYCLE 1 7 ")

    def test_solve_none_exit_1(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "transitive", "--n", "5", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path)
        assert code == 1 and out.strip() == "NONE"

    def test_solve_fig1_none_exit_1(self, capsys, tmp_path):
        # n = 29: the cut scan at n^2 nodes refutes, within n^2 + 1 nodes
        path = str(tmp_path / "fig1.dg")
        run(capsys, "gen", "--family", "fig1", "--param", "s=3", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path, "--budget", str(29 * 29 + 1))
        assert code == 1 and out.strip() == "NONE"

    @pytest.mark.parametrize("flag,value", [("--length", "20"), ("--pattern", "+" * 20)])
    def test_hamilton_variants_on_fig1_none_exit_1(self, capsys, tmp_path, flag, value):
        # n = 20: a cycle of length n and an all-forward pattern are Hamilton
        # cycles, refuted by the kernel's cut scan in n^2 + 1 = 401 nodes;
        # the sequence search exhausted the budget and exited 3
        path = str(tmp_path / "fig1.dg")
        run(capsys, "gen", "--family", "fig1", "--param", "s=2", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path, flag, value, "--budget", "1000")
        assert code == 1 and out.strip() == "NONE"

    def test_cycle_of_length_past_recursion_limit(self, capsys, tmp_path):
        path = str(tmp_path / "c.dg")
        run(capsys, "gen", "--family", "directed_cycle", "--n", "1200", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path, "--length", "1200")
        assert code == 0
        assert out == " ".join(["CYCLE", "1", "1200"] + [str(v) for v in range(1200)]) + "\n"

    def test_pattern_emits_cycle_record(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "7", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path, "--pattern", "+++++++")
        assert code == 0
        order = hio.parse_cycle(out.strip()).order
        pattern = OrientationPattern((1,) * 7)
        assert validate_oriented(circulant_tournament(7), order, pattern, closed=True)

    def test_through_emits_a_cycle_through_the_matching(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "7", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path, "--through", "0,1 3,4")
        assert code == 0
        h = hio.parse_cycle(out.strip())
        assert h.is_valid(circulant_tournament(7))
        assert {(0, 1), (3, 4)} <= set(h.arcs())

    @pytest.mark.parametrize("through", ["5,6", "-1,0", "1,-1"])
    def test_through_outside_the_host_is_usage_error(self, capsys, tmp_path, through):
        # these exited 4: IndexError for 5,6, a negative shift count for the
        # others
        path = str(tmp_path / "c3.dg")
        run(capsys, "gen", "--family", "directed_cycle", "--n", "3", "--output", path)
        code, out, err = run(capsys, "solve", "--input", path, f"--through={through}")
        assert code == 2 and out == ""
        assert f"({through}) not in host" in err and "Traceback" not in err

    def test_power_emits_a_cycle_whose_square_is_present(self, capsys, tmp_path):
        path = str(tmp_path / "c7.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "7", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path, "--power", "2")
        assert code == 0
        o = hio.parse_cycle(out.strip()).order
        g = circulant_tournament(7)
        assert sorted(o) == list(range(7))
        assert all(g.has_arc(o[i], o[(i + j) % 7]) for i in range(7) for j in (1, 2))

    def test_length_none_exit_1(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "transitive", "--n", "5", "--output", path)
        code, out, _ = run(capsys, "solve", "--input", path, "--length", "3")
        assert (code, out) == (1, "NONE\n")

    def test_budget_exit_3(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "complete_digraph", "--n", "12", "--output", path)
        code, _, err = run(capsys, "solve", "--input", path, "--budget", "3")
        assert code == 3 and "budget" in err

    def test_count(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "5", "--output", path)
        code, out, _ = run(capsys, "count", "--input", path, "--kind", "paths")
        assert code == 0 and '"count": 15' in out

    def test_count_tournament_16(self, capsys, tmp_path):
        path = str(tmp_path / "rt16.dg")
        run(capsys, "gen", "--family", "random_tournament", "--n", "16", "--seed", "1",
            "--output", path)
        _, paths, _ = run(capsys, "count", "--input", path, "--kind", "paths")
        _, cycles, _ = run(capsys, "count", "--input", path, "--kind", "cycles")
        assert paths == (
            '{"n": 16, "kind": "paths", "count": 463766899, "classification": '
            '"tournament", "random_tournament_mean": "638512875"}\n'
        )
        assert cycles == (
            '{"n": 16, "kind": "cycles", "count": 13273639, "classification": '
            '"tournament", "random_tournament_mean": "638512875/32"}\n'
        )

    def test_count_above_cap_exit_3(self, capsys, tmp_path):
        path = str(tmp_path / "k22.dg")
        run(capsys, "gen", "--family", "complete_digraph", "--n", "22", "--output", path)
        code, out, err = run(capsys, "count", "--input", path)
        assert code == 3 and out == "" and "cap=21" in err


class TestDecomposeCover:
    def test_walecki(self, capsys):
        code, out, _ = run(capsys, "decompose", "--walecki", "9")
        assert code == 0 and out.strip().endswith("# cycles=4")

    def test_no_decomposition_exit_1(self, capsys, tmp_path):
        path = str(tmp_path / "k4.dg")
        run(capsys, "gen", "--family", "complete_digraph", "--n", "4", "--output", path)
        code, out, _ = run(capsys, "decompose", "--input", path)
        assert code == 1 and out.strip() == "NONE"

    def test_decompose_circulant_13(self, capsys, tmp_path):
        # the exact cover listed all 166k Hamilton cycles first: 7 s
        path = str(tmp_path / "c13.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "13", "--output", path)
        code, out, _ = run(capsys, "decompose", "--input", path)
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "# cycles=6" and len(lines) == 7
        cycles = [hio.parse_cycle(line) for line in lines[:-1]]
        dec = Decomposition(tuple(cycles))
        assert validate(dec, circulant_tournament(13)).holds

    def test_decompose_budget_exit_3(self, capsys, tmp_path):
        path = str(tmp_path / "c13.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "13", "--output", path)
        code, out, err = run(capsys, "decompose", "--input", path, "--budget", "5")
        assert code == 3 and out == "" and "budget exhausted" in err

    @pytest.mark.parametrize(
        "gen,cmd",
        [
            (("--family", "circulant", "--n", "11"), ("cover",)),
            (("--family", "random_regular_graph", "--n", "12", "--param", "d=4",
              "--graph"), ("cover", "--graph")),
        ],
    )
    def test_cover_budget_exit_3(self, capsys, tmp_path, gen, cmd):
        path = str(tmp_path / "g.dg")
        run(capsys, "gen", *gen, "--output", path)
        code, out, err = run(capsys, *cmd, "--input", path, "--budget", "5")
        assert code == 3 and out == "" and "budget exhausted" in err

    @pytest.mark.parametrize("cap", ["0", "-2"])
    @pytest.mark.parametrize(
        "gen,cmd",
        [
            (("--family", "circulant", "--n", "9"), ("cover",)),
            (("--family", "circulant", "--n", "11"), ("cover",)),
            (("--family", "complete_graph", "--n", "7"), ("cover", "--graph")),
        ],
    )
    def test_cover_cap_below_one_is_usage_error(self, capsys, tmp_path, gen, cmd, cap):
        # circulant(9) and K7 once exited 0: their covers split no matching
        path = str(tmp_path / "g.dg")
        run(capsys, "gen", *gen, "--output", path)
        code, out, err = run(capsys, *cmd, "--input", path, "--cap", cap)
        assert code == 2 and out == "" and "cap >= 1" in err and "Traceback" not in err

    def test_cover_failure_exit_3(self, capsys, tmp_path, monkeypatch):
        # a valid input whose restarts all fail is not a usage error
        import hamdg.decomp as decomp

        path = str(tmp_path / "t.dg")
        # n = 11 is past decomp.EXACT_MAX_N, so the cover loop runs
        run(capsys, "gen", "--family", "circulant", "--n", "11", "--output", path)

        def exhausted(g, cap, budget, *, both_ways):
            raise CoverFailure(((0, 1),))

        monkeypatch.setattr(decomp, "_cover", exhausted)
        code, out, err = run(capsys, "cover", "--input", path)
        assert code == 3 and out == ""
        assert "cover restarts exhausted" in err and "(0, 1)" in err

    def test_cover_summary(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "7", "--output", path)
        code, out, _ = run(capsys, "cover", "--input", path)
        assert code == 0
        assert "# size=" in out and "half_plus_quarter=" in out


class TestGolden:
    # sha256 of stdout: every cycle of a cover, or the solver's certificate
    OUTPUTS = pytest.mark.parametrize(
        "gen,cmd,digest",
        [
            (("--family", "circulant", "--n", "21"), ("cover",),
             "4adf5018bdf1d63662230119b5b58935b6c2d6519a0714d22f446799e3cd9561"),
            (("--family", "circulant", "--n", "23"), ("cover",),
             "b2ac3621b56258bb1f217b60caafdf1ca64e274e41430b78e5d7018fcd74526a"),
            (("--family", "random_regular_graph", "--n", "24", "--param", "d=5",
              "--graph"), ("cover", "--graph"),
             "2712efcf3bda0d97aaf19af330c24c3281992ab34ae5ec6b44d63d535be869e5"),
            (("--family", "fig4_square", "--param", "m=2"), ("solve",),
             "ba7cccb2fb1385243f554ff9fdd09591d39bc3e70b791da75ab836e69e53fc30"),
            (("--family", "random_tournament", "--n", "40"), ("solve",),
             "c30e4ba9208cfc8eb6dce83888893435dc2d4419fdfd6cd82e61819f6c80f925"),
        ],
    )

    @OUTPUTS
    def test_output_golden(self, capsys, tmp_path, gen, cmd, digest):
        path = str(tmp_path / "g.dg")
        assert run(capsys, "gen", *gen, "--output", path)[0] == 0
        code, out, _ = run(capsys, *cmd, "--input", path)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @OUTPUTS
    def test_output_golden_with_stats(self, capsys, tmp_path, gen, cmd, digest):
        # --stats adds one JSON line to stderr and leaves stdout as it was
        path = str(tmp_path / "g.dg")
        assert run(capsys, "gen", *gen, "--output", path)[0] == 0
        code, out, err = run(capsys, *cmd, "--input", path, "--stats")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        stats = json.loads(err)
        assert set(stats) == {"nodes", "seconds"} and stats["nodes"] > 0

    # sha256 of the generator's stdout: the seeded generators' streams
    @pytest.mark.parametrize(
        "gen,digest",
        [
            (("--family", "random_tournament", "--n", "40"),
             "731bf44c1ee2f78ad75cf71b7ffafd8327a8f6e7f13516312bd6dbd8b69c88fb"),
            (("--family", "random_regular_tournament", "--n", "25"),
             "836ea1a17d8ee9437d727746c8ad05bd2bfa58f8490dc9d6811db8d195f556f9"),
            (("--family", "random_regular_graph", "--n", "24", "--param", "d=5",
              "--graph"),
             "b346c399ac643437ed74529525256224bf4383718ad4879da6db0057051e435b"),
        ],
    )
    def test_gen_golden(self, capsys, gen, digest):
        code, out, _ = run(capsys, "gen", *gen)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of "<rule> <exit code> <stdout>" for every degree and sequence
    # rule in turn, with the parameters the parametrised rules need
    @pytest.mark.parametrize(
        "gen,digest",
        [
            (("--family", "random_tournament", "--n", "40"),
             "c4210e5bd7cf7375edaff2ea8759158a22da11975e541366ed176b40826f2283"),
            (("--family", "nw_extremal", "--param", "n=22", "--param", "k=2"),
             "6333277dac6f8ea3bb2d63240fd0565bb36c311d51ff96c97b75996300385c99"),
            (("--family", "random_regular_graph", "--n", "24", "--param", "d=5",
              "--graph"),
             "49568ba9c3a24f93d3b05c5bac3e50b9f7367b16ed92785a85d6eb6ef1c0568b"),
        ],
    )
    def test_check_golden(self, capsys, tmp_path, gen, digest):
        params = {"kordered_semidegree": "k=2", "short_cycle": "ell=5",
                  "ckko": "beta=1/10"}
        path = str(tmp_path / "g.dg")
        assert run(capsys, "gen", *gen, "--output", path)[0] == 0
        transcript = []
        for rule in DEGREE_RULES + SEQUENCE_RULES:
            argv = ["check", "--rule", rule, "--input", path]
            if rule in params:
                argv += ["--param", params[rule]]
            code, out, _ = run(capsys, *argv)
            transcript.append(f"{rule} {code} {out}")
        assert len(transcript) == 14
        digest_got = hashlib.sha256("".join(transcript).encode()).hexdigest()
        assert digest_got == digest


class TestStats:
    @staticmethod
    def stats(err: str) -> dict:
        return json.loads(err.splitlines()[0])

    @pytest.mark.parametrize(
        "gen,cmd",
        [
            (("--family", "random_tournament", "--n", "30"), ("solve",)),
            (("--family", "fig1", "--param", "s=2"), ("solve",)),
            (("--family", "circulant", "--n", "9"), ("decompose",)),
            (("--family", "circulant", "--n", "21"), ("cover",)),
        ],
    )
    def test_same_nodes_twice(self, capsys, tmp_path, gen, cmd):
        path = str(tmp_path / "g.dg")
        run(capsys, "gen", *gen, "--output", path)
        first = run(capsys, *cmd, "--input", path, "--stats")
        second = run(capsys, *cmd, "--input", path, "--stats")
        assert first[:2] == second[:2]
        assert self.stats(first[2])["nodes"] == self.stats(second[2])["nodes"] > 0

    @pytest.mark.parametrize(
        "gen,cmd",
        [
            (("--family", "complete_digraph", "--n", "12"), ("solve",)),
            (("--family", "circulant", "--n", "13"), ("decompose",)),
            (("--family", "circulant", "--n", "11"), ("cover",)),
            (("--family", "random_regular_graph", "--n", "12", "--param", "d=4",
              "--graph"), ("cover", "--graph")),
        ],
    )
    def test_budget_exit_3_counts_budget_plus_one(self, capsys, tmp_path, gen, cmd):
        path = str(tmp_path / "g.dg")
        run(capsys, "gen", *gen, "--output", path)
        code, out, err = run(capsys, *cmd, "--input", path, "--budget", "5", "--stats")
        assert code == 3 and out == "" and "budget exhausted" in err
        assert self.stats(err)["nodes"] == 6

    def test_no_stats_without_the_flag(self, capsys, tmp_path):
        path = str(tmp_path / "g.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "7", "--output", path)
        assert run(capsys, "solve", "--input", path)[2] == ""


class TestExpander:
    def test_check_holds(self, capsys, tmp_path):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "11", "--output", path)
        code, out, _ = run(
            capsys, "expander", "--input", path, "--nu", "1/20", "--tau", "1/5"
        )
        assert code == 0 and '"holds": true' in out

    def test_pipeline_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "expander", "--pipeline", "--base", "triangle", "--m", "5",
            "--exceptional", "2", "--seed", "1",
        )
        assert code == 0
        assert "# walk length=" in out and "# merge cluster=" in out
        assert "CYCLE 1 17 " in out

    # sha256 of stdout: the walk links, the merge trace and the final cycle.
    # kuhn_digest is the output when every matching takes Kuhn's plain
    # order, as it did before the matchings were seeded with the unmatched
    # rights; digest is the output of the seeded matchings.
    PIPELINES = pytest.mark.parametrize(
        "base,m,seed,kuhn_digest,digest",
        [
            ("triangle", "40", "3",
             "53756d18124ea081633e9e5f5b3cf569990d7ad08422c635e3ef7a18bf6abc98",
             "12f7257c8219a2c1c1a87c6e634918caaffb058542bd310907ebdbfef017c783"),
            ("pentagon", "24", "5",
             "fb96e8ee6e31750e3dcc51ff8b26f1f0594df9f1394bea2189e2bef83ee26238",
             "e6400b751af64ab518b4a4b67b64477b4be6eca84fd5bc04f1cc3524acc017d8"),
        ],
    )

    @staticmethod
    def pipeline_digest(capsys, base, m, seed):
        code, out, _ = run(
            capsys,
            "expander", "--pipeline", "--base", base, "--m", m,
            "--exceptional", "4", "--seed", seed,
        )
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    @PIPELINES
    def test_pipeline_output_golden(self, capsys, base, m, seed, kuhn_digest, digest):
        assert self.pipeline_digest(capsys, base, m, seed) == digest

    @PIPELINES
    def test_kuhn_order_gives_the_earlier_output(
        self, capsys, monkeypatch, base, m, seed, kuhn_digest, digest
    ):
        # with Kuhn's plain order put back in the per-cluster matchings and
        # in rotation_extension's 1-factor, the output is byte for byte the
        # one pinned before: the matching order is all that changed
        import oracles

        import hamdg.expander as ex
        import hamdg.solvers as so

        monkeypatch.setattr(ex, "_bipartite_matching", oracles.bipartite_matching)
        monkeypatch.setattr(so, "one_factor", oracles.one_factor)
        assert self.pipeline_digest(capsys, base, m, seed) == kuhn_digest


class TestExperiment:
    def test_kelly_table(self, capsys):
        code, out, _ = run(capsys, "experiment", "kelly", "--n", "3,5")
        assert code == 0
        assert out.startswith("# schema=1\n")
        assert "kelly-n5,5,24,24,2,True" in out

    def test_kelly_n7(self, capsys):
        # only the 2,640 regular ones of the 2^21 tournaments are built
        code, out, err = run(capsys, "experiment", "kelly", "--n", "7")
        assert code == 0 and "kelly-n7,7,2640,2640,3,True" in out.splitlines()
        assert err.startswith("wall-time ")

    def test_kelly_negative_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "experiment", "kelly", "--n=-1")
        assert code == 2 and out == "" and "n >= 2" in err

    @pytest.mark.parametrize("n", ["-2", "1"])
    def test_camion_n_below_two_is_usage_error(self, capsys, n):
        # -2 used to crash (exit 4) and 1 to report Camion failing (exit 1)
        code, out, err = run(capsys, "experiment", "camion", f"--n={n}")
        assert code == 2 and out == "" and "error: n >= 2" in err

    def test_reruns_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "experiment", "cover", "--n", "5,7")
        _, out2, _ = run(capsys, "experiment", "cover", "--n", "5,7")
        assert out1 == out2

    def test_jsonl_flag(self, capsys):
        code, out, _ = run(capsys, "experiment", "camion", "--n", "3", "--jsonl")
        assert code == 0 and out.strip().startswith("{")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_removed_seed_flag_is_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["cover", "--input", "g.dg", "--seed", "1"])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("expander", "--nu", "1/0"), "--nu"),
            (("expander", "--tau", "a"), "--tau"),
            (("solve", "--through", "0,1,2"), "--through"),
            (("solve", "--pattern", "++x"), "--pattern"),
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, tmp_path, argv, flag):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "3", "--output", path)
        code, out, err = run(capsys, *argv, "--input", path)
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize(
        "argv,want",
        [
            (("check", "--rule", "ore_oriented", "--param", "alpha=abc"), "alpha"),
            (("check", "--rule", "ckko", "--param", "beta=x"), "beta"),
            (("check", "--rule", "power_tournament", "--param", "eps=1/0"), "eps"),
            (("solve", "--budget", "-3"), "--budget"),
            (("decompose", "--budget", "-3"), "--budget"),
            (("expander", "--pipeline", "--m", "0"), "cluster size"),
            (("cover", "--budget", "-3"), "--budget"),
            (("solve", "--length", "-4"), "--length"),
            (("solve", "--length", "0"), "--length"),
            (("expander", "--nu=-1/5"), "nu must lie strictly between 0 and 1"),
            (("expander", "--nu", "3/2"), "nu must lie strictly between 0 and 1"),
            (("expander", "--tau", "1"), "tau must lie strictly"),
        ],
    )
    def test_out_of_domain_value_is_usage_error(self, capsys, tmp_path, argv, want):
        # these exited 4 with a traceback, 1 or 2 for another reason, or 0;
        # the input is not strong, so solve runs no search
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "transitive", "--n", "3", "--output", path)
        code, out, err = run(capsys, *argv, "--input", path)
        assert code == 2 and out == "" and want in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [("solve",), ("check", "--rule", "ghouila_houri"), ("count",)]
    )
    def test_header_over_the_parse_limit_is_usage_error(self, capsys, tmp_path, argv):
        # 22 bytes that once built 12,000 rows of 1,500 bytes a side
        path = tmp_path / "big.dg"
        path.write_text("DIGRAPH 1 12000 1\n0 1\n")
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2 and out == "" and "parse limit" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("experiment", "cover", "--n", "5,x"), "--n"),
            (("gen", "--family", "random_digraph", "--n", "4", "--param", "p=x"), "--param p"),
            (("gen", "--family", "fig1", "--param", "s=two"), "--param s"),
        ],
    )
    def test_bad_parameter_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--length", "3", "--power", "2"),
            ("--power", "2", "--through", "0,1"),
            ("--pattern", "+++++++", "--length", "7"),
            ("--through", "0,1", "--pattern", "+++++++"),
        ],
    )
    def test_conflicting_solve_variants_are_usage_error(self, capsys, tmp_path, argv):
        # the first variant won silently: --length 3 --power 2 printed a
        # 3-cycle and exited 0, and --through beside --power was ignored
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "7", "--output", path)
        with pytest.raises(SystemExit) as e:
            main(["solve", "--input", path, *argv])
        out, err = capsys.readouterr()
        assert e.value.code == 2 and out == "" and argv[0] in err and argv[2] in err

    @pytest.mark.parametrize(
        "argv,want",
        [
            (("gen", "--family", "random_tournament", "--n", "5", "--seed", "-1"), "seed=-1"),
            (("gen", "--family", "random_regular_tournament", "--n", "1", "--seed", "-1"),
             "seed=-1"),
            (("gen", "--family", "random_digraph", "--n", "4", "--seed", "-3"), "seed=-3"),
            (("gen", "--family", "random_regular_graph", "--n", "6", "--param", "d=3",
              "--seed", "-1"), "seed=-1"),
            (("gen", "--family", "random_digraph", "--n", "-1"), "n=-1"),
            (("expander", "--pipeline", "--seed", "-1"), "seed=-1"),
        ],
    )
    def test_negative_seed_or_size_is_usage_error(self, capsys, argv, want):
        # Philox and numpy's shapes take no negative value; these exited 4
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and want in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,want",
        [
            (("gen", "--family", "random_digraph", "--n", "4", "--param", "p"), "key=value"),
            (("gen", "--family", "circulant", "--n", "5", "--parts", "p.txt"), "no part map"),
            (("experiment", "kelly", "--n", "4"), "odd n"),
        ],
    )
    def test_refused_request_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, want):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and want in err and "Traceback" not in err

    @pytest.mark.parametrize("p", ["2", "-0.5", "nan"])
    def test_arc_probability_out_of_range_is_usage_error(self, capsys, p):
        # p=2 once exited 0 and wrote K*5
        code, out, err = run(capsys, "gen", "--family", "random_digraph", "--n", "5",
                             "--param", f"p={p}")
        assert code == 2 and out == "" and "arc_prob" in err and "Traceback" not in err

    def test_gen_refuses_an_order_parse_refuses(self, capsys, monkeypatch):
        # gen --n 9000 wrote a file that solve --input then refused
        def make(n):
            raise AssertionError("the graph was built")

        monkeypatch.setitem(cons.FAMILIES, "directed_cycle", cons.Family(make, ("n",)))
        code, out, err = run(capsys, "gen", "--family", "directed_cycle", "--n", "8193")
        assert code == 2 and out == "" and "n=8193: its rows pass the parse limit" in err

    @pytest.mark.parametrize("family,params,n", [
        ("complete_bipartite", ["a=8192", "b=1"], 8193),
        ("fig1", ["s=911"], 8201),
        ("fig3_haggkvist", ["m=2049"], 8199),
        ("fig4_square", ["m=1366"], 8196),
        ("two_regular_tournaments", ["d=2048"], 8194),
        ("cycle_blowup", ["k=2", "sizes=4096,4097"], 8193),
    ])
    def test_gen_refuses_a_param_order_parse_refuses(self, capsys, monkeypatch,
                                                     family, params, n):
        # each family's order from its --param values, just past the limit:
        # complete_bipartite a=8200 b=1 wrote a file that solve --input refused
        def make(*args):
            raise AssertionError("the graph was built")

        fam = cons.FAMILIES[family]
        monkeypatch.setitem(cons.FAMILIES, family, dataclasses.replace(fam, make=make))
        argv = [arg for param in params for arg in ("--param", param)]
        code, out, err = run(capsys, "gen", "--family", family, *argv)
        assert code == 2 and out == "" and f"n={n}: its rows pass the parse limit" in err

    def test_gen_writes_the_largest_order_parse_reads(self, capsys, tmp_path):
        path = str(tmp_path / "c.dg")
        code, out, err = run(capsys, "gen", "--family", "directed_cycle", "--n", "8192",
                             "--output", path)
        assert code == 0 and err == "" and hio.load(path).n == 8192

    def test_pipeline_refuses_a_host_order_parse_refuses(self, capsys, monkeypatch):
        # 3 clusters of 2730 and 3 exceptional vertices: an 8193-vertex host
        def blowup(*args, **kwargs):
            raise AssertionError("the host was built")

        monkeypatch.setattr(cli, "make_cluster_blowup", blowup)
        code, out, err = run(capsys, "expander", "--pipeline", "--base", "triangle",
                             "--m", "2730", "--exceptional", "3")
        assert code == 2 and out == "" and "n=8193: its rows pass the parse limit" in err

    def test_negative_exceptional_is_usage_error(self, capsys):
        # an IndexError in the blow-up: exit 4 with a traceback
        code, out, err = run(capsys, "expander", "--pipeline", "--exceptional=-1")
        assert code == 2 and out == "" and "exceptional >= 0" in err
        assert "Traceback" not in err

    def test_negative_cap_is_usage_error(self, capsys):
        # reported as an overload: "0 entries + 0 exits > cap -1"
        code, out, err = run(capsys, "expander", "--pipeline", "--m", "8", "--cap", "-1")
        assert code == 2 and out == "" and "need cap >= 0, got cap=-1" in err
        assert "Traceback" not in err and "entries" not in err

    def test_expander_without_input_or_pipeline_is_usage_error(self, capsys):
        # an AttributeError on the missing path: exit 4 with a traceback
        code, out, err = run(capsys, "expander")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "--input" in err and "--pipeline" in err

    def test_decompose_without_input_or_walecki_is_usage_error(self, capsys):
        # an AttributeError on the missing path: exit 4 with a traceback
        code, out, err = run(capsys, "decompose")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "--input" in err and "--walecki" in err

    def test_expander_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(hio.serialize(circulant_tournament(11))))
        code, out, _ = run(capsys, "expander", "--input", "-")
        assert code == 0 and '"holds": true' in out

    @pytest.mark.parametrize(
        "rule,param",
        [
            ("ore_oriented", "alpah=9"),
            ("jackson_factorial", "cap=5"),
            ("jackson_ordaz", "cap=5"),
            ("ghouila_houri", "k=2"),
        ],
    )
    def test_check_refuses_a_parameter_the_rule_does_not_read(
        self, capsys, tmp_path, rule, param
    ):
        # these printed a verdict under the rule's defaults, as if the
        # parameter had been read
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "5", "--output", path)
        code, out, err = run(capsys, "check", "--rule", rule, "--param", param, "--input", path)
        key = param.split("=")[0]
        assert code == 2 and out == "" and f"{rule} takes no parameter {key!r}" in err

    def test_check_on_the_empty_digraph(self, capsys, tmp_path):
        path = tmp_path / "empty.dg"
        path.write_text("DIGRAPH 1 0 0\n")
        code, out, err = run(
            capsys, "check", "--rule", "haggkvist_star", "--input", str(path)
        )
        assert (code, out, err) == (0, '{"rule": "haggkvist_star", "holds": true}\n', "")

    def test_internal_error_exit_4(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "t.dg")
        run(capsys, "gen", "--family", "circulant", "--n", "5", "--output", path)

        def broken(g, budget):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "find_hamilton_cycle", broken)
        code, out, err = run(capsys, "solve", "--input", path)
        assert code == 4 and out == ""
        assert "Traceback" in err and "ValueError: internal fault" in err
