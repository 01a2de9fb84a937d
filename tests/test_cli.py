"""CLI: exit codes, round trips, deterministic experiment tables."""

import hashlib

import pytest

from hamdg import cli
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
    @pytest.mark.parametrize(
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
    def test_output_golden(self, capsys, tmp_path, gen, cmd, digest):
        path = str(tmp_path / "g.dg")
        assert run(capsys, "gen", *gen, "--output", path)[0] == 0
        code, out, _ = run(capsys, *cmd, "--input", path)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
            (("expander", "--mode", "sampled", "--trials", "-5"), "trials"),
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
