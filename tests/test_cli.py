import copy
import functools
import json
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpaeq.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEARCH_NONE,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAIL,
    build_parser,
    main,
)
from fpaeq.model import (
    Auction,
    BidSpace,
    DiscretePrior,
    IIDMarginal,
    JumpStrategy,
    MixedStrategy,
    Profile,
    PureStrategy,
    validate_instance,
)
from fpaeq.reduction import SatFormula, build_auction, encode_profile, map_to_doc
from fpaeq.serialize import (
    instance_from_doc,
    instance_to_doc,
    dumps,
    load_instance,
    load_profile,
    profile_to_doc,
    save_instance,
    save_profile,
)

F = Fraction


@pytest.fixture
def files(tmp_path, prop34, prop34_nonmonotone):
    inst = tmp_path / "prop34.json"
    save_instance(prop34, str(inst))
    prof = tmp_path / "nonmono.json"
    save_profile(prop34_nonmonotone, str(prof))
    return tmp_path, str(inst), str(prof)


def run(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicVerbs:
    def test_validate_ok(self, capsys, files):
        _, inst, _ = files
        code, out, _ = run(capsys, "validate", "--instance", inst)
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_validate_reports_violations(self, capsys, tmp_path, prop34):
        doc = instance_to_doc(prop34)
        doc["support"][0]["mass"] = "1/2"
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(doc))
        code, out, _ = run(capsys, "validate", "--instance", bad)
        assert code == EXIT_VALIDATION
        assert not json.loads(out)["ok"]

    def test_marginal(self, capsys, files):
        _, inst, _ = files
        code, out, _ = run(capsys, "marginal", "--instance", inst, "--bidder", 0)
        assert code == EXIT_OK
        assert json.loads(out)["pmf"] == [
            {"value": "0", "mass": "1/3"},
            {"value": "1/2", "mass": "1/3"},
            {"value": "1", "mass": "1/3"},
        ]

    def test_utility_and_best_response(self, capsys, files):
        _, inst, prof = files
        code, out, _ = run(
            capsys,
            "utility",
            "--instance", inst, "--bidder", 0,
            "--value", "1", "--bid", "1/10", "--profile", prof,
        )
        assert code == EXIT_OK and out.strip() == "9/10"
        code, out, _ = run(
            capsys,
            "best-response",
            "--instance", inst, "--bidder", 0, "--value", "1",
            "--profile", prof,
        )
        assert code == EXIT_OK
        assert json.loads(out)["argmax"] == ["1/10"]

    def test_decimal_rejected(self, capsys, files):
        _, inst, prof = files
        with pytest.raises(SystemExit):
            main([
                "utility", "--instance", inst, "--bidder", "0",
                "--value", "0.5", "--bid", "0", "--profile", prof,
            ])


class TestVerify:
    def test_exact_equilibrium_passes(self, capsys, files):
        _, inst, prof = files
        code, out, _ = run(
            capsys, "verify", "--instance", inst, "--profile", prof, "--eps", "0"
        )
        assert code == EXIT_OK
        assert json.loads(out)["max_gain"] == "0"

    def test_violations_exit_code(self, capsys, files, tmp_path, prop34):
        zeros = Profile(
            [
                PureStrategy(i, {F(0): F(0), F(1, 2): F(0), F(1): F(0)})
                for i in range(2)
            ]
        )
        path = tmp_path / "zeros.json"
        save_profile(zeros, str(path))
        _, inst, _ = files
        code, out, _ = run(
            capsys, "verify", "--instance", inst, "--profile", path, "--eps", "1/100"
        )
        assert code == EXIT_VERIFY_FAIL
        assert json.loads(out)["violations"]


class TestVerdictReports:
    """A failed verdict of validate (12), verify (10) or check-affiliation
    (10) is its report on stdout; nothing goes to stderr."""

    def test_report_is_the_record(self, capsys, files, prop34):
        d, inst, _ = files
        bad = instance_to_doc(prop34)
        bad["support"][0]["mass"] = "1/2"
        (d / "bad.json").write_text(dumps(bad))
        zeros = Profile([PureStrategy(i, {F(0): 0, F(1, 2): 0, F(1): 0}) for i in range(2)])
        save_profile(zeros, str(d / "zeros.json"))
        lo, hi = F(1, 4), F(3, 4)
        anti = DiscretePrior(2, [(lo, hi)] * 2, [((lo, hi), F(1, 2)), ((hi, lo), F(1, 2))])
        save_instance(Auction(BidSpace([0]), anti), str(d / "anti.json"))
        cases = [
            (["validate", "--instance", d / "bad.json"], EXIT_VALIDATION, "violations"),
            (["verify", "--instance", inst, "--profile", d / "zeros.json"], EXIT_VERIFY_FAIL,
             "violations"),
            (["check-affiliation", "--instance", d / "anti.json"], EXIT_VERIFY_FAIL, "witness"),
        ]
        for argv, expected, key in cases:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (expected, "")
            assert json.loads(out)[key]


class TestProfileValidation:
    BAD = {
        # a row of weight 2 holding a bid outside B
        "heavy_row": Profile(
            [
                MixedStrategy(
                    i,
                    {F(0): {F(0): F(1)}, F(1, 2): {F(3, 4): F(2)}, F(1): {F(0): F(1)}},
                )
                for i in range(2)
            ]
        ),
        # a pure strategy that misses value 0
        "missing_value": Profile(
            [
                PureStrategy(0, {F(0): F(0), F(1, 2): F(0), F(1): F(0)}),
                PureStrategy(1, {F(1, 2): F(0), F(1): F(0)}),
            ]
        ),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize(
        "verb",
        [
            ["verify"],
            ["utility", "--bidder", "0", "--value", "1", "--bid", "1/10"],
            ["best-response", "--bidder", "0", "--value", "1"],
        ],
    )
    def test_bad_profile_exits_12(self, capsys, files, tmp_path, bad, verb):
        _, inst, _ = files
        path = tmp_path / "bad.json"
        save_profile(self.BAD[bad], str(path))
        code, out, err = run(capsys, *verb, "--instance", inst, "--profile", path)
        assert code == EXIT_VALIDATION and out == ""
        assert json.loads(err)["error"] == "validation"


class TestSearchVerbs:
    def test_solve_pure_monotone_none(self, capsys, files):
        _, inst, _ = files
        code, out, _ = run(
            capsys,
            "solve-pure", "--instance", inst, "--eps", "1/100", "--monotone",
        )
        assert code == EXIT_SEARCH_NONE
        assert json.loads(out)["status"] == "none"

    def test_solve_pure_finds_and_writes(self, capsys, files):
        tmp, inst, _ = files
        out_path = tmp / "found.json"
        code, out, _ = run(
            capsys,
            "solve-pure", "--instance", inst, "--eps", "0", "--out", out_path,
        )
        assert code == EXIT_OK
        profile = load_profile(str(out_path))
        assert len(profile.strategies) == 2

    def test_shrink(self, capsys, files, tmp_path):
        _, inst, _ = files
        out_inst = tmp_path / "shrunk.json"
        code, out, _ = run(
            capsys, "shrink", "--instance", inst, "--target", 5, "--out", out_inst
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["bids"] == ["0", "1/5", "1/2", "7/10", "1"]
        assert doc["guarantee"] == "1/4"
        assert [str(b) for b in load_instance(str(out_inst)).bids] == [
            "0", "1/5", "1/2", "7/10", "1",
        ]

    @pytest.mark.parametrize("mesh", ["0", "-2"])
    def test_nonpositive_mesh_is_a_usage_error(self, capsys, tmp_path, mesh):
        doc = {
            "kind": "cfpa-iid",
            "bids": ["0", "1/4"],
            "n": 2,
            "breakpoints": ["0", "1/2", "1"],
            "densities": ["1", "1"],
        }
        inst = tmp_path / "iid.json"
        inst.write_text(dumps(doc))
        out_path = tmp_path / "found.json"
        argv = ["jump-search", "--instance", inst, "--out", out_path, f"--mesh={mesh}"]
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2
        assert "--mesh" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("verb", ["solve-pure", "solve-symmetric", "jump-search"])
    def test_unopenable_log_is_an_io_error(self, capsys, files, tmp_path, verb):
        _, inst, _ = files
        if verb == "jump-search":
            inst = tmp_path / "uniform.json"
            uniform = Auction(BidSpace([0, F(1, 4)]), IIDMarginal([0, 1], [1]), 2)
            save_instance(uniform, str(inst))
        elif verb == "solve-symmetric":
            inst = tmp_path / "sym3.json"
            inst.write_text(json.dumps(SYM3))
        log = tmp_path / "missing" / "run.log"
        code, out, err = run(capsys, verb, "--instance", inst, "--log", log)
        assert code == EXIT_IO
        assert out == ""
        assert json.loads(err) == {"error": "io", "detail": f"{log}: No such file or directory"}

    @pytest.mark.parametrize("target", ["1", "0", "-3"])
    def test_target_below_two_is_a_usage_error(self, capsys, files, target):
        _, inst, _ = files
        with pytest.raises(SystemExit) as exc:
            main(["shrink", "--instance", inst, f"--target={target}"])
        assert exc.value.code == 2
        assert "--target" in capsys.readouterr().err


class TestReductionVerbs:
    def test_from_sat_encode_extract_verify(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 0\n")
        prefix = tmp_path / "red"
        code, out, _ = run(capsys, "from-sat", cnf, "--out-prefix", prefix)
        assert code == EXIT_OK
        head = json.loads(out)
        assert head["bidders"] == 13  # 8 input + not + proj + or2 + 2 out

        prof_path = tmp_path / "encoded.json"
        code, _, _ = run(
            capsys,
            "encode", "--map", f"{prefix}.map.json",
            "--assignment", "1,0", "--out", prof_path,
        )
        assert code == EXIT_OK

        params = json.loads((tmp_path / "red.params.json").read_text())
        eps = params["eps_threshold"]
        code, out, _ = run(
            capsys,
            "verify", "--instance", f"{prefix}.instance.json",
            "--profile", prof_path, "--eps", eps,
        )
        assert code == EXIT_OK

        code, out, _ = run(
            capsys, "extract", "--map", f"{prefix}.map.json", "--profile", prof_path
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"status": "ok", "assignment": [1, 0]}

    def test_from_sat_rejects_wide_clause(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("1 2 3 4 0\n")
        code, _, err = run(capsys, "from-sat", cnf)
        assert code == EXIT_PARSE
        assert json.loads(err)["error"] == "parse"


class TestContinuousVerbs:
    def test_lift_project_pipeline(self, capsys, tmp_path, apv_fixture):
        inst = tmp_path / "apv.json"
        save_instance(apv_fixture, str(inst))
        lifted_path = tmp_path / "lifted.json"
        code, out, _ = run(
            capsys,
            "lift", "--instance", inst, "--delta", "1/8", "--out", lifted_path,
        )
        assert code == EXIT_OK
        assert json.loads(out)["delta"] == "1/8"

        code, out, _ = run(
            capsys, "check-affiliation", "--instance", lifted_path
        )
        assert code == EXIT_OK

        code, out, _ = run(
            capsys,
            "jump-search", "--instance", lifted_path, "--eps", "0",
            "--out", tmp_path / "jump.json",
        )
        assert code == EXIT_OK

        code, out, _ = run(
            capsys,
            "project", "--instance", inst,
            "--profile", tmp_path / "jump.json", "--delta", "1/8",
            "--out", tmp_path / "projected.json",
        )
        assert code == EXIT_OK
        code, out, _ = run(
            capsys,
            "verify", "--instance", inst,
            "--profile", tmp_path / "projected.json", "--eps", "1/8",
        )
        assert code == EXIT_OK

    def test_densify_outputs(self, capsys, tmp_path):
        doc = {
            "kind": "cfpa-iid",
            "bids": [f"{k}/20" if k else "0" for k in range(21)],
            "n": 2,
            "breakpoints": ["0", "1"],
            "densities": ["1"],
        }
        inst = tmp_path / "uniform.json"
        inst.write_text(dumps(doc))
        code, out, _ = run(
            capsys,
            "densify", "--instance", inst,
            "--out-strategy", tmp_path / "strat.json",
            "--out-certificate", tmp_path / "cert.json",
            "--samples", tmp_path / "samples.csv",
            "--grid", 10,
        )
        assert code == EXIT_OK
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert cert["mode"] == "iid" and cert["gamma"] == "2"
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "v,beta,beta_tilde"
        assert len(lines) == 12

        code, out, _ = run(
            capsys,
            "emit-plot", "--instance", inst,
            "--strategy", tmp_path / "strat.json", "--grid", 8,
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()
        assert rows[0] == "v,bid"
        bids = [F(r.split(",")[1]) for r in rows[1:]]
        assert all(b2 >= b1 for b1, b2 in zip(bids, bids[1:]))

    def test_densify_nonpositive_eps_without_in_range_bid(self, capsys, tmp_path):
        # beta(1) = 1/2 < 99/100: no bid is inverted, eps is still checked
        doc = {
            "kind": "cfpa-iid",
            "bids": ["0", "99/100"],
            "n": 2,
            "breakpoints": ["0", "1"],
            "densities": ["1"],
        }
        inst = tmp_path / "no_in_range.json"
        inst.write_text(dumps(doc))
        code, out, err = run(capsys, "densify", "--instance", inst, "--eps=-1")
        assert code == EXIT_PARSE and out == ""
        assert json.loads(err) == {"error": "invalid", "detail": "eps must be positive"}

    @pytest.mark.parametrize("grid", ["0", "-3"])
    @pytest.mark.parametrize("verb", ["densify", "emit-plot"])
    def test_nonpositive_grid_is_a_usage_error(self, capsys, tmp_path, verb, grid):
        doc = {
            "kind": "cfpa-iid",
            "bids": ["0", "1/4"],
            "n": 2,
            "breakpoints": ["0", "1"],
            "densities": ["1"],
        }
        inst = tmp_path / "uniform.json"
        inst.write_text(dumps(doc))
        strat = tmp_path / "strat.json"
        code, _, _ = run(capsys, "densify", "--instance", inst, "--out-strategy", strat)
        assert code == EXIT_OK
        if verb == "densify":
            target = ["--samples", tmp_path / "s.csv"]
        else:
            target = ["--strategy", strat]
        argv = [verb, "--instance", inst, *target, f"--grid={grid}"]
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_unsupported_sapv_mode(self, capsys, tmp_path):
        doc = {
            "kind": "cfpa-box",
            "bids": ["0", "1/4"],
            "n": 2,
            "boxes": [
                {"lo": ["0", "0"], "hi": ["1/2", "1/2"], "weight": "4"}
            ],
        }
        inst = tmp_path / "gappy.json"
        inst.write_text(dumps(doc))
        code, _, err = run(capsys, "densify", "--instance", inst)
        assert code == EXIT_VALIDATION
        assert json.loads(err)["error"] == "unsupported"


@pytest.fixture
def sat13(tmp_path, capsys):
    """The 13-bidder from-sat instance, its map and an encoded profile."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    prefix = tmp_path / "red"
    assert main(["from-sat", str(cnf), "--out-prefix", str(prefix)]) == EXIT_OK
    prof = tmp_path / "encoded.json"
    argv = ["encode", "--map", f"{prefix}.map.json", "--assignment", "1,0", "--out", prof]
    assert main([str(a) for a in argv]) == EXIT_OK
    capsys.readouterr()
    return f"{prefix}.instance.json", f"{prefix}.map.json", str(prof)


def _iid3(tmp_path, n=3) -> str:
    doc = {
        "kind": "cfpa-iid",
        "bids": ["0", "1/4", "1/2"],
        "n": n,
        "breakpoints": ["0", "1/2", "1"],
        "densities": ["3/2", "1/2"],
    }
    inst = tmp_path / "iid3.json"
    inst.write_text(dumps(doc))
    return str(inst)


def _jump_profile(tmp_path, bids, seats) -> str:
    thresholds = [F(0)] + [max(F(1, 2), b) for b in bids[1:]] + [F(1)]
    path = tmp_path / "jump.json"
    save_profile(Profile([JumpStrategy(bids, thresholds)] * seats), str(path))
    return str(path)


class TestBoundaryValidation:
    """Out-of-range bidders and profiles that do not fit the map or the
    instance exit 12 before any computation."""

    def _rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION and out == ""
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize(
        "verb",
        [
            ["marginal", "--bidder", "99"],
            ["marginal", "--bidder", "-1"],
            ["utility", "--bidder", "99", "--value", "0", "--bid", "0"],
            ["best-response", "--bidder", "99", "--value", "0"],
        ],
    )
    def test_bidder_out_of_range(self, capsys, sat13, verb):
        inst, _, prof = sat13
        extra = [] if verb[0] == "marginal" else ["--profile", prof]
        self._rejected(capsys, *verb, "--instance", inst, *extra)

    @pytest.mark.parametrize("verb", [["utility", "--bid", "0"], ["best-response"]])
    def test_value_outside_marginal_support(self, capsys, tmp_path, verb):
        # bidder 0's group takes the values 1/4 and 3/4 only
        inst, prof = tmp_path / "sym3.json", tmp_path / "zero.json"
        inst.write_text(json.dumps(SYM3))
        zero = [PureStrategy(0, {F(1, 4): 0, F(3, 4): 0}), PureStrategy(2, {F(1, 2): 0, F(1): 0})]
        save_profile(Profile(zero, groups=[(0, 1), (2,)]), str(prof))
        argv = [*verb, "--instance", inst, "--profile", prof, "--bidder", 0]
        assert run(capsys, *argv, "--value", "3/4")[0] == EXIT_OK
        self._rejected(capsys, *argv, "--value", "1/2")
        assert json.loads(run(capsys, *argv, "--value", "1/2")[2])["detail"] == (
            "value 1/2 outside marginal support of bidder 0"
        )

    def test_iid_bidder_out_of_range(self, capsys, tmp_path):
        self._rejected(capsys, "marginal", "--instance", _iid3(tmp_path), "--bidder", 5)

    def test_extract_profile_arity(self, capsys, tmp_path, sat13):
        # the first three seats of an encoding: variable 1 reads as encoded
        _, rmap, prof = sat13
        path = tmp_path / "three.json"
        save_profile(Profile(load_profile(prof).strategies[:3]), str(path))
        self._rejected(capsys, "extract", "--map", rmap, "--profile", path)

    def test_project_profile_arity(self, capsys, tmp_path, sat13):
        inst, _, _ = sat13
        bids = list(load_instance(inst).bids)
        prof = _jump_profile(tmp_path, bids, 2)
        argv = ["project", "--instance", inst, "--profile", prof, "--delta", "1/64"]
        self._rejected(capsys, *argv)

    def test_project_needs_a_discrete_instance(self, capsys, tmp_path):
        inst = _iid3(tmp_path)
        prof = _jump_profile(tmp_path, list(load_instance(inst).bids), 3)
        argv = ["project", "--instance", inst, "--profile", prof, "--delta", "1/8"]
        self._rejected(capsys, *argv)

    def test_jump_search_needs_a_continuous_instance(self, capsys, sat13):
        inst, _, _ = sat13
        self._rejected(capsys, "jump-search", "--instance", inst)

    @pytest.mark.parametrize(
        "verb, kind",
        [("solve-pure", "iid"), ("solve-symmetric", "dfpa"), ("lift", "iid"), ("densify", "dfpa")],
    )
    def test_verb_needs_its_instance_kind(self, capsys, tmp_path, sat13, verb, kind):
        inst = _iid3(tmp_path) if kind == "iid" else sat13[0]
        out = tmp_path / "out.json"
        extra = ["--delta", "1/8", "--out", out] if verb == "lift" else []
        self._rejected(capsys, verb, "--instance", inst, *extra)
        assert not out.exists()

    def test_grouped_boxes_with_an_empty_group(self, capsys, tmp_path):
        doc = {
            "kind": "cfpa-box",
            "bids": ["0", "1/2"],
            "n": 2,
            "groups": [[0, 1], []],
            "boxes": [{"lo": ["0", "0"], "hi": ["1", "1"], "weight": "1"}],
        }
        inst = tmp_path / "box.json"
        inst.write_text(dumps(doc))
        self._rejected(capsys, "jump-search", "--symmetric", "--instance", inst)

    @pytest.mark.parametrize("verb", ["densify", "jump-search"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_bidder_count_below_one(self, capsys, tmp_path, verb, n):
        self._rejected(capsys, verb, "--instance", _iid3(tmp_path, n))

    @pytest.mark.parametrize("n", [0, -1])
    def test_validate_bidder_count_below_one(self, capsys, tmp_path, n):
        code, out, _ = run(capsys, "validate", "--instance", _iid3(tmp_path, n))
        assert code == EXIT_VALIDATION
        assert json.loads(out)["violations"] == [f"bidder count n={n} must be at least 1"]

    @pytest.mark.parametrize("verb", ["validate", "densify", "jump-search"])
    @pytest.mark.parametrize("n", ["-1", "3", True, 3.0])
    def test_bidder_count_must_be_a_json_integer(self, capsys, tmp_path, verb, n):
        code, out, err = run(capsys, verb, "--instance", _iid3(tmp_path, n))
        assert code == EXIT_PARSE and out == ""
        assert "n must be a JSON integer" in json.loads(err)["detail"]


class TestJsonTypes:
    """An entry that is not a JSON object, and a bidder or group member that
    is not a JSON integer, are format errors (exit 13), never coerced."""

    def _parse_error(self, capsys, *argv) -> str:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE and out == ""
        return _record(err)["detail"]

    def test_entry_given_as_key_value_pairs(self, capsys, tmp_path, apv_fixture):
        doc = instance_to_doc(apv_fixture)
        doc["support"][0] = [[key, value] for key, value in doc["support"][0].items()]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        detail = self._parse_error(capsys, "validate", "--instance", path)
        assert "dfpa support entry must be a JSON object" in detail

    @pytest.mark.parametrize("bidders", [(0.9, "1"), (0.9, 1), (0, "1"), (False, 1)])
    def test_bidder_must_be_a_json_integer(self, capsys, files, prop34_nonmonotone, bidders):
        d, inst, _ = files
        doc = profile_to_doc(prop34_nonmonotone)
        for strategy, bidder in zip(doc["strategies"], bidders):
            strategy["bidder"] = bidder
        path = d / "seats.json"
        path.write_text(json.dumps(doc))
        detail = self._parse_error(capsys, "verify", "--instance", inst, "--profile", path)
        assert "bidder must be a JSON integer" in detail

    @pytest.mark.parametrize("member", ["1", 1.0, True])
    @pytest.mark.parametrize("kind", ["dfpa-sym", "cfpa-box", "profile"])
    def test_group_member_must_be_a_json_integer(self, capsys, tmp_path, two_box_sapv, kind,
                                                 member):
        inst, prof = tmp_path / "inst.json", tmp_path / "prof.json"
        instance = instance_to_doc(two_box_sapv) if kind == "cfpa-box" else copy.deepcopy(SYM3)
        profile = {"kind": "profile", "groups": [[0, 1], [2]], "strategies": [
            _pure(0, [("1/4", "0"), ("3/4", "0")]), _pure(2, [("1/2", "0"), ("1", "0")])]}
        (profile if kind == "profile" else instance)["groups"][0][1] = member
        inst.write_text(json.dumps(instance))
        prof.write_text(json.dumps(profile))
        argv = ["verify", "--profile", prof] if kind == "profile" else ["validate"]
        detail = self._parse_error(capsys, *argv, "--instance", inst)
        assert "group member must be a JSON integer" in detail


class TestMapDocuments:
    """A --map file that is not a whole reduction-map object exits 13 with
    the parse error, on both verbs that read one."""

    @pytest.mark.parametrize("verb", ["encode", "extract"])
    @pytest.mark.parametrize(
        "doc, detail",
        [([1, 2], "JSON object"), ({"kind": "reduction-map"}, "'roles'")],
        ids=["list", "no-roles"],
    )
    def test_malformed_map(self, capsys, tmp_path, sat13, verb, doc, detail):
        _, _, prof = sat13
        path = tmp_path / "bad.map.json"
        path.write_text(json.dumps(doc))
        extra = ["--assignment", "1,0"] if verb == "encode" else ["--profile", prof]
        code, out, err = run(capsys, verb, "--map", path, *extra)
        assert code == EXIT_PARSE and out == ""
        error = json.loads(err)
        assert error["error"] == "parse" and detail in error["detail"]


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGoldenReports:
    """verify on the 23-bidder, 62-point from-sat instance of
    (x1 or not x2 or x3) and (not x1 or x2) at its eps threshold prints the
    reports in tests/golden, captured at 24c3272."""

    @pytest.mark.parametrize(
        "name, bits, expected",
        [("satisfying", "1,1,0", EXIT_OK), ("falsifying", "1,0,0", EXIT_VERIFY_FAIL)],
    )
    def test_sat3_verify_report(self, capsys, tmp_path, name, bits, expected):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 0\n")
        prefix = tmp_path / "red"
        assert run(capsys, "from-sat", cnf, "--out-prefix", prefix)[0] == EXIT_OK
        prof = tmp_path / "encoded.json"
        argv = ["encode", "--map", f"{prefix}.map.json", "--assignment", bits, "--out", prof]
        assert run(capsys, *argv)[0] == EXIT_OK
        eps = json.loads((tmp_path / "red.params.json").read_text())["eps_threshold"]
        argv = ["verify", "--instance", f"{prefix}.instance.json", "--profile", prof]
        code, out, _ = run(capsys, *argv, "--eps", eps)
        assert code == expected
        assert out == (GOLDEN / f"sat3_verify_{name}.stdout").read_text(encoding="utf-8")

    def test_grouped_dfpa_verbs(self, capsys, tmp_path):
        """Each verb on one fixed 3-bidder dfpa-sym instance, groups ((0, 1),
        (2,)), prints the exit code and stdout in sym3_cli.stdout and writes
        the files sym3_*.json."""
        inst = tmp_path / "sym3.json"
        inst.write_text(json.dumps(SYM3))
        found, lifted = tmp_path / "found.json", tmp_path / "lifted.json"
        steps = [
            ["validate"],
            ["marginal", "--bidder", "0"],
            ["marginal", "--bidder", "2"],
            ["check-affiliation"],
            ["solve-symmetric", "--eps", "1/20", "--out", found],
            ["verify", "--profile", found, "--eps", "1/20"],
            ["solve-pure", "--monotone"],
            ["lift", "--delta", "1/8", "--out", lifted],
        ]
        transcript = ""
        for verb, *extra in steps:
            code, out, _ = run(capsys, verb, "--instance", inst, *extra)
            transcript += f"$ {' '.join(map(str, [verb, *extra])).replace(str(tmp_path), '.')}\n"
            transcript += f"{out}exit {code}\n"
        assert transcript == (GOLDEN / "sym3_cli.stdout").read_text(encoding="utf-8")
        for path, name in ((found, "sym3_found.json"), (lifted, "sym3_lifted.json")):
            assert path.read_text(encoding="utf-8") == (GOLDEN / name).read_text(encoding="utf-8")

    def test_per_group_profile_verbs(self, capsys, tmp_path):
        """verify, utility and best-response with per-group profiles on the
        SYM3 prior listed with groups ((2,), (0, 1)), and on its lift to
        cfpa-box, print the transcript in sym3_per_group.stdout, captured at
        d252b6b.  Violations are reported under each group's first seat, in
        the prior's group order: seat 2 before seat 0."""
        transcript = per_group_transcript(lambda argv: run(capsys, *argv)[:2], tmp_path)
        expected = (GOLDEN / "sym3_per_group.stdout").read_text(encoding="utf-8")
        assert transcript == expected


SYM3 = {
    "kind": "dfpa-sym",
    "bids": ["0", "1/4", "1/2"],
    "groups": [[0, 1], [2]],
    "group_values": [["1/4", "3/4"], ["1/2", "1"]],
    "support": [
        {"values": ["3/4", "3/4", "1"], "probability": "1/4"},
        {"values": ["3/4", "1/4", "1/2"], "probability": "1/8"},
        {"values": ["3/4", "1/4", "1"], "probability": "1/8"},
        {"values": ["1/4", "1/4", "1/2"], "probability": "1/4"},
    ],
}

# SYM3 with its groups listed out of seat order
SYM3_REORDERED = {
    **SYM3,
    "groups": [[2], [0, 1]],
    "group_values": [["1/2", "1"], ["1/4", "3/4"]],
}


def _pure(bidder, pairs):
    assignments = [{"value": v, "bid": b} for v, b in pairs]
    return {"kind": "pure", "bidder": bidder, "assignments": assignments}


def _mixed(bidder, rows):
    rows = [
        {"value": v, "distribution": [{"bid": b, "weight": w} for b, w in dist]}
        for v, dist in rows
    ]
    return {"kind": "mixed", "bidder": bidder, "rows": rows}


def _jump(thresholds):
    return {"kind": "jump", "bids": SYM3["bids"], "thresholds": thresholds}


PER_GROUP_PROFILES = {
    "pure": [_pure(0, [("1/2", "1/4"), ("1", "1/2")]), _pure(1, [("1/4", "0"), ("3/4", "1/4")])],
    "mixed": [
        _mixed(0, [("1/2", [("0", "1/2"), ("1/4", "1/2")]), ("1", [("1/2", "1")])]),
        _mixed(1, [("1/4", [("0", "1")]), ("3/4", [("0", "1/3"), ("1/2", "2/3")])]),
    ],
    "jump": [_jump(["0", "1/2", "3/4", "1"]), _jump(["0", "1/4", "1", "1"])],
}


def per_group_transcript(call, d: Path) -> str:
    """Write SYM3_REORDERED and the per-group profiles under ``d``, run each
    step through ``call(argv) -> (exit code, stdout)`` and return the
    transcript, with ``d`` shown as ``.``."""
    inst, lifted = d / "sym3r.json", d / "lifted.json"
    inst.write_text(json.dumps(SYM3_REORDERED))
    prof = {}
    for name, strategies in PER_GROUP_PROFILES.items():
        prof[name] = d / f"{name}.json"
        doc = {"kind": "profile", "groups": SYM3_REORDERED["groups"], "strategies": strategies}
        prof[name].write_text(json.dumps(doc))
    steps = [
        ["verify", "--instance", inst, "--profile", prof["pure"]],
        ["verify", "--instance", inst, "--profile", prof["mixed"], "--eps", "1/50"],
        ["utility", "--instance", inst, "--bidder", 1, "--value", "3/4", "--bid", "1/4",
         "--profile", prof["pure"]],
        ["utility", "--instance", inst, "--bidder", 2, "--value", "1", "--bid", "1/4",
         "--profile", prof["mixed"], "--raw"],
        ["best-response", "--instance", inst, "--bidder", 1, "--value", "3/4",
         "--profile", prof["pure"]],
        ["best-response", "--instance", inst, "--bidder", 2, "--value", "1/2",
         "--profile", prof["mixed"]],
        ["lift", "--instance", inst, "--delta", "1/8", "--out", lifted],
        ["verify", "--instance", lifted, "--profile", prof["jump"]],
        ["utility", "--instance", lifted, "--bidder", 1, "--value", "181/256", "--bid", "1/4",
         "--profile", prof["jump"]],
        ["best-response", "--instance", lifted, "--bidder", 2, "--value", "241/256",
         "--profile", prof["jump"]],
    ]
    transcript = ""
    for argv in steps:
        code, out = call([str(a) for a in argv])
        transcript += f"$ {' '.join(map(str, argv)).replace(str(d), '.')}\n{out}exit {code}\n"
    return transcript


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self, capsys, files):
        _, inst, prof = files
        first = run(capsys, "verify", "--instance", inst, "--profile", prof)
        second = run(capsys, "verify", "--instance", inst, "--profile", prof)
        assert first == second

    def test_search_in_between_does_not_change_output(self, capsys, files):
        _, inst, prof = files
        first = run(capsys, "verify", "--instance", inst, "--profile", prof)
        assert run(capsys, "solve-pure", "--instance", inst, "--monotone")[0] == EXIT_SEARCH_NONE
        second = run(capsys, "verify", "--instance", inst, "--profile", prof)
        assert first == second

    def test_reused_parser_keeps_no_state(self, capsys, files):
        _, inst, prof = files
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instance", inst])  # no --profile
        assert exc.value.code == 2
        capsys.readouterr()
        verify = ["verify", "--instance", inst, "--profile", prof]
        code, out, _ = run(capsys, *verify, "--eps", "1/2")
        assert code == EXIT_OK and json.loads(out)["eps"] == "1/2"
        code, out, _ = run(capsys, *verify)
        assert json.loads(out)["eps"] == "0"
        assert build_parser() is build_parser()

    def test_io_error_record(self, capsys):
        code, _, err = run(capsys, "validate", "--instance", "/nonexistent.json")
        assert code == 14
        assert json.loads(err)["error"] == "io"


# ---------------------------------------------------------------------------
# the error boundary: every failure ends in main as a documented exit code
# ---------------------------------------------------------------------------

def _record(err: str) -> dict:
    """The one JSON record that ``err`` holds."""
    assert err.endswith("\n") and err.count("\n") == 1
    record = json.loads(err)
    assert isinstance(record["error"], str) and isinstance(record["detail"], str)
    return record


class TestOutputPaths:
    """An output path in a missing directory is an I/O error, on every verb
    that writes through the serializer."""

    def test_each_writing_verb(self, capsys, tmp_path, apv_fixture):
        inst, cnf, jump = tmp_path / "apv.json", tmp_path / "f.cnf", tmp_path / "jump.json"
        rmap = tmp_path / "red"
        save_instance(apv_fixture, str(inst))
        cnf.write_text("p cnf 2 1\n1 -2 0\n")
        assert run(capsys, "from-sat", cnf, "--out-prefix", rmap)[0] == EXIT_OK
        thresholds = [F(0), F(1, 2), F(1)]
        save_profile(Profile([JumpStrategy(apv_fixture.bids, thresholds)] * 2), str(jump))
        missing = tmp_path / "missing"
        cases = [
            (["from-sat", cnf, "--out-prefix", missing / "red"], missing / "red.instance.json"),
            (["encode", "--map", f"{rmap}.map.json", "--assignment", "1,0"], None),
            (["shrink", "--instance", inst, "--target", "2"], None),
            (["lift", "--instance", inst, "--delta", "1/8"], None),
            (["project", "--instance", inst, "--profile", jump, "--delta", "1/8"], None),
        ]
        for argv, path in cases:
            if path is None:
                path = missing / f"{argv[0]}.json"
                argv = [*argv, "--out", path]
            code, out, err = run(capsys, *argv)
            assert code == EXIT_IO and out == ""
            assert _record(err) == {"error": "io", "detail": f"{path}: No such file or directory"}
        assert not missing.exists()


def test_search_over_budget(capsys, files):
    _, inst, _ = files
    code, out, err = run(capsys, "solve-pure", "--instance", inst, "--budget", "1")
    assert code == EXIT_VALIDATION and out == ""
    assert _record(err) == {
        "error": "budget",
        "detail": "search space of 4356 profiles exceeds budget 1",
        "count": 4356,  # 1 * 6 * 11 non-overbidding maps per seat, squared
    }


def _box_doc(boxes, groups=None) -> dict:
    doc = {"kind": "cfpa-box", "bids": ["0", "1/2"], "n": 2, "boxes": boxes}
    if groups is not None:
        doc["groups"] = groups
    return doc


def _box(lo, hi, weight="1") -> dict:
    return {"lo": lo, "hi": hi, "weight": weight}


def _iid_doc(breakpoints, densities) -> dict:
    return {
        "kind": "cfpa-iid",
        "bids": ["0", "1/2"],
        "n": 2,
        "breakpoints": breakpoints,
        "densities": densities,
    }


class TestContinuousValidationRules:
    """Each rule of the box and iid instance checks, through
    ``validate_instance`` and through a verb's exit 12."""

    @pytest.mark.parametrize(
        "doc, violation",
        [
            (_box_doc([_box(["0"], ["1"])]), "box[0]: arity != n=2"),
            (
                _box_doc([_box(["0", "0"], ["1", "1"], "2"), _box(["0", "0"], ["1", "1"], "-1")]),
                "box[1]: negative weight -1",
            ),
            (
                _box_doc([_box(["0", "0"], ["1/2", "1"], "2"), _box(["1/2", "0"], ["3/2", "1"])]),
                "box[1]: interval [1/2,3/2] invalid in [0,1]",
            ),
            (
                _box_doc(
                    [_box(["0", "1/2"], ["1/2", "1"], "2"), _box(["1/2", "0"], ["1", "1/2"], "2")],
                    [[0, 1]],
                ),
                "box[0]: intervals not canonical (non-increasing per group)",
            ),
            (_iid_doc(["0", "1/2"], ["2"]), "breakpoints must run from 0 to 1"),
            (
                _iid_doc(["0", "1/2", "1/2", "1"], ["1", "1", "1"]),
                "breakpoints must be strictly increasing",
            ),
            (_iid_doc(["0", "1/2", "1"], ["1"]), "need one density per piece"),
            (_iid_doc(["0", "1/2", "1"], ["3", "-1"]), "densities must be nonnegative"),
        ],
        ids=[
            "box-arity", "box-negative-weight", "box-interval", "box-not-canonical",
            "iid-ends", "iid-not-increasing", "iid-density-count", "iid-negative-density",
        ],
    )
    def test_rule(self, capsys, tmp_path, doc, violation):
        assert validate_instance(instance_from_doc(doc)).violations == (violation,)
        inst = tmp_path / "bad.json"
        inst.write_text(dumps(doc))
        code, out, err = run(capsys, "densify", "--instance", inst)
        assert code == EXIT_VALIDATION and out == ""
        assert _record(err) == {"error": "validation", "detail": violation}


def _paths(doc, prefix=()):
    """The path of every value inside a JSON document, depth first."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


DROP = object()
MUTATIONS = [DROP, None, 0, 3, 0.5, [], ["x"], {}, {"a": 1}, "x", "1/0"]


def _mutated(doc, path, new):
    """``doc`` with the value at ``path`` dropped or replaced by ``new``."""
    doc = copy.deepcopy(doc)
    *head, key = path
    parent = functools.reduce(operator.getitem, head, doc)
    if new is DROP:
        del parent[key]
    else:
        parent[key] = new
    return doc


@pytest.fixture
def fuzz_cases(tmp_path, apv_fixture, two_box_sapv):
    """(document, argv) pairs: each argv reads the document from ``DOC``;
    every other input file is written once, unmutated."""
    apv = instance_to_doc(apv_fixture)
    pure = {
        "kind": "profile",
        "strategies": [_pure(i, [("1/4", "0"), ("3/4", "1/4")]) for i in range(2)],
    }
    mixed = {
        "kind": "profile",
        "strategies": [
            _mixed(i, [("1/4", [("0", "1")]), ("3/4", [("0", "1/2"), ("1/4", "1/2")])])
            for i in range(2)
        ],
    }
    grouped = {
        "kind": "profile",
        "groups": SYM3["groups"],
        "strategies": [
            _pure(0, [("1/4", "0"), ("3/4", "1/4")]),
            _pure(2, [("1/2", "1/4"), ("1", "1/2")]),
        ],
    }
    box = instance_to_doc(two_box_sapv)
    iid = json.loads(Path(_iid3(tmp_path)).read_text())
    jump = {"kind": "jump", "bids": iid["bids"], "thresholds": ["0", "1/2", "1/2", "1"]}
    jumps = {"kind": "profile", "strategies": [jump] * 3}
    apv_jump = {"kind": "jump", "bids": apv["bids"], "thresholds": ["0", "1/2", "1"]}
    apv_jumps = {"kind": "profile", "strategies": [apv_jump] * 2}
    sat, rmap = build_auction(SatFormula(2, [(1, -2)]))
    red = map_to_doc(rmap)
    encoded = profile_to_doc(encode_profile({1: 1, 2: 0}, rmap))
    f = {}
    for name, doc in [("apv", apv), ("pure", pure), ("sym3", SYM3), ("grouped", grouped),
                      ("iid", iid), ("jump", jump), ("map", red), ("encoded", encoded),
                      ("sat", instance_to_doc(sat))]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        f[name] = str(path)
    out, log = str(tmp_path / "out.json"), str(tmp_path / "run.log")
    cases = [
        (apv, ["validate", "--instance", "DOC"]),
        (apv, ["marginal", "--instance", "DOC", "--bidder", "0"]),
        (apv, ["verify", "--instance", "DOC", "--profile", f["pure"]]),
        (apv, ["best-response", "--instance", "DOC", "--bidder", "0", "--value", "1/4",
               "--profile", f["pure"]]),
        (apv, ["solve-pure", "--instance", "DOC", "--budget", "200", "--log", log]),
        (apv, ["lift", "--instance", "DOC", "--delta", "1/8", "--out", out]),
        (apv, ["shrink", "--instance", "DOC", "--target", "2"]),
        (apv, ["check-affiliation", "--instance", "DOC"]),
        (pure, ["verify", "--instance", f["apv"], "--profile", "DOC"]),
        (pure, ["utility", "--instance", f["apv"], "--bidder", "1", "--value", "3/4",
                "--bid", "1/4", "--profile", "DOC"]),
        (mixed, ["verify", "--instance", f["apv"], "--profile", "DOC"]),
        (SYM3, ["solve-symmetric", "--instance", "DOC", "--budget", "200"]),
        (SYM3, ["verify", "--instance", "DOC", "--profile", f["grouped"]]),
        (grouped, ["verify", "--instance", f["sym3"], "--profile", "DOC"]),
        (box, ["densify", "--instance", "DOC", "--grid", "4"]),
        (box, ["jump-search", "--instance", "DOC", "--symmetric", "--mesh", "2",
               "--budget", "200"]),
        (box, ["check-affiliation", "--instance", "DOC"]),
        (iid, ["densify", "--instance", "DOC", "--grid", "4"]),
        (iid, ["jump-search", "--instance", "DOC", "--mesh", "2", "--budget", "200"]),
        (iid, ["emit-plot", "--instance", "DOC", "--strategy", f["jump"], "--grid", "4"]),
        (jump, ["emit-plot", "--instance", f["iid"], "--strategy", "DOC", "--grid", "4"]),
        (jumps, ["verify", "--instance", f["iid"], "--profile", "DOC"]),
        (apv_jumps, ["project", "--instance", f["apv"], "--profile", "DOC", "--delta", "1/8"]),
        (red, ["encode", "--map", "DOC", "--assignment", "1,0"]),
        (red, ["extract", "--map", "DOC", "--profile", f["encoded"]]),
        (encoded, ["extract", "--map", f["map"], "--profile", "DOC"]),
        (encoded, ["verify", "--instance", f["sat"], "--profile", "DOC"]),
    ]
    return tmp_path / "mutated.json", cases


class TestErrorBoundary:
    """Mutated input documents: each run ends in a documented exit code, a
    failure with one JSON record on stderr, and no exception leaves main."""

    @settings(
        max_examples=1500,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_documents(self, capsys, fuzz_cases, data):
        path, cases = fuzz_cases
        doc, argv = data.draw(st.sampled_from(cases))
        mutated = _mutated(doc, data.draw(st.sampled_from(list(_paths(doc)))),
                           data.draw(st.sampled_from(MUTATIONS)))
        path.write_text(json.dumps(mutated))
        argv = [str(path) if a == "DOC" else a for a in argv]
        code, out, err = run(capsys, *argv)
        # the arguments always parse, so usage error 2 cannot occur
        assert code in {EXIT_OK, EXIT_VERIFY_FAIL, EXIT_SEARCH_NONE, EXIT_VALIDATION,
                        EXIT_PARSE, EXIT_IO}
        if code in (EXIT_PARSE, EXIT_IO) or (code == EXIT_VALIDATION and argv[0] != "validate"):
            _record(err)
        else:
            assert err == ""
