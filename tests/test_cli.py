import json
from importlib import resources

import pytest

from lmhs import cli


def fixture_path(name):
    return str(resources.files("lmhs").joinpath("fixtures", name))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_kodaira_fails_criterion(self, capsys):
        code, out, _ = run(capsys, "check", fixture_path("kodaira.json"),
                           "--format", "json")
        assert code == 2
        report = json.loads(out)
        assert report["ddbar_verdict"] is False
        d1 = [row for row in report["degrees"] if row["d"] == 1][0]
        assert d1["criterion"]["1"] is False

    def test_odp_passes_with_signature(self, capsys):
        code, out, _ = run(capsys, "check", fixture_path("odp_m3.json"),
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["ddbar_verdict"] is True
        row = [e for e in report["table"] if (e["p"], e["q"]) == (2, 1)][0]
        assert (row["plus"], row["minus"]) == (1, 0)

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 1, "strata": []}')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1

    def test_malformed_pairing(self, tmp_path, capsys):
        blob = json.load(open(fixture_path("kodaira.json")))
        blob["strata"][0]["cohomology"][1]["pairing"][0][0] = "1/0"
        bad = tmp_path / "badpair.json"
        bad.write_text(json.dumps(blob))
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "invalid input" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/file.json")
        assert code == 1

    def test_degenerate_primitive_form_is_a_verdict(self, tmp_path, capsys):
        # a valid single curve whose H^1 frame makes a primitive sector form
        # degenerate: columns a = (1, i, 1, -i), b = (1, -i, 0, 0) and their
        # conjugates, against the pairing J + J
        blob = {"m": 1, "strata": [{"depth": 1, "cohomology": [
            {"q": 0, "dim": 1, "types": [[0, 0]], "pairing": [["1"]]},
            {"q": 1, "dim": 4, "types": [[1, 0], [1, 0], [0, 1], [0, 1]],
             "pairing": [["0", "1", "0", "0"], ["-1", "0", "0", "0"],
                         ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
             "frame": [["1", "1", "1", "1"],
                       ["0+1*i", "0-1*i", "0-1*i", "0+1*i"],
                       ["1", "0", "1", "0"],
                       ["0-1*i", "0", "0+1*i", "0"]]},
            {"q": 2, "dim": 1, "types": [[1, 1]], "pairing": [["1"]]},
        ]}]}
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "validate", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["valid"] is True
        code, out, err = run(capsys, "check", str(path), "--format", "json")
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(out) == {
            "verdict": False,
            "failures": ["degenerate primitive form at sector (0, 1), r=0"],
        }


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", fixture_path("odp_m3.json"),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_broken_adjointness(self, tmp_path, capsys):
        blob = json.load(open(fixture_path("kodaira.json")))
        blob["gysin"][0]["matrix"][0][0] = "5/1"
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "validate", str(bad), "--format", "json")
        assert code == 2
        report = json.loads(out)
        assert report["valid"] is False
        assert report["failures"]


class TestOrbit:
    def test_elliptic_polarized(self, capsys):
        code, out, _ = run(capsys, "orbit", fixture_path("elliptic.json"),
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["polarized"] is True
        assert report["levels"]["1"] == [1, 0]

    def test_tate_sum_mixed_signature(self, capsys):
        code, out, _ = run(capsys, "orbit", fixture_path("tate3.json"),
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["polarized"] is False
        assert report["levels"]["1"] == [1, 1]

    def test_weight_mismatch_named(self, capsys):
        code, out, _ = run(capsys, "orbit", fixture_path("kodaira_mhs.json"),
                           "--format", "json")
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] is False
        assert any("W != W(N,1)" in f for f in report["failures"])

    def test_non_mhs_is_a_verdict(self, tmp_path, capsys):
        # F^1 a real line: Situations A' and B' hold, but F^1 meets its
        # conjugate, so the input is no mixed Hodge structure
        blob = json.load(open(fixture_path("elliptic.json")))
        for step in blob["F"]:
            if step["level"] == 1:
                step["basis"] = [["1/1", "2/1"]]
        bad = tmp_path / "real_line.json"
        bad.write_text(json.dumps(blob))
        code, out, err = run(capsys, "orbit", str(bad), "--format", "json")
        assert code == 2
        assert "Traceback" not in err
        report = json.loads(out)
        assert report == {
            "verdict": False,
            "failures": ["weight 1, level 1: induced F^1 meets conj F^1"],
        }


class TestVerifyIdentities:
    def test_small_range(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--max-n", "3",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["checked"] == sum(n + 2 for n in range(1, 4))

    def test_corrupted_coefficient_named(self, capsys):
        code, out, err = run(capsys, "verify-identities", "--max-n", "3",
                             "--corrupt", "2,1")
        assert code == 2
        assert "(2, 1)" in err

    def test_workers(self, capsys):
        code_seq, out_seq, _ = run(capsys, "verify-identities", "--max-n", "4",
                                   "--format", "json")
        code_par, out_par, _ = run(capsys, "verify-identities", "--max-n", "4",
                                   "--format", "json", "--workers", "4")
        assert code_seq == code_par == 0
        assert out_seq == out_par


class TestTables:
    def test_sano_middle_row(self, capsys):
        code, out, _ = run(capsys, "tables", "sano", "--m", "4", "--a", "1")
        assert code == 0
        assert "(h^{2,2} - 2, 2)" in out

    def test_kahler_k3(self, capsys):
        code, out, _ = run(capsys, "tables", "kahler", "--k3",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["full_signature"] == -16
        assert report["rows"]["1"] == [19, 1]

    def test_lefschetz_schoen(self, capsys):
        code, out, _ = run(capsys, "tables", "lefschetz", "--schoen",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["fiber_product"] == 19
        assert report["printed_reading"] == 31
        assert report["dim_check"] is True

    def test_odp_formula(self, capsys):
        code, out, _ = run(capsys, "tables", "odp", "--m", "3", "--l", "3",
                           "--R", "2", "--rows", "1:5:0;2:5:0",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["table"]["2"] == [7, 0]

    def test_o16(self, capsys):
        code, out, _ = run(capsys, "tables", "o16", "--defect", "0",
                           "--rows", "1:5:0;2:5:0", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["polarized"] is True

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tables", "nosuch"])
        assert exc.value.code == 1


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeat_runs_identical(self, capsys, fmt):
        a = run(capsys, "check", fixture_path("odp_m3.json"), "--format", fmt)
        b = run(capsys, "check", fixture_path("odp_m3.json"), "--format", fmt)
        assert a == b

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "check", fixture_path("odp_m3.json"),
                        "--format", "json")
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


class TestRunConfig:
    def test_t0_bounds(self):
        with pytest.raises(AssertionError):
            cli.RunConfig(t0=100, t0_cap=10)

    def test_defaults(self):
        cfg = cli.RunConfig()
        assert cfg.t0 == 2 ** 10
        assert cfg.t0_cap == 2 ** 60
        assert cfg.fmt == "text"
