import ast
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lmhs import cli, exactlin, identities, mhs, orbit
from lmhs.exactlin import ExactMatrix, PolyScalar, gaussian_from_str
from lmhs.geomodels import ResolutionData, odp_semistable_model
from lmhs.steenbrink import DegenerationData, validate_degeneration_data
from support import product
from test_steenbrink import (
    GOLDEN_ODP_MODELS, cycle_degeneration, elliptic_smooth, kodaira_degeneration,
)


def fixture_path(name):
    return str(resources.files("lmhs").joinpath("fixtures", name))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_optimized(*argv):
    """`lmhs` in a `python -O` subprocess, where assert statements are off."""
    return run_python("-O", "-m", "lmhs.cli", *argv)


def run_python(*argv):
    """A python subprocess with the package's source on the path."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )


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
        # a zero denominator is outside the scalar grammar, so the reader
        # names the entry, as it names any other malformed scalar
        blob = json.load(open(fixture_path("kodaira.json")))
        blob["strata"][0]["cohomology"][1]["pairing"][0][0] = "1/0"
        bad = tmp_path / "badpair.json"
        bad.write_text(json.dumps(blob))
        mhs_blob = json.load(open(fixture_path("elliptic.json")))
        mhs_blob["S"][0][1] = "1/0"
        bad_mhs = tmp_path / "bad_mhs.json"
        bad_mhs.write_text(json.dumps(mhs_blob))
        for command, path in (("check", bad), ("validate", bad), ("orbit", bad_mhs)):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (1, ""), command
            assert err == "invalid input: cannot parse GaussianScalar from '1/0'\n", command

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/file.json")
        assert code == 1

    def test_degenerate_primitive_form_is_a_verdict(self, capsys, monkeypatch):
        # no valid input is known to give a degenerate primitive form (the
        # curve of CURVE_PAIRING_TYPE_BREAK gives one, and fails validation),
        # so a form reduction that reports a null direction stands in: the
        # pipeline's DegenerateFormError is a verdict, not a traceback
        from lmhs import steenbrink

        signature = steenbrink.hermitian_signature
        monkeypatch.setattr(steenbrink, "hermitian_signature",
                            lambda H, error: (*signature(H, error)[:2], 1))
        code, out, err = run(capsys, "check", fixture_path("odp_m3.json"), "--format", "json")
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(out) == {
            "verdict": False,
            "failures": ["degenerate primitive form at sector (1, 2), r=0"],
        }


# a valid-looking single curve whose H^1 frame makes a primitive sector form
# degenerate: columns a = (1, i, 1, -i), b = (1, -i, 0, 0) and their
# conjugates, against the pairing J + J, which pairs a with b, both of type
# (1,0); validation names that
CURVE_PAIRING_TYPE_BREAK = {"m": 1, "strata": [{"depth": 1, "cohomology": [
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


def mhs_fields(data):
    return (data.ambient_dim, data.d, data.W, data.F, data.N, data.S)


def degeneration_fields(data):
    return (data.m, {l: s.cohomology for l, s in data.strata.items()},
            data.gysin, data.restriction)


def reread(data):
    return type(data).from_json(json.loads(json.dumps(data.to_json())))


ODP_MODELS = [
    ResolutionData(3, 0, signs=(-1, 1), rho=ExactMatrix.zero(0, 0)),
    ResolutionData(3, 2, signs=(1, -1), rho=ExactMatrix.from_rational([[1], [-1]])),
    ResolutionData(4, 3, vhat_signs=(1, -1)),
    ResolutionData(4, 1, vhat_signs=(1, 1, -1)),
]


class TestCodec:
    """to_json and from_json are inverse, and the readers take exactly the
    string scalars of docs/schemas."""

    @pytest.mark.parametrize("name", ["elliptic.json", "kodaira_mhs.json", "tate3.json"])
    def test_mhs_fixture_round_trip(self, name):
        data = mhs.MHSData.from_json(json.load(open(fixture_path(name))))
        assert mhs_fields(reread(data)) == mhs_fields(data)

    def test_random_mhs_round_trip(self):
        rng = random.Random(20261018)
        for _ in range(6):
            data, _ = mhs.random_polarized_mhs(rng, max_dim=6, max_d=3)
            assert mhs_fields(reread(data)) == mhs_fields(data)

    @pytest.mark.parametrize("name", ["kodaira.json", "odp_m3.json"])
    def test_degeneration_fixture_round_trip(self, name):
        data = DegenerationData.from_json(json.load(open(fixture_path(name))))
        assert degeneration_fields(reread(data)) == degeneration_fields(data)

    def test_map_without_rows_keeps_its_width(self):
        # H^2 of the lines restricts to the points' H^2 = 0: a 0 x 2 matrix
        data = cycle_degeneration()
        data.restriction[(1, 2)] = ExactMatrix.zero(0, data.stratum_dim(1, 2))
        again = reread(data)
        assert degeneration_fields(again) == degeneration_fields(data)
        assert validate_degeneration_data(again).ok

    @pytest.mark.parametrize("res", ODP_MODELS, ids=range(len(ODP_MODELS)))
    def test_odp_model_round_trip(self, res):
        data = odp_semistable_model(res)
        assert degeneration_fields(reread(data)) == degeneration_fields(data)

    @pytest.mark.parametrize("schema", ["mhs", "degeneration"])
    def test_scalar_grammar_is_the_schema_pattern(self, schema):
        text = (SCHEMAS / f"{schema}.schema.json").read_text()
        (raw,) = set(re.findall(r'"pattern": ("[^"]*")', text))
        pattern = json.loads(raw)
        samples = ["1", "-1", "0", "1/2", "-3/4", "1/2+3/4*i", "1-1*i", "0+1*i",
                   "+1", "1 ", " 1", "1/2 + 3/4*i", "1/", "/2", "i", "1*i",
                   "1+i", "1.5", "1e3", "", "1/2+3/4", "1/0", "1/00", "1/01", "0/10",
                   "1+1/0*i", "1+1/10*i"]
        for sample in samples:
            try:
                gaussian_from_str(sample)
                parsed = True
            except ValueError:
                parsed = False
            assert parsed == bool(re.search(pattern, sample)), sample

    @pytest.mark.parametrize("command, name, edit", [
        ("orbit", "elliptic.json", lambda blob: blob["S"][0].__setitem__(1, 1)),
        ("check", "kodaira.json",
         lambda blob: blob["gysin"][0]["matrix"][0].__setitem__(0, 1)),
    ], ids=["orbit", "check"])
    def test_json_number_is_an_input_error(self, tmp_path, capsys, command, name, edit):
        blob = json.load(open(fixture_path(name)))
        edit(blob)
        path = tmp_path / name
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert "invalid input: cannot parse GaussianScalar from 1" in err

    # (top-level key, nested item without its key, the key it lacks) per reader
    SHAPES = {"degeneration": ("strata", {"strata": [{"depth": 1}]}, "cohomology"),
              "mhs": ("W", {"F": [{"level": 0}]}, "basis")}

    @pytest.mark.parametrize("command, name, schema", [
        ("check", "kodaira.json", "degeneration"), ("validate", "kodaira.json", "degeneration"),
        ("orbit", "elliptic.json", "mhs")], ids=["check", "validate", "orbit"])
    @pytest.mark.parametrize("kind", ["list", "string", "missing-key", "missing-nested-key"])
    def test_malformed_shape_names_what_is_wrong(self, tmp_path, capsys, command, name, schema,
                                                 kind):
        blob = json.load(open(fixture_path(name)))
        key, nested, lacking = self.SHAPES[schema]
        blob, message = {
            "list": ([blob], "the top level is not a JSON object"),
            "string": ("text", "the top level is not a JSON object"),
            "missing-key": ({k: v for k, v in blob.items() if k != key}, f"missing key '{key}'"),
            "missing-nested-key": ({**blob, **nested}, f"missing key '{lacking}'"),
        }[kind]
        path = tmp_path / name
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("invalid input: ") and message in err, err
        # the same under python -O, where assert statements are off
        proc = run_optimized(command, str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    # per reader: (a nested value of the wrong JSON type, the path named)
    WRONG_TYPES = {
        "degeneration": [
            ({"strata": [[1]]}, "strata[0]"),
            ({"strata": [{"depth": 1, "cohomology": [{"q": 0, "dim": 1, "types": 5}]}]},
             "strata[0].cohomology[0].types"),
        ],
        "mhs": [
            ({"F": [[0]]}, "F[0]"),
            ({"F": [{"level": 0, "basis": 5}]}, "F[0].basis"),
        ],
    }

    @pytest.mark.parametrize("command, name, schema", [
        ("check", "kodaira.json", "degeneration"), ("validate", "kodaira.json", "degeneration"),
        ("orbit", "elliptic.json", "mhs")], ids=["check", "validate", "orbit"])
    @pytest.mark.parametrize("case", [0, 1], ids=["item", "value"])
    def test_wrong_json_type_names_its_path(self, tmp_path, capsys, command, name, schema,
                                            case):
        nested, where = self.WRONG_TYPES[schema][case]
        path = tmp_path / name
        path.write_text(json.dumps({**json.load(open(fixture_path(name))), **nested}))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"invalid input: {where}: wrong JSON type ("), err
        proc = run_optimized(command, str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    # items that must be JSON objects, as (command, fixture, path, value put
    # there, what the message calls the item)
    NOT_OBJECTS = [
        ("check", "odp_m3.json", ("strata", 0, "cohomology", 4), None, "a cohomology entry"),
        ("validate", "kodaira.json", ("strata", 1), [1], "a stratum"),
        ("check", "kodaira.json", ("gysin", 0), "x", "a gysin map"),
        ("validate", "kodaira.json", ("restriction", 1), 3, "a restriction map"),
        ("orbit", "elliptic.json", ("W", 0), 3, "a step of W"),
        ("orbit", "elliptic.json", ("F", 1), [], "a step of F"),
    ]

    @pytest.mark.parametrize("command, name, at, value, what", NOT_OBJECTS,
                             ids=["cohomology", "stratum", "gysin", "restriction", "W", "F"])
    def test_item_that_is_not_an_object_names_the_expected_type(self, tmp_path, capsys, command,
                                                                name, at, value, what):
        blob = json.load(open(fixture_path(name)))
        set_at(blob, at, value)
        path = tmp_path / name
        path.write_text(json.dumps(blob))
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in at).lstrip(".")
        want = (1, "", f"invalid input: {where}: wrong JSON type "
                       f"({what} must be an object, not {type(value).__name__})\n")
        assert run(capsys, command, str(path)) == want
        proc = run_optimized(command, str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    # the integer fields of the degeneration reader, as (path, container of
    # the field in the kodaira.json blob, key)
    INT_FIELDS = [
        ("m", lambda b: b, "m"),
        ("strata[0].depth", lambda b: b["strata"][0], "depth"),
        ("strata[0].cohomology[1].q", lambda b: b["strata"][0]["cohomology"][1], "q"),
        ("strata[0].cohomology[1].dim", lambda b: b["strata"][0]["cohomology"][1], "dim"),
        ("gysin[0].depth", lambda b: b["gysin"][0], "depth"),
        ("restriction[1].q", lambda b: b["restriction"][1], "q"),
    ]

    @pytest.mark.parametrize("command", ["check", "validate"])
    @pytest.mark.parametrize("field", range(len(INT_FIELDS)),
                             ids=[where for where, _, _ in INT_FIELDS])
    @pytest.mark.parametrize("value", ["1", True, 1.9], ids=["str", "bool", "float"])
    def test_non_integer_field_names_its_path(self, tmp_path, capsys, command, field, value):
        self.assert_names_its_path(tmp_path, capsys, command, "kodaira.json",
                                   self.INT_FIELDS[field], value)

    # the integer fields of the MHS reader, as for INT_FIELDS in elliptic.json
    MHS_INT_FIELDS = [
        ("dim", lambda b: b, "dim"),
        ("d", lambda b: b, "d"),
        ("W[0].weight", lambda b: b["W"][0], "weight"),
        ("F[1].level", lambda b: b["F"][1], "level"),
    ]

    @pytest.mark.parametrize("field", range(len(MHS_INT_FIELDS)),
                             ids=[where for where, _, _ in MHS_INT_FIELDS])
    @pytest.mark.parametrize("value", ["1", True, 1.9], ids=["str", "bool", "float"])
    def test_non_integer_mhs_field_names_its_path(self, tmp_path, capsys, field, value):
        # int() would read each of these as 1 and give that structure's verdict
        self.assert_names_its_path(tmp_path, capsys, "orbit", "elliptic.json",
                                   self.MHS_INT_FIELDS[field], value)

    # inputs a reader rejects, as (fixture, edit of its blob, message): an
    # entry repeated in a list keyed by its integer fields, the copy
    # contradicting the original (before, the last entry won and the input
    # ran as if valid), and a value below the schema's minimum (before,
    # m = -1 passed check with no degrees, d = -2 got an orbit report, and
    # a Gysin map at depth 0, q -3 passed check)
    REJECTED = [
        ("odp_m3.json", lambda b: b["strata"].insert(0, {"depth": 1, "cohomology": []}),
         "strata: depth 1 appears twice"),
        ("odp_m3.json", lambda b: b["strata"][0]["cohomology"].insert(0, {
            **b["strata"][0]["cohomology"][0], "pairing": [["7", "0"], ["0", "7"]]}),
         "cohomology of depth 1: q 0 appears twice"),
        ("odp_m3.json", lambda b: b["gysin"].insert(0, {
            **b["gysin"][0], "matrix": [["999"] * len(row) for row in b["gysin"][0]["matrix"]]}),
         "gysin: depth 1, q 0 appears twice"),
        ("odp_m3.json", lambda b: b["restriction"].append(b["restriction"][0]),
         "restriction: depth 1, q 0 appears twice"),
        ("odp_m3.json", lambda b: b.update(m=-1, strata=[{"depth": 1, "cohomology": []}],
                                           gysin=[], restriction=[]),
         "m is -1, not at least 0"),
        ("odp_m3.json", lambda b: b["gysin"].append({"depth": 0, "q": -3, "matrix": []}),
         "depth is 0, not at least 1"),
        ("odp_m3.json", lambda b: b["restriction"].append({"depth": 1, "q": -1, "matrix": []}),
         "q is -1, not at least 0"),
        ("elliptic.json", lambda b: b["F"].insert(0, {"level": 1, "basis": [["1", "0"]]}),
         "F: level 1 appears twice"),
        ("elliptic.json", lambda b: b["W"].append({"weight": 1, "basis": []}),
         "W: weight 1 appears twice"),
        ("elliptic.json", lambda b: b.update(d=-2), "d is -2, not at least 0"),
        ("elliptic.json", lambda b: b.update(dim=-1), "dim is -1, not at least 0"),
    ]

    @pytest.mark.parametrize("name, edit, message", REJECTED,
                             ids=[message.split(" appears")[0].split(" is")[0]
                                  for _, _, message in REJECTED])
    def test_repeated_key_or_negative_value_is_an_input_error(self, tmp_path, capsys, name,
                                                               edit, message):
        blob = json.load(open(fixture_path(name)))
        edit(blob)
        path = tmp_path / name
        path.write_text(json.dumps(blob))
        for command in (["check", "validate"] if name == "odp_m3.json" else ["orbit"]):
            want = (1, "", f"invalid input: {message}\n")
            assert run(capsys, command, str(path)) == want
            proc = run_optimized(command, str(path))
            assert (proc.returncode, proc.stdout, proc.stderr) == want

    # a key repeated in one JSON object, as (argv, input file, the key, the
    # file's text or None for the fixture with the key prepended): before,
    # json.load kept the last value, and odp_m3.json with "m": 7 prepended
    # ran as odp_m3.json with exit 0
    REPEATED_KEYS = [
        (["check"], "odp_m3.json", "m", None),
        (["validate"], "odp_m3.json", "m", None),
        (["orbit"], "elliptic.json", "d", None),
        (["tables", "kahler", "--hodge"], "hodge.json", "1,1",
         '{"m": 2, "hodge": {"1,1": 20, "0,0": 1, "1,1": 2}}'),
    ]

    @pytest.mark.parametrize("argv, name, key, text", REPEATED_KEYS,
                             ids=[argv[0] for argv, *_ in REPEATED_KEYS])
    def test_repeated_object_key_is_an_input_error(self, tmp_path, capsys, argv, name, key,
                                                   text):
        if text is None:
            text = open(fixture_path(name)).read().replace("{", f'{{"{key}": 7, ', 1)
        path = tmp_path / name
        path.write_text(text)
        want = (1, "", f"invalid input: key '{key}' appears twice\n")
        assert run(capsys, *argv, str(path)) == want
        proc = run_optimized(*argv, str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    @pytest.mark.parametrize("argv", [["check"], ["validate"], ["orbit"],
                                      ["tables", "kahler", "--hodge"]],
                             ids=["check", "validate", "orbit", "tables"])
    def test_deep_nesting_is_an_input_error(self, tmp_path, capsys, argv):
        # before, the decoder's RecursionError ended in a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        want = (1, "", f"invalid input: {path}: not valid JSON (nested too deeply)\n")
        assert run(capsys, *argv, str(path)) == want
        proc = run_optimized(*argv, str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    def test_stratum_deeper_than_m_plus_one_is_invalid(self, tmp_path, capsys):
        # a stratum of depth m + 2 or more has negative complex dimension;
        # before, m = 0 with empty strata at depths 2 and 3 passed check
        blob = {"m": 0, "strata": [
            {"depth": 1, "cohomology": [{"q": 0, "dim": 1, "types": [[0, 0]],
                                         "pairing": [["1"]]}]},
            {"depth": 2, "cohomology": []}, {"depth": 3, "cohomology": []}]}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(blob))
        failures = ["depth 2: stratum deeper than m + 1 = 1",
                    "depth 3: stratum deeper than m + 1 = 1"]
        code, out, _ = run(capsys, "check", str(path), "--format", "json")
        assert (code, json.loads(out)) == (1, {"valid": False, "failures": failures})
        proc = run_optimized("check", str(path), "--format", "json")
        assert (proc.returncode, proc.stdout) == (code, out)

    @staticmethod
    def assert_names_its_path(tmp_path, capsys, command, name, field, value):
        where, container, key = field
        blob = json.load(open(fixture_path(name)))
        container(blob)[key] = value
        path = tmp_path / name
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, command, str(path))
        kind = type(value).__name__
        assert (code, out, err) == (1, "", f"invalid input: {where}: wrong JSON type "
                                           f"({key} must be an integer, not {kind})\n")
        proc = run_optimized(command, str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def shape_edit(tmp_path, source, kind, index, edit) -> str:
    """The path of source's JSON with one map edited: a row or a column of
    zeros added, or the last one dropped."""
    blob = source().to_json()
    rows = blob[kind][index]["matrix"]
    rows = {
        "drop-row": lambda: rows[:-1],
        "add-row": lambda: rows + [["0"] * len(rows[0])],
        "drop-col": lambda: [row[:-1] for row in rows],
        "add-col": lambda: [row + ["0"] for row in rows],
    }[edit]()
    blob[kind][index]["matrix"] = rows
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(blob))
    return str(path)


SHAPE_EDITS = [
    (source, kind, index, edit)
    for source in (cycle_degeneration, kodaira_degeneration)
    for kind in ("gysin", "restriction")
    for index in range(len(getattr(source(), kind)))
    for edit in ("drop-row", "add-row", "drop-col", "add-col")
]
SHAPE_EDIT_IDS = ["-".join((source.__name__, kind, str(index), edit))
                  for source, kind, index, edit in SHAPE_EDITS]


def pairing_edit(tmp_path, edit) -> str:
    """The path of kodaira.json with the last row or the last column of the
    depth-1 H^2 pairing dropped."""
    blob = json.load(open(fixture_path("kodaira.json")))
    entry = next(e for e in blob["strata"][0]["cohomology"] if e["q"] == 2)
    P = entry["pairing"]
    entry["pairing"] = P[:-1] if edit == "drop-row" else [row[:-1] for row in P]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(blob))
    return str(path)


PAIRING_SHAPE_REPORT = {"valid": False, "failures": ["depth 1 degree 2: pairing shape mismatch"]}


def bad_frame_degeneration(bad: dict) -> dict:
    """An invalid m = 2 degeneration whose depths 1 and 2 carry H^1s of the
    curve types (1,0), (0,1), joined by the identity restriction.  Each H^1
    is framed by [[1, 1], [i, -i]], except at the depths that bad maps to
    "singular" ([[1, 1], [1, 1]]) or "misshaped" (the 3 x 3 identity)."""
    frames = {
        "curve": [["1", "1"], ["0+1*i", "0-1*i"]],
        "singular": [["1", "1"], ["1", "1"]],
        "misshaped": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    return {"m": 2, "strata": [
        {"depth": depth, "cohomology": [{"q": 1, "dim": 2, "types": [[1, 0], [0, 1]],
                                         "frame": frames[bad.get(depth, "curve")]}]}
        for depth in (1, 2)
    ], "restriction": [{"depth": 1, "q": 1, "matrix": [["1", "0"], ["0", "1"]]}]}


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

    @pytest.mark.parametrize("source, kind, index, edit", SHAPE_EDITS, ids=SHAPE_EDIT_IDS)
    def test_misshaped_map(self, tmp_path, capsys, source, kind, index, edit):
        # the relations multiply the maps, so a map of the wrong shape is
        # reported by its shape check alone, never by a failed product
        code, out, err = run(capsys, "validate",
                             shape_edit(tmp_path, source, kind, index, edit), "--format", "json")
        assert (code, err) == (2, "")
        report = json.loads(out)
        assert report["valid"] is False
        assert [f for f in report["failures"] if ": shape (" in f] == report["failures"]

    def test_misshaped_map_without_asserts(self, tmp_path):
        # an added row once ran the products past the end of a row
        proc = run_optimized("validate", shape_edit(
            tmp_path, kodaira_degeneration, "restriction", 1, "add-row"), "--format", "json")
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout) == {"valid": False, "failures": [
            "restriction depth 1 degree 2: shape (3, 4) != (2, 4)"]}

    @pytest.mark.parametrize("edit", ["drop-row", "drop-col"])
    def test_misshaped_pairing(self, tmp_path, capsys, edit):
        # adjointness multiplies the pairings, so a pairing of the wrong
        # shape is reported by its shape check alone
        code, out, err = run(capsys, "validate", pairing_edit(tmp_path, edit),
                             "--format", "json")
        assert (code, err) == (2, "")
        assert json.loads(out) == PAIRING_SHAPE_REPORT

    @pytest.mark.parametrize("edit", ["drop-row", "drop-col"])
    def test_misshaped_pairing_without_asserts(self, tmp_path, edit):
        proc = run_optimized("validate", pairing_edit(tmp_path, edit), "--format", "json")
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout) == PAIRING_SHAPE_REPORT

    @pytest.mark.parametrize("command, code", [("validate", 2), ("check", 1)])
    @pytest.mark.parametrize("name", ["ExE", "curve"])
    def test_pairing_that_is_not_type_orthogonal(self, tmp_path, capsys, command, code, name):
        # a pairing, a morphism of Hodge structures, pairs type t only with
        # (n, n) - t.  Smooth E x E with 2 added at entry (1, 1) of its
        # degree-2 pairing pairs the frame's (2,0) column with itself; the
        # curve pairs two (1,0) columns.  Both once passed validation and
        # then read a degenerate primitive form as a verdict
        if name == "ExE":
            blob = product(elliptic_smooth(), elliptic_smooth()).to_json()
            degree_two = next(e for e in blob["strata"][0]["cohomology"] if e["q"] == 2)
            assert degree_two["pairing"][1][1] == "0/1"
            degree_two["pairing"][1][1] = "2"
            failure = "depth 1 degree 2: pairing pairs type (2,0) with (2,0)"
        else:
            blob = CURVE_PAIRING_TYPE_BREAK
            failure = "depth 1 degree 1: pairing pairs type (1,0) with (1,0)"
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(blob))
        got, out, err = run(capsys, command, str(path), "--format", "json")
        assert (got, err) == (code, "")
        assert json.loads(out) == {"valid": False, "failures": [failure]}

    @pytest.mark.parametrize("optimized", [False, True], ids=["python", "python-O"])
    @pytest.mark.parametrize("command, code", [("validate", 2), ("check", 1)])
    @pytest.mark.parametrize("frame, failure", [
        ("singular", "singular frame"), ("misshaped", "frame shape mismatch")],
        ids=["singular", "misshaped"])
    @pytest.mark.parametrize("depth", [1, 2], ids=["source", "target"])
    def test_bad_frame_at_a_map_end_is_listed(self, tmp_path, capsys, optimized, command, code,
                                              frame, failure, depth):
        # the restriction joins the H^1s of depths 1 and 2; a frame at one of
        # its ends that cannot be inverted or multiplied adds its own failure
        # to the list, and the map's type check, which needs it, is skipped
        def failures(bad):
            path = tmp_path / "frames.json"
            path.write_text(json.dumps(bad_frame_degeneration(bad)))
            if optimized:
                proc = run_optimized(command, str(path), "--format", "json")
                got = proc.returncode, proc.stdout, proc.stderr
            else:
                got = run(capsys, command, str(path), "--format", "json")
            assert got[0] == code and got[2] == ""
            report = json.loads(got[1])
            assert report["valid"] is False
            return report["failures"]

        good = failures({})
        bad = failures({depth: frame})
        assert sorted(bad) == sorted(good + [f"depth {depth} degree 1: {failure}"])


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

    @pytest.mark.parametrize("N, message", [
        ([["1", "0"], ["0", "0"]], "N must be nilpotent"),
        ([["0", "1+1*i"], ["0", "0"]], "N must be rational"),
    ], ids=["not-nilpotent", "complex"])
    def test_bad_monodromy_without_asserts(self, tmp_path, capsys, N, message):
        # MHSData checks its input under python -O as well, so a bad N is
        # one input error line, never a traceback from deeper in the pipeline
        blob = json.load(open(fixture_path("elliptic.json")))
        blob["N"] = N
        path = tmp_path / "bad_n.json"
        path.write_text(json.dumps(blob))
        want = (1, "", f"invalid input: {message}\n")
        assert run(capsys, "orbit", str(path)) == want
        proc = run_optimized("orbit", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == want

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


class TestMhsReader:
    """The MHS reader takes each basis as the image of its transposed JSON
    matrix, so `lmhs orbit` builds no entries view of any matrix, and a
    basis vector whose length is not dim is an input error."""

    @pytest.mark.parametrize("name", ["elliptic.json", "kodaira_mhs.json", "tate3.json"])
    def test_orbit_builds_no_entries_view(self, capsys, monkeypatch, name):
        viewed = []
        entries = ExactMatrix.entries

        def viewing(M):
            if M._entries is None:
                viewed.append((M.rows, M.cols))
            return entries.fget(M)

        monkeypatch.setattr(ExactMatrix, "entries", property(viewing))
        code, out, _ = run(capsys, "orbit", fixture_path(name), "--format", "json")
        assert code in (0, 2) and json.loads(out)
        assert viewed == []

    # (edit of elliptic.json, whose dim is 2, the message)
    EDITS = {
        "short": (lambda b: b["F"][1].update(basis=[["1/1"]]),
                  "F level 1: basis vector of length 1 in dimension 2"),
        "long": (lambda b: [v.append("0") for v in b["W"][0]["basis"]],
                 "W weight 1: basis vector of length 3 in dimension 2"),
        "ragged": (lambda b: b["F"][0]["basis"][0].pop(), "ragged matrix"),
    }

    @pytest.mark.parametrize("edit", EDITS)
    def test_basis_vector_of_wrong_length_is_an_input_error(self, tmp_path, capsys, edit):
        change, message = self.EDITS[edit]
        blob = json.load(open(fixture_path("elliptic.json")))
        change(blob)
        path = tmp_path / "bad_basis.json"
        path.write_text(json.dumps(blob))
        want = (1, "", f"invalid input: {message}\n")
        assert run(capsys, "orbit", str(path)) == want
        proc = run_optimized("orbit", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == want


def _real_line(blob):
    for step in blob["F"]:
        if step["level"] == 1:
            step["basis"] = [["1/1", "2/1"]]


# elliptic.json edited into inputs that fail before the orbit stages
ELLIPTIC_VARIANTS = {
    "n_missing": lambda blob: blob.pop("N"),
    "s_missing": lambda blob: blob.pop("S"),
    "real_line": _real_line,
}

# seeded draws of the structure generator, (seed, polarized)
GENERATED_STRUCTURES = {
    "random-s11": (11, True),
    "random-unpolarized-s1": (1, False),
}

GOLDEN = Path(__file__).parent / "golden"
SCHEMAS = Path(__file__).parents[1] / "docs" / "schemas"

# (recording, argv, exit code); the recordings in tests/golden are the
# stdout of these invocations from before `lmhs orbit` ran one pipeline,
# and of the `check` runs on generated models from before each d1 map was
# built once per call (odp-m3-l8 and odp-m4-l9: from before the pivot-only
# eliminations and the operand pass-throughs of exactlin).  The
# orbit-random-* recordings are of seeded
# generator draws, made while the signature was still taken by doubling t
# until two evaluations agreed.  The *-text-a1_2 recordings were made with
# the orbit twist a = Re z = 1/2, which no report depends on, so the same
# bytes now come without it
GOLDEN_CASES = [
    ("orbit-elliptic-json", ["orbit", "elliptic.json", "--format", "json"], 0),
    ("orbit-elliptic-text-a1_2", ["orbit", "elliptic.json", "--format", "text"], 0),
    ("orbit-tate3-json", ["orbit", "tate3.json", "--format", "json"], 0),
    ("orbit-tate3-text-a1_2", ["orbit", "tate3.json", "--format", "text"], 0),
    ("orbit-kodaira_mhs-json", ["orbit", "kodaira_mhs.json", "--format", "json"], 2),
    ("orbit-kodaira_mhs-text-a1_2", ["orbit", "kodaira_mhs.json", "--format", "text"], 2),
    ("orbit-n_missing-json", ["orbit", "n_missing", "--format", "json"], 2),
    ("orbit-s_missing-json", ["orbit", "s_missing", "--format", "json"], 2),
    ("orbit-real_line-json", ["orbit", "real_line", "--format", "json"], 2),
    ("orbit-random-s11-json", ["orbit", "random-s11", "--format", "json"], 0),
    ("orbit-random-unpolarized-s1-json",
     ["orbit", "random-unpolarized-s1", "--format", "json"], 0),
    ("check-kodaira-json", ["check", "kodaira.json", "--format", "json"], 2),
    ("check-odp_m3-json", ["check", "odp_m3.json", "--format", "json"], 0),
    ("check-odp-m3-l6-json", ["check", "odp-m3-l6", "--format", "json"], 0),
    ("check-odp-m4-l7-json", ["check", "odp-m4-l7", "--format", "json"], 0),
    ("check-odp-m3-l8-json", ["check", "odp-m3-l8", "--format", "json"], 0),
    ("check-odp-m4-l9-json", ["check", "odp-m4-l9", "--format", "json"], 0),
]


def input_path(tmp_path, source):
    if source in GOLDEN_ODP_MODELS:
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(odp_semistable_model(GOLDEN_ODP_MODELS[source]).to_json()))
        return str(path)
    if source in GENERATED_STRUCTURES:
        seed, polarized = GENERATED_STRUCTURES[source]
        data, _ = mhs.random_polarized_mhs(random.Random(seed), max_dim=10, max_d=4,
                                           polarized=polarized)
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(data.to_json()))
        return str(path)
    if source not in ELLIPTIC_VARIANTS:
        return fixture_path(source)
    blob = json.load(open(fixture_path("elliptic.json")))
    ELLIPTIC_VARIANTS[source](blob)
    path = tmp_path / f"{source}.json"
    path.write_text(json.dumps(blob))
    return str(path)


class TestGolden:
    @pytest.mark.parametrize("name, argv, code", GOLDEN_CASES,
                             ids=[case[0] for case in GOLDEN_CASES])
    def test_matches_recording(self, tmp_path, capsys, name, argv, code):
        command, source, *rest = argv
        got_code, out, _ = run(capsys, command, input_path(tmp_path, source), *rest)
        assert got_code == code
        assert out == (GOLDEN / f"{name}.out").read_text()

    @pytest.mark.parametrize("name, argv, code", GOLDEN_CASES,
                             ids=[case[0] for case in GOLDEN_CASES])
    def test_matches_recording_without_asserts(self, tmp_path, name, argv, code):
        # valid inputs must not depend on assert statements
        command, source, *rest = argv
        proc = run_optimized(command, input_path(tmp_path, source), *rest)
        assert proc.returncode == code
        assert proc.stdout == (GOLDEN / f"{name}.out").read_text()


class TestOrbitBuilds:
    """One `lmhs orbit` call runs each stage of the orbit pipeline once, the
    primitive subspaces included, and builds each level's Hermitian matrix,
    its minors and its opposedness determinant once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        hermitians = []  # (H, level), to name the level of a minors call

        def counting(fn, key=lambda *args: None):
            def wrapped(*args, **kwargs):
                counts[fn.__name__, key(*args)] += 1
                return fn(*args, **kwargs)
            return wrapped

        for fn in (mhs.check_mhs, mhs.deligne_splitting, mhs.weight_filtration,
                   mhs.primitive_subspaces):
            for module in (cli, mhs, orbit):
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counting(fn))
        monkeypatch.setattr(orbit, "opposedness_polynomial", counting(
            orbit.opposedness_polynomial, key=lambda orb, k: k))
        Orbit = orbit.OrbitFiltration
        monkeypatch.setattr(Orbit, "__init__", counting(Orbit.__init__))
        hermitian_matrix = Orbit.hermitian_matrix

        def building(orb, k):
            counts["hermitian_matrix", k] += 1
            H = hermitian_matrix(orb, k)
            hermitians.append((H, k))
            return H

        monkeypatch.setattr(Orbit, "hermitian_matrix", building)
        monkeypatch.setattr(orbit, "leading_principal_minors", counting(
            orbit.leading_principal_minors,
            key=lambda C0, *_: next(k for H, k in hermitians if H[0] is C0)))
        return counts

    @pytest.mark.parametrize("source", ["elliptic.json", "tate3.json", 0, 1, 2])
    def test_one_build_per_stage_and_level(self, tmp_path, capsys, counts, source):
        if isinstance(source, int):
            rng = random.Random(20261018 + source)
            data, _ = mhs.random_polarized_mhs(rng, max_dim=6, max_d=3)
            path = tmp_path / "orbit.json"
            path.write_text(json.dumps(data.to_json()))
        else:
            path = fixture_path(source)
            data = mhs.MHSData.from_json(json.load(open(path)))
        counts.clear()
        code, _, _ = run(capsys, "orbit", str(path), "--format", "json")
        assert code == 0
        F = data.F
        levels = set(range(F.min_index(), F.max_index() + 1)) | set(range(data.d + 1))

        def per_level(stage):
            return {k: n for (name, k), n in counts.items() if name == stage}

        for stage in ("__init__", "check_mhs", "deligne_splitting", "weight_filtration",
                      "primitive_subspaces"):
            assert per_level(stage) == {None: 1}, stage
        assert per_level("hermitian_matrix") == {k: 1 for k in levels}
        assert per_level("opposedness_polynomial") == {k: 1 for k in levels}
        assert per_level("leading_principal_minors") == {
            k: 1 for k in levels if F.at(k).dim
        }


class TestOptionErrors:
    """Bad option values are usage errors: exit 1 with a message.  `orbit`
    has no twist option: its reports do not depend on a = Re z.  Nor has it
    evaluation-point options: its one evaluation point is certified."""

    CASES = [
        ["--workers", "0"],
        ["--t0", "1024"],
        ["--t0-cap", "2"],
        ["--a", "x"],
        ["--a", "1/2"],
    ]

    @pytest.mark.parametrize("options", CASES, ids=" ".join)
    def test_exit_one(self, capsys, options):
        with pytest.raises(SystemExit) as exc:
            cli.main(["orbit", fixture_path("elliptic.json"), *options])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("options", CASES, ids=" ".join)
    def test_exit_one_without_asserts(self, options):
        proc = run_optimized("orbit", fixture_path("elliptic.json"), *options)
        assert proc.returncode == 1
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


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

    @pytest.mark.parametrize("pair", ["9,9", "0,0", "1,3", "2,0"])
    def test_corrupt_pair_outside_the_range(self, capsys, pair):
        # a test-mode pair that no check reaches is a usage error, not a
        # passing run
        argv = ["verify-identities", "--max-n", "1", "--corrupt", pair]
        want = (1, "", f"invalid input: --corrupt {pair} is not a checked pair "
                       "(1 <= n <= 1, 0 <= k <= n + 1)\n")
        assert run(capsys, *argv) == want
        proc = run_optimized(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    def test_workers(self, capsys):
        code_seq, out_seq, _ = run(capsys, "verify-identities", "--max-n", "4",
                                   "--format", "json")
        code_par, out_par, _ = run(capsys, "verify-identities", "--max-n", "4",
                                   "--format", "json", "--workers", "4")
        assert code_seq == code_par == 0
        assert out_seq == out_par

    def test_evaluation_counts(self, capsys, monkeypatch):
        # both identity families are graded, so each of the default
        # range's 104 determinants is one elimination of its leading
        # coefficients, and each Jordan string's exponential is built once,
        # for every k of its n
        counts = Counter()

        def counting(fn):
            def wrapped(*args, **kwargs):
                counts[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(exactlin, "_det_at", counting(exactlin._det_at))
        monkeypatch.setattr(identities, "exp_nilpotent", counting(identities.exp_nilpotent))
        code, _, _ = run(capsys, "verify-identities", "--max-n", "8")
        assert code == 0
        assert counts == {"_det_at": 104, "exp_nilpotent": 8}

    def test_broken_determinant_is_a_verdict(self, capsys, monkeypatch):
        # a wrong determinant of every 3 x 3 matrix breaks the pairs with
        # n = 2 (the wedge matrix is (n + 1) x (n + 1)) and no other
        real = identities.poly_det
        monkeypatch.setattr(identities, "poly_det",
                            lambda *c: PolyScalar([5]) if c[0].rows == 3 else real(*c))
        code, out, err = run(capsys, "verify-identities", "--max-n", "2",
                             "--format", "json")
        assert code == 2
        assert json.loads(out)["failures"] == [[2, 0], [2, 1], [2, 2], [2, 3]]
        assert "identity failed at (n, k) = (2, 0)" in err
        assert "Traceback" not in err

    def test_broken_determinant_is_a_verdict_without_asserts(self):
        proc = run_python("-O", "-c", BROKEN_DETERMINANT)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["failures"] == [[2, 0], [2, 1], [2, 2], [2, 3]]
        assert "Traceback" not in proc.stderr


BROKEN_DETERMINANT = """
import sys
from lmhs import cli, identities
from lmhs.exactlin import PolyScalar
real = identities.poly_det
identities.poly_det = lambda *c: PolyScalar([5]) if c[0].rows == 3 else real(*c)
sys.exit(cli.main(["verify-identities", "--max-n", "2", "--format", "json"]))
"""

LOADED_MODULES = """
import sys
from lmhs import cli
code = cli.main(sys.argv[1:] + ["--format", "json"])
print(sorted(name for name in sys.modules if name.startswith("lmhs.")), file=sys.stderr)
sys.exit(code)
"""


# the lmhs modules each subcommand loads: the module map in the README
@pytest.mark.parametrize("argv, modules", [
    (["orbit", fixture_path("elliptic.json")],
     {"cli", "exactlin", "filtration", "mhs", "orbit", "report", "signature"}),
    (["check", fixture_path("odp_m3.json")],
     {"cli", "exactlin", "report", "signature", "steenbrink"}),
    (["validate", fixture_path("odp_m3.json")],
     {"cli", "exactlin", "report", "signature", "steenbrink"}),
    (["verify-identities", "--max-n", "1"], {"cli", "exactlin", "identities"}),
    (["tables", "kahler", "--k3"], {"cli", "exactlin", "geomodels", "tables"}),
], ids=["orbit", "check", "validate", "verify-identities", "tables"])
def test_subcommand_imports_only_its_pipeline(argv, modules):
    proc = run_python("-c", LOADED_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stderr.splitlines()[-1]))
    assert loaded == {f"lmhs.{name}" for name in modules}


def test_module_run_imports_no_second_cli():
    # under python -m lmhs.cli the front end runs as __main__, so a module
    # that imported lmhs.cli would compile it a second time
    proc = run_python("-X", "importtime", "-m", "lmhs.cli", "tables", "kahler", "--k3")
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "lmhs.tables" in imported
    assert "lmhs.cli" not in imported


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

    def test_kahler_hodge_file(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        path.write_text(json.dumps(
            {"m": 2, "hodge": {"0,0": 1, "1,1": 20, "2,0": 1, "0,2": 1, "2,2": 1}}))
        got = run(capsys, "tables", "kahler", "--hodge", str(path), "--format", "json")
        assert got == run(capsys, "tables", "kahler", "--k3", "--format", "json")

    # malformed or out-of-range --hodge files: each exits 1 with its
    # message, and a value of the wrong JSON type is named by its path
    BAD_HODGE = [
        ("list", [], "{path}: the top level is not a JSON object"),
        ("hodge-list", {"m": 2, "hodge": []},
         "hodge: wrong JSON type (hodge must be an object, not list)"),
        ("hodge-null", {"m": 2, "hodge": None},
         "hodge: wrong JSON type (hodge must be an object, not NoneType)"),
        ("value-null", {"m": 2, "hodge": {"0,0": 1, "1,1": None}},
         "hodge.1,1: wrong JSON type (1,1 must be an integer, not NoneType)"),
        ("value-float", {"m": 2, "hodge": {"1,1": 2.5}},
         "hodge.1,1: wrong JSON type (1,1 must be an integer, not float)"),
        ("m-float", {"m": 2.9, "hodge": {"1,1": 2}},
         "m: wrong JSON type (m must be an integer, not float)"),
        ("m-bool", {"m": True, "hodge": {"1,1": 2}},
         "m: wrong JSON type (m must be an integer, not bool)"),
        ("bad-key", {"m": 2, "hodge": {"1": 2}}, "hodge key '1' is not p,q"),
        ("missing-key", {"m": 2}, "missing key 'hodge'"),
        ("m-negative", {"m": -2, "hodge": {"1,1": 2}}, "m is -2, not at least 0"),
        ("key-above-m", {"m": 2, "hodge": {"3,3": 1}}, "hodge key '3,3' is outside 0..2"),
        ("key-below-0", {"m": 2, "hodge": {"1,-1": 1}}, "hodge key '1,-1' is outside 0..2"),
        # an input error, not a verdict on the Lefschetz chain (exit 2)
        ("value-negative", {"m": 2, "hodge": {"1,1": -3}}, "1,1 is -3, not at least 0"),
        # int() reads " 1,1" as 1,1: only the plain spelling names (1, 1)
        ("key-spelled-twice", {"m": 2, "hodge": {"1,1": 20, " 1,1": 5}},
         "hodge key ' 1,1' is not p,q"),
    ]

    @pytest.mark.parametrize("blob, message", [case[1:] for case in BAD_HODGE],
                             ids=[case[0] for case in BAD_HODGE])
    def test_kahler_bad_hodge_file(self, tmp_path, capsys, blob, message):
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps(blob))
        argv = ["tables", "kahler", "--hodge", str(path)]
        want = (1, "", f"invalid input: {message.format(path=path)}\n")
        assert run(capsys, *argv) == want
        proc = run_optimized(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    def test_lefschetz_schoen(self, capsys):
        # Schoen's input is the one lefschetz input, so it takes no flag
        code, out, _ = run(capsys, "tables", "lefschetz", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"dim_check": True, "family": "lefschetz",
                                   "fiber_product": 19, "middle_betti_factor": 10,
                                   "printed_reading": 31}

    def test_schoen_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tables", "lefschetz", "--schoen"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --schoen" in capsys.readouterr().err
        proc = run_optimized("tables", "lefschetz", "--schoen")
        assert proc.returncode == 1 and "unrecognized arguments: --schoen" in proc.stderr

    def test_odp_formula(self, capsys):
        code, out, _ = run(capsys, "tables", "odp", "--m", "3", "--l", "3",
                           "--R", "2", "--rows", "1:5:0;2:5:0",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["table"]["2"] == [7, 0]

    def test_odp_relation_count_out_of_range(self, capsys):
        # R > l once printed a table under python -O
        argv = ["tables", "odp", "--m", "3", "--l", "2", "--R", "5"]
        want = (1, "", "invalid input: R = 5 must lie in 0..l = 0..2\n")
        assert run(capsys, *argv) == want
        proc = run_optimized(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

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


class TestOrbitOptions:
    def test_defaults(self):
        args = cli.build_parser().parse_args(["orbit", "mhs.json"])
        assert args.format == "text"
        assert not hasattr(args, "t0") and not hasattr(args, "t0_cap")


# -- fuzzed readers --------------------------------------------------------------


def json_nodes(value, path=()):
    """Every (path, value) of a JSON tree, the root first; a path is the
    tuple of object keys and array indices that leads to the value."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_nodes(item, path + (key,))


def schema_requirements(schema) -> list[frozenset]:
    """The required-key sets of every object a schema describes."""
    return [frozenset(node["required"]) for _, node in json_nodes(schema)
            if isinstance(node, dict) and isinstance(node.get("required"), list)]


def set_at(blob, path, value=None, drop=False):
    """blob with the value at path replaced, or with the key at path dropped."""
    *head, last = path
    for key in head:
        blob = blob[key]
    if drop:
        del blob[last]
    else:
        blob[last] = value


# (fixture, schema, the commands that read it)
FUZZ_FIXTURES = [
    ("kodaira.json", "degeneration", ("check", "validate")),
    ("odp_m3.json", "degeneration", ("check", "validate")),
    ("elliptic.json", "mhs", ("orbit",)),
]
# one value of each JSON type; a value replaces one of another type, an
# integer and a float counting as two types, as the schema's "integer" does
JSON_VALUES = [None, True, 7, 1.5, "x", [], {}]
BAD_SCALARS = ["", "1/0", "abc", "1.5", "1e3", "i", "1+i", " 1", "1/", "0x1"]
# the integer keys the schemas bound below, and the bound
MINIMUMS = {"m": 0, "dim": 0, "d": 0, "q": 0, "depth": 1}


@st.composite
def reader_mutants(draw):
    """(fixture, commands, mutated blob, what was done): one required key
    dropped, one value replaced by one of another JSON type, one scalar
    string replaced by one outside the schema's grammar, or one bounded
    integer set below its minimum."""
    name, schema, commands = draw(st.sampled_from(FUZZ_FIXTURES))
    blob = json.loads(Path(fixture_path(name)).read_text())
    required = schema_requirements(json.loads((SCHEMAS / f"{schema}.schema.json").read_text()))
    nodes = [(path, value) for path, value in json_nodes(blob) if "description" not in path]
    kind = draw(st.sampled_from(["drop", "type", "scalar", "negative"]))
    if kind == "drop":
        keys = [path + (key,) for path, value in nodes if isinstance(value, dict)
                for need in required if need <= value.keys() for key in need]
        path = draw(st.sampled_from(sorted(set(keys), key=str)))
        set_at(blob, path, drop=True)
        return name, commands, blob, f"drop {path}"
    if kind == "type":
        path, old = draw(st.sampled_from([(p, v) for p, v in nodes if p]))
        value = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
    elif kind == "scalar":
        path = draw(st.sampled_from([p for p, v in nodes if isinstance(v, str)]))
        value = draw(st.sampled_from(BAD_SCALARS))
    else:
        path = draw(st.sampled_from([p for p, v in nodes if p and p[-1] in MINIMUMS
                                     and isinstance(v, int)]))
        value = MINIMUMS[path[-1]] - draw(st.integers(1, 3))
    set_at(blob, path, value)
    return name, commands, blob, f"{path} = {value!r}"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(reader_mutants())
def test_fuzzed_readers_reject_input(case):
    """Every reader mutant of the fixtures that each subcommand reads is an
    input error: exit 1, a message that starts with "invalid input:" and
    no traceback, from the reader itself, before any verdict is read."""
    name, commands, blob, what = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(blob))
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, str(path)])
            assert (code, out.getvalue()) == (1, ""), (command, what, out.getvalue())
            assert err.getvalue().startswith("invalid input: "), (command, what)
            assert err.getvalue().count("\n") == 1, (command, what)


# the K3 Hodge numbers as a --hodge file, the seed of the --hodge fuzz
K3_HODGE = {"m": 2, "hodge": {"0,0": 1, "1,1": 20, "2,0": 1, "0,2": 1, "2,2": 1}}
# keys that are not p,q with 0 <= p, q <= m = 2; " 1,1", "01,1" and "+1,1"
# are read by int() as 1,1, so a non-canonical spelling could stand beside
# the key it repeats
BAD_HODGE_KEYS = ["", "1", "1,1,1", "a,b", "1;1", "1.0,1", " 1,1", "01,1", "+1,1", "1,1 ",
                  "3,0", "0,3", "-1,0", "2,-1"]


@st.composite
def hodge_mutants(draw):
    """(mutated --hodge blob, what was done): a required key dropped, one
    value replaced by one of another JSON type, one Hodge key replaced by
    one that is not p,q or lies outside 0..m, or one integer set below its
    minimum of 0."""
    blob = json.loads(json.dumps(K3_HODGE))
    kind = draw(st.sampled_from(["drop", "type", "key", "negative"]))
    if kind == "drop":
        key = draw(st.sampled_from(["m", "hodge"]))
        del blob[key]
        return blob, f"drop {key}"
    if kind == "key":
        old = draw(st.sampled_from(sorted(blob["hodge"])))
        new = draw(st.sampled_from(BAD_HODGE_KEYS))
        blob["hodge"] = {(new if k == old else k): v for k, v in blob["hodge"].items()}
        return blob, f"key {old!r} -> {new!r}"
    if kind == "type":
        path, old = draw(st.sampled_from([(p, v) for p, v in json_nodes(blob) if p]))
        value = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
    else:
        path = draw(st.sampled_from([("m",)] + [("hodge", k) for k in sorted(blob["hodge"])]))
        value = -draw(st.integers(1, 3))
    set_at(blob, path, value)
    return blob, f"{path} = {value!r}"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(hodge_mutants())
def test_fuzzed_hodge_reader_rejects_input(case):
    """Every mutant of the K3 --hodge file is an input error of lmhs tables
    kahler --hodge: exit 1, one "invalid input:" line and nothing on
    stdout, never a table or a verdict."""
    blob, what = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hodge.json"
        path.write_text(json.dumps(blob))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["tables", "kahler", "--hodge", str(path)])
        assert (code, out.getvalue()) == (1, ""), (what, out.getvalue())
        assert err.getvalue().startswith("invalid input: "), (what, err.getvalue())
        assert err.getvalue().count("\n") == 1, (what, err.getvalue())
