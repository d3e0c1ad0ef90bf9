"""Workloads of the lmhs benchmark.

Each workload builds its inputs from the seed alone, runs items through the
public API or the ``lmhs`` command line, and grades every answer against an
expectation computed independently of the pipeline under test:

- ``orbit-random``: ``verify_main_theorem`` on the acceptance test's stream
  of ``random_polarized_mhs(rng, max_dim=10, max_d=4)`` structures; the
  generator's own primitive signature table is the expectation.
- ``degen-odp``: ``validate_degeneration_data`` then ``nearby_hodge_index``
  on seeded ordinary-double-point models; the closed-form
  ``odp_index_formula`` is the expectation (the two-path cross-check).
- ``cli-mixed``: one client running ``lmhs orbit``, ``lmhs check`` and
  ``lmhs verify-identities`` as subprocesses, one at a time.

Library calls go through the module attribute (``orbit.verify_main_theorem``)
so that the tracer's rebinding sees them.

An answer is graded ``ok``, ``failed`` (an error, a traceback, or an exit
code that is neither the expected one nor a verdict) or ``wrong`` (a verdict
or signature that contradicts the expectation).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from lmhs import geomodels, mhs, orbit, steenbrink
from lmhs.exactlin import ExactMatrix, rank
from lmhs.geomodels import OdpInput, ResolutionData, odp_index_formula
from lmhs.steenbrink import DegenerationData

OK, FAILED, WRONG = "ok", "failed", "wrong"

CLI_TIMEOUT_S = 120


class Item:
    """One unit of work: a kind, the input, what to expect, and a size tag."""

    __slots__ = ("kind", "payload", "expect", "tag")

    def __init__(self, kind, payload, expect=None, tag=""):
        self.kind = kind
        self.payload = payload
        self.expect = expect
        self.tag = tag


def load_fixture(root: Path, name: str) -> dict:
    with open(root / "src" / "lmhs" / "fixtures" / name, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Items in whole rounds built from the seed.  Set-up builds the first
    rounds; later ones are built on demand, outside the timed region."""

    setup_rounds = 1

    def setup(self, seed: int):
        self.rng = random.Random(seed)
        self.round_list = [self.round(r) for r in range(self.setup_rounds)]

    def units(self):
        r = 0
        while True:
            if r == len(self.round_list):
                self.round_list.append(self.round(r))
            yield self.round_list[r]
            r += 1


# ---------------------------------------------------------------------------
# orbit-random
# ---------------------------------------------------------------------------


class OrbitRandom(Workload):
    """The acceptance stream, one structure a round: a run takes a prefix of
    the seeded stream, heavy structures included."""

    name = "orbit-random"
    setup_rounds = 16
    tail_percentile = 88

    def __init__(self, root: Path, out_dir: Path):
        pass

    def round(self, r: int) -> list[Item]:
        data, expected = mhs.random_polarized_mhs(self.rng, max_dim=10, max_d=4)
        return [Item("orbit", data, expected, f"n{data.ambient_dim}-d{data.d}")]

    def run(self, item: Item):
        report = orbit.verify_main_theorem(item.payload)
        table = report.details.get("table")
        return {
            "ok": report.ok,
            "failures": list(report.failures),
            "table": sorted(table.entries.items()) if table is not None else None,
            "levels": sorted(report.details.get("levels", {}).items()),
            "pieces": sorted(report.details.get("pieces", {}).items()),
        }

    def grade(self, item: Item, answer) -> str:
        if answer["ok"] and answer["table"] == sorted(item.expect.items()):
            return OK
        return WRONG


# ---------------------------------------------------------------------------
# degen-odp
# ---------------------------------------------------------------------------

# One round covers every cell once, so each run measures the same mix of
# sizes whatever the seed: a cell fixes m, the node count l, the number of
# relation classes c (odd m) and the number of middle signs.  The seed draws
# the entries of rho, the signs and the order.  With the two fixtures a
# round holds 21 items; an odd count keeps p50 off a group boundary.
DEGEN_CELLS = [(3, l, l // 2, 1 + l % 3) for l in range(0, 9)] + [
    (4, l, None, 1 + l % 3) for l in range(0, 10)]


def random_rho(rng: random.Random, l: int, c: int) -> ExactMatrix:
    """A full-rank l x c relation matrix with entries in {-1, 0, 1}."""
    if c == 0:
        return ExactMatrix.zero(l, 0)
    while True:
        M = ExactMatrix.from_rational(
            [[rng.choice((-1, 0, 1)) for _ in range(c)] for _ in range(l)]
        )
        if rank(M) == c:
            return M


def random_resolution(rng: random.Random, m: int, l: int, c: int, n_signs: int) -> ResolutionData:
    signs = tuple(rng.choice((1, -1)) for _ in range(n_signs))
    if m == 3:
        return ResolutionData(3, l, signs=signs, rho=random_rho(rng, l, c))
    return ResolutionData(4, l, vhat_signs=signs)


def resolution_tag(res: ResolutionData) -> str:
    extra = f"c{res.rho.cols}" if res.m == 3 else ""
    return f"m{res.m}-l{res.l}{extra}-s{len(res.signs) or len(res.vhat_signs)}"


def signature_rows(signature: dict) -> list:
    return [{"p": p, "plus": pm[0], "minus": pm[1]} for p, pm in sorted(signature.items())]


def odp_m3_expectation() -> list:
    """odp_m3.json is the model of one double point with one symplectic pair
    of sign -1 and no relations."""
    res = ResolutionData(3, 1, signs=(-1,), rho=ExactMatrix.zero(1, 0))
    return signature_rows(odp_index_formula(OdpInput.from_resolution(res)))


def kodaira_verdict_ok(report: dict) -> bool:
    """kodaira.json's known negative verdict: the criterion fails at degree 1, r = 1."""
    d1 = [row for row in report["degrees"] if row["d"] == 1][0]
    return report["ddbar_verdict"] is False and d1["criterion"]["1"] is False


def index_ok(report: dict, signature: list) -> bool:
    return (report["ddbar_verdict"] is True and not report["failures"]
            and report.get("signature") == signature)


class DegenOdp(Workload):
    """Seeded ODP models in whole rounds, plus the two degeneration fixtures."""

    name = "degen-odp"
    setup_rounds = 8
    tail_percentile = 88

    def __init__(self, root: Path, out_dir: Path):
        self.fixtures = {
            name: DegenerationData.from_json(load_fixture(root, name))
            for name in ("kodaira.json", "odp_m3.json")
        }
        self.odp_m3_expect = odp_m3_expectation()

    def round(self, r: int) -> list[Item]:
        items = []
        for m, l, c, n_signs in DEGEN_CELLS:
            res = random_resolution(self.rng, m, l, c, n_signs)
            data = geomodels.odp_semistable_model(res)
            want = signature_rows(odp_index_formula(OdpInput.from_resolution(res)))
            items.append(Item("odp", data, want, resolution_tag(res)))
        items.append(Item("kodaira", self.fixtures["kodaira.json"], tag="kodaira.json"))
        items.append(Item("odp", self.fixtures["odp_m3.json"], self.odp_m3_expect, "odp_m3.json"))
        self.rng.shuffle(items)
        return items

    def run(self, item: Item):
        validation = steenbrink.validate_degeneration_data(item.payload)
        if not validation.ok:
            return {"valid": False, "failures": validation.failures}
        report = steenbrink.nearby_hodge_index(item.payload)
        return {"valid": True, "report": report.to_json()}

    def grade(self, item: Item, answer) -> str:
        if not answer["valid"]:
            return WRONG
        report = answer["report"]
        if item.kind == "kodaira":
            good = kodaira_verdict_ok(report)
        else:
            good = index_ok(report, item.expect)
        return OK if good else WRONG


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------


def nearby_from_primitive(d: int, entries: dict) -> dict:
    """The nearby index sum_{k} S^{p,k} from primitive signatures, written
    out from its double-sum definition (independent of lmhs.mhs)."""
    out = {}
    for p in range(0, d + 1):
        plus = minus = 0
        for (P, Q), (a, b) in entries.items():
            r = P - p
            if r < 0:
                continue
            l = Q - d + p - r
            if l >= p - d and r >= max(0, -l) and 0 <= d + l - p <= d:
                plus += a
                minus += b
        out[str(p)] = [plus, minus]
    return out


def non_mhs_elliptic(rng: random.Random, elliptic: dict) -> dict:
    """elliptic.json with F^1 replaced by a real line span(v): Situations A'
    and B' still hold, but F^1 meets its conjugate, so it is no MHS."""
    blob = json.loads(json.dumps(elliptic))
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) != (0, 0):
            break
    for step in blob["F"]:
        if step["level"] == 1:
            step["basis"] = [[f"{a}/1", f"{b}/1"]]
    blob["description"] = "elliptic structure with a real F^1: not an MHS"
    return blob


class CliMixed(Workload):
    """A closed loop with one client: whole rounds of thirteen invocations.

    Each round runs `orbit` on five seeded generator structures, on one
    fixture MHS, on one seeded non-MHS structure and on one structure that
    fails Situation A'; `check` on two seeded ODP models and on the two
    degeneration fixtures; and `verify-identities --max-n 8 --workers 2`,
    in seeded order.  Inputs are JSON files written during set-up.
    """

    name = "cli-mixed"
    setup_rounds = 10
    # above p80 sit each round's slowest invocation and verify-identities,
    # whose p88 and p90 readings spread 15 to 23% across seeds
    tail_percentile = 80

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.fixture_dir = root / "src" / "lmhs" / "fixtures"
        self.elliptic = load_fixture(root, "elliptic.json")
        self.odp_m3_expect = odp_m3_expectation()
        self.out_dir = out_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.command = [sys.executable, "-m", "lmhs.cli"]

    def setup(self, seed: int):
        self.dir = self.out_dir / f"cli-mixed-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        super().setup(seed)

    def _write(self, name: str, blob: dict) -> str:
        path = self.dir / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        return str(path)

    def round(self, r: int) -> list[Item]:
        rng = self.rng
        fixtures = self.fixture_dir
        items = []
        for i in range(5):
            data, expected = mhs.random_polarized_mhs(rng, max_dim=3, max_d=2)
            path = self._write(f"orbit-{r}-{i}.json", data.to_json())
            nearby = nearby_from_primitive(data.d, expected)
            items.append(Item("orbit", ["orbit", path], {"exit": 0, "nearby": nearby},
                              f"n{data.ambient_dim}-d{data.d}"))
        fixture = "elliptic.json" if r % 2 == 0 else "tate3.json"
        items.append(Item("orbit", ["orbit", str(fixtures / fixture)],
                          {"exit": 0, "fixture": fixture}, fixture))
        path = self._write(f"nonmhs-{r}.json", non_mhs_elliptic(rng, self.elliptic))
        items.append(Item("orbit", ["orbit", path], {"exit": 2}, "non-mhs"))
        items.append(Item("orbit", ["orbit", str(fixtures / "kodaira_mhs.json")],
                          {"exit": 2, "failure": "W != W(N,1)"}, "kodaira_mhs.json"))
        for m in (3, 4):
            res = random_resolution(rng, m, 2, rng.randrange(0, 3), rng.randrange(0, 4))
            path = self._write(f"odp-{r}-{m}.json", geomodels.odp_semistable_model(res).to_json())
            want = signature_rows(odp_index_formula(OdpInput.from_resolution(res)))
            items.append(Item("check", ["check", path], {"exit": 0, "signature": want},
                              resolution_tag(res)))
        items.append(Item("check", ["check", str(fixtures / "odp_m3.json")],
                          {"exit": 0, "signature": self.odp_m3_expect}, "odp_m3.json"))
        items.append(Item("check", ["check", str(fixtures / "kodaira.json")],
                          {"exit": 2, "kodaira": True}, "kodaira.json"))
        items.append(Item("verify_identities",
                          ["verify-identities", "--max-n", "8", "--workers", "2"],
                          {"exit": 0, "checked": sum(n + 2 for n in range(1, 9))}, "max-n-8"))
        rng.shuffle(items)
        return items

    def run(self, item: Item, command=None):
        """Run one invocation to completion; returns exit code and stdout."""
        proc = subprocess.run(
            (command or self.command) + item.payload + ["--format", "json"],
            cwd=self.root, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S,
        )
        return {"exit": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace")}

    def grade(self, item: Item, answer) -> str:
        want = item.expect
        code = answer["exit"]
        if code != want["exit"]:
            # 0 and 2 are verdicts, so the wrong one contradicts the expectation
            return WRONG if code in (0, 2) else FAILED
        try:
            report = json.loads(answer["stdout"])
        except json.JSONDecodeError:
            return FAILED
        if item.kind == "orbit":
            if want["exit"] == 2:
                good = report.get("verdict") is False
                if "failure" in want:
                    good = good and any(want["failure"] in f for f in report.get("failures", []))
            elif "nearby" in want:
                good = (report["verdict"] is True and report["polarized"] is True
                        and report["nearby"] == want["nearby"]
                        and report["pieces"] == want["nearby"])
            elif want["fixture"] == "elliptic.json":
                good = (report["verdict"] is True and report["polarized"] is True
                        and report["levels"]["1"] == [1, 0])
            else:
                good = (report["verdict"] is True and report["polarized"] is False
                        and report["levels"]["1"] == [1, 1])
        elif item.kind == "check":
            if want.get("kodaira"):
                good = kodaira_verdict_ok(report)
            else:
                good = index_ok(report, want["signature"])
        else:
            good = (report["verdict"] is True and report["checked"] == want["checked"]
                    and report["failures"] == [])
        return OK if good else WRONG


WORKLOADS = {cls.name: cls for cls in (OrbitRandom, DegenOdp, CliMixed)}
