"""The lmhs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
``src/``, nothing is installed.  With ``--trace 0`` it measures the workload
for S seconds and reports the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` it runs every item once untraced and once traced, checks
that both give the same answer, and reports the per-layer metrics.  The last
line of stdout is the result as one JSON object; the line before it is the
run record.  Both, the per-item times and the spans of a traced run are also
written under ``.perfbench-out/``.

Noise control: this VM's speed drifts by tens of percent over seconds.  The
reference workload in reference.py is timed before and after every item
(in-process for library items, as a subprocess for command-line items) and
the item's time is rescaled to a machine on which the reference takes its
nominal time: seconds stay the unit, and a slow spell slows the item and
the reference alike.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_loop
from tracer import Tracer

SETUP_REPEATS = 5
OUT_DIR = ".perfbench-out"
HERE = Path(__file__).resolve().parent
# Reference readings on the unloaded 2-core Xeon VM the benchmark was tuned
# on: the median of three in-process loops, and one `python3 reference.py`.
NOMINAL_S = {"in-process": 0.006, "subprocess": 0.065}


class ReferenceClock:
    """Readings of the reference workload, in-process or as a subprocess."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        self.readings: list[float] = []

    def read(self) -> float:
        if self.kind == "subprocess":
            t = time.perf_counter()
            subprocess.run([sys.executable, str(HERE / "reference.py")], check=True)
            reading = time.perf_counter() - t
        else:
            times = []
            for _ in range(3):
                t = time.perf_counter()
                reference_loop()
                times.append(time.perf_counter() - t)
            reading = statistics.median(times)
        self.readings.append(reading)
        return reading

    def timed(self, fn, *args):
        """Run fn between two readings; returns (result, wall seconds,
        seconds rescaled to the nominal reference speed)."""
        before = self.readings[-1] if self.readings else self.read()
        t = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t
        after = self.read()
        return result, wall, wall * self.nominal / ((before + after) / 2)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nearest_rank(xs: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond."""
    ordered = sorted(xs)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def guarded(fn, *args):
    """Call fn; a crash becomes an answer (a failed item), not a benchmark error."""
    try:
        return fn(*args)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


class Runner:
    def __init__(self, args, root: Path, workloads):
        self.args = args
        self.root = root
        self.workloads = workloads  # the module: workload classes, status values
        self.out_dir = root / OUT_DIR
        self.out_dir.mkdir(exist_ok=True)
        self.workload = workloads.WORKLOADS[args.workload](root, self.out_dir)
        self.is_cli = args.workload == "cli-mixed"
        self.trace = args.trace == 1
        self.tracer = Tracer() if self.trace else None
        self.setup_tracer = Tracer() if self.trace else None
        # set-up runs in-process; cli-mixed items run as subprocesses
        self.setup_clock = ReferenceClock("in-process")
        self.clock = ReferenceClock("subprocess" if self.is_cli else "in-process")
        self.items: list[dict] = []
        self.answers_differ = 0
        self.overhead = [0.0, 0.0]  # untraced, traced seconds over the same items
        self.cli = {"walls": {}, "startup": [], "stdout_bytes": [],
                    "lib_s": 0.0, "cli_s": 0.0, "orb_inits": 0, "orb_calls": 0}

    # -- set-up --

    def setup(self) -> list[float]:
        """Set up SETUP_REPEATS times (the last one traced in trace mode);
        returns the rescaled time of each."""
        times = []
        for i in range(SETUP_REPEATS):
            traced = self.trace and i == SETUP_REPEATS - 1
            if traced:
                self.setup_tracer.install()
            try:
                _, _, scaled = self.setup_clock.timed(self.workload.setup, self.args.seed)
            finally:
                if traced:
                    self.setup_tracer.uninstall()
            times.append(scaled)
        return times

    # -- one item --

    def _cli_entry(self, item, traced: bool):
        """Run a cli-mixed item through cli_entry.py; returns its answer and
        wall time, and collects the child's timings and spans."""
        report = self.out_dir / f"cli-entry-{os.getpid()}.json"
        if report.exists():
            report.unlink()
        command = [sys.executable, str(HERE / "cli_entry.py"), str(report), "1" if traced else "0"]
        t = time.perf_counter()
        answer = guarded(self.workload.run, item, command)
        wall = time.perf_counter() - t
        if not report.exists():
            return answer, wall
        expect_pass = item.kind == "orbit" and item.expect["exit"] == 0
        if traced:
            before = len(self.tracer.spans)
            self.tracer.load(str(report))
            if expect_pass:
                self.cli["orb_inits"] += sum(
                    1 for s in self.tracer.spans[before:] if s[0] == "orbit.orbit_filtration")
                self.cli["orb_calls"] += 1
        else:
            with open(report, encoding="utf-8") as fh:
                self.cli["startup"].append(wall - json.load(fh)["main_s"])
            self.cli["walls"].setdefault(item.kind, []).append(wall)
            self.cli["stdout_bytes"].append(len(answer.get("stdout", "")))
            if expect_pass:
                self._library_orbit_time(item, wall)
        report.unlink()
        return answer, wall

    def _library_orbit_time(self, item, cli_wall: float):
        """Time the library call behind an `lmhs orbit` invocation."""
        from lmhs import orbit
        from lmhs.mhs import MHSData

        with open(item.payload[1], encoding="utf-8") as fh:
            data = MHSData.from_json(json.load(fh))
        t = time.perf_counter()
        orbit.verify_main_theorem(data)
        self.cli["lib_s"] += time.perf_counter() - t
        self.cli["cli_s"] += cli_wall

    def _library(self, item, traced: bool):
        if traced:
            self.tracer.install()
        t = time.perf_counter()
        try:
            answer = guarded(self.workload.run, item)
        finally:
            wall = time.perf_counter() - t
            if traced:
                self.tracer.uninstall()
        return answer, wall

    def _traced_pair(self, item, index):
        """Untraced and traced runs of one item, alternating which goes first."""
        run = self._cli_entry if self.is_cli else self._library
        out = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            out[traced] = run(item, traced)
        (plain, wall), (traced_answer, traced_wall) = out[False], out[True]
        if plain != traced_answer:
            self.answers_differ += 1
        self.overhead[0] += wall
        self.overhead[1] += traced_wall
        return plain

    def run_item(self, item, index):
        if self.trace:
            answer, wall, scaled = self.clock.timed(self._traced_pair, item, index)
        else:
            answer, wall, scaled = self.clock.timed(guarded, self.workload.run, item)
        status = self.workloads.FAILED if "error" in answer else self.workload.grade(item, answer)
        self.items.append({"kind": item.kind, "tag": item.tag, "wall_s": wall,
                           "s": scaled, "status": status})

    # -- measurement --

    def measure(self, seconds: float, max_items: int | None) -> float:
        """Run whole units (rounds, or single items of a stream) until the
        deadline has passed or max_items items have run."""
        start = time.perf_counter()
        deadline = start + seconds
        for unit in self.workload.units():
            if time.perf_counter() >= deadline or (max_items and len(self.items) >= max_items):
                break
            for item in unit:
                self.run_item(item, len(self.items))
        return time.perf_counter() - start

    # -- metrics --

    def end_to_end(self, setup_times) -> dict:
        times = [it["s"] for it in self.items]
        ok = sum(1 for it in self.items if it["status"] == self.workloads.OK)
        pct = self.workload.tail_percentile
        tail, beyond = nearest_rank(times, pct)
        self.record["latency_tail"] = {"percentile": pct, "samples": len(times),
                                       "samples_beyond": beyond}
        return {
            "items_per_s": ok / sum(times),
            "latency_p50_s": statistics.median(times),
            "latency_tail_s": tail,
            "verified_ratio": ok / len(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(self.is_cli),
        }

    def per_layer(self) -> dict:
        agg = self.tracer.aggregate()
        setup_agg = self.setup_tracer.aggregate()

        def get(name, field, table=agg):
            return table.get(name, {}).get(field, 0)

        m: dict = {}
        for fn in ("rref", "kernel", "solve", "matmul", "intersect", "poly_det",
                   "leading_minors", "hermitian_signature"):
            m[f"exactlin.{fn}.calls"] = get(f"exactlin.{fn}", "calls")
            m[f"exactlin.{fn}.self_s"] = get(f"exactlin.{fn}", "self_s")
        m["exactlin.max_rows"] = self.tracer.max_rows
        m["exactlin.max_bits"] = self.tracer.max_bits
        m["filtration.conj.calls"] = get("filtration.conj", "calls")
        m["filtration.weight_filtration.calls"] = get("filtration.weight_filtration", "calls")
        m["filtration.weight_filtration.self_s"] = get("filtration.weight_filtration", "self_s")
        for fn in ("check_mhs", "deligne_splitting", "signature_table", "situation"):
            m[f"mhs.{fn}.calls"] = get(f"mhs.{fn}", "calls")
            m[f"mhs.{fn}.self_s"] = get(f"mhs.{fn}", "self_s")
        theorems = get("orbit.verify_main_theorem", "calls")
        m["orbit.opposedness_polynomial.self_s"] = get("orbit.opposedness_polynomial", "self_s")
        for fn in ("orbit_filtration", "hermitian_matrix"):
            calls = get(f"orbit.{fn}", "calls")
            m[f"orbit.{fn}.calls_per_item"] = calls / theorems if theorems else 0
        evaluate = get("orbit.signature_evaluate", "calls")
        points = self.tracer.child_counts("orbit.signature_evaluate", "exactlin.hermitian_signature")
        m["orbit.signature_evaluate.self_s"] = get("orbit.signature_evaluate", "self_s")
        m["orbit.signature_evaluate.points_per_call"] = points / evaluate if evaluate else 0
        m["orbit.signature_asymptotic.self_s"] = get("orbit.signature_asymptotic", "self_s")
        m["orbit.refined_filtration_check.self_s"] = get("orbit.refined_filtration_check", "self_s")
        m["orbit.verify_main_theorem.calls"] = theorems
        m["orbit.verify_main_theorem.total_s"] = get("orbit.verify_main_theorem", "total_s")
        pages = get("steenbrink.e2_page", "calls")
        m["steenbrink.e2_page.calls"] = pages
        m["steenbrink.e2_page.self_s"] = get("steenbrink.e2_page", "self_s")
        m["steenbrink.e2_page.useful_ratio"] = self.tracer.e2_distinct() / pages if pages else 0
        for fn in ("validate", "weight_criterion", "e2_signature_table"):
            m[f"steenbrink.{fn}.calls"] = get(f"steenbrink.{fn}", "calls")
            m[f"steenbrink.{fn}.self_s"] = get(f"steenbrink.{fn}", "self_s")
        m["steenbrink.nearby_hodge_index.calls"] = get("steenbrink.nearby_hodge_index", "calls")
        m["steenbrink.nearby_hodge_index.total_s"] = get("steenbrink.nearby_hodge_index", "total_s")
        m["geomodels.odp_semistable_model.self_s"] = get(
            "geomodels.odp_semistable_model", "self_s", setup_agg)
        m["mhs.random_polarized_mhs.self_s"] = get("mhs.random_polarized_mhs", "self_s", setup_agg)
        cli = self.cli
        m["cli.startup_s"] = statistics.median(cli["startup"]) if cli["startup"] else 0
        for kind in ("orbit", "check", "verify_identities"):
            walls = cli["walls"].get(kind)
            m[f"cli.{kind}.p50_s"] = statistics.median(walls) if walls else 0
        m["cli.orbit.overhead_ratio"] = cli["cli_s"] / cli["lib_s"] if cli["lib_s"] else 0
        m["cli.orbit_filtration_per_invocation"] = (
            cli["orb_inits"] / cli["orb_calls"] if cli["orb_calls"] else 0)
        m["cli.json_codec.self_s"] = get("cli.json_codec", "self_s")
        m["cli.stdout_bytes"] = (statistics.mean(cli["stdout_bytes"])
                                 if cli["stdout_bytes"] else 0)
        m["machine.ref_s"] = statistics.median(self.setup_clock.readings)
        m["trace.overhead_ratio"] = self.overhead[1] / self.overhead[0]
        return m

    def stage_table(self) -> dict:
        """Calls, self and inclusive seconds of every traced span name."""
        return {
            name: {"calls": row["calls"], "self_s": round(row["self_s"], 4),
                   "total_s": round(row["total_s"], 4)}
            for name, row in sorted(self.tracer.aggregate().items())
        }

    def execute(self) -> dict:
        args = self.args
        self.record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "commit": git_commit(self.root),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        }
        setup_times = self.setup()
        measured = self.measure(args.seconds, args.max_items)
        statuses = [it["status"] for it in self.items]
        failed = sum(1 for s in statuses if s != self.workloads.OK)
        wrong = statuses.count(self.workloads.WRONG)
        by_kind: dict = {}
        for it in self.items:
            row = by_kind.setdefault(it["kind"], {"attempted": 0, "failed": 0})
            row["attempted"] += 1
            row["failed"] += it["status"] != self.workloads.OK
        self.record.update({
            "setup_runs_s": setup_times, "measured_s": measured, "items": len(self.items),
            "items_by_kind": by_kind, "failed": failed, "wrong_answers": wrong,
            "traced_answers_differ": self.answers_differ,
            "item_wall_s": sum(it["wall_s"] for it in self.items),
            "item_rescaled_s": sum(it["s"] for it in self.items),
            "reference": {
                clock.kind: {"nominal_s": clock.nominal,
                             "median_s": statistics.median(clock.readings),
                             "min_s": min(clock.readings), "max_s": max(clock.readings),
                             "readings": len(clock.readings)}
                for clock in (self.setup_clock, self.clock)
            },
        })
        if self.trace:
            metrics = self.per_layer()
            self.record["stages"] = self.stage_table()
        else:
            metrics = self.end_to_end(setup_times)
        return {"correct": wrong == 0 and self.answers_differ == 0,
                "attempted": len(self.items), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-items", type=int, default=None,
                        help="also stop after this many items (whole units)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "lmhs" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: run from the root of an lmhs checkout (src/lmhs and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    runner = Runner(args, root, workloads)
    result = runner.execute()
    listed = spec["per_layer"] if runner.trace else spec["end_to_end"]
    units = {row["name"]: row["unit"] for row in listed}
    if set(units) != set(result["metrics"]):
        raise AssertionError(
            f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(units)}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": units[name]}
                         for name in units}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if runner.trace:
        runner.tracer.dump(str(runner.out_dir / f"{stem}-spans.json"))
    with open(runner.out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": runner.record, "items": runner.items,
                   "reference_readings": runner.clock.readings, "result": result}, fh)
    print(json.dumps({"record": runner.record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
