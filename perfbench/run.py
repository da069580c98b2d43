"""One-command benchmark of full savi rounds on ristretto255.

    python3 perfbench/run.py --workload proof_heavy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program under test is ``src/savi``,
driven only through its public harness API: ``Simulation(cfg)``, then
``run_round``.  Every round is checked against an oracle that recomputes
the expected aggregate from the public update generator.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are also written to ``perfbench/traces``).
The metric names and units are those of ``BENCHMARK.json``; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes.util
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-ups measured per run; setup_s is their median.
SETUPS = 15

# Client methods with per-layer metrics; the flag-settling ones never run
# on these workloads.
CLIENT_STAGES = ("commit_round", "verify_shares", "proof_round", "aggregate_round")
REJECT_REASONS = (
    "malformed",
    "consistency",
    "wellformed",
    "square",
    "range_ip",
    "sum_structure",
    "range_sum",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "savi" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no savi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SHAPES

    if args.workload not in SHAPES:
        print(f"error: unknown workload {args.workload!r}; have {sorted(SHAPES)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    bench = Bench(args.workload, args.seed, args.seconds)
    metrics = bench.traced() if args.trace else bench.untraced()

    if set(metrics) != set(wanted):
        print(
            "error: computed metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(metrics))}, extra {sorted(set(metrics) - set(wanted))}",
            file=sys.stderr,
        )
        return 1
    for note in bench.notes:
        print(f"# {note}")
    for name, unit in wanted.items():
        print(f"{name} = {metrics[name]} {unit}")
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in wanted.items()},
            }
        )
    )
    return 0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        from workloads import SHAPES, make_config

        self.workload = workload
        self.seconds = seconds
        self.cfg = make_config(SHAPES[workload], seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None  # set while traced rounds run
        self.notes = [
            f"workload={workload} seed={seed} seconds={seconds} nproc={os.cpu_count()} "
            f"python={platform.python_version()} libsodium={ctypes.util.find_library('sodium')}"
        ]

    # -- pieces shared by both modes -----------------------------------------

    def _warm_up(self) -> None:
        """Load libsodium and run every code path once, untimed."""
        from savi.harness import Simulation
        from workloads import WARMUP_SHAPE, make_config

        Simulation(make_config(WARMUP_SHAPE, self.cfg.seed)).run_round(1)

    def _play(self, sim, meter, round_no: int):
        """Run and check one round; returns (seconds, report) or None."""
        from workloads import oracle_failures

        self.attempted += 1
        meter.round_no = round_no
        if self.tracer is not None:
            self.tracer.round_no = round_no
        gc.collect()
        start = perf_counter()
        try:
            report = sim.run_round(round_no)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.problems.append(f"round {round_no} raised")
            return None
        elapsed = perf_counter() - start
        problems = oracle_failures(self.cfg, round_no, report)
        if problems:
            self.failed += 1
            self.problems += [f"round {round_no}: {p}" for p in problems]
            print(f"round {round_no} incorrect: {problems}", file=sys.stderr)
        return elapsed, report

    def _rounds(self, sim, meter, deadline: float, last: float = 0.0):
        """Play rounds while at least half a round's time is left."""
        played = []
        round_no = 1
        while not played or perf_counter() + 0.5 * last <= deadline:
            outcome = self._play(sim, meter, round_no)
            if outcome is None:
                break
            played.append((round_no, *outcome))
            last = outcome[0]
            round_no += 1
        if not played:
            raise SystemExit("no round completed")
        return played

    # -- end-to-end run --------------------------------------------------------

    def untraced(self) -> dict[str, float]:
        from savi.harness import Simulation
        from workloads import PartyMeter

        self._warm_up()
        setups = []
        for _ in range(SETUPS):
            gc.collect()
            start = perf_counter()
            sim = Simulation(self.cfg)
            setups.append(perf_counter() - start)
        meter = PartyMeter()
        meter.attach(sim)
        played = self._rounds(sim, meter, perf_counter() + self.seconds)

        samples: dict[str, list[float]] = {k: [] for k in ("round_s", "round_latency_s", "server_s", "client_cp_s")}
        uplink = 0
        for round_no, secs, report in played:
            party = meter.round_summary(round_no)
            samples["round_s"].append(secs)
            samples["server_s"].append(party["server_s"])
            samples["client_cp_s"].append(party["client_cp_s"])
            samples["round_latency_s"].append(party["server_s"] + party["client_cp_s"])
            uplink = max(uplink, *report.bytes_sent.values())
        for name, values in samples.items():
            self.notes.append(f"{name}: median {statistics.median(values):.4f} s, max {max(values):.4f} s, {len(values)} rounds")
        self.notes.append(f"setup_s: median {statistics.median(setups):.4f} s, max {max(setups):.4f} s, {len(setups)} set-ups")

        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["setup_s"] = statistics.median(setups)
        metrics["uplink_bytes"] = uplink
        metrics["round_ok_rate"] = 1.0 - self.failed / self.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics

    # -- per-layer run ---------------------------------------------------------

    def traced(self) -> dict[str, float]:
        """Round 1 once untraced, then traced rounds on a fresh deployment.

        Both deployments share the seed, so the first traced round repeats
        the untraced one exactly: their op counts must agree, and their
        time difference is the tracing overhead.
        """
        from savi.harness import Simulation
        from spans import Tracer
        from workloads import PartyMeter

        self._warm_up()
        deadline = perf_counter() + self.seconds
        plain_meter = PartyMeter()
        sim = Simulation(self.cfg)
        plain_meter.attach(sim)
        outcome = self._play(sim, plain_meter, 1)
        if outcome is None:
            raise SystemExit("round 1 did not complete")
        plain_s = outcome[0]
        del sim

        tracer = self.tracer = Tracer()
        meter = PartyMeter()
        tracer.install()
        try:
            sim = Simulation(self.cfg)
            meter.attach(sim, wrap=tracer.wrap)
            played = self._rounds(sim, meter, deadline, last=plain_s)
        finally:
            tracer.uninstall()
            self.tracer = None

        if meter.op_counts(1) != plain_meter.op_counts(1):
            self.problems.append("op counts of a repeated round differ")
            print("op counts differ between an untraced and a traced run of round 1", file=sys.stderr)

        (HERE / "traces").mkdir(exist_ok=True)
        tracer.write(HERE / "traces" / f"{self.workload}.spans.tsv")
        totals = tracer.totals()
        per_round = [layer_metrics(totals[r], meter, r, secs) for r, secs, _ in played]
        # median_low keeps each value one that a round actually produced.
        metrics = {
            name: statistics.median_low(m[name] for m in per_round) for name in per_round[0]
        }
        metrics.update(setup_metrics(totals[0]))
        metrics["harness.rounds"] = len(played)
        metrics["harness.trace_overhead_s"] = played[0][1] - plain_s
        metrics["round_fail_rate"] = self.failed / self.attempted
        self.notes.append(
            f"tracing overhead on round 1: {played[0][1] - plain_s:.4f} s "
            f"({played[0][1]:.4f} s traced, {plain_s:.4f} s untraced)"
        )
        return metrics


def _entry(totals: dict, name: str) -> dict:
    return totals.get(name, {"calls": 0, "self": 0.0, "total": 0.0, "notes": []})


def layer_metrics(totals: dict, meter, round_no: int, round_s: float) -> dict[str, float]:
    """Per-layer values of one traced round.

    ``protocol.*.s`` is the inclusive time of a party method (max over
    clients for client methods); every other ``.s`` is self time.
    """
    from workloads import SERVER_METHODS

    out: dict[str, float] = {}
    per_method: dict[tuple[str, str], list[tuple[float, int, int, int]]] = {}
    for rnd, role, _, method, secs, mul, add, fh in meter.records:
        if rnd == round_no:
            per_method.setdefault((role, method), []).append((secs, mul, add, fh))
    for role, stages in (("client", CLIENT_STAGES), ("server", SERVER_METHODS)):
        for method in stages:
            rows = per_method.get((role, method), [(0.0, 0, 0, 0)])
            for i, suffix in enumerate(("s", "mul", "add", "from_hash")):
                out[f"protocol.{role}.{method}.{suffix}"] = max(row[i] for row in rows)

    def self_s(name: str) -> float:
        return _entry(totals, name)["self"]

    def calls(name: str) -> int:
        return _entry(totals, name)["calls"]

    for name in (
        "zkp.gen_integrity_proof",
        "zkp.ver_integrity_proof",
        "zkp.gen_range_proof",
        "zkp.ver_range_proof",
        "zkp.gen_prf_wf",
        "zkp.ver_prf_wf",
        "zkp.gen_prf_sq",
        "zkp.ver_prf_sq",
        "zkp.ver_crt.client",
        "zkp.ver_crt.server",
        "commit.commit_update",
        "commit.aggregate_commitments",
        "sampling.sample_matrix",
        "sampling.row_inner",
        "sampling.weighted_combination",
        "vsss.ss_share",
        "vsss.ss_verify",
        "vsss.ss_recover",
        "vsss.combine_check_strings",
        "pairwise.seal_share",
        "pairwise.open_share",
        "group.multiexp",
    ):
        out[f"{name}.s"] = self_s(name)
    for name in ("gen_range_proof", "ver_range_proof"):
        out[f"zkp.{name}.total_s"] = _entry(totals, f"zkp.{name}")["total"]
    out["zkp.gen_range_proof.slots"] = sum(_entry(totals, "zkp.gen_range_proof")["notes"])

    verdicts = _entry(totals, "zkp.ver_integrity_proof")["notes"]
    out["zkp.ver_integrity_proof.calls"] = len(verdicts)
    out["zkp.accepted"] = verdicts.count("accepted")
    for reason in REJECT_REASONS:
        out[f"zkp.reject.{reason}"] = verdicts.count(reason)
    out["zkp.accept_ratio"] = verdicts.count("accepted") / len(verdicts) if verdicts else 0.0

    # Rounds do no hash-to-group today; from_hash counts are per method
    # above and the set-up ones in setup_metrics.
    for op in ("mul", "add"):
        n = calls(f"group.{op}")
        out[f"group.{op}"] = n
        out[f"group.{op}.s"] = self_s(f"group.{op}")
        out[f"group.{op}.us"] = self_s(f"group.{op}") / n * 1e6 if n else 0.0
    out["group.multiexp.calls"] = calls("group.multiexp")
    out["group.multiexp.terms"] = sum(_entry(totals, "group.multiexp")["notes"])
    out["group.dlog.table_s"] = self_s("group.dlog.table")
    out["group.dlog.table_size"] = sum(_entry(totals, "group.dlog.table")["notes"])
    out["group.dlog.solve_s"] = self_s("group.dlog.solve")
    out["group.dlog.solves"] = calls("group.dlog.solve")

    out["sampling.sample_matrix.calls"] = calls("sampling.sample_matrix")
    out["vsss.ss_verify.calls"] = calls("vsss.ss_verify")
    out["pairwise.seal_share.calls"] = calls("pairwise.seal_share")
    out["pairwise.open_share.calls"] = calls("pairwise.open_share")
    out["serial.bundle_bytes"] = max(_entry(totals, "serial.bundle")["notes"], default=0)
    out["serial.proof_bytes"] = max(_entry(totals, "serial.proof")["notes"], default=0)

    out["harness.round_s"] = round_s
    out["harness.driver_s"] = round_s - meter.round_summary(round_no)["party_s"]
    return out


def setup_metrics(totals: dict) -> dict[str, float]:
    """Per-layer values of the traced ``Simulation(cfg)``."""
    return {
        "setup.s": _entry(totals, "harness.setup")["total"],
        "setup.group.from_hash": _entry(totals, "group.from_hash")["calls"],
        "setup.group.from_hash.s": _entry(totals, "group.from_hash")["self"],
        "setup.group.mul": _entry(totals, "group.mul")["calls"],
        "setup.group.mul.s": _entry(totals, "group.mul")["self"],
        "setup.pairwise.pairwise_key.s": _entry(totals, "pairwise.pairwise_key")["self"],
    }


if __name__ == "__main__":
    sys.exit(main())
