"""Round reports to CSV and JSON with a stable column order, and the
message log of every client message.

Both report files serialize the same row dictionaries, so a JSON record
and its CSV line always agree field for field (CSV stringifies, JSON
keeps types).  The final row holds means of the numeric columns.  The
message log is the one record of a round's traffic: the byte columns of
the report are sums over its payloads.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, Sequence

from .config import SimulationConfig
from .simulate import RoundReport

STAGES = (
    "commit",
    "share_verify",
    "flag_resolution",
    "server_prep",
    "proof_gen",
    "proof_ver",
    "aggregate",
)

_NUMERIC = (
    ["n_honest", "n_excluded", "aggregate_ok"]
    + [f"t_{s}_s" for s in STAGES]
    + ["bytes_total", "bytes_mean_per_client", "bytes_max_per_client", "ops_mul", "ops_add"]
)

COLUMNS = (
    ["round", "n_honest", "n_excluded", "honest", "excluded", "proof_failures",
     "clear_share_requests", "honest_dropouts", "aggregate_ok"]
    + [f"t_{s}_s" for s in STAGES]
    + ["bytes_total", "bytes_mean_per_client", "bytes_max_per_client", "ops_mul", "ops_add"]
)


def _join_map(d: dict, sep: str = ";") -> str:
    return sep.join(f"{k}:{v}" for k, v in sorted(d.items()))


def report_row(rep: RoundReport) -> dict:
    sent = rep.bytes_sent.values()
    mul = sum(ops.get("mul", 0) for ops in rep.group_ops.values())
    add = sum(ops.get("add", 0) for ops in rep.group_ops.values())
    row: dict = {
        "round": rep.round_no,
        "n_honest": len(rep.honest),
        "n_excluded": len(rep.excluded),
        "honest": ";".join(str(i) for i in rep.honest),
        "excluded": _join_map(rep.excluded),
        "proof_failures": _join_map(rep.proof_reasons),
        "clear_share_requests": _join_map(
            {t: "|".join(map(str, fl)) for t, fl in rep.clear_share_requests.items()}
        ),
        "honest_dropouts": ";".join(str(i) for i in rep.honest_dropouts),
        "aggregate_ok": int(rep.aggregate_ok),
    }
    for stage in STAGES:
        row[f"t_{stage}_s"] = round(rep.timings_s.get(stage, 0.0), 6)
    row["bytes_total"] = sum(sent)
    row["bytes_mean_per_client"] = round(sum(sent) / max(len(sent), 1), 1)
    row["bytes_max_per_client"] = max(sent, default=0)
    row["ops_mul"] = mul
    row["ops_add"] = add
    return row


def summary_row(rows: Sequence[dict]) -> dict:
    out = dict.fromkeys(COLUMNS, "")
    out["round"] = "mean"
    for col in _NUMERIC:
        out[col] = round(sum(r[col] for r in rows) / max(len(rows), 1), 6)
    return out


def emit_report(
    reports: Sequence[RoundReport], config: SimulationConfig, out_dir: str | Path
) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [report_row(r) for r in reports]
    rows.append(summary_row(rows))
    csv_path = out_dir / "simulation.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    json_path = out_dir / "simulation.json"
    doc = {"config": _config_doc(config), "rounds": rows[:-1], "summary": rows[-1]}
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return [csv_path, json_path]


def emit_message_log(
    reports: Sequence[RoundReport], out_dir: str | Path
) -> Path:
    """Self-describing binary log: every client message framed as
    (u8 kind, u32 round, u32 sender, u32 length, payload), replayable
    without the config that produced it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "messages.log"
    with open(path, "wb") as fh:
        for rep in reports:
            for kind, sender, payload in rep.messages:
                fh.write(struct.pack("<BIII", kind, rep.round_no, sender, len(payload)))
                fh.write(payload)
    return path


def parse_message_log(path: str | Path) -> Iterator[tuple[int, int, int, bytes]]:
    """Yield (kind, round, sender, payload) records from a message log."""
    with open(path, "rb") as fh:
        header = fh.read(13)
        while header:
            if len(header) != 13:
                raise ValueError("truncated message log header")
            kind, round_no, sender, length = struct.unpack("<BIII", header)
            payload = fh.read(length)
            if len(payload) != length:
                raise ValueError("truncated message log payload")
            yield kind, round_no, sender, payload
            header = fh.read(13)


def _config_doc(config: SimulationConfig) -> dict:
    doc = asdict(config)
    doc["attack"] = asdict(config.attack)
    doc["attack"]["malicious_ids"] = list(config.attack.malicious_ids)
    return doc
