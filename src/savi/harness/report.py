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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

from ..sampling import CheckParameters
from ..zkp.transcript import DOMAIN
from .config import SimulationConfig
from .simulate import STAGES, RoundReport

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
    # params holds what the config leaves to derivation: M, b_max
    doc = {
        "config": asdict(config),
        "params": asdict(config.check_parameters()),
        "rounds": rows[:-1],
        "summary": rows[-1],
    }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return [csv_path, json_path]


_LOG_MAGIC = b"savi-messages\n"
_RECORD = struct.Struct("<BIII")  # kind, round, sender, payload length


@dataclass(frozen=True)
class LogHeader:
    """What a reader needs to decode a message log: the group backend
    the points belong to, the proof format (the transcript domain) and
    the check parameters every proof was made under."""

    backend: str
    domain: str
    params: CheckParameters


def emit_message_log(
    reports: Sequence[RoundReport], config: SimulationConfig, out_dir: str | Path
) -> Path:
    """Self-describing binary log, decodable without the config that
    produced it.  It opens with a ``LogHeader``: magic, u32 length, then
    the header as JSON.  Every client message follows, framed as
    (u8 kind, u32 round, u32 sender, u32 length, payload)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = config.check_parameters()
    header = json.dumps(
        {"backend": config.backend, "domain": DOMAIN, "params": asdict(params)},
        sort_keys=True,
    ).encode()
    path = out_dir / "messages.log"
    with open(path, "wb") as fh:
        fh.write(_LOG_MAGIC + struct.pack("<I", len(header)) + header)
        for rep in reports:
            for kind, sender, payload in rep.messages:
                fh.write(_RECORD.pack(kind, rep.round_no, sender, len(payload)))
                fh.write(payload)
    return path


def _read_header(fh) -> LogHeader:
    start = fh.read(len(_LOG_MAGIC) + 4)
    if len(start) != len(_LOG_MAGIC) + 4 or not start.startswith(_LOG_MAGIC):
        raise ValueError("not a savi message log: bad or truncated magic")
    (length,) = struct.unpack("<I", start[len(_LOG_MAGIC):])
    raw = fh.read(length)
    if len(raw) != length:
        raise ValueError("truncated message log header")
    try:
        doc = json.loads(raw)
        params = doc["params"]
        if set(params) != {f.name for f in fields(CheckParameters)}:
            raise ValueError("its params are not the fields of CheckParameters")
        header = LogHeader(doc["backend"], doc["domain"], CheckParameters(**params))
        if not (isinstance(header.backend, str) and isinstance(header.domain, str)):
            raise ValueError("backend and domain must be strings")
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"garbled message log header: {err}") from None
    return header


def parse_message_log(path: str | Path) -> tuple[LogHeader, list[tuple[int, int, int, bytes]]]:
    """The header and the (kind, round, sender, payload) records of a
    message log.  A truncated or garbled log raises ``ValueError``."""
    records = []
    with open(path, "rb") as fh:
        header = _read_header(fh)
        frame = fh.read(_RECORD.size)
        while frame:
            if len(frame) != _RECORD.size:
                raise ValueError("truncated message log record")
            kind, round_no, sender, length = _RECORD.unpack(frame)
            payload = fh.read(length)
            if len(payload) != length:
                raise ValueError("truncated message log payload")
            records.append((kind, round_no, sender, payload))
            frame = fh.read(_RECORD.size)
    return header, records
