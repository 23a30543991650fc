"""Output checks: recorded CSV digests and the README's metric conventions.

A speed-up must leave every CSV byte unchanged, so each check-size output
is compared with a SHA-256 digest recorded in ``digests.json``.  The
conventions hold on every output, whatever the seed:

* per UE, ``throughput <= attempts_share`` (a delivery needs an attempt);
* per run, the ``attempts_share`` column sums to at most 1;
* ``avg_aoi >= 1`` on AoI UEs and ``avg_latency >= 1`` on latency UEs.

An AoI UE's ``avg_latency`` below 1 is a known defect of the metric
definition; it is counted (``aoi_latency_below_1``), not failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from aoisched import metrics

DIGESTS = Path(__file__).with_name("digests.json")
# Slack for the attempts_share sum: each share is attempts/horizon rounded once.
SHARE_SLACK = 1e-9


def run_csv(report: metrics.RunReport) -> bytes:
    """The bytes ``aoisched run`` writes for this report."""
    run_id = f"{report.policy}-h{report.horizon}-s{report.seed}"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(metrics.CSV_COLUMNS)
    writer.writerows(metrics.report_rows(report, run_id))
    return buf.getvalue().encode()


def _num(cell: str | None) -> float | None:
    return float(cell) if cell else None


def convention_failures(data: bytes, classes: dict[str, str] | None = None) -> list[str]:
    """Every convention the CSV breaks, as text; empty when it holds.

    ``classes`` maps ``ue_id`` to class for CSVs without a ``class`` column
    (the ``reproduce`` output).
    """
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    failures = []
    share_sums: dict[str, float] = {}
    for n, row in enumerate(rows, start=2):
        if row.get("row_type", "ue") != "ue":
            continue
        where = f"line {n} ue {row['ue_id']}"
        cls = row.get("class") or (classes or {}).get(row["ue_id"])
        thr, share = _num(row.get("throughput")), _num(row.get("attempts_share"))
        if thr is not None and share is not None:
            if thr > share:
                failures.append(f"{where}: throughput {thr!r} > attempts_share {share!r}")
            share_sums[row["run_id"]] = share_sums.get(row["run_id"], 0.0) + share
        aoi, lat = _num(row.get("avg_aoi")), _num(row.get("avg_latency"))
        if cls == "aoi" and aoi is not None and aoi < 1.0:
            failures.append(f"{where}: aoi ue avg_aoi {aoi!r} < 1")
        if cls == "latency" and lat is not None and lat < 1.0:
            failures.append(f"{where}: latency ue avg_latency {lat!r} < 1")
    for run, total in share_sums.items():
        if total > 1.0 + SHARE_SLACK:
            failures.append(f"run {run}: attempts_share sums to {total!r} > 1")
    return failures


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest_failures(data: bytes, recorded: str | None) -> list[str]:
    if recorded is None:
        return ["no digest recorded"]
    got = digest(data)
    return [] if got == recorded else [f"CSV digest {got[:12]} != recorded {recorded[:12]}"]
