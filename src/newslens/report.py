"""Write run outputs: report.json, per-series CSVs, SVG charts, manifest.

The manifest lists every written file with its sha256 and size, so two
runs can be compared by hash alone.  Runtime lives only in the manifest;
report.json stays byte-identical across reruns of the same config.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
from datetime import timedelta
from pathlib import Path

from .charts import line_chart, radar_chart
from .config import outlet_slug
from .pipeline import ReportBundle
from .series import DatedSeries

__all__ = ["emit_outputs"]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(columns: list[DatedSeries]) -> str:
    start = min(s.start for s in columns)
    end = max(s.end for s in columns)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["date"] + [s.label or f"col{i}" for i, s in enumerate(columns)])
    for i in range((end - start).days + 1):
        day = start + timedelta(days=i)
        row: list[str] = [day.isoformat()]
        for s in columns:
            off = (day - s.start).days
            row.append(repr(float(s.values[off])) if 0 <= off < len(s) else "")
        w.writerow(row)
    return buf.getvalue()


def _render(bundle: ReportBundle) -> dict[str, str]:
    """Each output file's path, relative to the output directory, and its text."""
    files = {"report.json": _json_text(bundle.to_dict())}
    state = bundle.state
    # (file stem, columns, chart title, y label): one CSV and one line chart each
    table: list[tuple[str, list[DatedSeries], str, str]] = []
    if state.spread is not None:
        table.append(("spread", [state.spread], "Poll spread (A - B)", "points"))
    for name in sorted(state.outlets):
        res = state.outlets[name]
        tag = outlet_slug(name)
        if res.mention_series:
            cols = [res.mention_series[k] for k in sorted(res.mention_series)]
            table.append((f"mentions_{tag}", cols, f"Daily entity mentions: {name}", "sentences"))
        if res.coverage is not None:
            cols = list(res.coverage.topics)
            table.append((f"coverage_{tag}", cols, f"Topic coverage: {name}", res.coverage.mode))
            if res.agenda is not None and len(res.agenda) >= 2:
                labels = [f"topic {i}" for i in res.coverage.topic_ids]
                files[f"charts/agenda_{tag}.svg"] = radar_chart(
                    labels, res.agenda, f"Agenda profile: {name}"
                )
        if res.sb_daily is not None:
            cols = [res.sb_daily]
            table.append((f"sentiment_bias_{tag}", cols, f"Sentiment bias: {name}", "bias"))
    for stem, cols, title, y_label in table:
        files[f"series/{stem}.csv"] = _csv_text(cols)
        files[f"charts/{stem}.svg"] = line_chart(cols, title, y_label=y_label)
    return files


def emit_outputs(bundle: ReportBundle, out_dir) -> dict:
    """Write all outputs under ``out_dir`` and return the manifest dict.

    Every file is rendered in memory first, so a failure to render one
    (a chart error, a non-finite value) writes nothing.  The files are
    then written into a staging directory inside ``out_dir`` and moved
    into place one by one, ``manifest.json`` last.  Other files in
    ``out_dir`` are left alone.
    """
    files = {path: text.encode("utf-8") for path, text in _render(bundle).items()}
    manifest = {
        "files": [
            {"path": path, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            for path, data in sorted(files.items())
        ],
        "runtime_seconds": bundle.runtime_seconds,
    }
    files["manifest.json"] = _json_text(manifest).encode("utf-8")

    out = Path(out_dir)
    for sub in ("series", "charts"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".emit-", dir=out))
    try:
        for sub in ("series", "charts"):
            (staging / sub).mkdir()
        for path, data in files.items():
            (staging / path).write_bytes(data)
        for path in files:
            os.replace(staging / path, out / path)
    finally:
        shutil.rmtree(staging)
    return manifest
