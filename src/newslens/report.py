"""Write run outputs: report.json, per-series CSVs, SVG charts, manifest.

The manifest lists every written file with its sha256 and size, so two
runs can be compared by hash alone.  Runtime lives only in the manifest;
report.json stays byte-identical across reruns of the same config.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
from datetime import timedelta
from pathlib import Path

from .charts import line_chart, radar_chart
from .pipeline import ReportBundle
from .series import DatedSeries

__all__ = ["emit_outputs"]

log = logging.getLogger(__name__)


def _slug(name: str) -> str:
    s = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_").lower()
    return s or "outlet"


def _write_series_csv(path: Path, columns: list[DatedSeries]) -> None:
    start = min(s.start for s in columns)
    end = max(s.end for s in columns)
    n = (end - start).days + 1
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["date"] + [s.label or f"col{i}" for i, s in enumerate(columns)])
        for i in range(n):
            day = start + timedelta(days=i)
            row: list[str] = [day.isoformat()]
            for s in columns:
                off = (day - s.start).days
                row.append(repr(float(s.values[off])) if 0 <= off < len(s) else "")
            w.writerow(row)


def emit_outputs(bundle: ReportBundle, out_dir) -> dict:
    """Write all outputs under ``out_dir`` and return the manifest dict.

    On any write failure the files created so far are removed before the
    error propagates, so a partial output tree is never left behind.
    """
    out = Path(out_dir)
    written: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "series").mkdir(exist_ok=True)
        (out / "charts").mkdir(exist_ok=True)

        report_path = out / "report.json"
        report_path.write_text(
            json.dumps(bundle.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        written.append(report_path)

        state = bundle.state
        if state.spread is not None:
            p = out / "series" / "spread.csv"
            _write_series_csv(p, [state.spread])
            written.append(p)
            p = out / "charts" / "spread.svg"
            p.write_text(
                line_chart([state.spread], "Poll spread (A - B)", y_label="points"),
                encoding="utf-8",
            )
            written.append(p)

        for name in sorted(state.outlets):
            res = state.outlets[name]
            tag = _slug(name)

            if res.mention_series:
                cols = [res.mention_series[k] for k in sorted(res.mention_series)]
                p = out / "series" / f"mentions_{tag}.csv"
                _write_series_csv(p, cols)
                written.append(p)
                p = out / "charts" / f"mentions_{tag}.svg"
                p.write_text(
                    line_chart(cols, f"Daily entity mentions: {name}", y_label="sentences"),
                    encoding="utf-8",
                )
                written.append(p)

            if res.coverage is not None:
                p = out / "series" / f"coverage_{tag}.csv"
                _write_series_csv(p, list(res.coverage.topics))
                written.append(p)
                p = out / "charts" / f"coverage_{tag}.svg"
                p.write_text(
                    line_chart(
                        list(res.coverage.topics),
                        f"Topic coverage: {name}",
                        y_label=res.coverage.mode,
                    ),
                    encoding="utf-8",
                )
                written.append(p)

            if res.agenda is not None and len(res.agenda) >= 2:
                labels = [f"topic {i}" for i in res.coverage.topic_ids]
                p = out / "charts" / f"agenda_{tag}.svg"
                p.write_text(
                    radar_chart(labels, res.agenda, f"Agenda profile: {name}"),
                    encoding="utf-8",
                )
                written.append(p)

            if res.sb_daily is not None:
                p = out / "series" / f"sentiment_bias_{tag}.csv"
                _write_series_csv(p, [res.sb_daily])
                written.append(p)
                p = out / "charts" / f"sentiment_bias_{tag}.svg"
                p.write_text(
                    line_chart([res.sb_daily], f"Sentiment bias: {name}", y_label="bias"),
                    encoding="utf-8",
                )
                written.append(p)

        manifest = {
            "files": [
                {
                    "path": str(p.relative_to(out)),
                    "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                    "bytes": p.stat().st_size,
                }
                for p in sorted(written)
            ],
            "runtime_seconds": bundle.runtime_seconds,
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        return manifest
    except Exception:
        for p in written:
            try:
                p.unlink()
            except OSError:
                log.warning("could not remove partial output %s", p)
        raise
