"""Write run outputs: report.json, per-series CSVs, SVG charts, manifest.

``report_dict`` builds report.json's content from the result dataclasses;
README's key table lists every key it writes.  The manifest lists every written file with its sha256 and size, so two
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
from dataclasses import fields, is_dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .charts import line_chart, radar_chart
from .config import outlet_slug
from .pipeline import OutletResult, ReportBundle
from .sentiment import SbStatistic
from .series import DatedSeries
from .tsstats import GrangerResult

__all__ = ["emit_outputs", "report_dict"]

# Report key of each result field whose key is not its name; None leaves
# the field out.
_RESULT_KEYS = {"n_resamples": "resamples", "n_mentions": None, "seed": None}


def _record(obj, keys: dict[str, str | None]) -> dict:
    """A dataclass's fields, in field order, as report values under ``keys``.

    A field ``keys`` does not name is reported under the key its metadata
    gives as ``report``, else under its name.  Fields declared to hold
    paths are left out.
    """
    out = {}
    for f in fields(obj):
        key = keys.get(f.name, f.metadata.get("report") or f.name)
        if key is not None and "Path" not in str(f.type):
            out[key] = _value(getattr(obj, f.name))
    return out


def _value(v):
    """A result as JSON data: dataclasses become records, dates ISO text,
    and arrays and tuples lists."""
    if is_dataclass(v):
        return _record(v, _RESULT_KEYS)
    if isinstance(v, date):
        return v.isoformat()
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, (tuple, list)):
        return [_value(x) for x in v]
    return v


def _sb_record(sb: SbStatistic | None) -> dict | None:
    if sb is None:
        return None
    t = sb.tally
    return {
        "value": sb.value,
        "total": t.total,
        "counts": {
            t.label_a: {"positive": t.pos_a, "negative": t.neg_a, "neutral": t.neu_a},
            t.label_b: {"positive": t.pos_b, "negative": t.neg_b, "neutral": t.neu_b},
        },
    }


def _granger_record(g: GrangerResult) -> dict:
    return {
        **_value(g),
        "t_stat": g.t_stat if np.isfinite(g.t_stat) else None,
        "significant": g.significant,
    }


def _outlet_record(r: OutletResult) -> dict:
    fit = r.factors
    return {
        "articles": r.n_articles,
        "topics": {
            "keywords": r.keywords,
            "kept": _value(r.coverage.topic_ids) if r.coverage else [],
            "agenda": _value(r.agenda) if r.agenda is not None else [],
            "nmf_error": fit.final_error if fit else None,
            "nmf_iterations": fit.iterations if fit else None,
            "nmf_converged": fit.converged if fit else None,
            "coverage": _value(r.coverage.topics) if r.coverage else [],
        },
        "mentions": {
            "series": {k: _value(v) for k, v in sorted(r.mention_series.items())},
            "count": len(r.mentions),
        },
        "sentiment_bias": {
            "overall": _sb_record(r.sb_overall),
            "daily": _value(r.sb_daily),
            "per_topic": [_sb_record(s) for s in r.sb_by_topic],
            "bootstrap": _value(r.sb_bootstrap),
        },
        "correlations": {
            "mentions": {k: _value(v) for k, v in sorted(r.mention_correlations.items())},
            "topics": {str(k): _value(v) for k, v in sorted(r.topic_correlations.items())},
        },
        "granger": [_granger_record(g) for g in r.granger],
    }


def report_dict(bundle: ReportBundle) -> dict:
    """The content of report.json: versions, settings, polls and each outlet's results."""
    state = bundle.state
    return {
        "versions": {"newslens": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "rng": "numpy-pcg64",
        "settings": _record(state.config, {}),
        "polls": {"records": len(state.polls), "spread": _value(state.spread)},
        "outlets": {res.outlet: _outlet_record(res) for res in state.outlets.values()},
    }


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
    files = {"report.json": _json_text(report_dict(bundle))}
    state = bundle.state
    # (file stem, columns, chart title, y label): one CSV and one line chart each
    table: list[tuple[str, list[DatedSeries], str, str]] = []
    if state.spread is not None:
        table.append(("spread", [state.spread], "Poll spread (A - B)", "points"))
    for res in state.outlets.values():
        name, tag = res.outlet, outlet_slug(res.outlet)
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
