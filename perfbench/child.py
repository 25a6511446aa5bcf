"""One benchmark operation, in a fresh interpreter.

    python3 child.py JOB.json

The job names a config file, ``PipelineConfig`` overrides, an output
directory and where to write the result.  The child imports newslens,
parses the config (set-up ends here), then runs ``run_pipeline`` and
``emit_outputs`` and reports their wall time and its own peak RSS.  With
``setup_only`` it stops after the config; with ``trace`` it records spans
and derives the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _resamples(args, result) -> dict:
    return {"bootstrap.resamples_drawn": args["n_resamples"]}


# Counts taken at a layer boundary, from the call's arguments and result.
COUNTERS = {
    "vectorize.tfidf_matrix": lambda args, m: {"vectorize.matrix_nnz": m.matrix.nnz},
    "tsstats.lagged_correlation_scan": lambda args, cells: {
        "tsstats.scan_calls": 1,
        "tsstats.lag_cells": len(cells),
        "tsstats.permutations": len(cells) * args["n_perm"],
    },
    "bootstrap.bootstrap_sb": _resamples,
    "bootstrap.bootstrap_stderr": _resamples,
}

TIMED = (
    "corpus.load_articles", "corpus.load_polls", "corpus.daily_spread", "corpus.mention_counts",
    "vectorize.load_stopwords", "vectorize.build_vocabulary", "vectorize.tfidf_matrix",
    "topics.nmf_factorize", "topics.topic_weight_series", "topics.top_keywords",
    "sentiment.mention_records", "sentiment.sb_series", "sentiment.per_topic_sb",
    "bootstrap.bootstrap_sb", "bootstrap.bootstrap_stderr",
    "tsstats.lagged_correlation_scan", "tsstats.granger_scan",
    "report.emit_outputs",
)
STAGES = ("ingest", "topics", "sentiment", "correlate", "causality")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, bundle, manifest: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, named ``<module>.<metric>``."""
    total, own = tracer.totals()
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.stage_{stage}_s"] = total.get(f"pipeline.stage_{stage}", 0.0)
        m[f"pipeline.stage_{stage}.self_s"] = own.get(f"pipeline.stage_{stage}", 0.0)
    for name in TIMED:
        m[f"{name}_s"] = total.get(name, 0.0)
    m["sentiment.lexicon_load_s"] = total.get("sentiment.load_lexicon", 0.0) + total.get(
        "sentiment.default_lexicon", 0.0
    )
    counts = tracer.counts
    for key in ("vectorize.matrix_nnz", "tsstats.scan_calls", "tsstats.lag_cells",
                "tsstats.permutations", "bootstrap.resamples_drawn"):
        m[key] = counts.get(key, 0)

    outlets = bundle.state.outlets.values()
    fitted = [r.factors for r in outlets if r.factors is not None]
    m["corpus.articles_kept"] = sum(r.n_articles for r in outlets)
    m["vectorize.vocab_terms"] = sum(f.W.shape[1] for f in fitted)
    m["vectorize.rows_dropped"] = sum(
        r.n_articles - len(r.factors.doc_ids) for r in outlets if r.factors is not None
    )
    m["topics.nmf_iterations"] = sum(f.iterations for f in fitted)
    m["topics.nmf_dense_cells"] = sum(f.H.shape[0] * f.W.shape[1] for f in fitted)
    m["topics.nmf_ms_per_iter"] = 1000 * _rate(m["topics.nmf_factorize_s"], m["topics.nmf_iterations"])
    m["sentiment.mentions"] = sum(len(r.mentions) for r in outlets)
    m["sentiment.mentions_per_s"] = _rate(m["sentiment.mentions"], m["sentiment.mention_records_s"])
    m["bootstrap.resamples_per_s"] = _rate(
        m["bootstrap.resamples_drawn"], m["bootstrap.bootstrap_sb_s"] + m["bootstrap.bootstrap_stderr_s"]
    )
    m["tsstats.permutations_per_s"] = _rate(m["tsstats.permutations"], m["tsstats.lagged_correlation_scan_s"])
    m["tsstats.granger_cells"] = sum(len(r.granger) for r in outlets)
    m["tsstats.flagged_cells"] = sum(g.p_value < 0.01 for r in outlets for g in r.granger)
    # The files the manifest lists; manifest.json itself carries the
    # runtime, so its size is not repeatable.
    m["report.files_written"] = len(manifest["files"])
    m["report.bytes_written"] = sum(f["bytes"] for f in manifest["files"])
    return m


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    from newslens import config, pipeline, report

    cfg = config.load_config(job["config"], job["overrides"])
    result: dict = {"config_ready": time.monotonic()}
    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            from spans import Tracer

            tracer = Tracer(job["run_id"], COUNTERS)
            tracer.install(pipeline, report)
        out = Path(job["out"])
        start = time.perf_counter()
        bundle = pipeline.run_pipeline(cfg)
        manifest = report.emit_outputs(bundle, out)
        result["run_s"] = time.perf_counter() - start
        result["articles"] = sum(r.n_articles for r in bundle.state.outlets.values())
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, bundle, manifest)
            result["spans"] = [
                [*span, self_s] for span, self_s in zip(tracer.spans, tracer.self_times())
            ]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
