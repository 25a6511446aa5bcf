"""Command-line interface.

Subcommands run the pipeline or a prefix of it:

    newslens validate  --config run.yaml
    newslens topics    --config run.yaml [--out DIR]
    newslens sentiment --config run.yaml [--out DIR]
    newslens correlate --config run.yaml [--out DIR]
    newslens causality --config run.yaml [--out DIR]
    newslens run       --config run.yaml [--out DIR]
    newslens fixture   --out DIR --seed N [--days N] [--beta X] [--lag N]

Every subcommand exits nonzero on failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .config import PipelineConfig, load_config
from .fixture import FixtureSpec, generate_fixture
from .pipeline import PipelineError, RunState, run_pipeline
from .report import emit_outputs
from .tsstats import GRANGER_ALPHA


def _topic_ids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated topic ids, got {text!r}"
        ) from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="YAML or JSON config file")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    p.add_argument("--n-topics", type=int, dest="n_topics", help="topic count override")
    p.add_argument(
        "--drop-topics",
        dest="drop_topics",
        type=_topic_ids,
        help="comma-separated topic ids to exclude from analysis",
    )
    p.add_argument("--max-lag", type=int, dest="max_lag", help="maximum lag override")
    p.add_argument("--window", type=int, dest="window_days", help="window days override")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides: dict = {
        "seed": args.seed,
        "n_topics": args.n_topics,
        "max_lag": args.max_lag,
        "window_days": args.window_days,
        "drop_topics": args.drop_topics,
    }
    if args.out is not None:
        overrides["out_dir"] = Path(args.out)
    return load_config(args.config, overrides)


def _print_validate(state: RunState) -> None:
    cfg = state.config
    print(f"config ok: {len(cfg.articles)} outlet(s), seed {cfg.seed}")
    print(f"polls: {len(state.polls)} records, spread span {len(state.spread)} days")
    for outlet in sorted(state.articles):
        arts = state.articles[outlet]
        first = min(a.date for a in arts)
        last = max(a.date for a in arts)
        print(f"outlet {outlet}: {len(arts)} articles, {first} .. {last}")


def _print_topics(state: RunState) -> None:
    for outlet in sorted(state.outlets):
        res = state.outlets[outlet]
        stop = "converged" if res.factors.converged else "iteration cap"
        print(f"outlet {outlet}: reconstruction error {res.factors.final_error:.4f} "
              f"after {res.factors.iterations} iterations ({stop})")
        for pos, topic_id in enumerate(res.coverage.topic_ids):
            words = ", ".join(res.keywords[topic_id][:8])
            print(f"  topic {topic_id} (share {res.agenda[pos]:.3f}): {words}")


def _print_sentiment(state: RunState) -> None:
    for outlet in sorted(state.outlets):
        res = state.outlets[outlet]
        b = res.sb_bootstrap
        print(
            f"outlet {outlet}: SB {res.sb_overall.value:+.4f} "
            f"({100 * b.level:g}% CI {b.ci_low:+.4f} .. {b.ci_high:+.4f}, "
            f"stderr {b.stderr:.4f}, {len(res.mentions)} mentions)"
        )
        for pos, topic_id in enumerate(res.coverage.topic_ids):
            sb = res.sb_by_topic[pos]
            if sb is None:
                print(f"  topic {topic_id}: not significant (too few mentions)")
            else:
                print(f"  topic {topic_id}: SB {sb.value:+.4f} ({sb.tally.total} mentions)")


def _print_correlate(state: RunState) -> None:
    for outlet in sorted(state.outlets):
        res = state.outlets[outlet]
        for label in sorted(res.mention_correlations):
            best = max(res.mention_correlations[label], key=lambda c: abs(c.rho))
            print(
                f"outlet {outlet} mentions[{label}]: "
                f"max |rho| {best.rho:+.3f} at lag {best.lag} (p={best.p_value:.4f})"
            )
        for topic_id in sorted(res.topic_correlations):
            best = max(res.topic_correlations[topic_id], key=lambda c: abs(c.rho))
            print(
                f"outlet {outlet} topic {topic_id}: "
                f"max |rho| {best.rho:+.3f} at lag {best.lag} (p={best.p_value:.4f})"
            )


def _print_causality(state: RunState) -> None:
    for outlet in sorted(state.outlets):
        res = state.outlets[outlet]
        hits = [g for g in res.granger if g.p_value < GRANGER_ALPHA]
        print(f"outlet {outlet}: {len(hits)} significant (topic, lag) cells "
              f"at p < {GRANGER_ALPHA:g}")
        for g in sorted(hits, key=lambda g: g.p_value)[:10]:
            print(
                f"  topic {g.topic} lag {g.lag}: beta {g.beta:+.4g} "
                f"(t={g.t_stat:.2f}, p={g.p_value:.2e}, n={g.n_obs})"
            )


# command -> (help, last stage run, summary printer or None, whether outputs are written)
ANALYSIS_COMMANDS = {
    "validate": ("check config and input files", "ingest", _print_validate, False),
    "topics": ("fit topics and write coverage outputs", "topics", _print_topics, True),
    "sentiment": ("score mentions and write bias outputs", "sentiment", _print_sentiment, True),
    "correlate": (
        "lagged correlation scans against the polls", "correlate", _print_correlate, True
    ),
    "causality": (
        "lead-lag slope tests on differenced series", "causality", _print_causality, True
    ),
    "run": ("full pipeline with all outputs", "causality", None, True),
}


def _cmd_analysis(args: argparse.Namespace) -> int:
    _, through, summarize, emits = ANALYSIS_COMMANDS[args.command]
    cfg = _config_from_args(args)
    bundle = run_pipeline(cfg, through)
    if summarize is not None:
        summarize(bundle.state)
    if emits:
        manifest = emit_outputs(bundle, cfg.out_dir)
        print(f"wrote {len(manifest['files']) + 1} files to {cfg.out_dir}")
    if args.command == "run":
        print(f"runtime {bundle.runtime_seconds:.1f}s")
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    spec = FixtureSpec()
    updates = {}
    for name in ("days", "lag", "beta", "noise_sigma", "n_topics"):
        val = getattr(args, name)
        if val is not None:
            updates[name] = val
    if updates:
        spec = dataclasses.replace(spec, **updates)
    paths = generate_fixture(args.out, args.seed, spec)
    for kind in sorted(paths):
        print(f"{kind}: {paths[kind]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="newslens",
        description="News topic, sentiment-bias, and poll time-series analysis",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (doc, *_) in ANALYSIS_COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        _add_config_flags(p)
        p.set_defaults(fn=_cmd_analysis)

    p = sub.add_parser("fixture", help="generate a synthetic corpus with ground truth")
    p.add_argument("--out", required=True, help="directory to write the fixture into")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--days", type=int, help="span length in days")
    p.add_argument("--lag", type=int, help="planted lead-lag in days")
    p.add_argument("--beta", type=float, help="planted slope (0 plants no link)")
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma", help="daily poll noise")
    p.add_argument("--n-topics", type=int, dest="n_topics", help="number of topics")
    p.set_defaults(fn=_cmd_fixture)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
