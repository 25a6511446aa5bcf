"""Correctness gate applied to the report of every measured run.

The ground-truth part is recall-only on purpose: in the current pipeline the
permutation and slope tests are not calibrated for smoothed series, so
extra flagged cells are expected and counted (``tsstats.flagged_cells``)
rather than failed.  From some seeds, multiplicative-update NMF settles in
a local minimum that splits one planted topic and merges two others, so
one planted topic has no fitted topic.  The gate allows that for one
planted topic.  It then checks the planted cell only if the causal topic
has exactly one fitted topic (split in two, neither half may reach
significance), and allows one per-topic sign to be wrong, because the
merged articles may pull the sentiment of the topic they joined across
zero.  Such runs get a note, so the outcome stays visible.
"""

from __future__ import annotations

import math

# How many planted topics may go without a fitted topic.  From some seeds
# the current NMF splits one planted topic and merges two others.
MAX_MISSING = 1

REPORT_KEYS = {"versions", "rng", "settings", "polls", "outlets"}
OUTLET_KEYS = {"articles", "topics", "mentions", "sentiment_bias", "correlations", "granger"}


def check_report(report: dict, truth: dict | None) -> tuple[list[str], list[str]]:
    """Problems found in a parsed report.json, and notes.

    The report passes when the list of problems is empty.
    """
    if set(report) != REPORT_KEYS:
        return [f"report keys {sorted(report)} != {sorted(REPORT_KEYS)}"], []
    problems: list[str] = []
    max_lag = report["settings"]["max_lag"]
    for name, entry in sorted(report["outlets"].items()):
        if set(entry) != OUTLET_KEYS:
            problems.append(f"{name}: keys {sorted(entry)} != {sorted(OUTLET_KEYS)}")
            continue
        topics = entry["topics"]
        kept = topics["kept"]
        if len(topics["coverage"]) != len(kept):
            problems.append(f"{name}: {len(topics['coverage'])} coverage series for {len(kept)} kept topics")
        if len(topics["agenda"]) != len(kept) or abs(sum(topics["agenda"]) - 1.0) > 1e-9:
            problems.append(f"{name}: agenda {topics['agenda']} does not sum to 1 over kept topics")
        error = topics["nmf_error"]
        if not isinstance(error, (int, float)) or not math.isfinite(error):
            problems.append(f"{name}: nmf_error {error!r} is not finite")
        if len(entry["granger"]) != len(kept) * (max_lag + 1):
            problems.append(
                f"{name}: {len(entry['granger'])} lead-lag cells, expected "
                f"{len(kept)} x {max_lag + 1}"
            )
    if truth is not None and not problems:
        return _check_truth(report, truth)
    return problems, []


def _check_truth(report: dict, truth: dict) -> tuple[list[str], list[str]]:
    entry = report["outlets"].get(truth["outlet"])
    if entry is None:
        return [f"outlet {truth['outlet']!r} missing from the report"], []
    planted = [set(t["terms"]) for t in truth["topics"]]
    kept = entry["topics"]["kept"]
    mapping = {}
    for topic in kept:
        overlaps = [len(set(entry["topics"]["keywords"][topic]) & terms) for terms in planted]
        if max(overlaps) == 0:
            return [f"fitted topic {topic} shares no keyword with any planted topic"], []
        mapping[topic] = overlaps.index(max(overlaps))
    missing = sorted(set(range(len(planted))) - set(mapping.values()))
    problems, notes = [], []
    if missing:
        line = f"fitted topics map onto planted topics as {mapping}; planted {missing} unrecovered"
        if len(missing) > MAX_MISSING:
            return [line], []
        notes.append(line)
    causal = truth["causal"]
    flagged = {(mapping[g["topic"]], g["lag"]) for g in entry["granger"] if g["significant"]}
    if causal is not None:
        fitted = list(mapping.values()).count(causal["topic"])
        if fitted != 1:
            notes.append(f"planted cell ({causal['topic']}, {causal['lag']}) not checked: "
                         f"its topic has {fitted} fitted topics")
        elif (causal["topic"], causal["lag"]) not in flagged:
            problems.append(
                f"planted cell ({causal['topic']}, {causal['lag']}) not among flagged {sorted(flagged)}"
            )
    wrong_sign = []
    for pos, topic in enumerate(kept):
        target = truth["topics"][mapping[topic]]["sb_target"]
        sb = entry["sentiment_bias"]["per_topic"][pos]
        if target == 0:
            continue
        if sb is None or sb["value"] * target <= 0:
            value = None if sb is None else sb["value"]
            wrong_sign.append(f"topic {topic}: per-topic SB {value} has not the sign of target {target}")
    # The articles of an unrecovered planted topic went into some fitted
    # topic, whose sentiment they may pull across zero; which one is not
    # known, so one wrong sign is allowed per unrecovered planted topic.
    if len(wrong_sign) > len(missing):
        problems.extend(wrong_sign)
    else:
        notes.extend(f"{line} (allowed: a planted topic was merged)" for line in wrong_sign)
    return problems, notes
