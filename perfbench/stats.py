"""Summaries of repeated measurements and the rules for comparing two sets of runs."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it, and the
    maximum is returned instead.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    if not parent:
        return 0.0
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Label a change: improved, unchanged, regressed or unresolved.

    Improved needs the change to win at least nine tenths of the pairs (runs
    paired in order, ties counting for neither) and the medians to differ by
    more than the parent's interquartile range.  Where the parent's own
    spread exceeds the bound, the result is unresolved unless every run of
    the change reads better than every run of the parent.
    """
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    worse = worse_by(pmed, cmed, better)
    if spread(parent) > bound and not all_better:
        label = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1 and worse < 0:
        label = "improved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return {"label": label, "wins": wins, "pairs": len(pairs), "worse_by": worse}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            start = max(c["start"], edge)
            if c["end"] > start:
                covered += c["end"] - start
                edge = c["end"]
        out[s["id"]] = s["end"] - s["start"] - covered
    return out
