"""Quantiles, spreads and the improved/unchanged/regressed verdict."""

from __future__ import annotations

import statistics


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1, in whole percent) of ``values``."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(sorted(values), n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same rule the acceptance check uses.
    """
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "iqr_share": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else float("inf"),
        "n": len(values),
    }


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Classify a change against its parent on one metric.

    * ``improved``: the change wins at least 9/10 of the index-paired
      runs (ties count for neither) and its median differs from the
      parent's by more than the parent's quartile distance;
    * ``regressed``: the change's median is worse by more than ``bound``
      (a share of the parent's median);
    * ``unresolved``: neither, and the parent's own spread is wider than
      the bound, unless every change run beats every parent run;
    * ``unchanged``: otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, c = spread(base), spread(change)
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    delta = sign * (c["median"] - b["median"])
    worse_share = -delta / b["median"] if b["median"] else 0.0
    all_better = all(sign * (y - x) > 0 for x in base for y in change)
    if win_share >= 0.9 and delta > b["q3"] - b["q1"]:
        label = "improved"
    elif worse_share > bound:
        label = "regressed"
    elif b["iqr_share"] > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "base": b,
        "change": c,
        "pair_wins": win_share,
        "pairs": len(pairs),
        "change_share": delta / b["median"] if b["median"] else 0.0,
    }
