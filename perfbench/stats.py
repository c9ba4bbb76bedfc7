"""Pure helpers of the benchmark: percentiles, metric names, digests.

Standard library only, so the helpers (and their tests) run without the
package under ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import re
import statistics

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``
#: and ``-``; at most 64 characters.
METRIC_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
TAIL_MIN_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise."""
    if not isinstance(name, str) or not METRIC_NAME_RE.match(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def nearest_rank(values: list[float], percent: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percent`` % of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), percent) - 1]


def _rank(count: int, percent: int) -> int:
    """1-based nearest rank, in integer arithmetic (no float rounding)."""
    return max(1, -(-percent * count // 100))


def beyond(count: int, percent: int) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``percent`` percentile."""
    return count - _rank(count, percent)


def tail_percent(count: int) -> int | None:
    """The highest whole percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it, or ``None`` when even the
    median has fewer (too few samples for any tail)."""
    for percent in range(99, 49, -1):
        if beyond(count, percent) >= TAIL_MIN_BEYOND:
            return percent
    return None


def summarize(values: list[float]) -> dict[str, float]:
    """Median, tail percentile (by :func:`tail_percent`) and count.

    Keys are ``p50``, ``p<tail>`` (only when a tail exists) and ``n``.
    """
    out: dict[str, float] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = statistics.median(values)
    tail = tail_percent(len(values))
    if tail is not None:
        out[f"p{tail}"] = nearest_rank(values, tail)
    return out


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_files(files: dict[str, bytes]) -> str:
    """One digest over named byte strings, independent of dict order."""
    hasher = hashlib.sha256()
    for name in sorted(files):
        hasher.update(name.encode())
        hasher.update(b"\0")
        hasher.update(hashlib.sha256(files[name]).digest())
    return hasher.hexdigest()


def compare_digests(observed: dict[str, str], expected: dict[str, str],
                    ) -> list[str]:
    """Names whose observed digest differs from (or is missing against)
    the expected one.  Only names in ``expected`` are checked."""
    return sorted(name for name, want in expected.items()
                  if observed.get(name) != want)


def fail_ratio(attempted: int, failed_tasks: int, verb_errors: int,
               mismatches: int) -> float:
    """(failed tasks + verb errors + output-check mismatches) / attempted.

    A mismatch is a failure even when every task and verb succeeded."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    return (failed_tasks + verb_errors + mismatches) / attempted
