"""A minimal reader of Prometheus exposition text: the round-trip check.

``repro.obs.prom.render_prometheus`` writes the format; the tests read
it back with these helpers and compare against what was rendered.
"""

from __future__ import annotations

import re

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus(text: str) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """Parse exposition text: name → {sorted label tuple → value}.

    A minimal reader for what :func:`render_prometheus` emits (and any
    conventional exposition text): comments are skipped, label values
    are unescaped, values parse as floats (``+Inf`` included).
    """
    samples: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = tuple(
            sorted(
                (found.group("key"), _unescape(found.group("value")))
                for found in _LABEL.finditer(match.group("labels") or "")
            )
        )
        try:
            value = float(match.group("value").replace("+Inf", "inf"))
        except ValueError:
            continue
        samples.setdefault(match.group("name"), {})[labels] = value
    return samples


def sample_value(
    samples: dict[str, dict[tuple[tuple[str, str], ...], float]],
    name: str,
    default: float = 0.0,
) -> float:
    """The first sample of a family, ignoring labels (our families are
    single-sample apart from ``le`` buckets)."""
    family = samples.get(name)
    if not family:
        return default
    return next(iter(family.values()))


def histogram_buckets(
    samples: dict[str, dict[tuple[tuple[str, str], ...], float]],
    name: str,
) -> list[tuple[float, float]]:
    """``(le, cumulative_count)`` pairs of a histogram family, sorted."""
    family = samples.get(f"{name}_bucket", {})
    buckets: list[tuple[float, float]] = []
    for labels, value in family.items():
        le = dict(labels).get("le")
        if le is None:
            continue
        buckets.append((float(le.replace("+Inf", "inf")), value))
    return sorted(buckets)
