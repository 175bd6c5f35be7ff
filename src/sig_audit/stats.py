"""Detection-coverage analytics over a matrix.

Per-signature contribution ranking, the generic/specific two-set split,
and the four-way overlap between the unions of two signature sets.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import UnknownId
from .matcher import DetectionMatrix


class ContributionEntry(namedtuple("ContributionEntry", "signature_id count share_pct")):
    """A signature's detected-vector count, and ``share_pct``: its
    percentage of corpus vectors, one-decimal precision."""

    __slots__ = ()


class ContributionProfile(namedtuple("ContributionProfile", "entries total_vectors")):
    """``entries`` ranked: count desc, ties by id."""

    __slots__ = ()

    def top(self) -> ContributionEntry:
        return self.entries[0]

    def to_dict(self) -> dict:
        return {
            "total_vectors": self.total_vectors,
            "ranking": [
                {
                    "signature": e.signature_id,
                    "count": e.count,
                    "share_pct": e.share_pct,
                }
                for e in self.entries
            ],
        }


class OverlapStats(namedtuple("OverlapStats", "only_a only_b both neither")):
    __slots__ = ()

    @property
    def total(self) -> int:
        return self.only_a + self.only_b + self.both + self.neither

    def to_dict(self) -> dict:
        return self._asdict()


def contribution(matrix: DetectionMatrix) -> ContributionProfile:
    """Row sums with a deterministic ranking (count desc, ties by id)."""
    total = len(matrix.vector_ids)
    entries = []
    for sid, row in zip(matrix.signature_ids, matrix.rows):
        count = row.bit_count()
        share = round(100.0 * count / total, 1) if total else 0.0
        entries.append(ContributionEntry(sid, count, share))
    entries.sort(key=lambda e: (-e.count, e.signature_id))
    return ContributionProfile(entries=tuple(entries), total_vectors=total)


def partition(matrix: DetectionMatrix, ids: list[str]) -> tuple[frozenset[str], frozenset[str]]:
    """Split signatures into sets A, the ``ids``, and B, the rest."""
    all_ids = set(matrix.signature_ids)
    for sid in ids:
        if sid not in all_ids:
            raise UnknownId(sid)
    a = frozenset(ids)
    return a, frozenset(all_ids - a)


def overlap(matrix: DetectionMatrix, set_a, set_b) -> OverlapStats:
    """Four-way vector counts against the unions of two signature sets.

    The sets may overlap or leave signatures out; membership is decided
    per vector against each union independently.
    """
    bits_a = matrix.union_bits(set_a)
    bits_b = matrix.union_bits(set_b)
    return OverlapStats(
        only_a=(bits_a & ~bits_b).bit_count(),
        only_b=(bits_b & ~bits_a).bit_count(),
        both=(bits_a & bits_b).bit_count(),
        neither=len(matrix.vector_ids) - (bits_a | bits_b).bit_count(),
    )
