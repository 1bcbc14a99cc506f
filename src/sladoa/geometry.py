"""Sparse linear array geometries and their difference coarrays.

Positions are non-negative integers in units of half the carrier
wavelength, normalized so the first sensor sits at 0.
"""

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

__all__ = [
    "ArrayGeometry",
    "Coarray",
    "build_ula",
    "build_nested",
    "build_super_nested",
    "build_mra",
    "difference_coarray",
    "geometry_to_text",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """A named sparse linear array with integer sensor positions."""

    name: str
    positions: tuple[int, ...]

    def __post_init__(self):
        pos = tuple(int(p) for p in self.positions)
        if len(pos) < 2:
            raise ValueError("geometry needs at least 2 sensors")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("positions must be strictly increasing")
        if pos[0] != 0:
            raise ValueError("positions must be normalized to start at 0")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def aperture(self) -> int:
        return self.positions[-1]


@dataclass(frozen=True)
class Coarray:
    """Difference set of an array: lags, pair weights, and the UDOF.

    ``g`` is the one-sided extent of the maximal contiguous run of lags
    centered at 0, plus the zero lag; ``udof`` = 2g-1 counts that run.
    Lags outside the contiguous run are kept for diagnostics only.
    """

    lags: tuple[int, ...]
    weights: Mapping[int, int]
    g: int

    def __post_init__(self):
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    @property
    def udof(self) -> int:
        return 2 * self.g - 1

    @property
    def holes(self) -> tuple[int, ...]:
        """Positive lags between the contiguous segment and the aperture
        that no sensor pair produces."""
        top = max(self.lags)
        present = set(self.lags)
        return tuple(l for l in range(self.g, top) if l not in present)


def difference_coarray(geom: ArrayGeometry) -> Coarray:
    """Compute the difference coarray of a geometry."""
    weights = Counter(
        a - b for a in geom.positions for b in geom.positions
    )
    lag_set = set(weights)
    half = 0
    while half + 1 in lag_set:
        half += 1
    return Coarray(
        lags=tuple(sorted(lag_set)),
        weights=dict(weights),
        g=half + 1,
    )


def build_ula(n: int) -> ArrayGeometry:
    """Uniform linear array with unit spacing: {0, 1, ..., n-1}."""
    if n < 2:
        raise ValueError("ULA needs n >= 2")
    return ArrayGeometry(f"ula({n})", tuple(range(n)))


def build_nested(n1: int, n2: int) -> ArrayGeometry:
    """Two-level nested array: inner ULA {1..n1} plus outer layer
    {m(n1+1) : m = 1..n2}, normalized to start at 0."""
    if n1 < 1 or n2 < 1:
        raise ValueError("nested array needs n1 >= 1 and n2 >= 1")
    raw = sorted(set(range(1, n1 + 1)) | {m * (n1 + 1) for m in range(1, n2 + 1)})
    return ArrayGeometry(f"nested({n1},{n2})", tuple(p - raw[0] for p in raw))


# Parameter table for the second-order super nested rearrangement,
# indexed by n1 mod 4 with r = n1 // 4.  Each row gives the sizes
# (A1, B1, A2, B2) of the four perturbation sets; -1 means empty.
def _super_nested_sizes(n1: int) -> tuple[int, int, int, int]:
    r, rem = divmod(n1, 4)
    if rem == 0:
        return r, r - 1, r - 1, r - 2
    if rem == 1:
        return r, r - 1, r - 1, r - 1
    if rem == 2:
        return 2 * r, 0, 2 * r - 1, -1
    return r, r, r, r - 1


def build_super_nested(n1: int, n2: int) -> ArrayGeometry:
    """Second-order super nested array.

    Rearranges the dense level of the parent nested array into
    alternating blocks around n1+1 and 2(n1+1), keeping the same
    difference-coarray lag set while reducing the number of sensor
    pairs at small separations (weight 1 at lag 1 for odd n1,
    weight 2 for even n1).
    """
    if n1 < 4:
        raise ValueError("super nested array needs n1 >= 4")
    if n2 < 2:
        raise ValueError("super nested array needs n2 >= 2")
    a1, b1, a2, b2 = _super_nested_sizes(n1)
    u = n1 + 1
    s = set()
    s.update(1 + 2 * l for l in range(a1 + 1))
    s.update(u - (1 + 2 * l) for l in range(b1 + 1))
    s.update(u + (2 + 2 * l) for l in range(a2 + 1))
    s.update(2 * u - (2 + 2 * l) for l in range(b2 + 1))
    s.update(l * u for l in range(2, n2 + 1))
    s.add(n2 * u - 1)
    if len(s) != n1 + n2:
        raise ValueError(f"super nested construction failed for ({n1},{n2})")
    raw = sorted(s)
    return ArrayGeometry(f"snaq2({n1},{n2})", tuple(p - raw[0] for p in raw))


# Minimum redundancy arrays (restricted, hole-free) for 3..10 sensors.
# Validated against a brute-force difference enumeration in the tests.
_MRA_TABLE: dict[int, tuple[int, ...]] = {
    3: (0, 1, 3),
    4: (0, 1, 4, 6),
    5: (0, 1, 4, 7, 9),
    6: (0, 1, 6, 9, 11, 13),
    7: (0, 1, 8, 11, 13, 15, 17),
    8: (0, 1, 4, 10, 16, 18, 21, 23),
    9: (0, 1, 4, 10, 16, 22, 24, 27, 29),
    10: (0, 1, 3, 6, 13, 20, 27, 31, 35, 36),
}


def build_mra(n: int) -> ArrayGeometry:
    """Minimum redundancy array from the embedded table (n = 3..10)."""
    if n not in _MRA_TABLE:
        raise ValueError(
            f"MRA table covers 3..10 sensors, got n={n}"
        )
    return ArrayGeometry(f"mra({n})", _MRA_TABLE[n])


def geometry_to_text(geom: ArrayGeometry) -> str:
    """One-line export: ``name: p0 p1 p2 ...``."""
    return f"{geom.name}: {' '.join(str(p) for p in geom.positions)}"
