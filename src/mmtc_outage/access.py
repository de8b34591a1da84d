"""Resource-identifier coding, decoded incidence, and effective activity.

Each collector/beam tuple owns a set of orthogonal uplink resources.  In
single-resource mode a tuple's color *is* its resource id (0 = switched
off); in multiple-resource mode the color is the integer code of a binary
resource-incidence vector, bit ``n-1`` standing for resource ``n``.  A
sensor holding several resources picks one uniformly per transmission, so
its effective activity on any one of them is thinned by the set size.
Colors are decoded once, by :func:`decode_holds`, into the boolean
(tuple, resource) incidence matrix :attr:`ResourceAllocation.holds`; every
reader of an allocation reads that matrix.

Resource ids are 1-based (1..R); collector, beam, and sensor indices are
0-based throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .scenario import Scenario

__all__ = [
    "MODES",
    "ResourceAllocation",
    "color_bound",
    "decode_holds",
    "effective_probabilities",
    "write_allocation_csv",
    "read_allocation_csv",
]

MODES = ("single", "multiple")


def color_bound(mode: str, num_resources: int) -> int:
    """Largest legal color: R in single mode, 2**R - 1 in multiple mode."""
    if mode == "single":
        return num_resources
    if mode == "multiple":
        return (1 << num_resources) - 1
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def decode_holds(colors, mode: str, num_resources: int) -> np.ndarray:
    """Boolean (N, R) incidence of the flattened colors; column n-1 <-> resource n.

    Color 0 decodes to an all-False row in both modes.
    """
    flat = np.asarray(colors, dtype=np.int64).reshape(-1, 1)
    bound = color_bound(mode, num_resources)
    if np.any((flat < 0) | (flat > bound)):
        raise ValueError(f"{mode}-mode colors must lie in [0, {bound}]")
    ids = np.arange(1, num_resources + 1)
    if mode == "single":
        return flat == ids
    return ((flat >> (ids - 1)) & 1).astype(bool)


@dataclass(frozen=True, eq=False)
class ResourceAllocation:
    """Colors of every collector/beam tuple plus their decoded incidence.

    ``colors`` has shape (K, L); ``holds[k * L + l, n - 1]`` says whether
    tuple (k, l) holds resource n, and ``set_sizes`` counts each row's held
    resources.  Color 0 means the tuple is switched off (all-False row) in
    both modes.
    """

    mode: str
    colors: np.ndarray
    num_resources: int
    holds: np.ndarray = field(init=False, repr=False)
    set_sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.num_resources < 1:
            raise ValueError("num_resources must be >= 1")
        colors = np.asarray(self.colors, dtype=np.int64)
        if colors.ndim != 2:
            raise ValueError(f"colors must be a (K, L) matrix, got shape {colors.shape}")
        holds = decode_holds(colors, self.mode, self.num_resources)
        object.__setattr__(self, "colors", colors)
        colors.setflags(write=False)
        holds.setflags(write=False)
        object.__setattr__(self, "holds", holds)
        sizes = holds.sum(axis=1)
        sizes.setflags(write=False)
        object.__setattr__(self, "set_sizes", sizes)

    @property
    def num_cns(self) -> int:
        return self.colors.shape[0]

    @property
    def num_beams(self) -> int:
        return self.colors.shape[1]

    @property
    def num_tuples(self) -> int:
        return self.colors.size


def effective_probabilities(
    alloc: ResourceAllocation, scenario: Scenario
) -> np.ndarray:
    """Per-sensor activity on any one held resource: p_act / |T|, 0 if |T| = 0."""
    sizes = alloc.set_sizes[scenario.det_node]
    out = np.zeros(scenario.num_sensors)
    held = sizes > 0
    out[held] = scenario.config.activity / sizes[held]
    return out


def write_allocation_csv(
    alloc: ResourceAllocation, path: str | Path, note: str | None = None
) -> None:
    """Dump colors and decoded resource lists, one row per tuple.

    Columns: cn, beam, color, resource_list (semicolon-joined ids).  The
    leading comment line carries mode and shape so the file reads back,
    then ``note`` if given.
    """
    suffix = f" {note}" if note else ""
    lines = [
        f"# allocation mode={alloc.mode} num_cns={alloc.num_cns} "
        f"num_beams={alloc.num_beams} num_resources={alloc.num_resources}{suffix}"
    ]
    lines.append("cn,beam,color,resource_list")
    for node, row in enumerate(alloc.holds):
        k, l = divmod(node, alloc.num_beams)
        ids = ";".join(map(str, (np.flatnonzero(row) + 1).tolist()))
        lines.append(f"{k},{l},{alloc.colors[k, l]},{ids}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


_ALLOC_HEADER = re.compile(
    r"# allocation mode=(single|multiple) num_cns=(\d+) "
    r"num_beams=(\d+) num_resources=(\d+)(?: .*)?$"
)


def read_allocation_csv(path: str | Path) -> ResourceAllocation:
    """Inverse of :func:`write_allocation_csv`, with consistency checks.

    Every (cn, beam) tuple of the header's shape must appear in exactly one
    row, and each row's resource_list must match its color.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or (match := _ALLOC_HEADER.match(lines[0])) is None:
        raise ValueError(f"{path}: missing allocation comment line")
    mode, num_cns, num_beams, num_resources = (
        match.group(1), int(match.group(2)), int(match.group(3)), int(match.group(4)),
    )
    if len(lines) < 2 or lines[1] != "cn,beam,color,resource_list":
        raise ValueError(f"{path}: unexpected column header")
    colors = np.zeros((num_cns, num_beams), dtype=np.int64)
    listed: dict[int, list[int]] = {}
    for lineno, row in enumerate(lines[2:], start=3):
        if not row:
            continue
        try:
            cn, beam, color, ids = row.split(",")
            k, l, code = int(cn), int(beam), int(color)
            resources = sorted(int(t) for t in ids.split(";") if t)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed row {row!r}") from None
        if not (0 <= k < num_cns and 0 <= l < num_beams):
            raise ValueError(
                f"{path}: line {lineno}: tuple ({k}, {l}) lies outside the "
                f"header's {num_cns} x {num_beams} shape"
            )
        node = k * num_beams + l
        if node in listed:
            raise ValueError(f"{path}: line {lineno}: tuple ({k}, {l}) is listed twice")
        colors[k, l] = code
        listed[node] = resources
    if len(listed) < colors.size:
        missing = min(set(range(colors.size)) - listed.keys())
        raise ValueError(f"{path}: no row for tuple {divmod(missing, num_beams)}")
    alloc = ResourceAllocation(mode, colors, num_resources)
    for node, ids in listed.items():
        if ids != (np.flatnonzero(alloc.holds[node]) + 1).tolist():
            raise ValueError(
                f"{path}: resource_list for tuple {divmod(node, num_beams)} "
                f"does not match its color"
            )
    return alloc
