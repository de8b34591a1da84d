"""Synthetic uplink deployment: geometry, channels, beams, received powers.

The layout is two-dimensional (azimuth only).  Collector nodes land
uniformly in a square service area and each serves an equal share of
sensors, placed uniformly in a disk around it.  Every collector carries a
bank of spatial filters (beams); a sensor is detected at whichever
collector/beam tuple maximizes its post-filter SNR.  Channels follow
free-space path loss times a uniform-circular-array steering vector.

All randomness flows from the single seed in :class:`ScenarioConfig`, so a
scenario regenerates bit-for-bit from its config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "ScenarioConfig",
    "Scenario",
    "steering_vector",
    "beam_boresights",
    "uniform_beam_filters",
    "assemble_scenario",
    "generate_scenario",
    "load_scenario_config",
    "config_summary",
    "write_scenario_csv",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class ScenarioConfig:
    """Deployment and radio parameters.

    ``beams`` may be left as ``None`` to use one beam per antenna.  The
    detection threshold is a linear SINR (the default is -6.7 dB).  The
    noise power default is thermal noise over one 180 kHz narrowband
    uplink resource; neither it nor the carrier frequency is standardized
    here, they are just sane macrocell numbers.
    """

    num_sensors: int = 2000
    num_cns: int = 10
    antennas: int = 10
    beams: int | None = None
    tx_power: float = 0.1
    activity: float = 0.1
    num_resources: int = 6
    detection_threshold: float = 10.0 ** (-6.7 / 10.0)
    deploy_radius: float = 100.0
    area_side: float = 1000.0
    interference_factor: float = 2.0
    noise_power: float = 7.2e-16
    carrier_frequency: float = 2.0e9
    min_distance: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_sensors", "num_cns", "antennas", "num_resources"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.beams is not None and self.beams < 1:
            raise ValueError(f"beams must be >= 1 when given, got {self.beams}")
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError(f"activity must lie in [0, 1], got {self.activity}")
        if self.interference_factor < 1.0:
            raise ValueError(
                f"interference_factor must be >= 1, got {self.interference_factor}"
            )
        if self.min_distance <= 0.0:
            raise ValueError(f"min_distance must be positive, got {self.min_distance}")
        if self.tx_power < 0.0:
            raise ValueError(f"tx_power must be nonnegative, got {self.tx_power}")
        for name in (
            "detection_threshold",
            "deploy_radius",
            "area_side",
            "noise_power",
            "carrier_frequency",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def num_beams(self) -> int:
        return self.antennas if self.beams is None else self.beams

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully generated deployment.

    Array layout: sensors are indexed 0..M-1, collectors 0..K-1, beams
    0..L-1, and collector/beam tuples are flattened as ``d = k * L + l``.
    ``powers_at[d, j]`` is the received power (watts) of sensor ``j`` at
    tuple ``d``'s filter output, so row ``det_node[i]`` holds both sensor
    i's own power (column i) and every interferer power a_{j,i}.
    """

    config: ScenarioConfig
    cn_positions: np.ndarray  # (K, 2)
    positions: np.ndarray  # (M, 2)
    home_cn: np.ndarray  # (M,) int
    powers_at: np.ndarray  # (D, M) watts, D = K * L
    det_node: np.ndarray  # (M,) int, flattened detection tuple
    own_power: np.ndarray  # (M,) watts
    noise_power: np.ndarray  # (M,) watts

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def num_sensors(self) -> int:
        return self.positions.shape[0]

    @property
    def activities(self) -> np.ndarray:
        """(M,) per-sensor activity: every sensor has ``config.activity``."""
        return np.full(self.num_sensors, self.config.activity)

    @property
    def num_cns(self) -> int:
        return self.cn_positions.shape[0]

    @property
    def num_beams(self) -> int:
        return self.config.num_beams

    @property
    def beam_angles(self) -> np.ndarray:
        """(L,) boresight azimuths of the beams, radians."""
        return beam_boresights(self.num_beams)

    @property
    def num_tuples(self) -> int:
        return self.num_cns * self.num_beams

    def detection_tuple(self, sensor_index: int) -> tuple[int, int]:
        cn, beam = divmod(int(self.det_node[sensor_index]), self.num_beams)
        return cn, beam


def steering_vector(angle: float, num_antennas: int) -> np.ndarray:
    """Unit-modulus steering vector of a half-wavelength-radius circular array.

    Antenna ``n`` sits at azimuth ``2*pi*n/N`` on the circle; entry ``n`` has
    phase ``pi * cos(angle - 2*pi*n/N)``.  An (M, 1) array of angles gives
    one vector per row.
    """
    slots = 2.0 * math.pi * np.arange(num_antennas) / num_antennas
    return np.exp(1j * math.pi * np.cos(angle - slots))


def beam_boresights(num_beams: int) -> np.ndarray:
    """Equispaced beam pointing azimuths ``2*pi*l/L`` for l = 0..L-1."""
    return 2.0 * math.pi * np.arange(num_beams) / num_beams


def uniform_beam_filters(num_antennas: int, num_beams: int) -> np.ndarray:
    """Filter bank whose columns are steering vectors at equispaced azimuths."""
    return np.stack(
        [steering_vector(a, num_antennas) for a in beam_boresights(num_beams)],
        axis=1,
    )


def _channels_for_cn(
    cn_position: np.ndarray, positions: np.ndarray, config: ScenarioConfig
) -> np.ndarray:
    """Channels of many sensors towards one collector, shape (M, N).

    Each channel is the free-space amplitude ``lambda / (4 pi d)`` times the
    steering vector at the sensor's azimuth; distances below ``min_distance``
    are clamped to it.
    """
    delta = positions - cn_position
    dist = np.hypot(delta[:, 0], delta[:, 1])
    np.maximum(dist, config.min_distance, out=dist)
    theta = np.arctan2(delta[:, 1], delta[:, 0])
    amp = config.wavelength / (4.0 * math.pi * dist)
    return amp[:, None] * steering_vector(theta[:, None], config.antennas)


def assemble_scenario(
    config: ScenarioConfig,
    cn_positions: np.ndarray,
    sensor_positions: np.ndarray,
    home_cn: np.ndarray,
) -> Scenario:
    """Finish a deployment from explicit geometry.

    Every collector carries the :func:`uniform_beam_filters` bank, beam l
    pointing at ``beam_boresights(L)[l]``.  Computes channels for every
    (collector, sensor) pair, received powers at every collector/beam tuple,
    and each sensor's detection tuple (argmax of post-filter SNR, ties to
    the lexicographically smallest tuple).  This is the hook for
    hand-placed geometry; ``generate_scenario`` draws the positions and
    delegates here.
    """
    cn_positions = np.asarray(cn_positions, dtype=float)
    sensor_positions = np.asarray(sensor_positions, dtype=float)
    home = np.asarray(home_cn, dtype=np.int64)
    num_cns, num_beams = config.num_cns, config.num_beams
    num_sensors = sensor_positions.shape[0]
    if cn_positions.shape != (num_cns, 2):
        raise ValueError(
            f"cn_positions must have shape {(num_cns, 2)}, got {cn_positions.shape}"
        )
    if sensor_positions.ndim != 2 or sensor_positions.shape[1] != 2:
        raise ValueError("sensor_positions must have shape (M, 2)")
    if num_sensors != config.num_sensors:
        raise ValueError(
            f"config says {config.num_sensors} sensors, got {num_sensors} positions"
        )
    if home.shape != (num_sensors,) or np.any((home < 0) | (home >= num_cns)):
        raise ValueError("home_cn must hold one collector index per sensor")
    bank = uniform_beam_filters(config.antennas, num_beams)  # (N, L)

    # powers_at[k * L + l, j] = P * |g_{k,l}^H h_{k,j}|^2
    powers = np.empty((num_cns, num_beams, num_sensors))
    for k in range(num_cns):
        channels = _channels_for_cn(cn_positions[k], sensor_positions, config)  # (M, N)
        projection = bank.conj().T @ channels.T  # (L, M)
        powers[k] = np.abs(projection) ** 2
    powers_at = config.tx_power * powers.reshape(num_cns * num_beams, num_sensors)

    filter_gains = np.tile(np.sum(np.abs(bank) ** 2, axis=0), num_cns)  # (D,)
    snr = powers_at / (config.noise_power * filter_gains)[:, None]
    det_node = np.argmax(snr, axis=0)  # first max <=> smallest (k, l)
    own_power = powers_at[det_node, np.arange(num_sensors)]
    noise = config.noise_power * filter_gains[det_node]

    return Scenario(
        config=config,
        cn_positions=cn_positions,
        positions=sensor_positions,
        home_cn=home,
        powers_at=powers_at,
        det_node=det_node,
        own_power=own_power,
        noise_power=noise,
    )


def _disk_points(
    rng: np.random.Generator,
    center: np.ndarray,
    count: int,
    radius: float,
    min_radius: float,
) -> np.ndarray:
    """Uniform draws from an annulus: disk of `radius` minus the `min_radius` core."""
    points = np.empty((count, 2))
    pending = np.arange(count)
    while pending.size:
        r = radius * np.sqrt(rng.random(pending.size))
        ang = 2.0 * math.pi * rng.random(pending.size)
        points[pending, 0] = center[0] + r * np.cos(ang)
        points[pending, 1] = center[1] + r * np.sin(ang)
        pending = pending[r < min_radius]
    return points


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw a deployment: collectors uniform in the service square, sensors
    uniform (with a minimum-distance core removed) in a disk around their
    home collector, split as evenly as possible across collectors.
    """
    if config.min_distance >= config.deploy_radius:
        raise ValueError(
            f"min_distance {config.min_distance} leaves no room inside "
            f"deploy_radius {config.deploy_radius}"
        )
    rng = np.random.default_rng(config.seed)
    cn_positions = rng.uniform(0.0, config.area_side, size=(config.num_cns, 2))

    base, extra = divmod(config.num_sensors, config.num_cns)
    counts = base + (np.arange(config.num_cns) < extra).astype(np.int64)
    chunks = [
        _disk_points(rng, cn_positions[k], int(counts[k]),
                     config.deploy_radius, config.min_distance)
        for k in range(config.num_cns)
    ]
    sensor_positions = np.vstack(chunks)
    home = np.repeat(np.arange(config.num_cns), counts)
    return assemble_scenario(config, cn_positions, sensor_positions, home)


_INT_FIELDS = frozenset(
    {"num_sensors", "num_cns", "antennas", "beams", "num_resources", "seed"}
)


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Parse a flat ``key = value`` file into a :class:`ScenarioConfig`.

    Keys must be ScenarioConfig field names; unknown or duplicate keys are
    rejected.  Blank lines and ``#`` comments (full-line or trailing) are
    ignored.  Unlisted fields keep their defaults.
    """
    path = Path(path)
    names = {field.name for field in dataclasses.fields(ScenarioConfig)}
    seen: dict[str, int | float] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in names:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            seen[key] = int(value) if key in _INT_FIELDS else float(value)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{lineno}: bad value for {key!r}: {value!r}"
            ) from exc
    return ScenarioConfig(**seen)


def config_summary(config: ScenarioConfig) -> str:
    """One-line ``name=value`` rendering of a config, stable across runs."""
    return " ".join(
        f"{field.name}={getattr(config, field.name)!r}"
        for field in dataclasses.fields(config)
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def write_scenario_csv(scenario: Scenario, path: str | Path) -> None:
    """Dump per-sensor placement and link budget as CSV.

    Columns: sensor_id, x_m, y_m, home_cn, det_cn, det_beam, a_ii_w, noise_w.
    A leading ``#`` comment line records the generating config.  Sensor,
    collector, and beam ids are all 0-based.
    """
    lines = [f"# scenario {config_summary(scenario.config)}"]
    lines.append("sensor_id,x_m,y_m,home_cn,det_cn,det_beam,a_ii_w,noise_w")
    for i in range(scenario.num_sensors):
        cn, beam = scenario.detection_tuple(i)
        lines.append(
            f"{i},{_fmt(scenario.positions[i, 0])},{_fmt(scenario.positions[i, 1])},"
            f"{int(scenario.home_cn[i])},{cn},{beam},"
            f"{_fmt(scenario.own_power[i])},{_fmt(scenario.noise_power[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
