"""Chain geometry, physical rate constants, and the phased collective initial state.

The units are fixed, not configured: every rate is in units of the free-space
linewidth gamma (so times are in 1/gamma) and every length in units of the
guided-mode wavelength lambda_wg; both are 1.  The default group velocity is
anchored to the Rb D2 line so that runs with centimetre-scale cavities map
onto realistic retardation times.

write_csv, at the end, writes every CSV artifact of a run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# Rb D2 reference transition anchoring the reduced unit system.
GAMMA_RAD_PER_S = 2.0 * math.pi * 6.07e6
LAMBDA0_M = 780e-9
C_M_PER_S = 299_792_458.0

# Effective mode index lambda0 / lambda_wg of the guided mode.  Config value,
# not a measured quantity; every quoted rate is independent of it.
DEFAULT_MODE_INDEX = 1.2

# Speed of light in units of gamma * lambda_wg, then the nanofiber group velocity.
C_REDUCED = C_M_PER_S / (GAMMA_RAD_PER_S * LAMBDA0_M) * DEFAULT_MODE_INDEX
DEFAULT_V_G = 0.7 * C_REDUCED

# Pairs closer than this (in lambda_wg) are rejected: the scalar coupling and
# the optional free-space 1/xi^3 correction are not trustworthy at contact.
MIN_SEPARATION = 0.01

# Rows formatted and written at a time by write_csv.
CSV_BLOCK_ROWS = 512


class ConfigError(ValueError):
    """Invalid chain or run configuration."""


class GeometryError(ValueError):
    """Atom placement violating the minimum-separation floor."""


class SegmentRole(enum.Enum):
    LEFT_MIRROR = "left_mirror"
    EMITTER = "emitter"
    RIGHT_MIRROR = "right_mirror"


@dataclass(frozen=True)
class PhysParams:
    """Physical rates and wavelengths of the atom-waveguide system, in the
    reduced units: the free-space decay rate gamma and the guided wavelength
    lambda_wg are 1 and are not parameters.

    beta       coupling ratio gamma_1d / gamma.
    gamma_ext  decay rate into external (non-guided) modes.
    v_g        group velocity of the guided mode.
    lambda0    vacuum wavelength, used only by the optional free-space
               dipole-dipole correction; the default is the mode index.
    """

    beta: float = 0.1
    gamma_ext: float = 0.95
    v_g: float = DEFAULT_V_G
    lambda0: float = DEFAULT_MODE_INDEX

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.gamma_ext > 0:
            raise ConfigError(f"gamma_ext must be positive, got {self.gamma_ext}")
        if not self.v_g > 0:
            raise ConfigError(f"v_g must be positive, got {self.v_g}")
        if not (math.isfinite(self.lambda0) and self.lambda0 > 0):
            raise ConfigError(f"lambda0 must be finite and positive, got {self.lambda0}")
        if not self.gamma_ext < 1:
            raise ConfigError(f"gamma_ext={self.gamma_ext} must stay below gamma = 1")
        # Purcell condition: waveguide plus external modes beat free space.
        if not self.gamma_ext + self.beta > 1:
            raise ConfigError(
                f"gamma_ext + gamma_1d = {self.gamma_ext + self.beta} must exceed gamma = 1"
            )

    @property
    def gamma_1d(self) -> float:
        return self.beta

    @property
    def gamma_wg(self) -> float:
        """Coherent guided exchange rate: half of gamma_1d (sigma- channel)."""
        return 0.5 * self.gamma_1d

    @property
    def gamma_raman(self) -> float:
        """Guided Raman loss per atom: the incoherent half of gamma_1d."""
        return self.gamma_1d - self.gamma_wg

    @property
    def gamma_tot(self) -> float:
        """Total single-atom decay rate next to the waveguide."""
        return self.gamma_ext + self.gamma_1d

    @property
    def k_wg(self) -> float:
        return 2.0 * math.pi

    def k_of(self, delta):
        """Guided wavenumber k(delta) = k_wg + delta / v_g at detuning delta."""
        return self.k_wg + delta / self.v_g


@dataclass(frozen=True)
class DisorderSpec:
    """Uniformly random placement at `density` atoms per lambda_wg/2."""

    density: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.density) and self.density > 0):
            raise ConfigError(f"disorder density must be finite and positive, got {self.density}")


@dataclass(frozen=True)
class ChainSpec:
    """A [left mirror?, emitter, right mirror?] chain: the segment counts, the
    edge-to-edge gap between segments, the lattice spacing of every segment
    (None: lambda_wg/2), each mirror's disorder (None: a lattice) and the seed.
    """

    n_left: int
    n_center: int
    n_right: int
    gap_d0: float = 0.5
    spacing: Optional[float] = None
    left_disorder: Optional[DisorderSpec] = None
    right_disorder: Optional[DisorderSpec] = None
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.n_left, self.n_right) < 0 or self.n_center < 1:
            raise ConfigError(
                "chain needs n_left, n_right >= 0 and n_center >= 1, got "
                f"{self.n_left}/{self.n_center}/{self.n_right}"
            )
        if self.spacing is not None and not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ConfigError(f"segment spacing must be finite and positive, got {self.spacing}")
        if not math.isfinite(self.gap_d0):
            raise ConfigError(f"gap_d0 must be finite, got {self.gap_d0}")
        if (self.n_left or self.n_right) and not self.gap_d0 > 0:
            raise ConfigError("gap_d0 must be positive when more than one segment is present")

    def segments(self) -> list[tuple[SegmentRole, int, Optional[DisorderSpec]]]:
        """(role, count, disorder) of each non-empty segment, left to right."""
        segments = [
            (SegmentRole.LEFT_MIRROR, self.n_left, self.left_disorder),
            (SegmentRole.EMITTER, self.n_center, None),
            (SegmentRole.RIGHT_MIRROR, self.n_right, self.right_disorder),
        ]
        return [seg for seg in segments if seg[1] > 0]

    def scaled(self, scale: float) -> "ChainSpec":
        """The chain with every count times scale, rounded; a nonzero count
        stays at least 1."""
        n_left, n_center, n_right = (
            max(1, round(n * scale)) if n else 0
            for n in (self.n_left, self.n_center, self.n_right)
        )
        return replace(self, n_left=n_left, n_center=n_center, n_right=n_right)


@dataclass
class AtomArray:
    """Sorted atom positions along the chain axis with their segment roles."""

    positions: np.ndarray
    emitter_start: int
    emitter_stop: int  # exclusive
    roles: tuple[SegmentRole, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def emitter_count(self) -> int:
        return self.emitter_stop - self.emitter_start

    @property
    def emitter_positions(self) -> np.ndarray:
        return self.positions[self.emitter_start : self.emitter_stop]

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["index", "z_over_lambda_wg", "segment_role"],
            [np.arange(self.n_atoms), self.positions, np.array([r.value for r in self.roles])],
        )


@dataclass
class StateVector:
    """Single-excitation amplitudes over the atoms; unit norm at construction."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ConfigError(f"state vector norm {norm} differs from 1 beyond 1e-12")

    @property
    def n_atoms(self) -> int:
        return len(self.amplitudes)


def _segment_positions(
    count: int,
    disorder: Optional[DisorderSpec],
    spacing: Optional[float],
    z_start: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Return the segment's atom positions and the coordinate of its far edge."""
    if disorder is None:
        spacing = 0.5 if spacing is None else spacing
        pos = z_start + spacing * np.arange(count)
        return pos, z_start + spacing * (count - 1)
    # Disordered segment: uniform draws over the nominal length count/density
    # half-waves; the nominal span (not the last atom) defines the far edge.
    length = count / disorder.density * 0.5
    pos = np.sort(rng.uniform(z_start, z_start + length, size=count))
    return pos, z_start + length


def build_chain(spec: ChainSpec) -> AtomArray:
    """Place every segment along the axis, first atom at z = 0.

    Lattice segments are exactly periodic; disordered segments consume the
    chain's seeded RNG in segment order, so a (spec, seed) pair reproduces the
    same geometry bit for bit.  Segments are separated edge to edge by gap_d0.
    """
    rng = np.random.default_rng(spec.rng_seed)
    positions: list[np.ndarray] = []
    roles: list[SegmentRole] = []
    far_edge = None
    for role, count, disorder in spec.segments():
        z_start = 0.0 if far_edge is None else far_edge + spec.gap_d0
        pos, far_edge = _segment_positions(count, disorder, spec.spacing, z_start, rng)
        positions.append(pos)
        roles.extend([role] * count)

    z = np.concatenate(positions)
    z = z - z[0]  # absolute origin at the first atom
    gaps = np.diff(z)
    if np.any(gaps < MIN_SEPARATION):
        bad = int(np.argmax(gaps < MIN_SEPARATION))
        raise GeometryError(
            f"atoms {bad} and {bad + 1} are separated by {gaps[bad]:.4g} lambda_wg, "
            f"below the floor {MIN_SEPARATION:.4g}"
        )
    return AtomArray(z, spec.n_left, spec.n_left + spec.n_center, tuple(roles))


def dicke_initial_state(array: AtomArray, params: PhysParams) -> StateVector:
    """Equal-weight emitter superposition with waveguide-matched phases.

    c_a = exp(i k_wg z_a) / sqrt(N_C) on the emitter segment, zero elsewhere.
    On a half-wave lattice the phases alternate between 0 and pi, so the
    amplitudes alternate in sign.
    """
    if array.emitter_count < 1:
        raise ConfigError("emitter segment is empty")
    amps = np.zeros(array.n_atoms, dtype=complex)
    z_c = array.emitter_positions
    amps[array.emitter_start : array.emitter_stop] = (
        np.exp(1j * params.k_wg * z_c) / math.sqrt(array.emitter_count)
    )
    return StateVector(amps)


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length 1-d columns under one header row, rows ended by "\\r\\n".

    A number is written as the repr of its Python scalar, for a float the
    shortest string that round-trips; a text column is written as it is and
    must need no quoting (no comma, quote or line break).  The bytes are those
    of csv.writer given repr(float(v)) per float.  Rows are formatted column by
    column and written CSV_BLOCK_ROWS at a time, so the file's text is never
    held whole.
    """
    columns = [np.asarray(col) for col in columns]
    n_rows = len(columns[0])
    if len(header) != len(columns) or any(col.shape != (n_rows,) for col in columns):
        raise ValueError("write_csv needs one name per column and equal-length 1-d columns")
    formats = [str if col.dtype.kind == "U" else repr for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            block = slice(lo, lo + CSV_BLOCK_ROWS)
            cells = [map(f, col[block].tolist()) for f, col in zip(formats, columns)]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
