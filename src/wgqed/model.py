"""Chain geometry, physical rate constants, and the phased collective initial state.

The units are fixed, not configured: every rate is in units of the free-space
linewidth gamma (so times are in 1/gamma) and every length in units of the
guided-mode wavelength lambda_wg; both are 1.  The default group velocity is
anchored to the Rb D2 line so that runs with centimetre-scale cavities map
onto realistic retardation times.

write_csv, at the end, writes every CSV artifact of a run, with the bytes of
Python's repr for every number.  Its floats come from a vectorised
shortest-digit kernel: a double-double product a 10^(16 - e) against a table
of exact powers of ten, the 15-, 16- and 17-digit roundings tested against
the value's rounding interval, and a layout read from small tables.  A value
the kernel cannot certify within a fixed margin, or one outside its range, is
formatted by repr itself.
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

# Effective index (vacuum over guided wavelength) of the guided mode.  It only
# converts c into the reduced units below, so it sets the default v_g; every
# quoted rate is independent of it.
DEFAULT_MODE_INDEX = 1.2

# Speed of light in units of gamma * lambda_wg, then the nanofiber group velocity.
C_REDUCED = C_M_PER_S / (GAMMA_RAD_PER_S * LAMBDA0_M) * DEFAULT_MODE_INDEX
DEFAULT_V_G = 0.7 * C_REDUCED

# Pairs closer than this (in lambda_wg) are rejected: the point-dipole guided
# coupling does not describe atoms at contact.
MIN_SEPARATION = 0.01

# Most rows formatted and written at a time by write_csv, which splits a file
# into blocks of equal size.
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
    """Physical rates of the atom-waveguide system, in the reduced units: the
    free-space decay rate gamma and the guided wavelength lambda_wg are 1 and
    are not parameters.

    beta       coupling ratio gamma_1d / gamma.
    gamma_ext  decay rate of each atom into external (non-guided) modes.
    v_g        group velocity of the guided mode.
    """

    beta: float = 0.1
    gamma_ext: float = 0.95
    v_g: float = DEFAULT_V_G

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.gamma_ext > 0:
            raise ConfigError(f"gamma_ext must be positive, got {self.gamma_ext}")
        if not (math.isfinite(self.v_g) and self.v_g > 0):
            raise ConfigError(f"v_g must be finite and positive, got {self.v_g}")
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


# ---------------------------------------------------------------------------
# CSV artifacts: repr's bytes, a block of rows at a time
# ---------------------------------------------------------------------------


def _pow10_table(span: int) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with 10^k = hi[k + span] + lo[k + span] to about 106 bits, for
    |k| <= span: hi is 10^k rounded to a double and lo the rounded rest.
    Python rounds int-to-float and int / int correctly, so ints suffice."""
    hi = np.empty(2 * span + 1)
    lo = np.empty(2 * span + 1)
    for k in range(-span, span + 1):
        if k >= 0:
            hi[k + span] = h = float(10**k)
            lo[k + span] = float(10**k - int(h))
        else:
            den = 10**-k
            hi[k + span] = h = 1 / den
            num, pow2 = h.as_integer_ratio()
            lo[k + span] = (pow2 - num * den) / (pow2 * den)
    return hi, lo


_POW_SPAN = 300
_POW_HI, _POW_LO = _pow10_table(_POW_SPAN)
# The kernel formats 1e-280 <= |x| < 1e280, where neither the Dekker split nor
# the power table leaves the normal range; repr formats every other value.
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
# A rounding within this many units of the 17th digit of a tie, or a candidate
# within it of the rounding interval's edge, goes to repr.  The double-double
# product is off by under 1e-14 of these units.
_MARGIN = 2.0**-20


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each double into two halves of at most 26 bits."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """y = a 10^(16 - e) as a double-double y_hi + y_lo, off by under 1e-30
    of y, and the double nearest 10^(16 - e)."""
    row = 16 + _POW_SPAN - e
    p_hi, p_lo = _POW_HI[row], _POW_LO[row]
    h = a * p_hi
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(p_hi)
    # h + t = a p_hi exactly (Dekker's product), plus a p_lo
    t = ((a_hi * b_hi - h) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * p_lo
    y_hi = h + t
    return y_hi, t - (y_hi - h), p_hi


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of positive doubles in the kernel's range.

    Returns (m, e, n_digits, certain) for a 1-d a: a = m 10^(e - 16) with m a
    17-digit integer whose trailing zeros pad a shorter string; n_digits is
    17 or 16, or 15 where m's trailing zeros may shorten the string further;
    `certain` is false where repr must decide.  This is repr's choice: the
    fewest digits that read back as a, and of those the string nearest to a.

    y = a 10^(16 - e) lies in [1e16, 1e17).  A string of at most 15 digits
    that reads back is y rounded to 15 digits, since distinct 15-digit
    decimals read back as distinct doubles.  A 16- or 17-digit one is y
    rounded, because the rounding interval is symmetric about a, except at a
    power of two, which repr formats.  So a 17- or 16-digit choice ends in no
    zero: the shorter string would have read back.
    """
    e = np.floor(np.log10(a)).astype(np.int16)
    y_hi, y_lo, p_hi = _scaled(a, e)
    near = np.flatnonzero((y_hi <= 1e16) | (y_hi >= 1e17))
    if near.size:  # log10 can be one off next to a power of ten
        hi, lo = y_hi[near], y_lo[near]
        e[near] += (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        e[near] -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        y_hi[near], y_lo[near], p_hi[near] = _scaled(a[near], e[near])
    y_frac = y_lo  # y = y_int + y_frac, 0 <= y_frac < 1
    floor_lo = np.floor(y_lo)
    y_int = y_hi.astype(np.int64)  # y_hi >= 2^53 is an integer
    y_int += floor_lo.astype(np.int64)
    y_frac -= floor_lo
    del y_hi, floor_lo  # each del here lowers the writer's peak memory
    # half an ulp of a in units of y, at least 0.55; a power of two, whose
    # interval is narrower below, is not certain
    mant, exp2 = np.frexp(a)
    gap = np.ldexp(p_hi, exp2 - 54)
    power_of_two = mant == 0.5
    del mant, exp2, p_hi
    # 17 digits: y rounded reads back; only a tie is unsure
    m = y_int + (y_frac > 0.5)
    n_digits = np.full(len(a), 17, np.int16)
    certain = np.abs(y_frac - 0.5) >= _MARGIN
    for step, n in ((10, 16), (100, 15)):  # each overrules the longer string
        r = y_int - y_int // step * step
        rest = r + y_frac  # y - the candidate below
        dist = np.minimum(rest, step - rest)  # to the nearest candidate
        reads_back = dist <= gap + _MARGIN  # or too close to the edge to tell
        np.copyto(m, y_int - r + step * (rest > 0.5 * step), where=reads_back)
        np.copyto(n_digits, n, where=reads_back)
        # inside, and no tie between two candidates
        sure = dist < np.minimum(gap - _MARGIN, 0.5 * step - _MARGIN)
        np.copyto(certain, sure, where=reads_back)
    certain &= ~power_of_two
    return m, e, n_digits, certain


def _words(strings) -> np.ndarray:
    """One native uint64 per 8-byte string, so that a gather moves 8 bytes."""
    return np.frombuffer(b"".join(strings), np.uint64)


# A float cell is 6 words: "-0.000" (the sign, NUL when positive, and the
# lead of 1e-4 <= |x| < 0.1) with the first digit and a dot, four groups
# "d.d.d.d." of the other 16 digits, and the exponent "e+dd" or "e+ddd".  The
# bytes a value does not use are set to NUL, and the writer drops every NUL.
CELL_BYTES = 48
_LEAD_WORDS = _words(b"%c0.000%d." % (sign, d) for sign in b"\0-" for d in range(10))


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each four-digit group as the word "d.d.d.d.", and its trailing zeros."""
    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    digits %= 10
    text = np.full((10_000, 8), ord("."), np.uint8)
    text[:, ::2] = digits + ord("0")
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1, dtype=np.int16)
    return text.view(np.uint64).ravel(), zeros


_GROUP_WORDS, _GROUP_ZEROS = _group_tables()
_EXPONENTS = range(-400, 401)
_EXPONENT_WORDS = _words((b"e%+03d" % e).ljust(8, b"\0") for e in _EXPONENTS)


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """The bytes of a float cell that each layout keeps, as words of 0xff and
    0 bytes, one row per layout and digit count 1 to 17; and for each decimal
    exponent, the row of its layout less one, to which the count is added.

    Layouts 0-15 are positional with e = layout, 16-19 positional with
    e = 15 - layout, 20 and 21 exponential with two and three exponent digits.
    """
    keep = np.zeros((22, 17, CELL_BYTES), bool)
    keep[..., 0] = True  # the sign
    for layout, n in np.ndindex(22, 17):
        mask = keep[layout, n]
        n += 1
        if layout < 16:  # positional, |x| >= 1, with a fraction digit
            end, dot = max(n, layout + 2), layout
        elif layout < 20:  # positional, |x| < 1: "0." and the lead's zeros
            end, dot = n, None
            mask[1 : 2 + layout - 15] = True
        else:  # exponent, "e+dd" or "e+ddd"
            end, dot = n, 0 if n > 1 else None
            mask[40 : 44 + layout - 20] = True
        mask[6 : 6 + 2 * end : 2] = True
        if dot is not None:
            mask[7 + 2 * dot] = True
    first = [
        e if 0 <= e < 16 else 15 - e if -4 <= e < 0 else 20 + (abs(e) >= 100) for e in _EXPONENTS
    ]
    words = (keep.astype(np.uint8) * 0xFF).view(np.uint64).reshape(-1, CELL_BYTES // 8)
    return words, 17 * np.array(first, np.int16) - 1


_LAYOUT_WORDS, _LAYOUT_OF_EXPONENT = _layouts()


def _float_cells(x: np.ndarray) -> np.ndarray:
    """repr of each double of a 1-d x as a NUL-padded cell, shape (len(x), 6)
    in words.

    The bytes kept are a table row chosen by the layout (positional for
    1e-4 <= |x| < 1e16, as repr; the decimal exponent fixes the rest) and
    the digit count.  A value the kernel does not format (outside its range,
    at a power of two, or not certified) is formatted by repr.
    """
    a = np.abs(x)
    fast = (a >= _KERNEL_MIN) & (a < _KERNEL_MAX)  # no 0, subnormal, inf or nan
    np.copyto(a, 1.0, where=~fast)
    m, e, n_digits, certain = _shortest(a)
    del a
    top = m == 10**17  # rounded up to the next power of ten
    np.copyto(m, 10**16, where=top)
    e += top
    upper = m // 10**8
    lead = upper // 10**8
    groups = np.empty((len(x), 4), np.int16)
    for i, part in ((0, upper - lead * 10**8), (2, m - upper * 10**8)):
        np.floor_divide(part, 10**4, out=groups[:, i], casting="unsafe")
        np.subtract(part, groups[:, i] * 10**4, out=groups[:, i + 1], casting="unsafe")
    del m, upper
    short = np.flatnonzero(n_digits == 15)
    zeros = _GROUP_ZEROS[groups[short, 0]]
    for i in (1, 2, 3):  # the zeros of a group count when every later group is 0
        group = groups[short, i]
        zeros = np.where(group == 0, zeros + 4, _GROUP_ZEROS[group])
    n_digits[short] = 17 - zeros
    exponent = e + 400
    words = np.empty((len(x), 6), np.uint64)
    words[:, 0] = _LEAD_WORDS[lead + 10 * (x < 0)]
    words[:, 1:5] = _GROUP_WORDS[groups]
    words[:, 5] = _EXPONENT_WORDS[exponent]
    words &= np.take(_LAYOUT_WORDS, _LAYOUT_OF_EXPONENT[exponent] + n_digits, axis=0)
    slow = np.flatnonzero(~(fast & certain))
    if slow.size:
        text = np.array([repr(v) for v in x[slow].tolist()], f"S{CELL_BYTES}")
        words[slow] = text.view(np.uint64).reshape(-1, 6)
    return words


# np.compress holds an 8-byte index per byte it keeps, so a block is
# compacted this many bytes at a time.
_PIECE_BYTES = 1 << 15


def _write_block(fh, columns, floats: list[int], text: dict, rows: slice, width: int) -> None:
    """Lay out the rows of a block as one byte matrix, a NUL-padded cell of
    `width` bytes per value with its separator in its last two bytes, and
    write it without the NULs."""
    n = rows.stop - rows.start
    if floats:
        x = np.stack([columns[j][rows] for j in floats], axis=1, dtype=np.float64)
        cells = _float_cells(x.ravel()).reshape(n, len(floats), CELL_BYTES // 8)
    if not text:  # float columns only: the kernel's cells are the block
        words = cells
    else:
        words = np.zeros((n, len(columns), width // 8), np.uint64)
        if floats:
            words[:, floats, : CELL_BYTES // 8] = cells
    chars = words.view(np.uint8)
    for j, strings in text.items():
        strings = strings[rows]
        chars[:, j, : strings.itemsize] = strings.view(np.uint8).reshape(n, strings.itemsize)
    chars[..., -2:] = np.frombuffer(b",\0" * (len(columns) - 1) + b"\r\n", np.uint8).reshape(-1, 2)
    chars = chars.ravel()
    for start in range(0, len(chars), _PIECE_BYTES):
        piece = chars[start : start + _PIECE_BYTES]
        fh.write(np.compress(piece != 0, piece))


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length 1-d columns under one header row, rows ended by "\\r\\n".

    A number is written as the repr of its Python scalar, for a float the
    shortest string that round-trips; a text column is written as it is, in
    UTF-8, and must need no quoting (no comma, quote or line break) and hold
    no NUL.  The bytes are those of csv.writer given repr(float(v)) per float.

    The rows go out in blocks of at most CSV_BLOCK_ROWS, each laid out as one
    byte matrix: a NUL-padded cell of fixed width per value, its separator in
    its last two bytes.  The block is written without its NULs, so the
    file's text is never held whole.  The float columns of a block go
    through one call of the shortest-digit kernel (_float_cells).
    """
    columns = [np.asarray(col) for col in columns]
    n_rows = len(columns[0])
    if len(header) != len(columns) or any(col.shape != (n_rows,) for col in columns):
        raise ValueError("write_csv needs one name per column and equal-length 1-d columns")
    floats = [j for j, col in enumerate(columns) if col.dtype.kind == "f"]
    # an int as its str, text in UTF-8: the bytes of each cell, NUL-padded
    text = {
        j: np.strings.encode(col, "utf-8") if col.dtype.kind == "U" else col.astype("S")
        for j, col in enumerate(columns)
        if col.dtype.kind in "iuU"
    }
    if len(floats) + len(text) < len(columns):
        raise ValueError("write_csv formats float, integer and text columns")
    width = max([CELL_BYTES] + [-(-(strings.itemsize + 2) // 8) * 8 for strings in text.values()])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        n_blocks = max(1, -(-n_rows // CSV_BLOCK_ROWS))
        bounds = [n_rows * i // n_blocks for i in range(n_blocks + 1)]  # no short last block
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            _write_block(fh, columns, floats, text, slice(lo, hi), width)
