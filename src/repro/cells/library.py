"""Synthetic 28 nm-class standard-cell library.

The paper synthesises benchmarks with Design Compiler against TSMC 28 nm,
which we cannot ship.  :func:`make_tsmc28_like` builds a library with the
same *structure*: every combinational function exists at drive strengths
D0/D1/D2/D4; higher drive means lower output resistance (faster under
load), larger area, and slightly larger input capacitance.  The optimizer
and resizer only rely on those monotone trade-offs, so orderings produced
against this library match what a real 28 nm kit would give in shape.

Base characterisation values target a realistic 28 nm operating point: an
FO4 inverter delay of roughly 15-20 ps and NAND2 area near 0.6 µm².
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .cell import FUNCTIONS, Cell, CellFunction, cell_name, split_cell_name
from .timing_model import LinearTimingSpec, TimingArc

#: Drive codes offered for every function, in increasing strength.
DRIVE_CODES: Tuple[int, ...] = (0, 1, 2, 4)

#: Relative output strength of each drive code (D1 is the reference).
DRIVE_FACTOR: Mapping[int, float] = {0: 0.5, 1: 1.0, 2: 2.0, 4: 4.0}


class Library:
    """A set of :class:`Cell` objects indexed by name and by function.

    The library is immutable after construction; lookups are O(1).
    """

    def __init__(self, name: str, cells: Iterable[Cell]):
        self.name = name
        self._cells: Dict[str, Cell] = {}
        self._by_function: Dict[str, List[Cell]] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate cell {cell.name!r}")
            self._cells[cell.name] = cell
            self._by_function.setdefault(cell.function.name, []).append(cell)
        for variants in self._by_function.values():
            variants.sort(key=lambda c: c.drive)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def cell(self, name: str) -> Cell:
        """Look up a cell by its library name, e.g. ``"NAND2D1"``."""
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"cell {name!r} not in library {self.name!r}") from None

    def area_units(self) -> Tuple[Dict[str, int], int]:
        """Every cell's area as an exact integer count of ``1/scale`` µm².

        A float area is exactly ``n / 2**k``
        (:meth:`float.as_integer_ratio`); ``scale`` is the largest such
        denominator, so ``units[name] / scale == cell(name).area`` with
        no rounding.  Sums of units are exact and order-free, and one
        int true division ``total / scale`` rounds once, correctly:
        the result is ``math.fsum`` of the same areas.  Built once per
        library.
        """
        table = self.__dict__.get("_area_units")
        if table is None:
            ratios = {
                name: cell.area.as_integer_ratio()
                for name, cell in self._cells.items()
            }
            scale = max((den for _, den in ratios.values()), default=1)
            units = {
                name: num * (scale // den)
                for name, (num, den) in ratios.items()
            }
            table = self._area_units = (units, scale)
        return table

    def cells(self) -> List[Cell]:
        """All cells, in deterministic (name-sorted) order."""
        return [self._cells[n] for n in sorted(self._cells)]

    def functions(self) -> List[str]:
        """All function names available in the library."""
        return sorted(self._by_function)

    def variants(self, function: str) -> List[Cell]:
        """Drive variants of ``function``, sorted by increasing drive."""
        try:
            return list(self._by_function[function])
        except KeyError:
            raise KeyError(
                f"function {function!r} not in library {self.name!r}"
            ) from None

    def default_cell(self, function: str) -> Cell:
        """The D1 variant of ``function`` (the synthesis default)."""
        for cell in self.variants(function):
            if cell.drive == 1:
                return cell
        return self.variants(function)[0]

    def upsize(self, name: str) -> Optional[Cell]:
        """Next-stronger variant of the named cell, or ``None`` at the top."""
        function, drive = split_cell_name(name)
        variants = self.variants(function)
        for cell in variants:
            if cell.drive > drive:
                return cell
        return None

    def downsize(self, name: str) -> Optional[Cell]:
        """Next-weaker variant of the named cell, or ``None`` at the bottom."""
        function, drive = split_cell_name(name)
        weaker = [c for c in self.variants(function) if c.drive < drive]
        return weaker[-1] if weaker else None


@dataclass(frozen=True)
class _FunctionSeed:
    """Per-function characterisation seed at drive D1."""

    intrinsic: float  # ps
    resistance: float  # ps per fF of load
    area: float  # µm²
    input_cap: float  # fF


# D1 seeds, loosely calibrated to a 28 nm HPM-class process.  The ordering
# matters more than the absolute values: XOR-class cells are slower and
# bigger than NAND-class cells, three-input cells are slower than
# two-input ones, and so on.
_SEEDS: Mapping[str, _FunctionSeed] = {
    "INV": _FunctionSeed(6.0, 2.0, 0.29, 1.0),
    "BUF": _FunctionSeed(12.0, 1.8, 0.44, 1.0),
    "AND2": _FunctionSeed(14.0, 2.2, 0.59, 1.1),
    "OR2": _FunctionSeed(14.5, 2.3, 0.59, 1.1),
    "NAND2": _FunctionSeed(9.0, 2.4, 0.44, 1.2),
    "NOR2": _FunctionSeed(9.5, 2.6, 0.44, 1.2),
    "XOR2": _FunctionSeed(19.0, 2.8, 0.88, 1.5),
    "XNOR2": _FunctionSeed(19.5, 2.8, 0.88, 1.5),
    "AND3": _FunctionSeed(17.0, 2.4, 0.73, 1.1),
    "OR3": _FunctionSeed(17.5, 2.5, 0.73, 1.1),
    "NAND3": _FunctionSeed(11.5, 2.7, 0.59, 1.3),
    "NOR3": _FunctionSeed(12.5, 3.0, 0.59, 1.3),
    "XOR3": _FunctionSeed(27.0, 3.0, 1.32, 1.6),
    "AND4": _FunctionSeed(20.0, 2.6, 0.88, 1.2),
    "OR4": _FunctionSeed(20.5, 2.7, 0.88, 1.2),
    "MUX2": _FunctionSeed(18.0, 2.5, 0.88, 1.3),
    "AOI21": _FunctionSeed(11.0, 2.7, 0.59, 1.3),
    "OAI21": _FunctionSeed(11.0, 2.7, 0.59, 1.3),
    "MAJ3": _FunctionSeed(20.0, 2.7, 1.03, 1.4),
}


def _build_cell(function: CellFunction, seed: _FunctionSeed, drive: int) -> Cell:
    factor = DRIVE_FACTOR[drive]
    # Stronger drive: proportionally lower output resistance, slightly
    # lower intrinsic delay, more area, and more input capacitance.
    delay_spec = LinearTimingSpec(
        intrinsic=seed.intrinsic * (1.0 / (0.6 + 0.4 * factor)),
        resistance=seed.resistance / factor,
    )
    slew_spec = LinearTimingSpec(
        intrinsic=0.6 * seed.intrinsic,
        resistance=0.9 * seed.resistance / factor,
        slew_sensitivity=0.18,
        cross=0.03,
    )
    area = seed.area * (0.55 + 0.45 * factor)
    input_cap = seed.input_cap * (0.75 + 0.25 * factor)
    max_load = 12.0 * factor
    return Cell(
        name=cell_name(function.name, drive),
        function=function,
        drive=drive,
        area=round(area, 4),
        input_cap=round(input_cap, 4),
        arc=TimingArc.from_linear(delay_spec, slew_spec),
        max_load=max_load,
    )


def make_tsmc28_like(name: str = "tsmc28-like") -> Library:
    """Build the synthetic 28 nm-class library used throughout the repo."""
    cells = [
        _build_cell(FUNCTIONS[fn_name], seed, drive)
        for fn_name, seed in sorted(_SEEDS.items())
        for drive in DRIVE_CODES
    ]
    return Library(name, cells)


_DEFAULT_LIBRARY: Optional[Library] = None


def default_library() -> Library:
    """Process-wide shared instance of the synthetic library."""
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = make_tsmc28_like()
    return _DEFAULT_LIBRARY
