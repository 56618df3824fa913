"""Configuration table: the programmed form of a sparse kernel (§4.1).

The host runs Algorithm 1 once, turning a sparse kernel plus its matrix
into a sequence of *dense data paths*.  Each row of the configuration
table describes one data path:

    (DP type, Inx_in, Inx_out, access order, operand source)

and costs ``2*ceil(log2(n/omega)) + 3`` bits — two block indices plus one
bit each for the data-path type, the access order and the operand port.
The table is written through the program interface once; during the
iterative execution no meta-data is ever streamed from memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Sequence

import numpy as np

from repro.errors import ConfigError


class KernelType(Enum):
    """Sparse kernels the accelerator supports (Table 1)."""

    SPMV = "spmv"
    SYMGS = "symgs"
    BFS = "bfs"
    SSSP = "sssp"
    PAGERANK = "pagerank"

    @property
    def datapath(self) -> "DataPathType":
        """The dense data path this kernel's blocks lower to (Table 1,
        'Dense Data Paths' column); SymGS lowers to a *mix* of GEMV and
        D-SymGS, so its default lowering is the dependent one."""
        return _KERNEL_TO_DATAPATH[self]


class DataPathType(Enum):
    """Dense data paths implemented by the compute engine (§4.2)."""

    GEMV = "gemv"
    D_SYMGS = "d-symgs"
    D_BFS = "d-bfs"
    D_SSSP = "d-sssp"
    D_PR = "d-pr"

    @property
    def is_dependent(self) -> bool:
        """True for data paths with sequential in-block dependencies."""
        return self is DataPathType.D_SYMGS


_KERNEL_TO_DATAPATH = {
    KernelType.SPMV: DataPathType.GEMV,
    KernelType.SYMGS: DataPathType.D_SYMGS,
    KernelType.BFS: DataPathType.D_BFS,
    KernelType.SSSP: DataPathType.D_SSSP,
    KernelType.PAGERANK: DataPathType.D_PR,
}


class AccessOrder(Enum):
    """Element access order within a block (Algorithm 1: l2r / r2l)."""

    L2R = "l2r"
    R2L = "r2l"


class OperandPort(Enum):
    """Which local-cache port supplies the vector operand.

    For SymGS, port 1 carries the vector being computed this iteration
    (``x^t``) and port 2 the previous iteration's vector (``x^{t-1}``).
    """

    PORT1 = "port1"
    PORT2 = "port2"


#: ``Inx_out`` value meaning "do not write the result to the cache" —
#: the GEMV partials of a SymGS row go to the link stack instead.
NO_CACHE_WRITE = -1


@dataclass(frozen=True)
class ConfigEntry:
    """One row of the configuration table.

    ``block_row``/``block_col`` are simulator bookkeeping used to fetch
    the right stream block; they are *not* part of the hardware table
    (the stream order makes them implicit) and are excluded from the bit
    budget.
    """

    dp: DataPathType
    inx_in: int
    inx_out: int
    order: AccessOrder
    op: OperandPort
    block_row: int
    block_col: int

    def __post_init__(self) -> None:
        if self.inx_in < 0:
            raise ConfigError(f"Inx_in must be non-negative, got {self.inx_in}")
        if self.inx_out < NO_CACHE_WRITE:
            raise ConfigError(f"invalid Inx_out {self.inx_out}")


#: Column codes: the table's ``dp``, ``order`` and ``port`` columns hold
#: each value's index in these tuples.
DATAPATHS = tuple(DataPathType)
ACCESS_ORDERS = tuple(AccessOrder)
OPERAND_PORTS = tuple(OperandPort)

_CODES = {value: code for values in (DATAPATHS, ACCESS_ORDERS, OPERAND_PORTS)
          for code, value in enumerate(values)}

#: Column names and dtypes, in the order of a table row.
_COLUMNS = (("dp", np.int8), ("block_row", np.int64),
            ("block_col", np.int64), ("order", np.int8),
            ("port", np.int8))


def column_code(value: Enum) -> int:
    """The column code of a data path, access order or operand port."""
    return _CODES[value]


_GEMV = column_code(DataPathType.GEMV)
_D_SYMGS = column_code(DataPathType.D_SYMGS)


def _row(entry: ConfigEntry) -> tuple:
    """``entry`` as one value per column."""
    return (column_code(entry.dp), entry.block_row, entry.block_col,
            column_code(entry.order), column_code(entry.op))


class ConfigTable:
    """An ordered configuration table, stored as columns, plus bit budget.

    Row ``i`` is ``dp[i]``, ``block_row[i]``, ``block_col[i]``,
    ``order[i]`` and ``port[i]``: read-only arrays, the first and last
    two holding codes into :data:`DATAPATHS`, :data:`ACCESS_ORDERS` and
    :data:`OPERAND_PORTS`.  ``Inx_in`` and ``Inx_out`` follow from the
    block indices (:attr:`inx_in`, :attr:`inx_out`).  Indexing and
    iteration build :class:`ConfigEntry` rows on demand; the
    programming phase reads the columns.
    """

    def __init__(self, n: int, omega: int,
                 entries: Sequence[ConfigEntry] = (),
                 reordered: bool = True) -> None:
        if n <= 0 or omega <= 0:
            raise ConfigError(f"invalid table dimensions n={n}, omega={omega}")
        self.n = int(n)
        self.omega = int(omega)
        #: Whether the rows follow the data-path reordering of §4.1
        #: (False only for the SymGS ablation).  Without it, a SymGS
        #: row's diagonal block streams past before the row's trailing
        #: GEMV partials exist and must be re-fetched, with two extra
        #: data-path toggles.  The program binary records it.
        self.reordered = bool(reordered)
        self._set_columns(*(list(zip(*map(_row, entries)))
                            or [()] * len(_COLUMNS)))

    @classmethod
    def from_columns(cls, n: int, omega: int, dp, block_row, block_col,
                     order, port, reordered: bool = True
                     ) -> "ConfigTable":
        """A table holding copies of the given columns (codes as in the
        class docstring)."""
        table = cls(n, omega, reordered=reordered)
        table._set_columns(dp, block_row, block_col, order, port)
        return table

    def _set_columns(self, *columns) -> None:
        arrays = []
        for (_name, dtype), column in zip(_COLUMNS, columns):
            array = np.array(column, dtype=dtype)
            array.flags.writeable = False
            arrays.append(array)
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ConfigError("table columns must be 1-D and equally long")
        (self.dp, self.block_row, self.block_col, self.order,
         self.port) = arrays

    # ------------------------------------------------------------------
    # Mutation (tests and hand-built tables; Algorithm 1 and the
    # program decoder build the columns at once)
    # ------------------------------------------------------------------
    def add(self, entry: ConfigEntry) -> None:
        self._set_columns(*(np.append(getattr(self, name), value)
                            for (name, _dtype), value
                            in zip(_COLUMNS, _row(entry))))

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    @property
    def dependent(self) -> np.ndarray:
        """Per row: the data path is the dependent D-SymGS."""
        return self.dp == _D_SYMGS

    @property
    def inx_in(self) -> np.ndarray:
        """``Inx_in`` per row: the operand chunk's first element."""
        return self.block_col * self.omega

    @property
    def inx_out(self) -> np.ndarray:
        """``Inx_out`` per row: the output chunk's first element, or
        :data:`NO_CACHE_WRITE` for the GEMV rows of a SymGS table (a
        table with D-SymGS rows), whose partials go to the link stack."""
        out = self.block_row * self.omega
        if self.dependent.any():
            out = np.where(self.dp == _GEMV, NO_CACHE_WRITE, out)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.dp.size)

    def __iter__(self) -> Iterator[ConfigEntry]:
        rows = zip(self.dp.tolist(), self.inx_in.tolist(),
                   self.inx_out.tolist(), self.order.tolist(),
                   self.port.tolist(), self.block_row.tolist(),
                   self.block_col.tolist())
        for dp, inx_in, inx_out, order, port, row, col in rows:
            yield ConfigEntry(DATAPATHS[dp], inx_in, inx_out,
                              ACCESS_ORDERS[order], OPERAND_PORTS[port],
                              row, col)

    def __getitem__(self, i: int) -> ConfigEntry:
        return self.entries[i]

    @property
    def entries(self) -> List[ConfigEntry]:
        return list(self)

    @property
    def n_block_rows(self) -> int:
        return -(-self.n // self.omega)

    def index_bits(self) -> int:
        """Bits per block index: ``ceil(log2(n/omega))``, at least 1."""
        m = max(1, self.n_block_rows)
        return math.ceil(math.log2(m)) if m > 1 else 1

    def entry_bits(self) -> int:
        """Bits per table row: ``2*ceil(log2(n/omega)) + 3`` (§4.1)."""
        return 2 * self.index_bits() + 3

    def total_bits(self) -> int:
        """Total one-time programming payload in bits."""
        return len(self) * self.entry_bits()

    def datapath_counts(self) -> dict:
        """How many entries use each data-path type, in order of first
        use."""
        codes, first, counts = np.unique(self.dp, return_index=True,
                                         return_counts=True)
        order = np.argsort(first)
        return {DATAPATHS[c]: int(k)
                for c, k in zip(codes[order], counts[order])}

    def switch_count(self) -> int:
        """Number of data-path switches between adjacent entries.

        Every switch requires reconfiguring the RCU; Algorithm 1's
        reordering exists precisely to minimise this number.
        """
        return int(np.count_nonzero(self.dp[1:] != self.dp[:-1]))

    @property
    def n_dependent(self) -> int:
        """Entries that are data-dependent (D-SymGS)."""
        return int(np.count_nonzero(self.dependent))

    def dependent_fraction(self) -> float:
        """Fraction of entries that are data-dependent (D-SymGS)."""
        if not len(self):
            return 0.0
        return self.n_dependent / len(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConfigTable(n={self.n}, omega={self.omega}, "
                f"entries={len(self)}, "
                f"switches={self.switch_count()})")
