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


class ConfigTable:
    """An ordered sequence of :class:`ConfigEntry` rows plus bit budget."""

    def __init__(self, n: int, omega: int,
                 entries: Sequence[ConfigEntry] = (),
                 reordered: bool = True) -> None:
        if n <= 0 or omega <= 0:
            raise ConfigError(f"invalid table dimensions n={n}, omega={omega}")
        self.n = int(n)
        self.omega = int(omega)
        self._entries: List[ConfigEntry] = list(entries)
        #: Whether the rows follow the data-path reordering of §4.1
        #: (False only for the SymGS ablation).  Without it, a SymGS
        #: row's diagonal block streams past before the row's trailing
        #: GEMV partials exist and must be re-fetched, with two extra
        #: data-path toggles.  The program binary records it.
        self.reordered = bool(reordered)

    # ------------------------------------------------------------------
    # Mutation (used by the conversion algorithm)
    # ------------------------------------------------------------------
    def add(self, entry: ConfigEntry) -> None:
        self._entries.append(entry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ConfigEntry]:
        return iter(self._entries)

    def __getitem__(self, i: int) -> ConfigEntry:
        return self._entries[i]

    @property
    def entries(self) -> List[ConfigEntry]:
        return list(self._entries)

    @property
    def n_block_rows(self) -> int:
        return -(-self.n // self.omega)

    def entry_bits(self) -> int:
        """Bits per table row: ``2*ceil(log2(n/omega)) + 3`` (§4.1)."""
        m = max(1, self.n_block_rows)
        index_bits = math.ceil(math.log2(m)) if m > 1 else 1
        return 2 * index_bits + 3

    def total_bits(self) -> int:
        """Total one-time programming payload in bits."""
        return len(self._entries) * self.entry_bits()

    def datapath_counts(self) -> dict:
        """How many entries use each data-path type."""
        counts: dict = {}
        for e in self._entries:
            counts[e.dp] = counts.get(e.dp, 0) + 1
        return counts

    def switch_count(self) -> int:
        """Number of data-path switches between adjacent entries.

        Every switch requires reconfiguring the RCU; Algorithm 1's
        reordering exists precisely to minimise this number.
        """
        switches = 0
        for prev, curr in zip(self._entries, self._entries[1:]):
            if prev.dp is not curr.dp:
                switches += 1
        return switches

    def dependent_fraction(self) -> float:
        """Fraction of entries that are data-dependent (D-SymGS)."""
        if not self._entries:
            return 0.0
        dep = sum(1 for e in self._entries if e.dp.is_dependent)
        return dep / len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConfigTable(n={self.n}, omega={self.omega}, "
                f"entries={len(self._entries)}, "
                f"switches={self.switch_count()})")
