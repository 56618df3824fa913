"""Sparse-matrix storage formats, all implemented from scratch.

COO, CSR, ELL, DIA and BCSR are the classical formats the paper surveys
in §4.5 / Figure 12; :class:`AlreschaMatrix` is the paper's locally-dense
format with compute-ordered blocks, reversed upper blocks and an
extracted diagonal.
"""

from repro.formats.alrescha import AlreschaMatrix, StreamBlock
from repro.formats.base import SparseFormat, as_dense, index_bits
from repro.formats.bcsr import BCSRMatrix
from repro.formats.coo import COOMatrix, blocked_coo_metadata_bits
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix, PAD
from repro.formats.metadata import DEFAULT_OMEGA, format_survey

__all__ = [
    "AlreschaMatrix",
    "BCSRMatrix",
    "COOMatrix",
    "CSRMatrix",
    "DIAMatrix",
    "ELLMatrix",
    "PAD",
    "SparseFormat",
    "StreamBlock",
    "DEFAULT_OMEGA",
    "as_dense",
    "blocked_coo_metadata_bits",
    "format_survey",
    "index_bits",
]
