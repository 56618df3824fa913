"""Regenerate the programming golden.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_programming_golden.py

Writes ``tests/data/programming_golden.json``: for every case, what the
programming phase produces from one matrix and one program —

* the sha256 of the program binary (``encode_program``) and of the
  device image (``encode_image``);
* the configuration table's length and switch count, the stream's
  block count and the conversion's ``nnz``;
* what ``Alrescha.program`` does with it: the image's table switches,
  or the ``ConfigError`` it raises;
* for every pass kind the program runs, a digest of each lowered plan
  array (stacked blocks, gather indices, the streaming plans' source
  bases and masks, segment starts and lengths, output rows, the
  compute-cycle vector, the per-block checksums and the SymGS plan's
  row records) and the names of the arrays that are read-only.

Cases: every Figure 14 dataset at scale 0.05 as SpMV, SymGS and SymGS
in natural column order (the §4.1 ablation); two graph datasets as
D-BFS, D-SSSP and D-PR, on the transposed adjacency ``repro compile``
programs; and small synthetic matrices with an empty block row, a
block row lacking its diagonal block (SymGS programming rejects its
zero pivots), n not a multiple of ω, and several block rows.

The golden pins the programming phase across commits: a rewrite of the
codecs, Algorithm 1, ``program()`` or plan lowering must keep every
byte and every lowered array.  Regenerating it declares a format or
lowering change; do so only with the change that caused it.  The file
holds one case per line so a diff names the cases that moved.
"""

import hashlib
import json
import pathlib

import numpy as np

from repro.analysis.experiments import SCIENTIFIC_SUITE
from repro.core import Alrescha, KernelType, convert
from repro.core.binary import encode_program
from repro.core.device_image import encode_image
from repro.core.plan import CompiledSymgsPass, compile_pass
from repro.datasets import load_dataset
from repro.errors import ConfigError

GOLDEN_PATH = pathlib.Path(__file__).with_name("programming_golden.json")

#: Dataset scale of the dataset cases.
SCALE = 0.05

OMEGA = 8

#: Program name -> (kernel, §4.1 reordering, plan kinds it runs).
PROGRAMS = {
    "spmv": (KernelType.SPMV, True, ("spmv",)),
    "symgs": (KernelType.SYMGS, True, ("symgs",)),
    "symgs-natural": (KernelType.SYMGS, False, ("symgs",)),
    "bfs": (KernelType.BFS, True, ("bfs", "bfs-parents")),
    "sssp": (KernelType.SSSP, True, ("sssp",)),
    "pagerank": (KernelType.PAGERANK, True, ("pagerank",)),
}

SCIENTIFIC_PROGRAMS = ("spmv", "symgs", "symgs-natural")
GRAPH_PROGRAMS = ("bfs", "sssp", "pagerank")

#: One unweighted power-law graph and the weighted road network.
GRAPH_DATASETS = ("Youtube", "roadNet-CA")


def _spd(n: int, density: float, seed: int) -> np.ndarray:
    """A dense SPD matrix with a sparse off-diagonal pattern."""
    gen = np.random.default_rng(seed)
    a = np.zeros((n, n))
    nnz = max(1, int(density * n * n))
    a[gen.integers(0, n, size=nnz), gen.integers(0, n, size=nnz)] = \
        gen.normal(size=nnz)
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    return a + np.diag(np.abs(a).sum(axis=1) + 1.0)


def _empty_block_row() -> np.ndarray:
    """n = 32: block row 1 (rows 8-15) and block column 1 hold nothing."""
    a = _spd(32, 0.2, 7)
    a[8:16, :] = 0.0
    a[:, 8:16] = 0.0
    return a


def _missing_diagonal_block() -> np.ndarray:
    """n = 24: block row 1 couples to block rows 0 and 2 but its own
    diagonal block, main diagonal included, is empty."""
    a = _spd(24, 0.15, 11)
    a[8:16, 8:16] = 0.0
    a[8:16, 0:8] = a[0:8, 8:16] = 0.5
    a[8:16, 16:24] = a[16:24, 8:16] = -0.25
    return a


#: Synthetic matrix name -> dense builder.
SYNTHETIC = {
    "empty-block-row": _empty_block_row,
    "missing-diagonal-block": _missing_diagonal_block,
    "ragged-n21": lambda: _spd(21, 0.2, 3),
    "spd-n70": lambda: _spd(70, 0.08, 5),
}


def _dataset_matrix(name: str):
    ds = load_dataset(name, scale=SCALE)
    return ds.matrix if ds.kind == "scientific" else ds.matrix.T.tocsr()


def cases():
    """``(case id, matrix builder, program name)`` of every case."""
    for name in SCIENTIFIC_SUITE:
        for program in SCIENTIFIC_PROGRAMS:
            yield (f"{name}/{program}",
                   lambda n=name: _dataset_matrix(n), program)
    for name in GRAPH_DATASETS:
        for program in GRAPH_PROGRAMS:
            yield (f"{name}/{program}",
                   lambda n=name: _dataset_matrix(n), program)
    for name, build in SYNTHETIC.items():
        for program in SCIENTIFIC_PROGRAMS:
            yield f"{name}/{program}", build, program


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(array: np.ndarray) -> str:
    """Digest of an array's dtype, shape and values."""
    head = f"{array.dtype.str}{array.shape}".encode()
    return _sha(head + np.ascontiguousarray(array).tobytes())[:16]


def _json_digest(value) -> str:
    return _sha(json.dumps(value).encode())[:16]


def plan_arrays(plan) -> dict:
    """The lowered arrays of a compiled pass, by name."""
    arts = plan.artifacts
    arrays = {"blocks": plan.blocks, "gather": plan.gather,
              "seg_start": arts.seg_start, "seg_len": arts.seg_len,
              "out_rows": arts.out_rows,
              "compute_cycles_per_block": arts.compute_cycles_per_block}
    if isinstance(plan, CompiledSymgsPass):
        arrays["diag_pad"] = plan._diag_pad
    else:
        arrays["src_base"] = plan.src_base
        if plan.masks is not None:
            arrays["masks"] = plan.masks
    return arrays


def plan_entry(plan) -> dict:
    """Digests of one compiled pass's lowered state."""
    arrays = plan_arrays(plan)
    out = {name: array_digest(arr) for name, arr in arrays.items()}
    out["checksums"] = _json_digest([int(c) for c in plan.checksums])
    out["read_only"] = sorted(name for name, arr in arrays.items()
                              if not arr.flags.writeable)
    if isinstance(plan, CompiledSymgsPass):
        out["rows"] = _json_digest([
            [r.seg_start, r.n_lower, r.seg_len, r.start, r.valid]
            for r in plan.rows])
    return out


def run_case(matrix, program: str) -> dict:
    kernel, reorder, kinds = PROGRAMS[program]
    conv = convert(kernel, matrix, omega=OMEGA, reorder=reorder)
    entry = {
        "program_sha256": _sha(encode_program(kernel, conv.table)),
        "image_sha256": _sha(encode_image(conv.matrix)),
        "table_len": len(conv.table),
        "switch_count": conv.table.switch_count(),
        "n_blocks": conv.matrix.n_blocks,
        "nnz": conv.nnz,
    }
    acc = Alrescha()
    try:
        acc.program(conv)
    except ConfigError as exc:
        entry["program_error"] = str(exc)
        return entry
    entry["table_switches"] = acc.image.table_switches
    entry["plans"] = {kind: plan_entry(compile_pass(acc, kind))
                      for kind in kinds}
    return entry


def dumps_golden(entries):
    """One case per line, keys sorted: stable bytes, readable diffs."""
    lines = [f"{json.dumps(cid)}: {json.dumps(entries[cid], sort_keys=True)}"
             for cid in sorted(entries)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    entries = {cid: run_case(build(), program)
               for cid, build, program in cases()}
    GOLDEN_PATH.write_text(dumps_golden(entries))
    print(f"wrote {GOLDEN_PATH} ({len(entries)} cases)")


if __name__ == "__main__":
    main()
