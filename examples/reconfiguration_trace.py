#!/usr/bin/env python
"""Trace the GEMV <-> D-SymGS switching of a SymGS sweep (Figure 11).

Runs one forward SymGS sweep on a small matrix and narrates what the
hardware does per block row: which blocks stream into the GEMV data
path, the partial results pushed onto the LIFO link stack, the
reconfiguration into D-SymGS (hidden under the reduction-tree drain),
and the chunk of x^t the dependent data path produces.  Then quantifies
the cost of reconfiguration with the hide/expose and reordering
ablations.

Run:  python examples/reconfiguration_trace.py
"""

import numpy as np

from repro.analysis import reconfiguration_ablation, reordering_ablation
from repro.core import Alrescha, AlreschaConfig, DataPathType, KernelType
from repro.core.datapaths import dsymgs_block, gemv_block
from repro.core.config import OperandPort
from repro.datasets import stencil5
from repro.kernels import forward_sweep


def narrate_sweep(a, b, x_prev, omega=4) -> None:
    """Re-run the sweep dataflow step by step, printing the trace."""
    config = AlreschaConfig(omega=omega, n_alus=max(16, omega))
    acc = Alrescha.from_matrix(KernelType.SYMGS, a, config=config)
    conv = acc.conversion
    fcu = config.make_fcu()
    rcu = config.make_rcu()
    timing = config.timing()
    n = a.shape[0]
    diag = conv.matrix.diagonal

    rcu.load_operand("x_prev", x_prev)
    rcu.load_operand("x_curr", x_prev.copy())
    x_curr = rcu.operand("x_curr")

    block_map = {(s.block_row, s.block_col): s
                 for s in conv.matrix.stream()}
    current_dp = None
    print(f"n={n}, omega={omega}: "
          f"{len(conv.table)} data paths, "
          f"{conv.table.switch_count()} switches in table order\n")
    for entry in conv.table:
        sb = block_map[(entry.block_row, entry.block_col)]
        if current_dp is not entry.dp:
            drain = timing.drain(current_dp) if current_dp else 8
            exposed = rcu.reconfigure(entry.dp, drain)
            print(f"  ~~ reconfigure -> {entry.dp.value} "
                  f"(drain {drain:.0f} cy hides switch; "
                  f"exposed {exposed:.0f} cy)")
            current_dp = entry.dp
        start = entry.block_row * omega
        if entry.dp is DataPathType.GEMV:
            space = ("x_curr" if entry.op is OperandPort.PORT1
                     else "x_prev")
            chunk = rcu.read_chunk(space, entry.inx_in, omega)
            partial = gemv_block(fcu, sb.values, chunk, sb.reversed_cols)
            rcu.link.push(partial)
            rev = " (cols reversed, read r2l)" if sb.reversed_cols else ""
            print(f"  GEMV    block({entry.block_row},{entry.block_col}) "
                  f"x {space}[{entry.inx_in}:{entry.inx_in + omega}]{rev}"
                  f" -> push link (depth {len(rcu.link)})")
        else:
            acc_vec = np.zeros(omega)
            pops = 0
            while not rcu.link.empty:
                acc_vec += rcu.link.pop()
                pops += 1
            valid = max(0, min(omega, n - start))
            d_chunk = np.zeros(omega)
            d_chunk[:valid] = diag[start:start + valid]
            b_chunk = np.zeros(omega)
            b_chunk[:valid] = b[start:start + valid]
            x_old = rcu.read_chunk("x_prev", start, omega)
            x_new = dsymgs_block(fcu, sb.values, d_chunk, b_chunk, x_old,
                                 acc_vec, valid)
            x_curr[start:start + valid] = x_new[:valid]
            print(f"  D-SymGS block({entry.block_row},{entry.block_col}) "
                  f"pop x{pops} from link -> x^t"
                  f"[{start}:{start + valid}] = "
                  + np.array2string(x_new[:valid], precision=3))
    expected = forward_sweep(a, b, x_prev)
    assert np.allclose(x_curr, expected, atol=1e-10)
    print("\nsweep verified against the golden forward Gauss-Seidel\n")


def main() -> None:
    rng = np.random.default_rng(3)
    a = stencil5(4, 3).toarray()  # 12x12, omega=4 -> 3 block rows
    b = rng.normal(size=12)
    x_prev = rng.normal(size=12)
    narrate_sweep(a, b, x_prev)

    big = stencil5(24, 24)
    reconf = reconfiguration_ablation(big)
    print("reconfiguration ablation (24x24-grid Laplacian):")
    for mode, data in reconf.items():
        print(f"  {mode:8s} sweep {data['sweep_cycles']:9.1f} cy, "
              f"exposed reconfig {data['exposed_reconfig_cycles']:7.1f} cy")

    reorder = reordering_ablation(big)
    print("\ndata-path reordering ablation:")
    for mode, data in reorder.items():
        print(f"  {mode:10s} sweep {data['sweep_cycles']:9.1f} cy "
              f"({int(data['switches'])} switches)")


if __name__ == "__main__":
    main()
