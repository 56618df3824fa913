"""Programming-phase golden: codec bytes and lowered plans, pinned.

``tests/data/programming_golden.json`` holds, per case, the sha256 of
the program binary and the device image, the table and stream sizes,
what ``Alrescha.program`` made of them and a digest of every lowered
plan array (see ``tests/data/regen_programming_golden.py`` for the
cases).  Stores written by one commit are loaded by the next, so these
bytes are a compatibility contract, not just a regression pin.

The differential tests rebuild the image's per-op rows and every
lowered plan with a copy of the per-op loops the programming phase
used to run, and require the columnar results to equal them.  The
start tests require that a backend built through a primed store — or
an empty one, whose templates are priced from the columns — constructs
no per-block Python object at all, and that no untraced compile runs
the per-block interpreter.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest

import scipy.sparse as sp

from repro.core import Alrescha, AlreschaConfig, KernelType, convert
from repro.core import accelerator as accelerator_module
from repro.core import interpreter
from repro.core.config import (ConfigEntry, ConfigTable, DataPathType,
                               OperandPort)
from repro.core.convert import ConversionResult
from repro.core.plan import compile_pass
from repro.datasets import load_dataset
from repro.errors import SimulationError
from repro.formats.alrescha import StreamBlock
from repro.observe import Tracer
from repro.sim.faults import FaultModel, payload_checksum
from repro.solvers import AcceleratorBackend, pcg
from repro.store import ArtifactStore

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_programming_golden",
        DATA_DIR / "regen_programming_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _regen_module()


@pytest.fixture(scope="module")
def golden():
    return json.loads(regen.GOLDEN_PATH.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(cid for cid, *_ in regen.cases())


def test_golden_file_is_canonical(golden):
    assert regen.GOLDEN_PATH.read_text() == regen.dumps_golden(golden)


@pytest.mark.parametrize("program", sorted(regen.PROGRAMS))
def test_programming_matches_golden(golden, program):
    mismatched = {}
    for cid, build, name in regen.cases():
        if name != program:
            continue
        entry = regen.run_case(build(), name)
        if entry != golden[cid]:
            mismatched[cid] = sorted(
                k for k in set(entry) | set(golden[cid])
                if entry.get(k) != golden[cid].get(k))
    assert not mismatched, (
        f"{len(mismatched)} {program} case(s) diverged from "
        f"tests/data/programming_golden.json: "
        + "; ".join(f"{cid}: {', '.join(fields)}"
                    for cid, fields in sorted(mismatched.items())[:8]))


# ---------------------------------------------------------------------
# The per-op loops the programming phase used to run
# ---------------------------------------------------------------------
def _reference_rows(conv):
    """Table entries grouped by block row in table order, each joined
    to its stream block: ``[(block row, streaming ops, diagonal op)]``
    with every op a dict of the fields the interpreter reads."""
    block_map = {(b.block_row, b.block_col): b for b in conv.matrix.stream()}
    groups, order = {}, []
    for entry in conv.table:
        sb = block_map[(entry.block_row, entry.block_col)]
        op = dict(dp=entry.dp, block_row=entry.block_row,
                  block_col=entry.block_col, inx_in=entry.inx_in,
                  inx_out=entry.inx_out, port=entry.op, values=sb.values,
                  reversed_cols=sb.reversed_cols,
                  is_diagonal=sb.is_diagonal,
                  checksum=payload_checksum(sb.values))
        if entry.block_row not in groups:
            groups[entry.block_row] = [entry.block_row, [], None]
            order.append(entry.block_row)
        if entry.dp is DataPathType.D_SYMGS:
            groups[entry.block_row][2] = op
        else:
            groups[entry.block_row][1].append(op)
    return [tuple(groups[r]) for r in order]


def _op_fields(op):
    return dict(dp=op.dp, block_row=op.block_row, block_col=op.block_col,
                inx_in=op.inx_in, inx_out=op.inx_out, port=op.port,
                values=op.values, reversed_cols=op.reversed_cols,
                is_diagonal=op.is_diagonal, checksum=op.checksum)


def _assert_ops_equal(got, want):
    values_got, values_want = got.pop("values"), want.pop("values")
    assert got == want
    assert values_got.dtype == values_want.dtype
    np.testing.assert_array_equal(values_got, values_want)


def _reference_streaming(rows, n, omega, timing):
    lanes = np.arange(omega)
    blocks, gather, src_base, checksums = [], [], [], []
    seg_len, out_rows, compute = [], [], []
    for block_row, streaming, _diag in rows:
        if not streaming:
            continue
        seg_len.append(len(streaming))
        out_rows.append(block_row)
        for op in streaming:
            blocks.append(op["values"])
            gather.append(op["inx_in"] + (lanes[::-1] if op["reversed_cols"]
                                          else lanes))
            src_base.append(op["inx_in"])
            checksums.append(op["checksum"])
            compute.append(timing.compute_cycles_per_block(op["dp"]))
    arrays = _stacked(blocks, gather, seg_len, out_rows, compute, omega)
    arrays["src_base"] = np.asarray(src_base, dtype=np.int64)
    return arrays, checksums


def _reference_symgs(rows, n, omega, timing):
    lanes = np.arange(omega)
    blocks, gather, checksums, bodies, body_checksums = [], [], [], [], []
    records, seg_len, out_rows, compute = [], [], [], []
    for block_row, streaming, diagonal in rows:
        if diagonal is None:
            raise SimulationError(
                f"SymGS block row {block_row} has no D-SymGS entry")
        seg_start, n_lower = len(blocks), 0
        for op in streaming:
            if op["port"] is OperandPort.PORT1:
                if n_lower != len(blocks) - seg_start:
                    raise SimulationError(
                        f"SymGS block row {block_row} streams a "
                        f"port-1 GEMV after a port-2 one")
                n_lower += 1
            blocks.append(op["values"])
            gather.append(op["inx_in"] + (lanes[::-1] if op["reversed_cols"]
                                          else lanes))
            checksums.append(op["checksum"])
            compute.append(timing.compute_cycles_per_block(op["dp"]))
        bodies.append(diagonal["values"])
        body_checksums.append(diagonal["checksum"])
        compute.append(timing.compute_cycles_per_block(DataPathType.D_SYMGS))
        start = block_row * omega
        records.append((seg_start, n_lower, len(blocks) - seg_start, start,
                        max(0, min(omega, n - start))))
        seg_len.append(len(blocks) - seg_start)
        out_rows.append(block_row)
    arrays = _stacked(blocks + bodies, gather, seg_len, out_rows, compute,
                      omega)
    return arrays, checksums + body_checksums, records


def _stacked(blocks, gather, seg_len, out_rows, compute, omega):
    seg_len = np.asarray(seg_len, dtype=np.int64)
    seg_start = np.zeros(len(seg_len), dtype=np.int64)
    if len(seg_len) > 1:
        seg_start[1:] = np.cumsum(seg_len)[:-1]
    return {
        "blocks": (np.stack(blocks) if blocks
                   else np.zeros((0, omega, omega))),
        "gather": (np.stack(gather) if gather
                   else np.zeros((0, omega), dtype=np.int64)),
        "seg_start": seg_start, "seg_len": seg_len,
        "out_rows": np.asarray(out_rows, dtype=np.int64),
        "compute_cycles_per_block": np.asarray(compute, dtype=np.float64),
    }


def _differential_cases():
    """Every golden case that programs (ids), plus its builder."""
    return [(cid, build, program) for cid, build, program in regen.cases()
            if not cid.startswith("missing-diagonal-block/symgs")]


@pytest.mark.parametrize("cid,build,program", _differential_cases(),
                         ids=[c[0] for c in _differential_cases()])
def test_columns_equal_the_per_op_loops(cid, build, program):
    kernel, reorder, kinds = regen.PROGRAMS[program]
    conv = convert(kernel, build(), omega=regen.OMEGA, reorder=reorder)
    acc = Alrescha()
    acc.program(conv)
    rows = _reference_rows(conv)
    image_rows = acc.image.rows
    assert [g.block_row for g in image_rows] == [r for r, _s, _d in rows]
    for group, (_row, streaming, diagonal) in zip(image_rows, rows):
        assert len(group.streaming) == len(streaming)
        for op, want in zip(group.streaming, streaming):
            _assert_ops_equal(_op_fields(op), dict(want))
        assert (group.diagonal is None) == (diagonal is None)
        if diagonal is not None:
            _assert_ops_equal(_op_fields(group.diagonal), dict(diagonal))
    timing = acc.config.timing()
    for kind in kinds:
        plan = compile_pass(acc, kind)
        got = regen.plan_arrays(plan)
        if kind == "symgs":
            want, checksums, records = _reference_symgs(
                rows, acc.n, regen.OMEGA, timing)
            assert [(r.seg_start, r.n_lower, r.seg_len, r.start, r.valid)
                    for r in plan.rows] == records
        else:
            want, checksums = _reference_streaming(rows, acc.n,
                                                   regen.OMEGA, timing)
        assert [int(c) for c in plan.checksums] == checksums
        for name, array in want.items():
            assert got[name].dtype == array.dtype, name
            np.testing.assert_array_equal(got[name], array, err_msg=name)
        for name in ("blocks", "gather"):
            assert not got[name].flags.writeable, name


class TestMalformedSymgsTables:
    """Lowering rejects a SymGS table it cannot sequence, naming the
    block row, exactly as the per-op loop did."""

    @staticmethod
    def _lowering_error(spd, mutate):
        conv = convert(KernelType.SYMGS, spd, omega=8)
        entries = mutate(list(conv.table))
        bad = ConversionResult(
            kernel=conv.kernel, omega=conv.omega,
            table=ConfigTable(conv.table.n, conv.omega, entries),
            matrix=conv.matrix)
        acc = Alrescha()
        acc.program(bad)
        with pytest.raises(SimulationError) as info:
            compile_pass(acc, "symgs")
        rows = _reference_rows(bad)
        with pytest.raises(SimulationError) as want:
            _reference_symgs(rows, acc.n, 8, acc.config.timing())
        assert str(info.value) == str(want.value)
        return str(info.value)

    def test_row_without_dsymgs(self, spd_medium):
        def drop_diagonal(entries):
            victim = next(i for i, e in enumerate(entries)
                          if e.dp is DataPathType.D_SYMGS
                          and e.block_row == 3)
            return entries[:victim] + entries[victim + 1:]
        assert self._lowering_error(spd_medium, drop_diagonal) == \
            "SymGS block row 3 has no D-SymGS entry"

    def test_port1_after_port2(self, spd_medium):
        def swap(entries):
            for i, (a, b) in enumerate(zip(entries, entries[1:])):
                if (a.block_row == b.block_row
                        and a.op is OperandPort.PORT1
                        and b.op is OperandPort.PORT2
                        and b.dp is DataPathType.GEMV):
                    return entries[:i] + [b, a] + entries[i + 2:]
            raise AssertionError("fixture lacks a port-1/port-2 pair")
        assert "streams a port-1 GEMV after a port-2 one" in \
            self._lowering_error(spd_medium, swap)


# ---------------------------------------------------------------------
# A warm or cold start builds no per-block objects
# ---------------------------------------------------------------------
def _count_per_block_objects(monkeypatch):
    """Count, by class name, every ``_Op``, ``ConfigEntry`` and
    ``StreamBlock`` built until ``monkeypatch`` is undone."""
    built = {}
    for cls in (accelerator_module._Op, ConfigEntry, StreamBlock):
        def counting(self, *args, _init=cls.__init__,
                     _name=cls.__name__, **kwargs):
            built[_name] = built.get(_name, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


class TestWarmStart:
    @pytest.fixture(scope="class")
    def stencil(self):
        return load_dataset("stencil27", scale=0.3).matrix

    def test_primed_store_builds_no_per_block_objects(
            self, stencil, tmp_path, monkeypatch):
        source = {"dataset": "stencil27", "scale": 0.3}
        AcceleratorBackend(
            stencil, config=AlreschaConfig(
                artifact_store=ArtifactStore(tmp_path)), source=source)
        built = _count_per_block_objects(monkeypatch)
        store = ArtifactStore(tmp_path)
        warm = AcceleratorBackend(
            stencil, config=AlreschaConfig(artifact_store=store),
            source=source)
        b = np.random.default_rng(9).normal(size=stencil.shape[0])
        result = pcg(warm, b, tol=1e-10, max_iter=60)
        assert built == {}
        report = store.report()
        assert report.conversions_compiled == 0
        assert report.templates_captured == 0
        monkeypatch.undo()
        storeless = pcg(AcceleratorBackend(stencil), b, tol=1e-10,
                        max_iter=60)
        assert result.iterations == storeless.iterations
        assert np.array_equal(result.x, storeless.x)
        assert result.report == storeless.report

    def test_empty_store_builds_no_per_block_objects(
            self, stencil, tmp_path, monkeypatch):
        """The cold twin: an untraced build against an empty store
        prices every template from the columns, so it builds no
        per-block object either."""
        built = _count_per_block_objects(monkeypatch)
        store = ArtifactStore(tmp_path)
        cold = AcceleratorBackend(
            stencil, config=AlreschaConfig(artifact_store=store),
            source={"dataset": "stencil27", "scale": 0.3})
        b = np.random.default_rng(9).normal(size=stencil.shape[0])
        result = pcg(cold, b, tol=1e-10, max_iter=60)
        assert built == {}
        report = store.report()
        assert report.conversions_compiled > 0
        assert report.templates_captured > 0
        monkeypatch.undo()
        storeless = pcg(AcceleratorBackend(stencil), b, tol=1e-10,
                        max_iter=60)
        assert result.iterations == storeless.iterations
        assert np.array_equal(result.x, storeless.x)
        assert result.report == storeless.report


# ---------------------------------------------------------------------
# Only a traced compile runs the per-block interpreter
# ---------------------------------------------------------------------
class _InterpreterRan(Exception):
    """``repro.core.interpreter.run`` was called."""


def _graph(n=40, seed=2):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.12).astype(float)
    a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    np.fill_diagonal(a, 0.0)
    g = sp.csr_matrix(a)
    g.data = rng.uniform(0.5, 5.0, size=g.nnz)
    return g


def _run(acc, kind, k):
    """Run pass ``kind`` (width ``k``, None solo) on fixed operands."""
    n = acc.n
    rng = np.random.default_rng(n)
    shape = (n,) if k is None else (n, k)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    if kind == "spmv":
        x = rng.normal(size=shape)
        return acc.run_spmv(x) if k is None else acc.run_spmv_batch(x)
    if kind == "symgs":
        b, x0 = rng.normal(size=shape), rng.normal(size=shape)
        return (acc.run_symgs_sweep(b, x0) if k is None
                else acc.run_symgs_batch(b, x0))
    if kind == "bfs":
        return acc.run_bfs_pass(dist)
    if kind == "bfs-parents":
        return acc.run_bfs_pass_parents(dist, np.full(n, -1, np.int64))
    if kind == "sssp":
        return acc.run_sssp_pass(dist)
    return acc.run_pr_pass(np.full(n, 1.0 / n), rng.uniform(1.0, 3.0, n))


#: Pass kind -> programmed kernel.
_KERNELS = {"spmv": KernelType.SPMV, "symgs": KernelType.SYMGS,
            "bfs": KernelType.BFS, "bfs-parents": KernelType.BFS,
            "sssp": KernelType.SSSP, "pagerank": KernelType.PAGERANK}

#: Every kind solo, SpMV and SymGS at batch widths 2 and 4.
_RUNS = [("spmv", None), ("spmv", 2), ("spmv", 4), ("symgs", None),
         ("symgs", 2), ("symgs", 4), ("bfs", None), ("bfs-parents", None),
         ("sssp", None), ("pagerank", None)]


class TestNoInterpreterOnUntracedCompile:
    @pytest.mark.parametrize("stored", [False, True],
                             ids=["storeless", "stored"])
    @pytest.mark.parametrize("kind,k", _RUNS)
    def test_untraced_runs_never_call_the_interpreter(
            self, kind, k, stored, tmp_path, monkeypatch, spd_medium):
        """Compiles, batch-width templates and fault slacks of untraced
        accelerators come from the pricer: with the interpreter
        replaced by a function that raises, every kind still runs —
        clean and under faults — with the interpreter's reports; a
        traced accelerator on the same image captures its spans through
        the interpreter."""
        kernel = _KERNELS[kind]
        matrix = spd_medium if kind in ("spmv", "symgs") else _graph()

        def config(**knobs):
            if stored:
                knobs["artifact_store"] = ArtifactStore(tmp_path)
            return AlreschaConfig(**knobs)

        expected = [_run(Alrescha.from_matrix(
            kernel, matrix, config=AlreschaConfig(
                use_plan=False, fault_model=fault_model)), kind, k)
            for fault_model in (None, FaultModel.parse("0.3:7"))]

        def refuse(acc, kind, operands, k=None):
            raise _InterpreterRan(kind)

        monkeypatch.setattr(interpreter, "run", refuse)
        clean = Alrescha.from_matrix(kernel, matrix, config=config())
        faulty = Alrescha.bind(clean.image, config(
            fault_model=FaultModel.parse("0.3:7")))
        for acc, (*want, want_report) in zip((clean, faulty), expected):
            *outputs, report = _run(acc, kind, k)
            for out, ref in zip(outputs, want):
                assert np.array_equal(out, ref)
            assert report == want_report
        assert report.counters.get("faults_injected") > 0
        traced = Alrescha.bind(clean.image, config(tracer=Tracer()))
        with pytest.raises(_InterpreterRan):
            _run(traced, kind, k)
