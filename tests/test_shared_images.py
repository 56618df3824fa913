"""Programmed images are shared: one program per workload per pool.

The contracts under test:

* **Counts** — ``Alrescha.program`` and ``compile_pass`` run once per
  distinct program of a serve: per pool, per fleet, across scale-ups,
  and with pcg jobs, which need three programs (SpMV, SymGS, reversed
  SymGS) and share the first two with the spmv and symgs jobs on their
  dataset.
* **Isolation** — bindings of one image behave exactly like privately
  programmed accelerators: same answers, reports and fault logs under
  different fault models; one binding's degradation or reprogramming
  leaves its siblings alone; a traced binding still records spans.
* **Lifetime** — the image table belongs to its pool, so a second
  serve programs (and, against an empty store, compiles) afresh.
* **Read-only plan arrays** — an in-place write into a shared plan
  raises instead of corrupting sibling devices.
"""

import numpy as np
import pytest

from repro.core import (
    Alrescha,
    AlreschaConfig,
    KernelType,
    accelerator,
    convert,
)
from repro.datasets import load_dataset
from repro.errors import ConfigError, CorruptionError
from repro.observe import Tracer
from repro.runtime import (
    AutoscaleConfig,
    FleetConfig,
    TraceSpec,
    make_trace,
    serve,
    serve_fleet,
)
from repro.sim.faults import FaultModel
from repro.store import ArtifactStore

from tests.test_plan import assert_reports_identical

#: Programs one job of each kernel runs on.
PROGRAMS = {
    "spmv": ("spmv",),
    "symgs": ("symgs",),
    "pcg": ("spmv", "symgs", "symgs-reversed"),
}

PCG_WORKLOADS = (("stencil27", "spmv"), ("stencil27", "symgs"),
                 ("stencil27", "pcg"), ("af_shell", "spmv"))

FAST = dict(cooldown_cycles=8_000.0, eval_interval_cycles=2_000.0,
            provision_cycles=1_000.0)


def trace(n=60, seed=1, **spec):
    return make_trace(TraceSpec(n_requests=n, seed=seed, scale=0.04,
                                shape="bursty+zipf",
                                deadline_range=(200_000.0, 400_000.0),
                                **spec))


def distinct_programs(jobs):
    return {(j.dataset, j.scale, program)
            for j in jobs for program in PROGRAMS[j.kernel]}


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``Alrescha.program`` and of the ``compile_pass`` global
    the accelerator looks up at call time."""
    calls = {"program": 0, "compile": 0}
    program = Alrescha.program
    compile_pass = accelerator.compile_pass

    def counted_program(self, *args, **kwargs):
        calls["program"] += 1
        return program(self, *args, **kwargs)

    def counted_compile(*args, **kwargs):
        calls["compile"] += 1
        return compile_pass(*args, **kwargs)

    monkeypatch.setattr(Alrescha, "program", counted_program)
    monkeypatch.setattr(accelerator, "compile_pass", counted_compile)
    return calls


class TestProgramCounts:
    @pytest.mark.parametrize("max_batch", [1, 4])
    def test_four_device_serve_cold_and_warm(self, counts, tmp_path,
                                             max_batch):
        jobs = trace()
        expected = len(distinct_programs(jobs))
        for start in ("cold", "warm"):
            counts.update(program=0, compile=0)
            store = ArtifactStore(tmp_path / "cache")
            serve(0, n_devices=4, fault_rate=0.05, seed=1, trace=jobs,
                  max_batch=max_batch, artifact_store=store)
            assert counts == {"program": expected,
                              "compile": expected}, start
        assert store.report().conversions_compiled == 0

    @pytest.mark.parametrize("execution", ["model", "simulate"])
    def test_three_pool_fleet(self, counts, execution):
        jobs = trace(seed=4)
        serve_fleet(0, n_devices=2, fault_rate=0.05, seed=4, trace=jobs,
                    fleet_config=FleetConfig(n_pools=3, replicas=2),
                    execution=execution)
        expected = len(distinct_programs(jobs))
        assert counts == {"program": expected, "compile": expected}

    def test_scale_ups_program_nothing(self, counts, tmp_path):
        jobs = trace(seed=3, workloads=PCG_WORKLOADS)
        _, report = serve(
            0, n_devices=1, fault_rate=0.05, seed=3, trace=jobs,
            artifact_store=ArtifactStore(tmp_path / "cache"),
            autoscale=AutoscaleConfig(min_devices=1, max_devices=6,
                                      **FAST))
        assert report.autoscale.scale_ups > 0
        assert report.autoscale.prime_hits > 0
        expected = len(distinct_programs(jobs))
        assert counts == {"program": expected, "compile": expected}

    def test_pcg_shares_spmv_and_symgs_images(self, counts):
        jobs = trace(n=40, seed=2, workloads=PCG_WORKLOADS[:3])
        assert {j.kernel for j in jobs} == {"spmv", "symgs", "pcg"}
        serve(0, n_devices=4, fault_rate=0.05, seed=2, trace=jobs,
              max_batch=4)
        assert counts == {"program": 3, "compile": 3}


class TestLifetime:
    def test_each_serve_programs_and_compiles_afresh(self, counts,
                                                     tmp_path):
        jobs = trace(n=30)
        expected = len(distinct_programs(jobs))
        for name in ("a", "b"):
            counts.update(program=0, compile=0)
            store = ArtifactStore(tmp_path / name)
            serve(0, n_devices=2, seed=1, trace=jobs, artifact_store=store)
            assert store.report().conversions_compiled > 0, name
            assert counts == {"program": expected,
                              "compile": expected}, name


@pytest.fixture(scope="module")
def stencil():
    return load_dataset("stencil27", scale=0.04).matrix


def faulty(seed):
    return AlreschaConfig(fault_model=FaultModel(rate=0.02, seed=seed))


def run(acc, kernel, batched, operand):
    if kernel is KernelType.SPMV:
        return (acc.run_spmv_batch(operand) if batched
                else acc.run_spmv(operand))
    zeros = np.zeros_like(operand)
    return (acc.run_symgs_batch(operand, zeros) if batched
            else acc.run_symgs_sweep(operand, zeros))


class TestIsolation:
    @pytest.mark.parametrize("kernel", [KernelType.SPMV, KernelType.SYMGS])
    @pytest.mark.parametrize("batched", [False, True])
    def test_bindings_match_private_programs(self, stencil, kernel,
                                             batched):
        image = Alrescha.from_matrix(kernel, stencil).image
        private = [Alrescha.from_matrix(kernel, stencil, faulty(s))
                   for s in (1, 2)]
        shared = [Alrescha.bind(image, faulty(s)) for s in (1, 2)]
        rng = np.random.default_rng(0)
        n = stencil.shape[0]
        for _ in range(4):
            operand = rng.normal(size=(n, 3) if batched else n)
            for mine, theirs in zip(shared, private):
                y_mine, rep_mine = run(mine, kernel, batched, operand)
                y_theirs, rep_theirs = run(theirs, kernel, batched,
                                           operand)
                assert np.array_equal(y_mine, y_theirs)
                assert_reports_identical(rep_mine, rep_theirs)
        for mine, theirs in zip(shared, private):
            assert mine.config.fault_model.log
            assert (mine.config.fault_model.log
                    == theirs.config.fault_model.log)

    def test_degradation_stays_with_its_binding(self, stencil):
        image = Alrescha.from_matrix(KernelType.SPMV, stencil).image
        sibling = Alrescha.bind(image, AlreschaConfig(crosscheck_rows=1.0))
        broken = Alrescha.bind(image, AlreschaConfig(
            fault_model=FaultModel(rate=0.25, seed=11, kinds=("bitflip",)),
            verify_checksums=False, crosscheck_rows=1.0))
        x = np.arange(stencil.shape[0], dtype=np.float64)
        _, rep = broken.run_spmv(x)
        assert rep.counters.get("plan_fallbacks") == 1.0
        assert broken.plan_degraded
        y, rep = sibling.run_spmv(x)
        assert not sibling.plan_degraded
        assert rep.counters.get("crosscheck_rows") > 0
        assert rep.counters.get("plan_fallbacks") == 0.0
        clean, _ = Alrescha.from_matrix(KernelType.SPMV, stencil).run_spmv(x)
        assert np.array_equal(y, clean)

    def test_reprogramming_leaves_siblings_alone(self, stencil):
        first = Alrescha.from_matrix(KernelType.SPMV, stencil)
        sibling = Alrescha.bind(first.image)
        x = np.ones(stencil.shape[0])
        before, _ = sibling.run_spmv(x)
        other = load_dataset("af_shell", scale=0.04).matrix
        first.program(convert(KernelType.SPMV, other))
        assert first.image is not sibling.image
        after, _ = sibling.run_spmv(x)
        assert np.array_equal(before, after)
        y, _ = first.run_spmv(np.ones(other.shape[0]))
        assert np.allclose(y, other @ np.ones(other.shape[0]))

    @pytest.mark.parametrize("batched", [False, True])
    def test_traced_binding_of_untraced_plan_records_spans(self, stencil,
                                                           batched):
        n = stencil.shape[0]
        operand = np.ones((n, 2) if batched else n)
        untraced = Alrescha.from_matrix(KernelType.SPMV, stencil)
        run(untraced, KernelType.SPMV, batched, operand)
        tracer = Tracer()
        run(Alrescha.bind(untraced.image, AlreschaConfig(tracer=tracer)),
            KernelType.SPMV, batched, operand)
        reference = Tracer()
        run(Alrescha.from_matrix(KernelType.SPMV, stencil,
                                 AlreschaConfig(tracer=reference)),
            KernelType.SPMV, batched, operand)
        assert tracer.spans
        assert ([(s.name, s.cat, s.track, s.begin, s.end)
                 for s in tracer.spans]
                == [(s.name, s.cat, s.track, s.begin, s.end)
                    for s in reference.spans])

    def test_bind_rejects_another_compile_configuration(self, stencil):
        image = Alrescha.from_matrix(KernelType.SPMV, stencil).image
        with pytest.raises(ConfigError, match="compile configuration"):
            Alrescha.bind(image, AlreschaConfig(cache_bytes=2048))

    def test_guarded_binding_shares_an_unguarded_image(self, stencil):
        """The NaN/Inf guard only picks the engine, so a guarded device
        binds an image programmed without it, reports like a guarded
        private program and still traps a poisoned operand."""
        image = Alrescha.from_matrix(KernelType.SPMV, stencil).image
        guarded = Alrescha.bind(image, AlreschaConfig(guard_nonfinite=True))
        private = Alrescha.from_matrix(
            KernelType.SPMV, stencil, AlreschaConfig(guard_nonfinite=True))
        x = np.ones(stencil.shape[0])
        y_mine, rep_mine = guarded.run_spmv(x)
        y_theirs, rep_theirs = private.run_spmv(x)
        assert np.array_equal(y_mine, y_theirs)
        assert_reports_identical(rep_mine, rep_theirs)
        x[3] = np.nan
        with pytest.raises(CorruptionError, match="GEMV"):
            guarded.run_spmv(x)


class TestReadOnlyPlans:
    def test_shared_plan_arrays_refuse_writes(self, stencil):
        spmv = Alrescha.from_matrix(KernelType.SPMV, stencil)
        spmv.compile_plans()
        bfs = Alrescha.from_matrix(KernelType.BFS, stencil)
        bfs.compile_plans()
        symgs = Alrescha.from_matrix(KernelType.SYMGS, stencil)
        symgs.compile_plans()
        arrays = [spmv.image.plans["spmv"].blocks,
                  spmv.image.plans["spmv"].gather,
                  bfs.image.plans["bfs"].masks,
                  symgs.image.plans["symgs"].blocks,
                  symgs.image.plans["symgs"]._diag_pad]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
