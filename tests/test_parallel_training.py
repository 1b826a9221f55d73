"""Tests for the data-parallel trainer and the checksum-protected collective.

Covers the collective seam (two-phase rendezvous, deterministic rank-ordered
reduction, broadcast, failure poisoning), the checksum-linearity property of
the protected all-reduce across dtypes/shapes, the N-worker vs 1-worker
byte-equivalence of trained weights, dirty-reduction detection and recovery
under every ``stale_policy``, per-rank fault-injector spawning, and the
collective dispatch accounting against the cost model.
"""

import threading

import numpy as np
import pytest

from repro.comm import (
    CollectiveClosed,
    CollectiveError,
    DirtyReductionError,
    GradientBucketer,
    ProtectedCollective,
    ThreadCollective,
    gradient_checksum,
    gradient_checksums,
)
from repro.core import SectionCostModel
from repro.faults import (
    CollectiveFaultInjector,
    CollectiveFaultSpec,
    FaultInjector,
    FaultSpec,
)
from repro.training import (
    DataParallelConfig,
    DataParallelTrainer,
    ReplicaSpec,
    StaleDetectionAbort,
    Trainer,
    TrainerConfig,
)
from repro.training.parallel import _RankRunner
from repro.utils.timing import TimingRegistry


def make_batch(seed: int, batch: int = 8, seq: int = 10, vocab: int = 100):
    rng = np.random.default_rng(seed)
    return {
        "input_ids": rng.integers(0, vocab, size=(batch, seq)),
        "attention_mask": np.ones((batch, seq), dtype=np.int64),
        "labels": rng.integers(0, 2, size=(batch,)),
    }


BATCHES = [make_batch(100 + i) for i in range(3)]
SPEC = ReplicaSpec(name="bert-base", size="tiny", seed=7, num_labels=2)


def train_to_state(workers, shards, executor=None, policy="record", injector=None,
                   collective_injector=None, protection=None, steps=3):
    config = DataParallelConfig(
        workers=workers,
        shards=shards,
        executor=executor or ("serial" if workers == 1 else "thread"),
        stale_policy=policy,
        protection=protection,
    )
    trainer = DataParallelTrainer(
        model_spec=SPEC, config=config, injector=injector,
        collective_injector=collective_injector,
    )
    try:
        for batch in BATCHES[:steps]:
            trainer.train_step(batch)
        return trainer.state_dict(), trainer
    finally:
        trainer.close()


def states_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a
    )


class TestThreadCollective:
    def test_all_reduce_sum_and_mean(self):
        coll = ThreadCollective(2, op="sum")
        coll.contribute("k", 0, [np.array([1.0, 2.0])])
        coll.contribute("k", 1, [np.array([3.0, 4.0])])
        out0 = coll.finish("k", 0)
        out1 = coll.finish("k", 1)
        np.testing.assert_array_equal(out0[0], [4.0, 6.0])
        np.testing.assert_array_equal(out1[0], [4.0, 6.0])

        mean = ThreadCollective(2, op="mean")
        mean.contribute("k", 0, [np.array([1.0, 2.0])])
        mean.contribute("k", 1, [np.array([3.0, 4.0])])
        np.testing.assert_array_equal(mean.finish("k", 0)[0], [2.0, 3.0])

    def test_reduction_is_rank_ordered_regardless_of_arrival(self):
        # float addition is not associative; both arrival orders must still
        # fold rank 0 + rank 1 + rank 2, bit-identically.
        values = [np.array([0.1, 1e16]), np.array([0.2, -1e16]), np.array([0.3, 1.0])]
        results = []
        for order in ((0, 1, 2), (2, 1, 0)):
            coll = ThreadCollective(3, op="sum")
            for rank in order:
                coll.contribute("k", rank, [values[rank]])
            results.append(coll.finish("k", 0)[0])
        np.testing.assert_array_equal(results[0], results[1])

    def test_mean_of_world_one_is_bitwise_identity(self):
        coll = ThreadCollective(1, op="mean")
        value = np.array([0.1, 0.3, 1e-17])
        out = coll.all_reduce("k", 0, [value])[0]
        np.testing.assert_array_equal(out, value)

    def test_hookless_deposit_makes_zero_copies(self):
        # Perf contract: without a fault hook the deposit aliases the
        # caller's arrays (the fold only reads them), so a training step
        # pays no defensive copy per contribution.
        coll = ThreadCollective(2, op="sum")
        coll.contribute("k", 0, [np.array([1.0, 2.0]), np.array([3.0])])
        coll.contribute("k", 1, [np.array([4.0, 5.0]), np.array([6.0])])
        assert coll.deposit_copies() == 0
        np.testing.assert_array_equal(coll.finish("k", 0)[0], [5.0, 7.0])

    def test_hookless_fold_does_not_mutate_contributed_arrays(self):
        # Zero-copy must still never write back into the caller's buffers:
        # the fold copies the rank-0 entry before accumulating.
        values = [np.array([1.0, 2.0]), np.array([10.0, 20.0])]
        coll = ThreadCollective(2, op="sum")
        for rank, value in enumerate(values):
            coll.contribute("k", rank, [value])
        np.testing.assert_array_equal(coll.finish("k", 0)[0], [11.0, 22.0])
        np.testing.assert_array_equal(values[0], [1.0, 2.0])
        np.testing.assert_array_equal(values[1], [10.0, 20.0])

    def test_hooked_deposits_are_copied_and_counted(self):
        # With a fault hook installed the deposit is the corruptible "send
        # buffer": it must be a copy so injected faults never touch the
        # caller's live gradients, and the counter proves the copies happen.
        coll = ThreadCollective(1, op="sum", fault_hook=lambda key, rank, arrays: None)
        value = np.array([1.0, 2.0])
        coll.contribute("k", 0, [value, np.array([3.0])])
        assert coll.deposit_copies() == 2
        value[0] = 99.0
        np.testing.assert_array_equal(coll.finish("k", 0)[0], [1.0, 2.0])

    def test_broadcast(self):
        coll = ThreadCollective(3)
        payload = [np.array([1.0, 2.0]), np.array([[3.0]])]
        out0 = coll.broadcast("w", 0, payload, root=0)
        out1 = coll.broadcast("w", 1, root=0)
        out2 = coll.broadcast("w", 2, root=0)
        for out in (out0, out1, out2):
            np.testing.assert_array_equal(out[0], payload[0])
            np.testing.assert_array_equal(out[1], payload[1])

    def test_two_phase_lets_one_thread_own_many_ranks(self):
        coll = ThreadCollective(4, op="sum")
        for rank in range(4):
            coll.contribute("k", rank, [np.array([float(rank)])])
        for rank in range(4):
            assert coll.finish("k", rank)[0][0] == 6.0

    def test_threaded_rendezvous(self):
        coll = ThreadCollective(4, op="sum")
        outs = [None] * 4

        def worker(rank):
            outs[rank] = coll.all_reduce("k", rank, [np.array([1.0])])

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o[0][0] == 4.0 for o in outs)

    def test_mismatched_widths_fail(self):
        coll = ThreadCollective(2)
        coll.contribute("k", 0, [np.zeros(2)])
        coll.contribute("k", 1, [np.zeros(2), np.zeros(3)])
        with pytest.raises(CollectiveError):
            coll.finish("k", 0)

    def test_double_contribution_fails(self):
        coll = ThreadCollective(2)
        coll.contribute("k", 0, [np.zeros(2)])
        with pytest.raises(CollectiveError):
            coll.contribute("k", 0, [np.zeros(2)])

    def test_poison_unblocks_waiters(self):
        coll = ThreadCollective(2)
        coll.contribute("k", 0, [np.zeros(2)])
        caught = []

        def waiter():
            try:
                coll.finish("k", 0)
            except CollectiveError as exc:
                caught.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        coll.poison(RuntimeError("boom"))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(caught) == 1
        assert isinstance(caught[0].__cause__, RuntimeError)

    def test_close_raises_collective_closed(self):
        coll = ThreadCollective(2)
        coll.close()
        with pytest.raises(CollectiveClosed):
            coll.contribute("k", 0, [np.zeros(2)])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ThreadCollective(0)
        with pytest.raises(ValueError):
            ThreadCollective(2, op="max")
        coll = ThreadCollective(2)
        with pytest.raises(ValueError):
            coll.contribute("k", 2, [np.zeros(1)])


class TestChecksumLinearity:
    """The invariant the protected all-reduce rests on, across dtypes/shapes."""

    SHAPES = [(7,), (3, 5), (2, 3, 4), (1,), (64, 9)]
    DTYPES = [np.float64, np.float32, np.float16]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_checksum_of_sum_equals_sum_of_checksums(self, shape, dtype):
        rng = np.random.default_rng(hash((shape, np.dtype(dtype).name)) % 2**32)
        world = 4
        contributions = [
            (rng.standard_normal(shape) * 3).astype(dtype) for _ in range(world)
        ]
        summed = np.zeros(shape, dtype=np.float64)
        checksum_sum = np.zeros(2)
        for c in contributions:
            summed += c.astype(np.float64)
            checksum_sum += gradient_checksum(c)
        np.testing.assert_allclose(
            gradient_checksum(summed), checksum_sum, rtol=1e-9, atol=1e-9
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_protected_all_reduce_clean_across_dtypes(self, dtype):
        rng = np.random.default_rng(3)
        coll = ProtectedCollective(ThreadCollective(3, op="mean"))
        arrays = {
            rank: [
                rng.standard_normal((4, 5)).astype(dtype),
                rng.standard_normal((7,)).astype(dtype),
            ]
            for rank in range(3)
        }
        for rank in range(3):
            coll.contribute("k", rank, arrays[rank])
        for rank in range(3):
            reduced = coll.finish("k", rank)
            assert len(reduced) == 2
        counters = coll.counters()
        assert counters == {
            "checksum_encodes": 6, "checksum_verifies": 2, "mismatches": 0,
        }

    def test_gradient_checksums_shape_and_empty(self):
        stack = gradient_checksums([np.zeros((2, 2)), np.ones(3)])
        assert stack.shape == (2, 2)
        assert stack[1, 0] == 3.0
        with pytest.raises(ValueError):
            gradient_checksums([])


class TestProtectedCollectiveDetection:
    def _corrupting_hook(self, target_rank, array_index, value):
        def hook(key, rank, arrays):
            if rank == target_rank and "#retry" not in key:
                arrays[array_index].flat[0] = value
        return hook

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e6])
    def test_corrupted_payload_is_detected(self, value):
        coll = ProtectedCollective(
            ThreadCollective(2, op="sum", fault_hook=self._corrupting_hook(1, 0, value))
        )
        for rank in range(2):
            coll.contribute("k", rank, [np.ones(4), np.ones(3)])
        with pytest.raises(DirtyReductionError) as excinfo:
            coll.finish("k", 0)
        assert excinfo.value.dirty_indices == [0]
        assert coll.counters()["mismatches"] == 1
        # The peer sees the same cached verdict without a second verify.
        with pytest.raises(DirtyReductionError):
            coll.finish("k", 1)
        counters = coll.counters()
        assert counters["checksum_verifies"] == 2
        assert counters["mismatches"] == 1

    def test_corrupted_checksum_matrix_is_detected(self):
        # Corruption can also strike the checksums themselves in transit —
        # the identity breaks either way.
        coll = ProtectedCollective(
            ThreadCollective(2, op="sum", fault_hook=self._corrupting_hook(0, 2, np.inf))
        )
        for rank in range(2):
            coll.contribute("k", rank, [np.ones(4), np.ones(3)])
        with pytest.raises(DirtyReductionError):
            coll.finish("k", 0)

    def test_both_sides_nonfinite_is_unverifiable_not_dirty(self):
        # A legitimately non-finite contribution (e.g. a NaN shard loss)
        # makes both the reduced checksum and the recomputation non-finite;
        # that is unverifiable, not a collective fault.
        coll = ProtectedCollective(ThreadCollective(2, op="sum"))
        for rank in range(2):
            coll.contribute("k", rank, [np.array([np.nan, 1.0])])
        reduced = coll.finish("k", 0)
        assert np.isnan(reduced[0][0])
        assert coll.counters()["mismatches"] == 0

    def test_fold_timers(self):
        timers = TimingRegistry()
        coll = ProtectedCollective(ThreadCollective(1), timers=timers)
        coll.all_reduce("k", 0, [np.ones(8)])
        coll.fold_timers()
        keys = set(timers.as_dict())
        assert {"comm/allreduce", "comm/verify"} <= keys

    def test_cost_model_dispatch_accounting(self):
        expected = SectionCostModel.collective_checksum_dispatches_per_step(
            num_gradients=5, world_size=3
        )
        assert expected == {"encode": 15, "verify": 5}
        coll = ProtectedCollective(ThreadCollective(3))
        for rank in range(3):
            coll.contribute("k", rank, [np.ones(2) for _ in range(5)])
        for rank in range(3):
            coll.finish("k", rank)
        counters = coll.counters()
        assert counters["checksum_encodes"] == expected["encode"]
        assert counters["checksum_verifies"] == expected["verify"]
        with pytest.raises(ValueError):
            SectionCostModel.collective_checksum_dispatches_per_step(0, 1)
        with pytest.raises(ValueError):
            SectionCostModel.collective_checksum_dispatches_per_step(1, 0)


class TestIndependentReferences:
    """References that share no code with the trainer's reduction path."""

    def test_one_shard_matches_single_device_trainer(self):
        # A world of one folds nothing and scales by exactly 1.0, so the
        # data-parallel step must reproduce the plain single-device step.
        state, _ = train_to_state(workers=1, shards=1, executor="serial")
        trainer = Trainer(SPEC.build(), TrainerConfig())
        for batch in BATCHES:
            trainer.train_step(batch)
        assert states_equal(trainer.model.state_dict(), state)

    def test_adopted_gradients_equal_per_tensor_mean_of_replica_shards(self, monkeypatch):
        shards = 4
        per = len(BATCHES[0]["labels"]) // shards
        shard_grads = []
        for rank in range(shards):
            model = SPEC.build()
            model.train()
            shard = {k: v[rank * per:(rank + 1) * per] for k, v in BATCHES[0].items()}
            output = model(shard["input_ids"], attention_mask=shard["attention_mask"],
                           labels=shard["labels"])
            output.loss.backward()
            shard_grads.append([
                p.grad if p.grad is not None else np.zeros_like(p.data)
                for p in model.parameters()
            ])
        # Oracle: the rank-ordered mean, one rendezvous per gradient tensor.
        oracle_coll = ThreadCollective(shards, op="mean")
        for rank in range(shards):
            for i, grad in enumerate(shard_grads[rank]):
                oracle_coll.contribute(f"t{i}", rank, [grad])
        oracle = [oracle_coll.finish(f"t{i}", 0)[0] for i in range(len(shard_grads[0]))]

        adopted = {}
        original_apply = _RankRunner.apply

        def capture(runner, reduced, mean_loss):
            if runner.rank not in adopted:
                adopted[runner.rank] = [np.array(g, copy=True) for g in reduced]
            original_apply(runner, reduced, mean_loss)

        monkeypatch.setattr(_RankRunner, "apply", capture)
        train_to_state(workers=1, shards=shards, executor="serial", steps=1)
        assert sorted(adopted) == list(range(shards))
        for rank in range(shards):
            assert len(adopted[rank]) == len(oracle)
            for got, want in zip(adopted[rank], oracle):
                assert got.shape == want.shape
                assert np.array_equal(got, want)


class TestWorkerEquivalence:
    """N workers must train byte-identically to the 1-worker reference."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_workers_byte_identical_to_serial(self, workers):
        reference, _ = train_to_state(workers=1, shards=4)
        state, trainer = train_to_state(workers=workers, shards=4, executor="thread")
        assert states_equal(reference, state)
        # Collective dispatch accounting matches the cost model at any W:
        # one encode per bucket plus the loss slot per rank, B + 1 verifies.
        # B comes from partitioning a fresh replica, not from the trainer.
        num_params = len(reference)
        num_buckets = GradientBucketer(
            [p.data for p in SPEC.build().parameters()],
            DataParallelConfig().bucket_cap_mb,
        ).num_buckets
        assert [r.buckets for r in trainer.metrics] == [num_buckets] * len(BATCHES)
        per_step = SectionCostModel.collective_checksum_dispatches_per_step(
            num_gradients=num_params + 1, world_size=4, num_buckets=num_buckets,
        )
        counters = trainer.collective_counters()
        assert counters["checksum_encodes"] == per_step["encode"] * len(BATCHES)
        assert counters["checksum_verifies"] == per_step["verify"] * len(BATCHES)
        assert counters["mismatches"] == 0

    def test_process_workers_byte_identical_to_serial(self):
        reference, _ = train_to_state(workers=1, shards=2)
        state, _ = train_to_state(workers=2, shards=2, executor="process")
        assert states_equal(reference, state)

    def test_dead_process_worker_is_named_and_close_returns(self):
        config = DataParallelConfig(workers=2, shards=2, executor="process")
        trainer = DataParallelTrainer(model_spec=SPEC, config=config)
        try:
            trainer.train_step(BATCHES[0])
            victim = trainer._procs.procs[1]
            victim.kill()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            with pytest.raises(RuntimeError, match="worker 1 died"):
                trainer.train_step(BATCHES[1])
        finally:
            closer = threading.Thread(target=trainer.close, daemon=True)
            closer.start()
            closer.join(timeout=30.0)
        assert not closer.is_alive()

    def test_different_shard_counts_differ(self):
        # Sanity: the equivalence is per shard count, not universal — the
        # decomposition itself changes the (mean-of-means) arithmetic.
        two, _ = train_to_state(workers=1, shards=2)
        four, _ = train_to_state(workers=1, shards=4)
        assert not states_equal(two, four)

    def test_timer_keys_present(self):
        config = DataParallelConfig(workers=2, shards=2)
        trainer = DataParallelTrainer(model_spec=SPEC, config=config)
        try:
            result = trainer.train_step(BATCHES[0])
            keys = set(trainer.timers.as_dict())
            assert {"comm/allreduce", "comm/verify", "parallel/step"} <= keys
            assert result.step == 1
            assert np.isfinite(result.loss)
            assert len(result.shard_losses) == 2
        finally:
            trainer.close()

    def test_indivisible_batch_rejected(self):
        config = DataParallelConfig(workers=1, shards=3, executor="serial")
        trainer = DataParallelTrainer(model_spec=SPEC, config=config)
        try:
            with pytest.raises(ValueError, match="divisible"):
                trainer.train_step(make_batch(0, batch=8))
        finally:
            trainer.close()

    def test_batch_smaller_than_shards_rejected(self):
        # 2 rows over 4 shards would leave two shards empty; an empty shard
        # yields a NaN loss and zero gradients, poisoning the global mean.
        config = DataParallelConfig(workers=1, shards=4, executor="serial")
        trainer = DataParallelTrainer(model_spec=SPEC, config=config)
        try:
            with pytest.raises(ValueError, match="smaller than shards"):
                trainer.train_step(make_batch(0, batch=2))
        finally:
            trainer.close()

    def test_empty_batch_rejected(self):
        config = DataParallelConfig(workers=1, shards=2, executor="serial")
        trainer = DataParallelTrainer(model_spec=SPEC, config=config)
        try:
            with pytest.raises(ValueError, match="smaller than shards"):
                trainer.train_step(make_batch(0, batch=0))
        finally:
            trainer.close()

    def test_uneven_remainder_rejected_not_truncated(self):
        # 10 rows over 4 shards must raise, not silently drop the remainder:
        # unequal shards would break mean-of-means == global-batch gradient.
        config = DataParallelConfig(workers=1, shards=4, executor="serial")
        trainer = DataParallelTrainer(model_spec=SPEC, config=config)
        try:
            with pytest.raises(ValueError, match="divisible"):
                trainer.train_step(make_batch(0, batch=10))
        finally:
            trainer.close()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataParallelConfig(workers=0)
        with pytest.raises(ValueError):
            DataParallelConfig(workers=4, shards=2)
        with pytest.raises(ValueError):
            DataParallelConfig(executor="mpi")
        with pytest.raises(ValueError):
            DataParallelConfig(stale_policy="retry")
        with pytest.raises(ValueError):
            DataParallelTrainer(config=DataParallelConfig(workers=1))


class TestDirtyReductionPolicies:
    """An injected collective fault is detected and handled per stale_policy."""

    def _injector(self, error_type="numeric", rank=1, step=2, array_index=None):
        return CollectiveFaultInjector(
            [CollectiveFaultSpec(step=step, rank=rank, error_type=error_type,
                                 array_index=array_index)],
            seed=3,
        )

    def test_record_counts_and_proceeds(self):
        # Array 0 of a bucket contribution is its flat gradient (the checksum
        # matrix rides last), so the adopted reduction really is corrupted.
        state, trainer = train_to_state(
            workers=2, shards=2, policy="record",
            collective_injector=self._injector(array_index=0),
        )
        dirty = [r.dirty_reductions for r in trainer.metrics]
        assert dirty == [0, 1, 0]
        assert trainer.collective_counters()["mismatches"] == 1
        # The corrupted reduction was adopted: weights differ from clean.
        reference, _ = train_to_state(workers=1, shards=2)
        assert not states_equal(reference, state)

    # A bucket contribution is [flat gradient, loss, checksums]: array 0
    # corrupts the gradient the retry must restore, array 2 only the
    # checksum matrix that flags the reduction dirty.
    @pytest.mark.parametrize("array_index", [0, 2], ids=["grad", "checksums"])
    @pytest.mark.parametrize("error_type", ["numeric", "inf", "nan"])
    def test_reexecute_recovers_byte_identically(self, error_type, array_index):
        reference, _ = train_to_state(workers=1, shards=2)
        injector = self._injector(error_type=error_type, array_index=array_index)
        state, trainer = train_to_state(
            workers=2, shards=2, policy="reexecute", collective_injector=injector,
        )
        assert [r.array_index for r in injector.records] == [array_index]
        retries = [r.reduction_reexecutions for r in trainer.metrics]
        assert retries == [0, 1, 0]
        assert trainer.collective_counters()["mismatches"] == 1
        # The transient fault does not recur on the retry key, and the
        # re-reduction from the retained clean contributions restores the
        # exact clean trajectory.
        assert states_equal(reference, state)

    def test_abort_raises_stale_detection_abort(self):
        config = DataParallelConfig(workers=2, shards=2, stale_policy="abort")
        trainer = DataParallelTrainer(
            model_spec=SPEC, config=config, collective_injector=self._injector()
        )
        try:
            trainer.train_step(BATCHES[0])
            with pytest.raises(StaleDetectionAbort, match="checksum-linearity"):
                trainer.train_step(BATCHES[1])
        finally:
            trainer.close()

    def test_injection_is_rank_attributed_and_deterministic(self):
        records = []
        for _ in range(2):
            injector = self._injector(rank=1, step=2)
            _, trainer = train_to_state(
                workers=2, shards=2, policy="record", collective_injector=injector
            )
            assert len(injector.records) == 1
            records.append(injector.records[0])
        first, second = records
        assert first.rank == 1 and first.step == 2
        # The rank's first contribution of the step: its first bucket.
        assert first.key == "step2/bucket0"
        # Same seed, same rank generator: the campaign replays identically.
        assert (first.array_index, first.position, first.injected_value) == (
            second.array_index, second.position, second.injected_value,
        )


class TestPerRankProtection:
    """Per-rank checkers and spawned injectors compose with the collective."""

    def test_per_rank_checkers_run_independently(self):
        from repro.core import ATTNCheckerConfig

        protection = ATTNCheckerConfig(backend="fused")
        reference, _ = train_to_state(workers=1, shards=2)
        state, trainer = train_to_state(workers=2, shards=2, protection=protection)
        # Fault-free protection perturbs nothing: still byte-identical.
        assert states_equal(reference, state)

    def test_spawned_injector_targets_one_rank(self):
        spec = FaultSpec(matrix="AS", error_type="numeric", numeric_delta=1.0,
                         layer_index=0)
        parent = FaultInjector([spec], seed=5)
        config = DataParallelConfig(workers=2, shards=2, stale_policy="record")
        trainer = DataParallelTrainer(model_spec=SPEC, config=config, injector=parent)
        try:
            trainer.train_step(BATCHES[0])
            ranks = sorted(
                record.rank
                for runner in trainer.runners
                for record in runner.injector.records
            )
            # Every rank's spawned child fired its spec, and each record is
            # attributed to the rank it struck.
            assert ranks == [0, 1]
        finally:
            trainer.close()


class TestFaultInjectorSpawn:
    def test_spawn_requires_seed(self):
        parent = FaultInjector([], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="seed"):
            parent.spawn(0)

    def test_spawn_is_deterministic_per_rank(self):
        spec = FaultSpec(matrix="AS", error_type="numeric")
        draws = {}
        for trial in range(2):
            parent = FaultInjector([spec], seed=9)
            draws[trial] = [
                parent.spawn(rank).rng.integers(0, 2**30) for rank in range(3)
            ]
        assert draws[0] == draws[1]
        # ...and the per-rank streams differ from each other.
        assert len(set(draws[0])) == 3

    def test_spawned_child_carries_rank_and_specs(self):
        spec = FaultSpec(matrix="AS", error_type="inf")
        parent = FaultInjector([spec], seed=9, enabled=False)
        child = parent.spawn(2)
        assert child.rank == 2
        assert child.specs == parent.specs
        assert child.enabled is False
