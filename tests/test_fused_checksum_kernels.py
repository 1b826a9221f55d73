"""Fused batched checksum kernels, weight-encoding cache and workspace arena.

What this file pins, complementing ``test_verification_modes.py`` (which
already byte-compares the fused schedule against the per-GEMM
reference over a random campaign):

* the fused schedule (sibling-GEMM fusion + weight-encoding cache +
  checksum workspace) matches the per-GEMM oracle directly, and a warm
  engine (cached encodings, reused buffers) makes **byte-identical
  detection/correction decisions and outputs** vs a fresh one, across random
  geometry, dtypes, sections, faults and all three verification modes;
* the BLAS property the sibling fusion relies on — ``A @ [B1 | B2]`` is
  column-wise bitwise identical to ``A @ B1`` / ``A @ B2`` — holds on this
  platform (a loud canary if a BLAS build ever breaks it);
* the workspace is allocation-free in steady state (buffer identity stable
  across steps), never owns anything the deferred/async queues retain, and
  repair write-back does not leak corrupted state into reused buffers;
* the weight-encoding cache hits across fault-free forwards and is
  invalidated by optimizer steps, ``load_state_dict`` and the manual
  ``invalidate_weight_cache`` escape hatch for in-place weight edits;
* the engine's measured dispatch counters agree with
  ``SectionCostModel.checksum_gemm_dispatches_per_layer`` (per mode and per
  section) and ``verification_dispatches_per_step``;
* namespaces without the ``out=`` contract fall back value-correctly.
"""

import numpy as np
import pytest

from test_verification_modes import MODE_KWARGS, random_scenario, run_scenario

from repro.backend import register_backend, unregister_backend
from repro.backend.dispatch import clear_dispatch_cache
from repro.backend.numpy_backend import NumpyBackend, NumpyNamespace
from repro.core import (
    ATTNChecker,
    ATTNCheckerConfig,
    ChecksumWorkspace,
    SectionCostModel,
)
from repro.core.checksums import (
    checksum_weights,
    clear_checksum_weight_cache,
    stacked_checksum_weights,
)
from repro.core.sections import SECTION_REGISTRY
from repro.core.workspace import einsum_into, matmul_into, stack_into
from repro.data import SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn import ComposedHooks, MultiHeadAttention
from repro.tensor.autograd import Tensor
from repro.training import Trainer, TrainerConfig
from repro.utils.versioning import bump_weights_version, weights_version

def make_attention(seed, hidden=16, heads=4, bias=True):
    attention = MultiHeadAttention(
        hidden_size=hidden, num_heads=heads, dropout_p=0.0,
        rng=np.random.default_rng(seed), bias=bias,
    )
    attention.eval()
    return attention


def forward(attention, checker, seed, batch=2, seq=5, injector=None):
    hooks = checker if injector is None else ComposedHooks([injector, checker])
    hidden = attention.hidden_size
    x = np.random.default_rng(seed).normal(size=(batch, seq, hidden))
    attention.set_hooks(hooks)
    try:
        out = attention(Tensor(x)).data.copy()
    finally:
        attention.set_hooks(None)
    outcomes = checker.end_step()
    return out, outcomes


# ---------------------------------------------------------------------------
# Byte-identical decisions: fused schedule vs the per-GEMM oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_fused_schedule_matches_per_gemm_reference(seed):
    """The fused schedule vs the per-GEMM oracle, directly."""
    scenario = random_scenario(seed)
    fused = run_scenario("fused", scenario, seed)
    reference = run_scenario("per_gemm", scenario, seed)
    assert fused["stats"] == reference["stats"]
    assert np.array_equal(fused["output"], reference["output"], equal_nan=True)


def _shift_steps(signature, by):
    """An outcome signature with every step index moved by ``by``."""
    return tuple(sig[:2] + (sig[2] + by,) + sig[3:] for sig in signature)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mode", ["fused", "fused+deferred", "fused+async"])
class TestWarmScheduleEquivalence:
    """Property campaign: state the fused schedule carries across visits —
    cached weight encodings, reused workspace buffers holding the previous
    visit's values — never changes a decision or an output bit, in any mode.
    """

    def test_byte_identical_decisions_and_outputs(self, mode, seed):
        scenario = random_scenario(seed)
        cold = run_scenario(mode, scenario, seed)
        warm = run_scenario(mode, scenario, seed, warm_up=True)
        # The warm pass really ran on cached encodings.
        assert cold["weight_cache"]["hits"] == 0
        assert warm["weight_cache"]["hits"] == warm["weight_cache"]["entries"] > 0
        assert warm["stats"] == cold["stats"], (mode, seed, scenario)
        # The warm-up occupied one step, so queued outcomes carry step + 1.
        assert warm["detection_sig"] == _shift_steps(cold["detection_sig"], 1)
        assert warm["decision_sig"] == _shift_steps(cold["decision_sig"], 1)
        assert np.array_equal(warm["output"], cold["output"], equal_nan=True)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_sibling_gemm_concat_is_bitwise_identical(dtype):
    """The BLAS property the sibling fusion relies on, pinned explicitly.

    If a platform's GEMM ever produced different bits for a column block
    depending on the other columns present, this canary fails before the
    (harder to localise) campaign equivalence tests do.
    """
    rng = np.random.default_rng(7)
    for batch, d in [(1, 16), (3, 32), (8, 96)]:
        cs = rng.standard_normal((batch, 2, d))
        w_q = rng.standard_normal((d, d)).astype(dtype)
        w_k = rng.standard_normal((d, d)).astype(dtype)
        fused = np.matmul(cs, np.concatenate([w_q, w_k], axis=-1))
        assert np.array_equal(fused[..., :d], np.matmul(cs, w_q))
        assert np.array_equal(fused[..., d:], np.matmul(cs, w_k))


# ---------------------------------------------------------------------------
# Workspace: steady-state reuse, queue isolation, repair aliasing
# ---------------------------------------------------------------------------

class TestChecksumWorkspace:
    def test_request_reuses_identical_buffer(self):
        from repro.backend import get_backend
        workspace = ChecksumWorkspace()
        xp = get_backend("numpy").xp
        first = workspace.request("slot", (3, 4), xp.float64, xp)
        second = workspace.request("slot", (3, 4), xp.float64, xp)
        assert first is second
        assert workspace.allocations == 1 and workspace.reuses == 1
        assert workspace.owns(first)
        assert not workspace.owns(np.zeros((3, 4)))

    def test_geometry_change_replaces_buffer_bounded_by_name(self):
        """One buffer per slot name: a new geometry evicts the old buffer
        instead of accumulating — memory stays bounded under shape churn."""
        from repro.backend import get_backend
        workspace = ChecksumWorkspace()
        xp = get_backend("numpy").xp
        a = workspace.request("slot", (3, 4), xp.float64, xp)
        b = workspace.request("slot", (4, 3), xp.float64, xp)
        c = workspace.request("other", (3, 4), xp.float64, xp)
        assert a is not b and a is not c
        assert len(workspace) == 2  # "slot" was replaced, not duplicated
        assert not workspace.owns(a)
        assert workspace.owns(b) and workspace.owns(c)
        # Returning to the previous geometry allocates afresh (no history).
        d = workspace.request("slot", (3, 4), xp.float64, xp)
        assert d is not a and len(workspace) == 2

    def test_reset_stats_and_steady_state_predicate(self):
        from repro.backend import get_backend
        workspace = ChecksumWorkspace()
        xp = get_backend("numpy").xp
        workspace.request("slot", (2, 2), xp.float64, xp)
        assert not workspace.steady_state
        workspace.reset_stats()
        workspace.request("slot", (2, 2), xp.float64, xp)
        assert workspace.allocations == 0 and workspace.reuses == 1
        assert workspace.steady_state
        workspace.clear()
        assert len(workspace) == 0

    @pytest.mark.parametrize("mode", ["fused", "fused+deferred", "fused+async"])
    def test_zero_steady_state_allocations(self, mode):
        """After one warm-up step the hot path allocates nothing new, and the
        slot count matches the cost model's accounting."""
        attention = make_attention(11)
        checker = ATTNChecker(ATTNCheckerConfig(**MODE_KWARGS[mode]))
        forward(attention, checker, seed=100)  # warm-up (allocates the slots)
        engine = checker.engine
        verification_mode = checker.verification_mode
        assert len(engine.workspace) == SectionCostModel.checksum_workspace_slots(
            verification_mode
        )
        engine.workspace.reset_stats()
        for step in range(3):
            forward(attention, checker, seed=101 + step)
        checker.drain()
        assert engine.workspace.allocations == \
            SectionCostModel.steady_state_hot_path_allocations() == 0
        assert engine.workspace.reuses > 0
        assert engine.workspace.steady_state
        checker.close()

    @pytest.mark.parametrize("mode", ["fused+deferred", "fused+async"])
    def test_queued_checksums_never_workspace_owned(self, mode):
        """Deferred/async queue items must not alias reusable buffers."""
        attention = make_attention(12)
        checker = ATTNChecker(ATTNCheckerConfig(**MODE_KWARGS[mode]))
        hidden = attention.hidden_size
        x = np.random.default_rng(55).normal(size=(2, 4, hidden))
        attention.set_hooks(checker)
        try:
            attention(Tensor(x))
        finally:
            attention.set_hooks(None)
        engine = checker.engine
        assert engine.pending_verifications > 0
        for item in engine._queue:
            assert not engine.workspace.owns(item.matrix)
            if item.checksums.col is not None:
                assert not engine.workspace.owns(item.checksums.col)
            if item.checksums.row is not None:
                assert not engine.workspace.owns(item.checksums.row)
        checker.end_step()
        checker.drain()
        checker.close()

    def test_repair_write_back_leaves_no_aliasing_residue(self):
        """A corrected pass must not leak corrupted state into reused buffers:
        the next clean pass through the same workspace reports clean and its
        output is bitwise what a fresh checker produces."""
        attention = make_attention(13)
        checker = ATTNChecker(ATTNCheckerConfig())
        injector = FaultInjector(
            [FaultSpec(matrix="AS", error_type="inf", layer_index=0)],
            rng=np.random.default_rng(9),
        )
        forward(attention, checker, seed=200, injector=injector)
        assert checker.stats.total_corrections > 0
        before = {n: (s.detections, s.corrections)
                  for n, s in checker.stats.sections.items()}
        clean_out, _ = forward(attention, checker, seed=201)
        after = {n: (s.detections, s.corrections)
                 for n, s in checker.stats.sections.items()}
        assert after == before  # the clean pass added no detections
        fresh_out, _ = forward(attention, ATTNChecker(ATTNCheckerConfig()), seed=201)
        assert np.array_equal(clean_out, fresh_out)


# ---------------------------------------------------------------------------
# Weight-encoding cache: hits, invalidation paths
# ---------------------------------------------------------------------------

class TestWeightEncodingCache:
    def test_hits_across_fault_free_forwards(self):
        attention = make_attention(21)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=300)
        stats = checker.weight_cache_stats()
        # One entry per weight-derived encoding: [W_Q|W_K], its bias row,
        # rowcs(W_V) and the W_V bias terms.
        assert stats["entries"] == 4
        assert stats["misses"] == 4
        forward(attention, checker, seed=301)
        stats = checker.weight_cache_stats()
        assert stats["misses"] == 4 and stats["hits"] == 4

    def test_optimizer_step_invalidates(self):
        """A fault-free training run must stay detection-free: stale weight
        encodings after an optimizer update would false-positive instantly."""
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(5))
        data = SyntheticMRPC(
            num_examples=8, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        )
        batch = dict(data.encode(range(4)))
        checker = ATTNChecker(ATTNCheckerConfig())
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
        for _ in range(3):
            trainer.train_step(batch)
        assert checker.stats.total_detections == 0
        assert checker.stats.total_checks > 0
        # Every step re-derived the weight encodings (version bumped).
        stats = checker.weight_cache_stats()
        assert stats["misses"] >= 3 * model.config.num_layers

    def test_load_state_dict_invalidates(self):
        attention = make_attention(22)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=400)
        donor = make_attention(23)  # different seed => different weights
        attention.load_state_dict(donor.state_dict())
        forward(attention, checker, seed=401)
        assert checker.stats.total_detections == 0

    def test_manual_invalidate_covers_in_place_mutation(self):
        attention = make_attention(24)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=500)
        # In-place edit: same array object, same global version — the one
        # case the automatic invalidation cannot see.
        attention.w_v.weight.data[...] += 0.25
        checker.invalidate_weight_cache()
        forward(attention, checker, seed=501)
        assert checker.stats.total_detections == 0

    def test_bump_weights_version_is_monotonic(self):
        v0 = weights_version()
        assert bump_weights_version() == v0 + 1
        assert weights_version() == v0 + 1

    def test_pinned_foreign_engine_still_hits_cache(self):
        """Adoption copies fresh operands every visit; the cache must key on
        the stable pre-adoption host arrays, not the adopted copies."""

        class _ForeignArray(np.ndarray):
            pass

        class _ForeignBackend(NumpyBackend):
            name = "fusedforeign"

            def asarray(self, data, dtype=None):
                return np.asarray(data, dtype=dtype).view(_ForeignArray)

            def to_numpy(self, array):
                return np.asarray(array).view(np.ndarray)

            def is_backend_array(self, obj):
                return isinstance(obj, _ForeignArray)

        backend = _ForeignBackend()
        register_backend("fusedforeign", lambda: backend)
        clear_dispatch_cache()
        try:
            attention = make_attention(25)
            checker = ATTNChecker(ATTNCheckerConfig(array_backend="fusedforeign"))
            forward(attention, checker, seed=550)
            misses = checker.weight_cache_stats()["misses"]
            forward(attention, checker, seed=551)
            stats = checker.weight_cache_stats()
            assert stats["misses"] == misses  # nothing rebuilt...
            assert stats["hits"] == misses    # ...every entry served from cache
            assert checker.stats.total_detections == 0
        finally:
            unregister_backend("fusedforeign")
            clear_dispatch_cache()


# ---------------------------------------------------------------------------
# Dispatch accounting: measured counters vs the analytical model
# ---------------------------------------------------------------------------

class TestDispatchAccounting:
    @pytest.mark.parametrize("mode", ["fused", "fused+deferred", "fused+async"])
    def test_fused_counters_match_cost_model(self, mode):
        """Encode/carry launches happen in the forward pass whatever the
        verification mode, so every mode pays the same model count."""
        attention = make_attention(31)
        checker = ATTNChecker(ATTNCheckerConfig(**MODE_KWARGS[mode]))
        forward(attention, checker, seed=600)
        cold = sum(SectionCostModel.checksum_gemm_dispatches_per_layer(
            steady_state=False).values())
        assert checker.dispatch_counts["gemm"] == cold
        forward(attention, checker, seed=601)
        steady = sum(SectionCostModel.checksum_gemm_dispatches_per_layer(
            steady_state=True).values())
        assert checker.dispatch_counts["gemm"] == cold + steady
        checker.drain()
        checker.close()

    @pytest.mark.parametrize("section", list(SECTION_REGISTRY))
    def test_single_section_counters_match_cost_model(self, section):
        """With only one section enabled, each section pays its own model
        count, cold and steady.  S_O carries col(CL), so an O-only pass still
        runs S_CL's column chain (encode col(AP), carry it through V) but
        none of its row side."""
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(34))
        model.eval()
        batch = dict(SyntheticMRPC(
            num_examples=4, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        ).encode(range(2)))
        frequencies = {name: float(name == section) for name in SECTION_REGISTRY}
        checker = ATTNChecker(ATTNCheckerConfig(
            protect_scope="attention+ffn", frequencies=frequencies,
        ))
        upstream = 2 if section == "O" else 0
        layers = model.config.num_layers
        model.set_attention_hooks(checker)
        try:
            counts = []
            for _ in range(2):
                before = checker.dispatch_counts["gemm"]
                model(batch["input_ids"], attention_mask=batch["attention_mask"])
                counts.append(checker.dispatch_counts["gemm"] - before)
        finally:
            model.set_attention_hooks(None)
        for steady_state, measured in zip((False, True), counts):
            per_layer = SectionCostModel.checksum_gemm_dispatches_per_layer(
                steady_state=steady_state, scope="attention+ffn")
            assert measured == (per_layer[section] + upstream) * layers
        assert set(checker.stats.sections) == set(SECTION_REGISTRY)
        assert all(stats.checks_run == (2 * layers if name == section else 0)
                   for name, stats in checker.stats.sections.items())
        checker.close()

    def test_model_rejects_unknown_inputs(self):
        with pytest.raises(KeyError):
            SectionCostModel.checksum_workspace_slots("sometimes")

    def test_detect_counter_counts_boundary_verifications(self):
        attention = make_attention(33)
        checker = ATTNChecker(ATTNCheckerConfig())
        forward(attention, checker, seed=800)
        # Immediate mode: one verification per enabled section per layer.
        assert checker.dispatch_counts["detect"] == 3

    @pytest.mark.parametrize("mode", ["immediate", "deferred", "async"])
    def test_detect_counter_matches_verification_model(self, mode):
        """Queued modes stack every layer's boundary into one verification
        per section per step; immediate verifies per layer."""
        model = build_model("bert-base", size="tiny", rng=np.random.default_rng(35))
        model.eval()
        batch = dict(SyntheticMRPC(
            num_examples=4, max_seq_len=model.config.max_seq_len,
            vocab_size=model.config.vocab_size,
        ).encode(range(2)))
        checker = ATTNChecker(ATTNCheckerConfig(verification_mode=mode))
        steps = 2
        model.set_attention_hooks(checker)
        try:
            for _ in range(steps):
                model(batch["input_ids"], attention_mask=batch["attention_mask"])
                checker.end_step()
            checker.drain()
        finally:
            model.set_attention_hooks(None)
        per_step = SectionCostModel.verification_dispatches_per_step(
            mode, model.config.num_layers)
        assert checker.dispatch_counts["detect"] == steps * sum(per_step.values())
        checker.close()


# ---------------------------------------------------------------------------
# checksum_weights vector cache
# ---------------------------------------------------------------------------

class TestChecksumWeightCache:
    def test_same_vectors_returned_and_values_correct(self):
        clear_checksum_weight_cache()
        v1a, v2a = checksum_weights(6)
        v1b, v2b = checksum_weights(6)
        assert v1a is v1b and v2a is v2b
        np.testing.assert_array_equal(v1a, np.ones(6))
        np.testing.assert_array_equal(v2a, np.arange(1, 7, dtype=np.float64))
        v1c, _ = checksum_weights(7)
        assert v1c is not v1a

    def test_stacked_blocks_cached_per_axis(self):
        clear_checksum_weight_cache()
        col = stacked_checksum_weights(5, axis=0)
        row = stacked_checksum_weights(5, axis=1)
        assert col.shape == (2, 5) and row.shape == (5, 2)
        assert stacked_checksum_weights(5, axis=0) is col
        np.testing.assert_array_equal(col.T, row)
        clear_checksum_weight_cache()
        assert stacked_checksum_weights(5, axis=0) is not col


# ---------------------------------------------------------------------------
# The out= contract fallback
# ---------------------------------------------------------------------------

class _NoOutNamespace(NumpyNamespace):
    """A namespace that rejects ``out=`` on the workspace entry points."""

    @staticmethod
    def matmul(a, b):
        return np.matmul(a, b)

    @staticmethod
    def stack(arrays, axis=0):
        return np.stack(list(arrays), axis=axis)

    @staticmethod
    def einsum(equation, *operands):
        return np.einsum(equation, *operands)


class _NoOutBackend(NumpyBackend):
    name = "noout"

    def __init__(self):
        super().__init__()
        self.xp = _NoOutNamespace()


@pytest.fixture
def noout_backend():
    backend = _NoOutBackend()
    register_backend("noout", lambda: backend)
    clear_dispatch_cache()
    yield backend
    unregister_backend("noout")
    clear_dispatch_cache()


class TestOutContractFallback:
    def test_helpers_fall_back_value_correctly(self, noout_backend):
        xp = noout_backend.xp
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        out = np.empty((4, 3))
        np.testing.assert_array_equal(matmul_into(xp, a, b, out), a @ b)
        np.testing.assert_array_equal(
            einsum_into(xp, "ij,jk->ik", a, b, out=out),
            np.einsum("ij,jk->ik", a, b),
        )
        rows = [rng.standard_normal(3) for _ in range(4)]
        np.testing.assert_array_equal(
            stack_into(xp, rows, np.empty((4, 3))), np.stack(rows)
        )
        # Second calls exercise the memoised no-support path.
        np.testing.assert_array_equal(matmul_into(xp, a, b, out), a @ b)

    def test_engine_pinned_to_out_less_namespace_matches_reference(self, noout_backend):
        scenario = random_scenario(3)
        scenario.update({"matrix": "AS", "error_type": "inf"})
        reference = run_scenario("fused", scenario, 3)
        pinned = run_scenario("fused", scenario, 3,
                              extra_config={"array_backend": "noout"})
        assert pinned["stats"] == reference["stats"]
        assert np.array_equal(pinned["output"], reference["output"], equal_nan=True)
