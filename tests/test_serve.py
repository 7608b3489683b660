"""Service lifecycle suite: build-once/serve-many (ISSUE 7 tentpole).

Covers the acceptance criteria end to end: cold vs. warm-cache
requests, coalesced spmm batches bit-identical per column to
independent spmv requests, model serialize→deserialize→serve round
trips, concurrent submitters, and the teardown paths (drain, cancel,
worker death mid-request under the :mod:`repro.check` checker).
"""

import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.spmvm import distributed_spmv
from repro.matrices import random_sparse
from repro.mpilite import WorldAbortedError
from repro.serve import (
    MODEL_SCHEMA,
    BuiltModel,
    ServiceClosedError,
    ServiceError,
    SolverService,
    build_model,
    run_request_stream,
)
from repro.sparse import native


@pytest.fixture(scope="module")
def A():
    return random_sparse(240, nnzr=6.0, seed=13, ensure_diagonal=True)


@pytest.fixture(scope="module")
def model(A):
    return build_model(A, 3, scheme="task_mode")


def _read_only(a):
    a.flags.writeable = False
    return a


#: right-hand sides ``solve`` takes where they lie (1-D, 2-D) and ones
#: it must copy first
RHS_KINDS = {
    "1-D": lambda rng, n: rng.standard_normal(n),
    "2-D": lambda rng, n: rng.standard_normal((n, 3)),
    "F-order": lambda rng, n: np.asfortranarray(rng.standard_normal((n, 3))),
    "int": lambda rng, n: rng.integers(-9, 10, n),
    "read-only": lambda rng, n: _read_only(rng.standard_normal(n)),
    "strided": lambda rng, n: rng.standard_normal((n, 2))[:, 1],
}


def _rhs(kind, n):
    return RHS_KINDS[kind](np.random.default_rng(17), n)


def _wait_for_pending(svc, count, seconds=10.0):
    """Until *count* requests are queued behind ``svc.hold()``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        with svc._lock:
            if len(svc._pending) >= count:
                return
        time.sleep(0.001)
    pytest.fail(f"{count} requests were not queued within {seconds} s")


# ----------------------------------------------------------------------
# model build
# ----------------------------------------------------------------------
class TestBuiltModel:
    def test_build_captures_all_one_time_state(self, A, model):
        assert model.nranks == 3
        assert model.plan.nnz == A.nnz
        assert model.scheme == "task_mode"
        assert not hasattr(model, "program")  # derived by the engine, never stored
        assert model.fingerprint == A.structure_fingerprint()
        assert model.build_seconds > 0.0
        assert "task_mode" in model.describe()

    def test_engines_share_one_compiled_program(self, model):
        from repro.mpilite import World

        w = World(3)
        engines = [model.engine(w.comms[r]) for r in range(3)]
        programs = {id(e.program("task_mode")) for e in engines}
        assert len(programs) == 1  # cached_sweep_program: one instance


# ----------------------------------------------------------------------
# serialization round trip
# ----------------------------------------------------------------------
class TestModelSerialization:
    def test_save_load_serve_round_trip(self, A, model, tmp_path):
        path = model.save(tmp_path / "model.npz")
        loaded = BuiltModel.load(path)
        assert loaded.fingerprint == model.fingerprint
        assert loaded.scheme == model.scheme
        x = np.arange(A.nrows, dtype=float)
        with SolverService(model) as live, SolverService(loaded) as thawed:
            np.testing.assert_array_equal(live.solve(x), thawed.solve(x))

    def test_file_holds_only_what_a_build_cannot_recompute(self, tmp_path):
        import json

        A = random_sparse(100, nnzr=5.0, seed=14, ensure_diagonal=True)
        built = build_model(
            A, 4, scheme="naive_overlap", comm_plan="node-aware", ranks_per_node=2,
        )
        path = built.save(tmp_path / "model.npz")
        with np.load(path) as data:
            # derived state (partition, halo lists, sub-matrices, program
            # signature) must not creep back in: load() rebuilds it
            assert set(data.files) == {
                "meta", "matrix.row_ptr", "matrix.col_idx", "matrix.val",
            }
            meta = json.loads(str(data["meta"][()]))
        assert meta == {
            "schema": MODEL_SCHEMA,
            "nranks": 4,
            "scheme": "naive_overlap",
            "comm_plan": "node-aware",
            "ranks_per_node": 2,
            "fingerprint": list(A.structure_fingerprint()),
        }
        loaded = BuiltModel.load(path)
        assert (loaded.nranks, loaded.scheme) == (4, "naive_overlap")
        assert (loaded.comm_plan_kind, loaded.ranks_per_node) == ("node-aware", 2)
        assert loaded.comm_plan is not None
        np.testing.assert_array_equal(
            loaded.plan.partition.offsets, built.plan.partition.offsets
        )

    def test_load_rejects_wrong_schema(self, model, tmp_path):
        import json

        path = model.save(tmp_path / "model.npz")
        data = dict(np.load(path))
        meta = json.loads(str(data["meta"][()]))
        meta["schema"] = "repro-model/1"  # the layout that stored derived state
        data["meta"] = np.array(json.dumps(meta))
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(ValueError, match=MODEL_SCHEMA.replace("/", "/")):
            BuiltModel.load(tmp_path / "bad.npz")

    def test_load_detects_corrupted_matrix(self, model, tmp_path):
        path = model.save(tmp_path / "model.npz")
        data = dict(np.load(path))
        data["matrix.col_idx"] = data["matrix.col_idx"].copy()
        data["matrix.col_idx"][0] += 1  # flip one structural entry
        np.savez(path, **data)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            BuiltModel.load(path)

    @pytest.mark.parametrize(
        "corrupt,match",
        [
            (lambda meta, data: meta.pop("nranks"), r"meta lacks .*'nranks'"),
            (lambda meta, data: meta.pop("fingerprint"), r"meta lacks .*'fingerprint'"),
            (lambda meta, data: meta.pop("comm_plan"), r"meta lacks .*'comm_plan'"),
            (lambda meta, data: data.pop("matrix.val"), r"lacks \['matrix.val'\]"),
            (
                lambda meta, data: data.update({"matrix.val": data["matrix.val"][:-3]}),
                r"matrix\.val has shape \(\d+,\) but matrix\.col_idx \(\d+,\)",
            ),
            # a file an older writer built on a kernel that no longer
            # exists served a different result class: refused by name
            (lambda meta, data: meta.update(kernel="ghost/v1"), r"'kernel' names 'ghost/v1'"),
            # so did one partitioned other than by balanced nonzeros
            (lambda meta, data: meta.update(strategy="rows"), r"'strategy' names 'rows'"),
            (lambda meta, data: meta.update(strategy="bogus"), r"'strategy' names 'bogus'"),
            # every value is checked before build_model sees it
            (lambda meta, data: meta.update(nranks=-1), r"'nranks' is -1; expected an integer"),
            (lambda meta, data: meta.update(nranks="x"), r"'nranks' is 'x'; expected an integer"),
            # more ranks than rows: refused before an O(nranks) build
            (lambda meta, data: meta.update(nranks=1_000_000), r"more ranks than the matrix"),
            (lambda meta, data: meta.update(scheme="bogus"), r"'scheme' is 'bogus'; expected one"),
            (lambda meta, data: meta.update(comm_plan="bogus"), r"'comm_plan' is 'bogus'"),
            (
                lambda meta, data: meta.update(comm_plan="node-aware", ranks_per_node=0),
                r"'ranks_per_node' is 0; expected an integer >= 1",
            ),
            (lambda meta, data: meta.update(fingerprint=5), r"'fingerprint' is 5; expected a list"),
            (lambda meta, data: data.update(meta=np.array("{not json")), r"meta is not JSON"),
        ],
        ids=[
            "meta-no-nranks", "meta-no-fingerprint", "meta-no-comm_plan",
            "no-val-array", "short-val", "foreign-kernel",
            "strategy-rows", "strategy-bogus", "nranks-negative", "nranks-string",
            "nranks-above-rows", "scheme-bogus", "comm_plan-bogus", "ranks_per_node-zero",
            "fingerprint-int", "meta-not-json",
        ],
    )
    def test_load_rejects_corrupt_file_with_its_path(self, model, tmp_path, corrupt, match):
        path = _rewritten(model.save(tmp_path / "model.npz"), corrupt)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=match) as err:
            BuiltModel.load(path)
        assert time.perf_counter() - t0 < 1.0
        assert str(err.value).startswith(f"{path}: ")

    def test_legacy_file_naming_the_csr_kernel_loads_bit_identically(self, A, model, tmp_path):
        # every repro-model/2 file written before the key was dropped
        path = _rewritten(
            model.save(tmp_path / "model.npz"),
            lambda meta, data: meta.update(kernel="csr/reference"),
        )
        loaded = BuiltModel.load(path)
        x = np.cos(np.arange(A.nrows))
        with SolverService(model) as live, SolverService(loaded) as thawed:
            np.testing.assert_array_equal(live.solve(x), thawed.solve(x))

    def test_legacy_file_naming_the_nnz_strategy_loads_bit_identically(self, A, model, tmp_path):
        # every repro-model/2 file written before the key was dropped; a
        # file without it (what save writes now) is the round trip above
        path = model.save(tmp_path / "model.npz")
        with np.load(path) as npz:
            assert "strategy" not in str(npz["meta"][()])
        loaded = BuiltModel.load(_rewritten(path, lambda meta, data: meta.update(strategy="nnz")))
        np.testing.assert_array_equal(loaded.plan.partition.offsets, model.plan.partition.offsets)
        x = np.cos(np.arange(A.nrows))
        with SolverService(model) as live, SolverService(loaded) as thawed:
            np.testing.assert_array_equal(live.solve(x), thawed.solve(x))


def _rewritten(path, edit):
    """Apply ``edit(meta, arrays)`` to a saved model file in place (an
    edit that puts a ``meta`` entry into *arrays* replaces the JSON)."""
    import json

    with np.load(path) as npz:
        data = dict(npz)
    meta = json.loads(str(data.pop("meta")[()]))
    edit(meta, data)
    np.savez(path, **{"meta": np.array(json.dumps(meta)), **data})
    return path


# ----------------------------------------------------------------------
# serving: correctness, coalescing, concurrency
# ----------------------------------------------------------------------
class TestServing:
    def test_single_request_matches_independent_spmv(self, A, model):
        x = np.sin(np.arange(A.nrows))
        with SolverService(model) as svc:
            y = svc.solve(x)
        np.testing.assert_array_equal(y, distributed_spmv(A, x, 3, scheme="task_mode"))

    def test_submit_poll_gather_lifecycle(self, A, model):
        x = np.ones(A.nrows)
        with SolverService(model) as svc:
            req = svc.submit(x)
            y = svc.gather(req, timeout=30.0)
            assert svc.poll(req) and req.done
            assert req.latency is not None and req.latency >= 0.0
        assert y.shape == (A.nrows,)

    def test_block_request_keeps_shape(self, A, model):
        X = np.ones((A.nrows, 3))
        with SolverService(model) as svc:
            Y = svc.solve(X)
        assert Y.shape == (A.nrows, 3)

    def test_response_is_the_requests_own_copy(self, A, model):
        # submit copies x once; that copy comes back as the response, so
        # the caller's buffer is never read again and never written
        rng = np.random.default_rng(9)
        x, X = rng.standard_normal(A.nrows), rng.standard_normal((A.nrows, 2))
        x0, X0 = x.copy(), X.copy()
        with SolverService(model) as svc:
            with svc.hold():
                reqs = [svc.submit(x), svc.submit(X)]
                x[:], X[:] = 0.0, 0.0  # reused before the batch even starts
            y, Y = (svc.gather(r) for r in reqs)
        assert y.shape == x.shape and Y.shape == X.shape
        assert y.flags.owndata and y.flags.c_contiguous and Y.flags.c_contiguous
        assert not np.shares_memory(y, x) and not np.shares_memory(Y, X)
        np.testing.assert_array_equal(y, distributed_spmv(A, x0, 3, scheme="task_mode"))
        for j in range(2):
            np.testing.assert_array_equal(
                Y[:, j], distributed_spmv(A, X0[:, j], 3, scheme="task_mode")
            )

    @pytest.mark.parametrize("kind", sorted(RHS_KINDS))
    def test_solve_matches_submit_and_a_mixed_batch_bit_for_bit(self, A, model, kind):
        # solve reads a float64, C-contiguous, writeable x where it lies
        # and copies any other x as submit does; all three ways to serve
        # x give the same bits, and none touches the caller's array
        x = _rhs(kind, A.nrows)
        x0 = x.copy()
        rng = np.random.default_rng(3)
        before, after = rng.standard_normal(A.nrows), rng.standard_normal((A.nrows, 2))
        with SolverService(model, max_batch=16) as svc:
            alone = svc.solve(x)
            submitted = svc.gather(svc.submit(x))
            with svc.hold():  # one batch: submit, solve (another thread), submit
                first = svc.submit(before)
                out = {}
                solver = threading.Thread(target=lambda: out.setdefault("y", svc.solve(x)))
                solver.start()
                _wait_for_pending(svc, 2)
                last = svc.submit(after)
            solver.join(30.0)
            assert not solver.is_alive()
            mixed = out["y"]
            widths = svc.stats["batch_widths"]
            ys_before, ys_after = svc.gather(first), svc.gather(last)
        assert widths[-1] == 3 + (x.shape[1] if x.ndim == 2 else 1)
        np.testing.assert_array_equal(x, x0)
        for y in (alone, submitted, mixed):
            assert y.shape == x.shape and not np.shares_memory(y, x)
            np.testing.assert_array_equal(y, alone)
        cols = x0.reshape(A.nrows, -1).astype(np.float64)
        for j in range(cols.shape[1]):
            np.testing.assert_array_equal(
                alone.reshape(A.nrows, -1)[:, j],
                distributed_spmv(A, cols[:, j], 3, scheme="task_mode"),
            )
        np.testing.assert_array_equal(
            ys_before, distributed_spmv(A, before, 3, scheme="task_mode")
        )
        np.testing.assert_array_equal(
            ys_after[:, 1], distributed_spmv(A, after[:, 1], 3, scheme="task_mode")
        )

    @pytest.mark.skipif(not native.status().available, reason="no compiled executor")
    @pytest.mark.parametrize("kind", ["1-D", "read-only", "strided"])
    def test_solve_never_hands_the_compiled_kernels_an_operand_they_decline(
        self, A, model, kind, monkeypatch
    ):
        # native.rowsums declines read-only and strided operands, and the
        # numpy executor would then run silently: such an x is copied
        declined = []
        rowsums = native.rowsums

        def watched(matrix, X, out, add):
            taken = rowsums(matrix, X, out, add)
            if not taken:
                declined.append(X.flags)
            return taken

        monkeypatch.setattr(native, "rowsums", watched)
        x = _rhs(kind, A.nrows)
        with SolverService(model) as svc:
            y = svc.solve(x)
        assert not declined
        np.testing.assert_array_equal(y, distributed_spmv(A, x, 3, scheme="task_mode"))

    def test_idle_service_starts_a_request_on_the_submitting_thread(self, A, model):
        # no thread stands between a request and the ranks: by the time
        # submit returns the batch is in their inboxes, and what queues
        # up behind it rides in the next one
        with SolverService(model, max_batch=8) as svc:
            first = svc.submit(np.ones(A.nrows))
            assert svc._inflight is not None or first.done
            svc.gather(first)
            assert svc.stats["batch_widths"] == (1,)

    def test_a_landed_batch_is_held_by_no_idle_rank(self, A, model):
        # once the caller drops a response it is freed, while the ranks
        # wait for more work: a lone solve (swept into the response), a
        # lone submit and a coalesced batch (swept into scratch, copied
        # out) alike
        def served(svc):
            yield svc.solve(np.ones(A.nrows))
            yield svc.gather(svc.submit(np.ones((A.nrows, 2))))
            with svc.hold():
                reqs = [svc.submit(np.ones(A.nrows)) for _ in range(3)]
            yield from (svc.gather(r) for r in reqs)

        with SolverService(model, max_batch=8) as svc:
            refs = [weakref.ref(y) for y in served(svc)]
            deadline = time.monotonic() + 10.0
            while any(r() is not None for r in refs) and time.monotonic() < deadline:
                time.sleep(0.01)  # the last rank to land lets go just after
            assert [r() is None for r in refs] == [True] * 5

    def test_submit_validates_shape(self, A, model):
        with SolverService(model) as svc:
            with pytest.raises(ValueError, match="rows"):
                svc.submit(np.ones(A.nrows + 1))
            with pytest.raises(ValueError, match="1-D or 2-D"):
                svc.submit(np.ones((A.nrows, 2, 2)))

    def test_coalesced_batch_bit_identical_to_per_request_spmv(self, A, model):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, A.nrows))
        with SolverService(model, max_batch=16) as svc:
            singles = [svc.solve(X[i]) for i in range(10)]  # width-1 batches
            with svc.hold():  # stage all 10, release as ONE spmm batch
                reqs = [svc.submit(X[i]) for i in range(10)]
            coalesced = [svc.gather(r) for r in reqs]
            widths = svc.stats["batch_widths"]
        assert widths[-1] == 10  # actually coalesced, not serialized
        for i in range(10):
            np.testing.assert_array_equal(coalesced[i], singles[i])
            np.testing.assert_array_equal(
                coalesced[i], distributed_spmv(A, X[i], 3, scheme="task_mode")
            )

    def test_max_batch_splits_coalesced_bursts(self, A, model):
        with SolverService(model, max_batch=4) as svc:
            with svc.hold():
                reqs = [svc.submit(np.ones(A.nrows)) for _ in range(10)]
            for r in reqs:
                svc.gather(r)
            widths = svc.stats["batch_widths"]
        assert max(widths) <= 4
        assert sum(widths) == 10

    def test_concurrent_submitters(self, A, model):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((24, A.nrows))
        out = [None] * 24
        with SolverService(model, max_batch=8) as svc:

            def run(lane):
                for i in range(lane, 24, 6):
                    out[i] = svc.solve(X[i])

            threads = [threading.Thread(target=run, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats
        assert stats["requests"] == 24
        for i in range(24):
            np.testing.assert_array_equal(
                out[i], distributed_spmv(A, X[i], 3, scheme="task_mode")
            )

    def test_request_stream_driver(self, A, tmp_path):
        report = run_request_stream(
            A, 2, requests=12, concurrency=4, max_batch=4,
            model_path=tmp_path / "m.npz", matrix_label="random/240",
        )
        assert report.verified == 4
        s = report.summary()
        assert s["count"] == 12 and s["p50"] > 0.0 and s["throughput_rps"] > 0.0
        assert "random/240" in report.render()

    def test_request_stream_verification_is_bit_identity(self, A, monkeypatch):
        # one result class: the report has no tolerance wording to fall back
        # on, and a reference one ulp away fails the run
        import dataclasses

        import repro.core.spmvm as core_spmvm
        from repro.serve import StreamReport

        report = run_request_stream(A, 2, requests=4, concurrency=2, verify=3)
        assert (
            "verified            : 3/3 response(s) bit-identical to independent "
            "distributed spMVM runs"
        ) in report.render()
        fields = [f.name for f in dataclasses.fields(StreamReport)]
        assert not [name for name in fields if "kernel" in name or "exact" in name]

        exact = core_spmvm.distributed_spmv
        monkeypatch.setattr(
            core_spmvm, "distributed_spmv",
            lambda *args, **kwargs: np.nextafter(exact(*args, **kwargs), np.inf),
        )
        with pytest.raises(AssertionError, match="response 0 is not bit-identical"):
            run_request_stream(A, 2, requests=4, concurrency=2, verify=1)


# ----------------------------------------------------------------------
# teardown: drain, cancel, worker death mid-request
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_drains_outstanding_requests(self, A, model):
        svc = SolverService(model)
        with svc.hold():
            reqs = [svc.submit(np.ones(A.nrows)) for _ in range(5)]
            # requests are queued but not dispatched; close must drain them
            closer = threading.Thread(target=svc.close)
            closer.start()
        closer.join(10.0)
        assert not closer.is_alive()
        for r in reqs:
            assert svc.gather(r, timeout=1.0).shape == (A.nrows,)
        assert svc.state == "closed"

    def test_close_without_drain_cancels_with_provenance(self, A, model):
        svc = SolverService(model, name="cancelly")
        with svc.hold():
            reqs = [svc.submit(np.ones(A.nrows)) for _ in range(3)]
            svc.close(drain=False)
        for r in reqs:
            with pytest.raises(ServiceClosedError, match=r"request \d+"):
                svc.gather(r, timeout=1.0)

    def test_abandoned_solve_leaves_its_batch_mates_exact(self, A, model):
        # a solve that timed out stays queued and still reads x when its
        # batch runs; the caller may already have overwritten x, which
        # changes only the abandoned request's own (dropped) columns
        rng = np.random.default_rng(11)
        x, z = rng.standard_normal(A.nrows), rng.standard_normal((A.nrows, 2))
        svc = SolverService(model, max_batch=16)
        with svc.hold():
            mate = svc.submit(z)
            with pytest.raises(TimeoutError, match="not served"):
                svc.solve(x, timeout=0.05)
            x[:] = np.nan
        Z = svc.gather(mate, timeout=30.0)
        svc.close()
        assert svc.state == "closed" and svc.stats["batch_widths"] == (3,)
        for j in range(2):
            np.testing.assert_array_equal(
                Z[:, j], distributed_spmv(A, z[:, j], 3, scheme="task_mode")
            )

    def test_submit_after_close_raises(self, A, model):
        svc = SolverService(model)
        svc.close()
        with pytest.raises(ServiceClosedError, match="closed"):
            svc.submit(np.ones(A.nrows))

    def test_worker_death_mid_request_fails_fast_with_provenance(self, A):
        from repro.check import Checker

        checker = Checker(3)
        model = build_model(A, 3, scheme="task_mode")
        svc = SolverService(model, observer=checker, name="doomed")
        x = np.ones(A.nrows)
        svc.solve(x)  # one healthy request first
        svc.inject_fault(1)
        t0 = time.perf_counter()
        with pytest.raises(ServiceError) as excinfo:
            svc.solve(x, timeout=30.0)
        elapsed = time.perf_counter() - t0
        # fail-fast: milliseconds, not the 60 s collective/receive timeout
        assert elapsed < 5.0
        msg = str(excinfo.value)
        assert "rank 1" in msg and "doomed" in msg and "batch" in msg
        assert svc.state == "failed"
        with pytest.raises(WorldAbortedError, match="rank 1"):  # the world is torn down
            svc.world.comms[0].send(np.ones(1), dest=2)
        # the checker survives the crash and still reports
        report = checker.finalize(context="kill-mid-request")
        assert report is not None
        with pytest.raises(ServiceClosedError, match="failed"):
            svc.submit(x)
        svc.close()  # idempotent after failure

    def test_rank_dead_before_its_first_batch_fails_the_batch_in_flight(self, A):
        # a rank whose engine cannot be built never takes a batch, so it
        # can never land one either: the batch in flight must fail with
        # it instead of waiting for a part that will not come
        model = build_model(A, 2, scheme="no_overlap")
        healthy = model.engine

        def engine(comm, **kwargs):
            if comm.rank == 1:
                time.sleep(0.05)  # let a request get in flight first
                raise RuntimeError("no engine for rank 1")
            return healthy(comm, **kwargs)

        object.__setattr__(model, "engine", engine)
        svc = SolverService(model, name="stillborn")
        with pytest.raises(ServiceError, match="rank 1"):
            svc.solve(np.ones(A.nrows), timeout=30.0)
        assert svc.state == "failed"
        svc.close()

    def test_peer_blocked_in_exchange_gets_descriptive_abort(self, A):
        # the survivors' view: their halo receives must surface the
        # WorldAbortedError provenance, not a bare timeout
        from repro.mpilite import WorldAbortedError

        model = build_model(A, 2, scheme="no_overlap")
        svc = SolverService(model, name="survivor")
        svc.world.abort("injected teardown")
        with pytest.raises(ServiceError) as excinfo:
            svc.solve(np.ones(A.nrows), timeout=30.0)
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorldAbortedError)
        assert "injected teardown" in str(cause)
        svc.close()

    def test_idle_service_burns_no_measurable_cpu(self, A, model):
        with SolverService(model) as svc:
            svc.solve(np.ones(A.nrows))  # warm every thread up
            cpu0 = time.process_time()
            time.sleep(0.5)
            idle_cpu = time.process_time() - cpu0
        assert idle_cpu < 0.05


def test_stuck_ranks_are_named_within_one_deadline(A):
    # four ranks stuck where World.abort cannot reach them: close() names
    # them all after its timeout plus one 5 s grace period, not 5 s per rank
    model = build_model(A, 4, scheme="no_overlap")
    release = threading.Event()
    build = model.engine

    def engine(comm, **kwargs):
        eng = build(comm, **kwargs)
        multiply_block = eng.multiply_block

        def blocked(*args, **kw):
            release.wait()
            return multiply_block(*args, **kw)

        eng.multiply_block = blocked
        return eng

    object.__setattr__(model, "engine", engine)
    svc = SolverService(model, name="stuck")
    req = svc.submit(np.ones(A.nrows))
    t0 = time.monotonic()
    try:
        with pytest.raises(ServiceError, match="failed to stop") as excinfo:
            svc.close(timeout=0.2)
        elapsed = time.monotonic() - t0
    finally:
        release.set()
    assert elapsed < 0.2 + 5.0 + 1.0
    assert all(f"'stuck-rank{r}'" in str(excinfo.value) for r in range(4))
    assert svc.state == "failed"
    # freed, the ranks meet the aborted world, fail the batch and end
    # (their retired threads with them), so the leak check passes
    with pytest.raises(ServiceError, match="stuck"):
        svc.gather(req, timeout=5.0)
