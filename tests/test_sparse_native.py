"""The compiled executor of the CSR row sums (repro.sparse.native).

One definition (the numpy code of ``_numpy_rowsums``, over an ``(n, k)``
block; a vector is its one-column view), two executors: everything here
checks that the C loop reproduces the numpy bits, declines what it
cannot reproduce, never reads outside its arrays, and that the package
works the same without it.  Tests that need the library skip where it could not be
built (the ``CC=false`` CI leg), those that compile skip without a compiler that
runs (``CC=false`` against a warm cache); the fallback tests run everywhere.
"""

import gc
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sparse import COOMatrix, CSRMatrix, native, spmm, spmm_add, spmv, spmv_add
from repro.sparse.spmv import _numpy_rowsums, _segmented_rowsums

needs_library = pytest.mark.skipif(
    not native.status().available, reason=f"no compiled executor: {native.status().reason}"
)


def _compiler_runs() -> bool:
    """A compiler is named and answers ``--version`` (``CC=false`` does not,
    even where the cache already holds a library it loads)."""
    try:
        cc = native._compiler()
        return subprocess.run([*cc, "--version"], capture_output=True, timeout=60).returncode == 0
    except (native._Unavailable, OSError, subprocess.SubprocessError):
        return False


#: Tests that compile the source (a variant of it, or a first build in a
#: fresh cache) need a compiler that runs, not only a loaded library.
needs_compiler = pytest.mark.skipif(
    not (native.status().available and _compiler_runs()),
    reason="no compiled executor or no runnable C compiler",
)

#: Both sides of every threshold of numpy's pairwise sum (a row of n
#: terms sums n - 1 of them pairwise), plus the empty row.
ROW_LENGTHS = (0, 1, 2, 3, 7, 8, 9, 10, 17, 128, 129, 130, 300)
SPECIALS = (None, -0.0, np.nan, np.inf, -np.inf)
_SEED = st.integers(min_value=0, max_value=2**31 - 1)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit — signed zeros distinguished — up to NaN payload."""
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))
    )


def _arrays(lengths, ncols, rng, special=None):
    """CSR arrays with the given row lengths and mixed-magnitude values."""
    row_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    nnz = int(row_ptr[-1])
    col_idx = rng.integers(0, ncols, nnz)
    val = rng.standard_normal(nnz) * 10.0 ** rng.integers(-9, 10, nnz)
    if special is not None and nnz:
        val[rng.integers(0, nnz, max(1, nnz // 8))] = special
    return row_ptr, col_idx, val


def _read_only(array):
    array = array.copy()
    array.flags.writeable = False
    return array


def _matrix(nrows=60, ncols=60, nnz=400, seed=3) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    return COOMatrix(
        nrows, ncols, rng.integers(0, nrows, nnz), rng.integers(0, ncols, nnz),
        rng.standard_normal(nnz),
    ).to_csr()


# ----------------------------------------------------------------------
# same bits
# ----------------------------------------------------------------------
@needs_library
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # Inf - Inf
@settings(max_examples=150, deadline=None)
@given(
    lengths=st.lists(st.sampled_from(ROW_LENGTHS), min_size=0, max_size=10),
    ncols=st.integers(1, 40),
    k=st.sampled_from((None, 1, 2, 8)),
    add=st.booleans(),
    val_special=st.sampled_from(SPECIALS),
    x_special=st.sampled_from(SPECIALS),
    seed=_SEED,
)
def test_native_reproduces_numpy_bits(lengths, ncols, k, add, val_special, x_special, seed):
    rng = np.random.default_rng(seed)
    row_ptr, col_idx, val = _arrays(lengths, ncols, rng, val_special)
    A = CSRMatrix(row_ptr, col_idx, val, ncols=ncols, check=False)
    x = rng.standard_normal((ncols, 1 if k is None else k))
    if x_special is not None:
        x[rng.integers(0, ncols, max(1, ncols // 6))] = x_special
    start = rng.standard_normal((len(lengths), x.shape[1]))
    start[::3] = -0.0  # an accumulated-into -0.0 must keep its sign on an empty row
    want = _numpy_rowsums(row_ptr, col_idx, val, x, start.copy(), add=add)
    got = start.copy()
    taken = native.rowsums(A, x, got, add)
    if not taken:
        # only an empty operand is declined here; the caller then runs numpy
        assert len(lengths) == 0 or col_idx.size == 0
        assert same_bits(got, start)
        _segmented_rowsums(A, x, got, add=add)
    assert same_bits(got, want)
    if k is None:  # the vector kernels run the same sums on one-column views
        vec = spmv_add(A, x[:, 0], start[:, 0].copy()) if add else spmv(A, x[:, 0])
        assert same_bits(vec, want[:, 0])


@needs_library
@pytest.mark.parametrize("k", [1, 2, 3, 8, 13, 16])
def test_block_column_is_the_vector_kernel(k):
    rng = np.random.default_rng(k)
    row_ptr, col_idx, val = _arrays(ROW_LENGTHS * 2, 50, rng)
    A = CSRMatrix(row_ptr, col_idx, val, ncols=50, check=False)
    X = rng.standard_normal((50, k))
    Y = spmm(A, X)
    acc = rng.standard_normal((A.nrows, k))
    Yadd = spmm_add(A, X, acc.copy())
    for j in range(k):
        assert same_bits(Y[:, j], spmv(A, X[:, j].copy()))
        assert same_bits(Yadd[:, j], spmv_add(A, X[:, j].copy(), acc[:, j].copy()))


# ----------------------------------------------------------------------
# what it declines, numpy answers
# ----------------------------------------------------------------------
@needs_library
def test_declined_operands_get_the_numpy_answer():
    A = _matrix()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(A.ncols)
    want = _numpy_rowsums(A.row_ptr, A.col_idx, A.val, x[:, None], np.empty((A.nrows, 1)))[:, 0]

    def declined(M, xx, out=None):
        out = np.full(M.nrows, 7.0) if out is None else out
        before = out.copy()
        assert not native.rowsums(M, xx[:, None], out[:, None], False)
        assert same_bits(out, before)  # "not taken" writes nothing
        return _segmented_rowsums(M, xx[:, None], out[:, None])[:, 0]

    assert native.rowsums(A, x[:, None], np.empty((A.nrows, 1)), False)  # the plain case is taken
    assert same_bits(declined(A, np.repeat(x, 2)[::2]), want)  # strided x
    assert same_bits(declined(A, x, np.zeros(2 * A.nrows)[::2]), want)  # strided out
    assert same_bits(declined(A, _read_only(x)), want)
    # matrix arrays swapped after construction for ones the C loop must not
    # read (the constructor itself coerces to contiguous int64 / float64)
    for name, change in [
        ("row_ptr", lambda a: a.astype(np.dtype("int32"))),
        ("col_idx", lambda a: a.astype(np.dtype("int32"))),
        ("col_idx", lambda a: np.repeat(a, 2)[::2]),
        ("val", lambda a: np.repeat(a, 2)[::2]),
    ] + [(n, _read_only) for n in ("row_ptr", "col_idx", "val")]:
        M = A.copy()
        setattr(M, name, change(getattr(M, name)))
        assert same_bits(declined(M, x), want), name
    # a value array of another precision: numpy promotes, the C loop could not
    M = A.copy()
    M.val = M.val.astype(np.dtype("f4"))
    assert np.allclose(declined(M, x), want, rtol=1e-5, atol=1e-5)
    # mismatched output shape: declined, never written past its end
    assert not native.rowsums(A, x[:, None], np.empty((A.nrows - 1, 1)), False)
    assert not native.rowsums(A, x[:, None], np.empty((A.nrows, 2)), False)
    # a vector is not an operand of the C entry, only its one-column view
    assert not native.rowsums(A, x, np.empty(A.nrows), False)
    # k == 0
    empty = spmm(A, np.empty((A.ncols, 0)))
    assert empty.shape == (A.nrows, 0)


@needs_library
def test_matrix_addresses_are_dropped_with_the_matrix():
    A = _matrix()
    key = id(A)
    spmv(A, np.ones(A.ncols))
    assert native._handles[key][0] is A.row_ptr
    del A
    gc.collect()
    assert key not in native._handles


@needs_library
def test_rebinding_a_matrix_array_is_noticed():
    # the addresses of a matrix's arrays are looked up once per matrix; a
    # matrix that is handed other arrays must not be served the old ones
    A = _matrix()
    x = np.random.default_rng(0).standard_normal(A.ncols)
    before = spmv(A, x)
    A.val = 2.0 * A.val
    assert same_bits(spmv(A, x), 2.0 * before)
    A.val *= 0.5  # in place: same array, new values
    assert same_bits(spmv(A, x), before)
    B = _matrix(seed=9)
    A.row_ptr, A.col_idx, A.val = B.row_ptr, B.col_idx, B.val
    assert same_bits(spmv(A, x), spmv(B, x))


@needs_library
def test_output_sharing_memory_with_an_input_gets_the_numpy_answer():
    # numpy forms val * x[col_idx] before it writes; a row-by-row loop
    # writing into x would read its own results
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50)
    for nnz in (600, 60):
        A = _matrix(nrows=50, ncols=50, nnz=nnz)
        assert (np.diff(A.row_ptr) == 0).any() == (nnz == 60)  # empty rows
        want = spmv(A, x.copy())
        assert not np.array_equal(want, x)

        aliased = x.copy()
        assert not native.rowsums(A, aliased[:, None], aliased[:, None], False)
        assert same_bits(spmv(A, aliased, out=aliased), want)

        aliased = x.copy()
        assert same_bits(spmv_add(A, aliased, out=aliased), want + x)

        shared = np.zeros(75)
        shared[:50] = x
        assert same_bits(spmv(A, shared[:50], out=shared[25:]), want)  # partial overlap

        X = rng.standard_normal((50, 4))
        want_block = spmm(A, X.copy())
        assert same_bits(spmm(A, X, out=X), want_block)
        # column-major: the transpose is a view, and column 0 of out is
        # column 1 of X
        shared = np.zeros(150)
        X = shared[:100].reshape(50, 2, order="F")
        X[:] = rng.standard_normal((50, 2))
        want_block = spmm(A, X.copy())
        assert same_bits(spmm(A, X, out=shared[50:].reshape(50, 2, order="F")), want_block)

    # an output laid over the matrix values
    B = _matrix(nrows=50, ncols=50, nnz=600)
    assert B.nnz >= 2 * B.nrows
    assert not native.rowsums(B, x[:, None], B.val[: B.nrows, None], False)
    X = rng.standard_normal((50, 2))
    want_block = spmm(B, X)
    assert same_bits(spmm(B, X, out=B.val[: 2 * B.nrows].reshape(B.nrows, 2)), want_block)

    # adjacent, not overlapping: taken
    halves = np.zeros(100)
    halves[:50] = x
    assert native.rowsums(A, halves[:50, None], halves[50:, None], False)
    assert same_bits(halves[50:], want)


# ----------------------------------------------------------------------
# nothing outside the arrays is ever read
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor, bad", [
    *[
        pytest.param("compiled", bad, id=str(bad), marks=needs_library)
        for bad in (10**6, 60, -1, np.iinfo(np.int64).min)
    ],
    # a read-only right-hand side is declined by the C entry, so the numpy
    # definition runs, on either CI leg: its gather is checked, it never
    # reads column ncols - 1 in place of one past the end, nor wraps a
    # negative one to the end of the vector
    *[pytest.param("numpy", bad, id=f"numpy-{bad}") for bad in (60, 10**6, -1)],
    pytest.param("numpy", np.iinfo(np.int64).min, id="numpy-int64min"),
])
def test_out_of_range_column_index_raises(executor, bad):
    A = _matrix()
    row = 17
    assert A.row_ptr[row + 1] > A.row_ptr[row]
    A.col_idx[A.row_ptr[row]] = bad  # mutated after construction
    rhs = _read_only if executor == "numpy" else np.asarray
    message = rf"row {row}: column index {bad} is out of range" if executor == "compiled" else None
    x = rhs(np.ones(A.ncols))
    for call in (
        lambda: spmv(A, x),
        lambda: spmv_add(A, x, np.zeros(A.nrows)),
        lambda: spmm(A, rhs(np.ones((A.ncols, 8)))),
        lambda: spmm(A, rhs(np.ones((A.ncols, 3)))),
        lambda: spmm_add(A, rhs(np.ones((A.ncols, 2))), np.zeros((A.nrows, 2))),
    ):
        with pytest.raises(IndexError, match=message):
            call()


@needs_library
def test_long_row_with_a_bad_index_raises():
    rng = np.random.default_rng(5)
    row_ptr, col_idx, val = _arrays((3, 300, 140), 20, rng)
    for position in (3, 4, 3 + 12, 3 + 150, 3 + 299, 3 + 300 + 139):
        cols = col_idx.copy()
        cols[position] = 20
        A = CSRMatrix(row_ptr, cols, val, ncols=20, check=False)
        with pytest.raises(IndexError, match=r"row [12]: column index 20"):
            spmv(A, np.ones(20))
        with pytest.raises(IndexError, match=r"row [12]: column index 20"):
            spmm(A, np.ones((20, 5)))


@needs_library
@pytest.mark.parametrize(
    "row,value", [(3, 10**9), (3, -5), (60, 10**9), (7, 0)]
)
def test_corrupted_row_ptr_raises(row, value):
    A = _matrix()
    A.row_ptr[row] = value
    with pytest.raises(IndexError, match=r"row \d+: row_ptr extent"):
        spmv(A, np.ones(A.ncols))
    with pytest.raises(IndexError, match=r"row \d+: row_ptr extent"):
        spmm(A, np.ones((A.ncols, 8)))


# ----------------------------------------------------------------------
# threads
# ----------------------------------------------------------------------
@needs_library
def test_concurrent_calls_reproduce_the_serial_result(hmep_small):
    rng = np.random.default_rng(2)
    nthreads = 4  # more than the host has cores
    blocks = [rng.standard_normal((hmep_small.ncols, 8)) for _ in range(nthreads)]
    serial = [spmm(hmep_small, X) for X in blocks]
    A = hmep_small.copy()  # not yet seen by the executor: the threads race to bind it
    outs = [np.empty((A.nrows, 8)) for _ in range(nthreads)]
    errors = []
    start = threading.Barrier(nthreads)

    def work(i):
        try:
            start.wait(timeout=30)
            for _ in range(5):
                outs[i][:] = np.nan
                spmm(A, blocks[i], out=outs[i])
                if not same_bits(outs[i], serial[i]):
                    raise AssertionError(f"thread {i} read another thread's sums")
        except Exception as exc:  # handed to the test thread, which asserts on it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# ----------------------------------------------------------------------
# the load-time gate, and life without the library
# ----------------------------------------------------------------------
def test_status_is_read_only_and_complete():
    status = native.status()
    assert status.flags == native.FLAGS
    assert "-ffp-contract=off" in status.flags
    assert not {"-ffast-math", "-Ofast", "-march=native"} & set(status.flags)
    assert set(status.to_dict()) == {"available", "library", "compiler", "flags", "reason"}
    if status.available:
        assert Path(status.library).is_file() and status.reason is None
        assert status.library in status.describe()
    else:
        assert status.reason and status.reason in status.describe()
    with pytest.raises(AttributeError):
        status.available = not status.available


@needs_compiler
@pytest.mark.parametrize(
    "old,new",
    [
        ("res[j] = -0.0;", "res[j] = 0.0;"),  # the seed of numpy < 2 sums
        ("((r[0][j] + r[1][j]) + (r[2][j] + r[3][j])) +",
         "(((r[0][j] + r[1][j]) + r[2][j]) + r[3][j]) +"),
        ("n2 -= n2 % 8;", ""),
        ("if (n < 8) {", "if (n < 9) {"),
    ],
    ids=["seed", "tree", "split", "threshold"],
)
def test_self_test_rejects_another_association(old, new, tmp_path):
    source = native._SOURCE.replace(old, new)
    assert source != native._SOURCE
    (tmp_path / "wrong.c").write_text(source)
    lib = tmp_path / "wrong.so"
    subprocess.run(
        [*native._compiler(), *native.FLAGS, str(tmp_path / "wrong.c"), "-o", str(lib)],
        check=True, timeout=300,
    )
    with pytest.raises(native._Unavailable, match="bit for bit"):
        native._self_test(native._bind(lib))


@needs_compiler
@pytest.mark.parametrize(
    "edits",
    [
        (("rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18)",
          "rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12)"),
         ("for (i = 0; i < 4; i++) h = merge(h, v[i]);",
          "for (i = 0; i < 3; i++) h = merge(h, v[i]);")),
        (("for (; p < end; p++)", "for (; p < end - 1; p++)"),),
    ],
    ids=["lane-dropped-from-merge", "last-byte-skipped"],
)
def test_self_test_rejects_a_checksum_that_misses_bytes(edits, tmp_path):
    source = native._SOURCE
    for old, new in edits:
        assert old in source
        source = source.replace(old, new)
    (tmp_path / "wrong.c").write_text(source)
    lib = tmp_path / "wrong.so"
    subprocess.run(
        [*native._compiler(), *native.FLAGS, str(tmp_path / "wrong.c"), "-o", str(lib)],
        check=True, timeout=300,
    )
    with pytest.raises(native._Unavailable, match="checksum of .* misses a flip"):
        native._self_test(native._bind(lib))


#: The flow engine's re-sum walks the live flows in start order.
_FLOW_RESUM_LOOP = (
    "    for (k = 0; k < n->nlive; k++) {\n        s = n->live[k];\n"
    "        for (j = 0; j < n->nedge[s]; j++) {\n            r = n->erid[s * S + j];\n"
    "            if (!n->changed[r]) continue;"
)


@needs_compiler
def test_a_flow_engine_summing_in_reverse_start_order_is_rejected(monkeypatch, tmp_path, caplog):
    """The load-time self-test replays a probe through both flow engines:
    a library whose re-sum runs in reverse start order fails it, load()
    logs one warning, and the Python engine runs."""
    from repro.frame import FlowNetwork, Simulator

    assert native._SOURCE.count(_FLOW_RESUM_LOOP) == 1
    backward = _FLOW_RESUM_LOOP.replace("k = 0; k < n->nlive; k++", "k = n->nlive - 1; k >= 0; k--")
    source = native._SOURCE.replace(_FLOW_RESUM_LOOP, backward)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for name in ("_kernel", "_checksum", "_flow", "_status"):
        monkeypatch.setattr(native, name, getattr(native, name))
    monkeypatch.setattr(native, "_SOURCE", source)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        status = native.load()
    assert not status.available
    assert "the flow engine does not reproduce FlowNetwork bit for bit" in status.reason
    assert len(caplog.records) == 1
    assert type(FlowNetwork(Simulator(), {0: lambda w: 1.0})) is FlowNetwork


@needs_library
def test_checksum_reads_every_byte_at_any_alignment():
    # the load-time probe covers 0-9 words and two ragged lengths; here
    # every length up to 72 bytes, copied to every misalignment
    data = np.random.default_rng(7).integers(0, 256, 72, dtype=np.uint8)
    for n in range(73):
        probe = data[:n].copy()
        want = native.checksum([probe])
        for offset in range(1, 8):
            moved = np.empty(n + offset, np.uint8)[offset:]
            moved[:] = probe
            assert native.checksum([moved]) == want
        for i in range(n):
            probe[i] ^= 0x01
            assert native.checksum([probe]) != want, (n, i)
            probe[i] ^= 0x01


def test_fingerprint_witness_follows_the_library(monkeypatch):
    # one compiled checksum with the library, crc32 of each array without;
    # the dtypes are part of the key either way
    A = _matrix()
    compiled, compiled_index = A.content_fingerprint(), A.index_fingerprint()
    monkeypatch.setattr(native, "_checksum", None)
    fallback, fallback_index = A.content_fingerprint(), A.index_fingerprint()
    dtypes = (A.row_ptr.dtype.str, A.col_idx.dtype.str, A.val.dtype.str)
    assert fallback[:6] == (A.nrows, A.ncols, A.nnz, *dtypes)
    assert len(fallback) == 9
    assert len(compiled) == (7 if native.status().available else 9)
    assert compiled[:6] == fallback[:6]
    # the index witness is the same pass over row_ptr and col_idx alone
    assert fallback_index == (*fallback[:5], *fallback[6:8])
    assert len(compiled_index) == (6 if native.status().available else 7)
    assert compiled_index[:5] == fallback[:5]


def test_kernels_names_both_witnesses(capsys):
    from repro.cli import main

    assert main(["kernels"]) == 0
    lines = capsys.readouterr().out.splitlines()
    status = native.status()
    assert lines[1] == f"csr row sums: {status.describe()}"
    if status.available:
        assert lines[2] == "matrix checksum: compiled"
        assert lines[3] == "flow engine: compiled"
    else:
        assert lines[2] == f"matrix checksum: crc32 ({status.reason})"
        assert lines[3] == f"flow engine: python ({status.reason})"


_CHILD = """
import json, sys
import numpy as np
from repro.sparse import native, spmv
from repro.core.spmvm import distributed_spmv
from repro.matrices import random_sparse
A = random_sparse(300, nnzr=7.0, seed=4, ensure_diagonal=True)
x = np.random.default_rng(0).standard_normal(A.ncols)
y = distributed_spmv(A, x, 2)
print(json.dumps({
    "status": native.status().to_dict(),
    "matches_serial": bool(np.allclose(y, spmv(A, x), rtol=1e-10, atol=1e-12)),
    "sum": float(y.sum()).hex(),
}))
"""


def _spawn_child(cache: Path, **env):
    src = str(Path(repro.__file__).resolve().parents[1])
    full = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(cache), **env}
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD], env=full, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1]), err


def test_without_a_compiler_numpy_runs_and_says_why(tmp_path):
    report, err = _finish(_spawn_child(tmp_path / "cache", CC="false"))
    assert err.count("compiled row-sum executor is off") == 1
    assert len(err.strip().splitlines()) == 1  # one warning, nothing else
    assert report["status"]["available"] is False
    assert "false" in report["status"]["reason"]
    assert report["matches_serial"]
    assert not list((tmp_path / "cache").rglob("*.so"))


@needs_compiler
def test_two_processes_racing_the_first_build_both_load_it(tmp_path):
    cache = tmp_path / "cache"
    first, second = _spawn_child(cache), _spawn_child(cache)
    reports = [_finish(first), _finish(second)]
    libraries = {r["status"]["library"] for r, _ in reports}
    assert all(r["status"]["available"] for r, _ in reports), reports
    assert all(err == "" for _, err in reports)
    assert len(libraries) == 1
    assert sorted(p.name for p in (cache / "repro").iterdir()) == [Path(libraries.pop()).name]
    # the same bits from both, and from this process
    assert len({r["sum"] for r, _ in reports}) == 1
    # a third process finds the library and does not compile
    report, _ = _finish(_spawn_child(cache, CC="false"))
    assert report["status"]["available"] and report["status"]["compiler"] is None
