"""Single-threaded BLAS scopes: the model experiment and the engine SVDs."""

import threading

import pytest

import joincond.blas as blas
import joincond.experiments as experiments
from joincond import ModelParams, run_forward_error_experiment


def test_single_threaded_sets_one_thread_and_restores():
    controls = blas.openblas_controls()
    if controls is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, _ = controls
    before = get()
    with blas.single_threaded():
        assert get() == 1
        with blas.single_threaded():
            assert get() == 1
        assert get() == 1
    assert get() == before


def test_single_threaded_restores_after_an_error():
    controls = blas.openblas_controls()
    if controls is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, _ = controls
    before = get()
    with pytest.raises(RuntimeError), blas.single_threaded():
        raise RuntimeError("inside")
    assert get() == before


def test_single_threaded_scopes_interleaved_across_threads_restore_the_count():
    # A opens, B opens, A closes, B closes: with a save and restore per
    # scope, B would restore A's one thread for good
    controls = blas.openblas_controls()
    if controls is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, _ = controls
    before = get()
    barrier = threading.Barrier(2, timeout=30)
    seen = {}

    def scope(name, closes_first):
        with blas.single_threaded():
            barrier.wait()  # both open
            if not closes_first:
                barrier.wait()  # the other has closed
            seen[name] = get()
        if closes_first:
            seen[name + " closed"] = get()
            barrier.wait()

    threads = [threading.Thread(target=scope, args=("A", True)),
               threading.Thread(target=scope, args=("B", False))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    # A's close leaves B's scope on one thread; B's close restores the count
    assert seen == {"A": 1, "A closed": 1, "B": 1}
    assert get() == before


def test_single_threaded_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "openblas_controls", lambda: None)
    ran = []
    with blas.single_threaded():
        ran.append(True)
    assert ran == [True]


def test_svd_threads_window_and_restore_after_an_error():
    controls = blas.openblas_controls()
    if controls is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, _ = controls
    before = get()
    # inside the window: one thread, restored also when the body raises
    with pytest.raises(RuntimeError), blas.svd_threads((1000, 280)):
        assert get() == 1
        raise RuntimeError("inside")
    assert get() == before
    # below the entry floor, above the entry cap (a tall matrix, whose QR
    # two threads split well) and above the column bound: untouched
    for shape in ((60, 30), (blas.ONE_THREAD_MIN_ENTRIES - 1, 1), (10000, 370), (1024, 512)):
        with blas.svd_threads(shape):
            assert get() == before
    assert get() == before


def test_model_samples_run_on_one_thread(monkeypatch):
    controls = blas.openblas_controls()
    if controls is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, _ = controls
    seen = []
    run_sample = experiments._run_sample

    def spy(*args):
        seen.append(get())
        return run_sample(*args)

    monkeypatch.setattr(experiments, "_run_sample", spy)
    run_forward_error_experiment(ModelParams(samples=1), s_values=(1,))
    assert seen == [1]
