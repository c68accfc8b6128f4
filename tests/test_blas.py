"""Single-threaded BLAS scope of the model experiment."""

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


def test_single_threaded_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "openblas_controls", lambda: None)
    ran = []
    with blas.single_threaded():
        ran.append(True)
    assert ran == [True]


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
