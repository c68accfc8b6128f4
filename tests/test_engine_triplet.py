"""The boundary flow decomposes once: a CP tangent tuple's certificate takes
the CP engine's least singular triplet instead of its own SVD.

The flow is cpd_condition_number(d), cpd_tangent_tuple(d), then
nearest_intersecting_tuple of the tuple.  The reference is the certificate
of the same bases without the engine's triplet, from the dense SVD.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import joincond.segre as segre
from joincond import (
    SubspaceTuple,
    cpd_condition_number,
    cpd_tangent_tuple,
    desilva_lim_sequence,
    nearest_intersecting_tuple,
    paatero_sequence,
)
from joincond.grassmann import CERTIFICATE_TOL, CertificateError
from conftest import count_svd_calls

SEQUENCES = [paatero_sequence, desilva_lim_sequence]


def _dense(t):
    """The same bases, without the engine's triplet."""
    return SubspaceTuple(t.ambient_dim, t.subspaces)


def _bytes(cert):
    return (
        [x.tobytes() for x in cert.witness_directions],
        np.float64(cert.distance).tobytes(),
        {k: np.float64(v).tobytes() for k, v in cert.diagnostics.items()},
    )


def _flow(decomp):
    report = cpd_condition_number(decomp)
    return report, nearest_intersecting_tuple(cpd_tangent_tuple(decomp))


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_flow_takes_one_svd_with_vectors_and_shares_complements(sequence, monkeypatch):
    # the core's SVD with vectors, then the witnesses' values-only SVD; the
    # dense triplet is gone.  The compression takes one complement per mode
    # and the tuple none: its compressed modes' complements come from the
    # compression's QR, and the lift pads with zeros.
    decomp = sequence(0, 40)
    calls = count_svd_calls(monkeypatch)
    complements = []
    real = segre.orthonormal_complements

    def counted(A):
        complements.append(A.shape)
        return real(A)

    monkeypatch.setattr(segre, "orthonormal_complements", counted)
    report, cert = _flow(decomp)
    assert calls == [True, False]
    assert len(complements) == 3
    assert cert.diagnostics["sigma_min"] == report.sigma_min


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_certificate_matches_the_dense_triplet_on_every_step(sequence):
    # the distance agrees with the dense SVD's certificate to 1e-15 on every
    # step, both are zero on the same steps, and the bytes do not depend on
    # whether cpd_condition_number ran first
    zeros = 0
    for seed in range(5):
        for s in range(1, 91):
            decomp = sequence(seed, s)
            alone = nearest_intersecting_tuple(cpd_tangent_tuple(decomp))
            _, after = _flow(decomp)
            dense = nearest_intersecting_tuple(_dense(cpd_tangent_tuple(decomp)))
            assert _bytes(alone) == _bytes(after), (seed, s)
            assert abs(after.distance - dense.distance) <= 1e-15, (seed, s)
            assert (after.distance == 0.0) == (dense.distance == 0.0), (seed, s)
            zeros += dense.distance == 0.0
    assert zeros > 0


def test_memo_keeps_nothing_alive():
    decomp = paatero_sequence(1, 30)
    report = cpd_condition_number(decomp)
    tucker = segre._last_report[2]
    assert tucker() is not None
    t = cpd_tangent_tuple(decomp)
    cert = nearest_intersecting_tuple(t)
    refs = [weakref.ref(x) for x in (decomp, report, t)] + [tucker]
    del decomp, report, t, cert
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def test_values_only_report_leaves_the_memo_untouched():
    cpd_condition_number(paatero_sequence(2, 30))
    before = segre._last_report
    cpd_condition_number(desilva_lim_sequence(2, 30), vector=False)
    assert segre._last_report is before


def test_threads_give_the_serial_bytes():
    steps = [(sequence, seed, s) for sequence in SEQUENCES
             for seed in (0, 1) for s in range(1, 91, 7)]
    serial = [_bytes(_flow(sequence(seed, s))[1]) for sequence, seed, s in steps]
    results = {}

    def run(worker):
        results[worker] = [_bytes(_flow(sequence(seed, s))[1]) for sequence, seed, s in steps]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(w,)) for w in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [results[w] for w in range(3)] == [serial] * 3


def test_a_triplet_whose_vector_misses_sigma_raises_with_both_residuals():
    t = cpd_tangent_tuple(paatero_sequence(0, 20))
    sigma, v, sigma_1 = t._triplet()
    assert sigma > CERTIFICATE_TOL
    wrong = np.roll(v, 1)
    bad = SubspaceTuple(t.ambient_dim, t.subspaces, _triplet=lambda: (sigma, wrong, sigma_1))
    with pytest.raises(CertificateError) as err:
        nearest_intersecting_tuple(bad)
    residuals = (err.value.distance_residual, err.value.intersect_residual)
    assert all(np.isfinite(residuals)) and max(residuals) > CERTIFICATE_TOL
    assert "distance" in str(err.value) and "witnesses" in str(err.value)
