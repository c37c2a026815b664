"""Property-based kernel equivalence (hypothesis) and the seed-path
byte-identity regression.

The lifting, fused, and single-loop kernels must reproduce the conv
reference — forward, inverse, and round-trip — for arbitrary float64
inputs, within a tolerance that scales with the data magnitude.  The default ``kernel="conv"`` path
must stay byte-for-byte what the seed produced, pinned by sha256 digests
over a fixed pipeline.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.wavelet import (
    denoise_2d,
    dwt_1d,
    filter_bank_for_length,
    get_kernel,
    idwt_1d,
    mallat_decompose_2d,
    mallat_inverse_step_2d,
    mallat_reconstruct_2d,
    mallat_step_2d,
    max_decomposition_levels,
)
from repro.errors import ConfigurationError

filter_lengths = st.sampled_from([2, 4, 8])
kernels = st.sampled_from(["lifting", "fused", "single-loop"])


def images(side_pows=(4, 5, 7)):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.sampled_from([2**p for p in side_pows]),
            st.sampled_from([2**p for p in side_pows]),
        ),
        elements=st.floats(-1e4, 1e4, allow_nan=False, width=64),
    )


def signals(min_pow=5, max_pow=7):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_pow, max_pow).map(lambda p: 2**p),
        elements=st.floats(-1e4, 1e4, allow_nan=False, width=64),
    )


def _tol(data, budget):
    """Absolute budget scaled by the data's magnitude (float64 relative)."""
    return budget * max(1.0, float(np.abs(data).max()))


@settings(max_examples=25, deadline=None)
@given(image=images(), m=filter_lengths, kernel=kernels)
def test_forward_step_matches_conv(image, m, kernel):
    bank = filter_bank_for_length(m)
    ref = mallat_step_2d(image, bank)
    got = mallat_step_2d(image, bank, kernel=kernel)
    tol = _tol(image, 1e-9)
    for band in ("ll", "lh", "hl", "hh"):
        assert np.abs(getattr(got, band) - getattr(ref, band)).max() <= tol


@settings(max_examples=25, deadline=None)
@given(image=images(), m=filter_lengths, kernel=kernels)
def test_inverse_step_matches_conv(image, m, kernel):
    bank = filter_bank_for_length(m)
    subbands = mallat_step_2d(image, bank)
    ref = mallat_inverse_step_2d(subbands, bank)
    got = mallat_inverse_step_2d(subbands, bank, kernel=kernel)
    assert np.abs(got - ref).max() <= _tol(image, 1e-9)


@settings(max_examples=25, deadline=None)
@given(image=images(), m=filter_lengths, kernel=kernels)
def test_2d_round_trip(image, m, kernel):
    bank = filter_bank_for_length(m)
    pyramid = mallat_decompose_2d(image, bank, 2, kernel=kernel)
    back = mallat_reconstruct_2d(pyramid, bank, kernel=kernel)
    assert np.abs(back - image).max() <= _tol(image, 1e-10)


@settings(max_examples=25, deadline=None)
@given(signal=signals(), m=filter_lengths, kernel=kernels)
def test_1d_matches_conv_and_round_trips(signal, m, kernel):
    bank = filter_bank_for_length(m)
    ref_a, ref_d = dwt_1d(signal, bank, 2)
    approx, details = dwt_1d(signal, bank, 2, kernel=kernel)
    tol = _tol(signal, 1e-9)
    assert np.abs(approx - ref_a).max() <= tol
    for got, ref in zip(details, ref_d):
        assert np.abs(got - ref).max() <= tol
    back = idwt_1d(approx, details, bank, kernel=kernel)
    assert np.abs(back - signal).max() <= _tol(signal, 1e-10)


def test_registry_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        get_kernel("winograd")
    kernel = get_kernel("fused")
    assert get_kernel(kernel) is kernel  # instances pass through


# ---------------------------------------------------------------------------
# Seed-path byte identity: the default kernel must keep producing the exact
# bytes the pre-registry implementation produced (digests recorded when the
# registry landed, verified byte-identical against the seed revision).
# ---------------------------------------------------------------------------

_SEED_DIGESTS = {
    2: "55ab8197bb1f5a44d39719adca7f97d64f64d1f4befdb90f82e25dae67de2f4c",
    4: "a2a0086aab26988486bb5de8f48173a040b3d5ddf6e6da79c179de1730c7a6d9",
    8: "f5223a5c7b450aa8cda636a3bb42e1d0823d7f62ea2025a4f8b56b3313645fa7",
}


def _seed_pipeline_digest(m: int) -> str:
    rng = np.random.RandomState(42)
    image = rng.standard_normal((64, 64))
    signal = rng.standard_normal(256)
    bank = filter_bank_for_length(m)
    h = hashlib.sha256()
    pyramid = mallat_decompose_2d(image, bank, 3)
    h.update(pyramid.approximation.tobytes())
    for triple in pyramid.details:
        h.update(triple.lh.tobytes())
        h.update(triple.hl.tobytes())
        h.update(triple.hh.tobytes())
    h.update(mallat_reconstruct_2d(pyramid, bank).tobytes())
    approx, details = dwt_1d(signal, bank, 3)
    h.update(approx.tobytes())
    for band in details:
        h.update(band.tobytes())
    h.update(idwt_1d(approx, details, bank).tobytes())
    h.update(denoise_2d(image, bank=bank, levels=2).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("m", sorted(_SEED_DIGESTS))
def test_default_kernel_is_byte_identical_to_seed(m):
    assert _seed_pipeline_digest(m) == _SEED_DIGESTS[m]


# ---------------------------------------------------------------------------
# Multi-strip byte identity: 200x136 and 136x200 run several 32-row strips
# per level with a partial last strip in both orientations.  Digests were
# captured on the whole-image separable composition, before the 2-D step
# moved to strips.
# ---------------------------------------------------------------------------

_STRIP_DIGESTS = {
    "conv/200x136/D2": "d0f4e46997718cb08e9cda23ec3313dd50de6067acc2d5f3c9f4d1d6ceb968a6",
    "conv/200x136/D4": "b923a9648bcb76f1ee9b1be8bbe6720acaf1d1ebf5b06d5a074a60055891f292",
    "conv/200x136/D8": "4cd7bdab1fcdbd4bec1118fe5152ea5b1e1d0c6171602edbd33d726485dcae19",
    "conv/200x136/D20": "9c6267d1b521b3e30630404c50f6f4945e66ac2ff899661657d22e19fc3997c4",
    "conv/136x200/D2": "c3d3d60e70313f14340f1d36081d88c0bc46e62076041f235013d29cddb65bf3",
    "conv/136x200/D4": "b0bff3425647588be84322f1eaaa1219c3b0182174cd79364251c5780eaff4a0",
    "conv/136x200/D8": "1d2f7fca4812febddb96bd3da2f57073e24ecda8ab2c9ae6f4979704a21e357c",
    "conv/136x200/D20": "7c29641a340490cd5c1ac2f2284a96db831adfbfbbc92ba178a9b0d9fff6ff7e",
    "lifting/200x136/D2": "44fbf96a3a6417477722f336b16b708c6e49e93fa7291117ef060a2d42f42ef7",
    "lifting/200x136/D4": "47e7ba303a99691b450fe761dc6d28923dbffdf440a2b2d0bc0f3dadd716ba7c",
    "lifting/200x136/D8": "7ec8261d9f1a7ab0892cc74802eff606cd2c83eea544c1d48e946022d9ce6e34",
    "lifting/200x136/D14": "61284e2bf8aa4f995d19035d0fd1716eba6d680e20306bd8e69b3838aa2dc571",
    "lifting/136x200/D2": "d147c99d62c12546acca7651d7d5277bfca087c5722e462adb377be996daefad",
    "lifting/136x200/D4": "352be666845ba6a40a917291708e66ce4ea7dea34d6203eec53efbd2220284eb",
    "lifting/136x200/D8": "497789455d6b91356700efca0ff65fc451a161a5d1f6957a54bf18bb2301de68",
    "lifting/136x200/D14": "b90e97b800145544277708ecdbc9af2a90d89ddd27ed093c80237aa104516046",
    "fused/200x136/D2": "44fbf96a3a6417477722f336b16b708c6e49e93fa7291117ef060a2d42f42ef7",
    "fused/200x136/D4": "47e7ba303a99691b450fe761dc6d28923dbffdf440a2b2d0bc0f3dadd716ba7c",
    "fused/200x136/D8": "7ec8261d9f1a7ab0892cc74802eff606cd2c83eea544c1d48e946022d9ce6e34",
    "fused/200x136/D14": "61284e2bf8aa4f995d19035d0fd1716eba6d680e20306bd8e69b3838aa2dc571",
    "fused/136x200/D2": "d147c99d62c12546acca7651d7d5277bfca087c5722e462adb377be996daefad",
    "fused/136x200/D4": "352be666845ba6a40a917291708e66ce4ea7dea34d6203eec53efbd2220284eb",
    "fused/136x200/D8": "497789455d6b91356700efca0ff65fc451a161a5d1f6957a54bf18bb2301de68",
    "fused/136x200/D14": "b90e97b800145544277708ecdbc9af2a90d89ddd27ed093c80237aa104516046",
    "single-loop/200x136/D2": "08b74354af460ff8daa3f8fcced75310e6b59904fbf6c2651f7b1ed94be5a2bb",
    "single-loop/200x136/D4": "fff96a6c7f260341e3fcb5c08f5b2bcca690cf470da117c89d5c1d8e98ad50ea",
    "single-loop/200x136/D8": "0bea1f4fd3766f7e84a2700d0742053e7fd162cbd2cfd197256fee3864703e0e",
    "single-loop/200x136/D14": "f57906782bcfa924e66dabdcbe01c73b76d5e84ff458a0a94b33b57e05fd246d",
    "single-loop/136x200/D2": "dc4fa0882b6a0979910349a597eb8900d52e4a7c658ad381c34e0fc09a71ce87",
    "single-loop/136x200/D4": "ff5a864440d748f0a51a33d5dca88a9af9d525702766402be8db1775576f5549",
    "single-loop/136x200/D8": "cee30a38e2b6417a87f848a1618fe7e5a0309068b3080f306bc16fe2acdfb49b",
    "single-loop/136x200/D14": "efe867b99cb6acbe7699d9844f387e260e13736c79daffe74b7664a990781452",
}


def _strip_pipeline_digest(kernel: str, shape: tuple, m: int) -> str:
    rng = np.random.RandomState(m)
    image = rng.standard_normal(shape)
    bank = filter_bank_for_length(m)
    levels = max_decomposition_levels(shape, bank.length)
    assert levels == 3
    pyramid = mallat_decompose_2d(image, bank, levels, kernel=kernel)
    h = hashlib.sha256()
    h.update(pyramid.approximation.tobytes())
    for triple in pyramid.details:
        h.update(triple.lh.tobytes())
        h.update(triple.hl.tobytes())
        h.update(triple.hh.tobytes())
    h.update(mallat_reconstruct_2d(pyramid, bank, kernel=kernel).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(_STRIP_DIGESTS))
def test_multi_strip_outputs_are_pinned(key):
    kernel, shape, bank = key.split("/")
    rows, cols = (int(n) for n in shape.split("x"))
    m = int(bank[1:])
    assert _strip_pipeline_digest(kernel, (rows, cols), m) == _STRIP_DIGESTS[key]
