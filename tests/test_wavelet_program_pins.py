"""Virtual-time pins for every wavelet SPMD program under every kernel.

Each case runs one rank program on the Paragon and digests its
:class:`~repro.machines.engine.RunResult` (elapsed time, results,
budgets, finish times, network counters) with
:func:`tests._digest_util.run_result_digest`.  The grid covers the
striped and block decompositions (1x1 and 2x2 grids), the striped
reconstruction, and the 1-D forward and inverse programs, for the four
kernels, P in {1, 4} and the D2/D4/D8 banks.  A mismatch means a change
moved an output byte or a virtual-time charge.

:data:`MESSAGE_PINS` cover what the run digests do not: the messages
themselves.  Over the same grid, each rank's sequence of ``(dst, tag,
payload shape, dtype)`` — one entry per send op it yields, containers
walked with dict keys in sorted order — is digested per case, so a
refactor of the exchanges that reorders, reshapes or retags a message
fails here even when every result byte survives.
"""

import numpy as np
import pytest

from tests._digest_util import digest, run_result_digest
from repro.machines import Engine, paragon
from repro.machines.engine import _SendOp
from repro.wavelet import dwt_1d, filter_bank_for_length, mallat_decompose_2d
from repro.wavelet.parallel.decomposition import (
    BlockDecomposition,
    StripeDecomposition,
)
from repro.wavelet.parallel.spmd import block_wavelet_program, striped_wavelet_program
from repro.wavelet.parallel.spmd_1d import dwt_1d_program, idwt_1d_program
from repro.wavelet.parallel.spmd_reconstruct import striped_reconstruct_program

SIDE, LEVELS, SIGNAL = 64, 2, 256

PINS = {
    "striped/conv/P1/D2": "4ee034ae02dd0a67e742ef8dfa48a74fbc7a111f9df35162af30e1e761e3aa16",
    "striped/conv/P1/D4": "77d74132e69e24d66217e06d5363166a2f31eeaac4612e54460d70dd476f1101",
    "striped/conv/P1/D8": "713f21c46312477500a8128957974bca60af085293292a7f1bb1474ccd9c71ce",
    "striped/conv/P4/D2": "16d7a153e8748d20f8e78b0729edd4e3062bb12ee1a6d017320fc3dfa5bf5e58",
    "striped/conv/P4/D4": "33cd7a9825d0d175c8727d2ed85b73b30da84b241e03e6677c6a8fab8903160a",
    "striped/conv/P4/D8": "75427153dcf0a0aefe00d47dc41c923464d3169bbdd8f5fff3efcc065f5b61d2",
    "striped/lifting/P1/D2": "ef55c1a7876e511953961d38ad64429fe8f0c79ee88dd2a1747a0595849988b6",
    "striped/lifting/P1/D4": "11fbbc91ba94372cc9995d2e0a1e6ad1fb9dc8871d65a0c7a659d86aa8f42d39",
    "striped/lifting/P1/D8": "ffae1c3c23a0e7222cbb12bb62aa7bf91a19d6ebbeab20bd68042943b0cc0661",
    "striped/lifting/P4/D2": "d5031962ba7017e38a109f8eb8b5f2bc68abba9332946623087f51923d1a74b6",
    "striped/lifting/P4/D4": "d49c36c137a0c917804aa6df72a2bb433522932cc4e7caa290eba88fdc0023f5",
    "striped/lifting/P4/D8": "21b01dd9af4fd580423a27ec4b1d313cba6b28172934a600fbed070bf1394a1f",
    "striped/fused/P1/D2": "ef55c1a7876e511953961d38ad64429fe8f0c79ee88dd2a1747a0595849988b6",
    "striped/fused/P1/D4": "11fbbc91ba94372cc9995d2e0a1e6ad1fb9dc8871d65a0c7a659d86aa8f42d39",
    "striped/fused/P1/D8": "ffae1c3c23a0e7222cbb12bb62aa7bf91a19d6ebbeab20bd68042943b0cc0661",
    "striped/fused/P4/D2": "d5031962ba7017e38a109f8eb8b5f2bc68abba9332946623087f51923d1a74b6",
    "striped/fused/P4/D4": "d49c36c137a0c917804aa6df72a2bb433522932cc4e7caa290eba88fdc0023f5",
    "striped/fused/P4/D8": "21b01dd9af4fd580423a27ec4b1d313cba6b28172934a600fbed070bf1394a1f",
    "striped/single-loop/P1/D2": "d67e7ed0d1eaca86bae78f63412b305153bf709f32aec91f76273bce79580cf6",
    "striped/single-loop/P1/D4": "d0fcfa200e627d45037b14f77dc333146d5848fc5098cd71044a04ad4d704efa",
    "striped/single-loop/P1/D8": "eb2793e57ded7e2f8a7160cccf6a7ad59fd8300aaf47a58b8415e237cb37bad1",
    "striped/single-loop/P4/D2": "a5bf96c064826a385beb3a2ab1e5a489a078f7689971b334e11ed0e22be0dbb6",
    "striped/single-loop/P4/D4": "a4c0fd2a52eeeaaf64cbbfab4b53c574ac5bf5fe3b54a1ac62a366c6477fc51d",
    "striped/single-loop/P4/D8": "a775f7c143c5202bd097d86842343ccba88f6b1f94de6431e29f93d63edc7de1",
    "block/conv/P1/D2": "4c8f871e282968e79a4d3c2562cbf18cd57ae02322e40e6cefabedbb403e0e70",
    "block/conv/P1/D4": "20fc231fe6a678cf6384c133ad47e47033ac327134c3717cc848c201d5a333a9",
    "block/conv/P1/D8": "044972dc175f12f7a063224f79da0a7c26214c37518bc9dff82e647099566d2a",
    "block/conv/P4/D2": "7b6b8292be3c7817a6aa4110aab34a5743408be5cd7df8b978dcd37431a5b84d",
    "block/conv/P4/D4": "4a914e191762eb734218baa60662a0d231b9d001cf9aeb7854d785df55feedf9",
    "block/conv/P4/D8": "a5d7560a24fb6526c49232813272db0b152df55ac77cc9a5607d6a5b40cffbe1",
    "block/lifting/P1/D2": "a680d6b92fd8e9b4ad116c10d390f5e1f3652ebb68491c75394fa7aee249c853",
    "block/lifting/P1/D4": "68ceb9c72cda0cf0ce170582fff00ccf81e1499fa115f03ec018bfc972d5b3d4",
    "block/lifting/P1/D8": "e88c30748dc71cea34c94d68689758eca435769f09a1ed897bf1b39357117173",
    "block/lifting/P4/D2": "88dac479eb9d53be8522ea01c1b42af196d52777db209dfb0d18ffce2dce30e0",
    "block/lifting/P4/D4": "fa76e3ed5586e33cc446503b5e049dcbe5560e77299b197b7e0988a60d930b1a",
    "block/lifting/P4/D8": "0a6907538ecbd11b1d62d5823c5f06ece830c9114a19a5dc8c74ddb094c03c2f",
    "block/fused/P1/D2": "a680d6b92fd8e9b4ad116c10d390f5e1f3652ebb68491c75394fa7aee249c853",
    "block/fused/P1/D4": "68ceb9c72cda0cf0ce170582fff00ccf81e1499fa115f03ec018bfc972d5b3d4",
    "block/fused/P1/D8": "e88c30748dc71cea34c94d68689758eca435769f09a1ed897bf1b39357117173",
    "block/fused/P4/D2": "88dac479eb9d53be8522ea01c1b42af196d52777db209dfb0d18ffce2dce30e0",
    "block/fused/P4/D4": "fa76e3ed5586e33cc446503b5e049dcbe5560e77299b197b7e0988a60d930b1a",
    "block/fused/P4/D8": "0a6907538ecbd11b1d62d5823c5f06ece830c9114a19a5dc8c74ddb094c03c2f",
    "block/single-loop/P1/D2": "82393acab1a0e88c14a47accadc2c2c922878acfb14e6982b8af97009dd6becc",
    "block/single-loop/P1/D4": "22d646862064d147284b8b15963ce31b02e6e68a6dbf104296beadc56554f91b",
    "block/single-loop/P1/D8": "ce0f24888c8f6fb7f30df7154eb4e38225dd8a6a0959e710f1a803cfb1114257",
    "block/single-loop/P4/D2": "e4f3d547568edd02dcd59c10032333ee18fdbfc68cc109e88b0a9e55d134dada",
    "block/single-loop/P4/D4": "9526cbaaf2bce009c46d88c9594d9fa9ae7078eca68dfa48f351f9de7d07a5c9",
    "block/single-loop/P4/D8": "a6db6470a2b02c5716a87999562d6961d8625abcb78fbddef8c512ad9618e259",
    "reconstruct/conv/P1/D2": "7205a6db323e669726a046c5463ed0ea31588b282702c1b003c6d5462f2b0ba4",
    "reconstruct/conv/P1/D4": "0d821c9a1fb3948f8ac4915bb1566f216a9378bd81e81163895e672d29364522",
    "reconstruct/conv/P1/D8": "e04fb12d45c5194e63712685b3f88965fc5597c04fec23358c756f1e7e3dc988",
    "reconstruct/conv/P4/D2": "d94f8962cc412b65e2466978fa9556a9a9841e0463fb00ca874f4d003ff7b5b0",
    "reconstruct/conv/P4/D4": "c7d64fd529efc79791831f8f6798448ebbb2544a6ac5528d06d8d0523a45d43a",
    "reconstruct/conv/P4/D8": "df132a14b3ba713ac9d235c7159afbfdf42019ac8f8c9c6294f8aaeacb917e4e",
    "reconstruct/lifting/P1/D2": "940f417349dcac2e2886d5bbadbde4412f0f67c171ee4827d2156d940238c65f",
    "reconstruct/lifting/P1/D4": "36c678eb50f142561f0a11c90303c939e7a6f613b33fc845cadf18f84c44a7b6",
    "reconstruct/lifting/P1/D8": "e036b9730247bf32ccc25d4fa570d431803060f76449d2c215d129e89f0b4909",
    "reconstruct/lifting/P4/D2": "e8a377d6c145e7c570ab13b54878ada0b04ff483edb0e9c700f51bd090fb5005",
    "reconstruct/lifting/P4/D4": "573d0cc7769e3973d917228bf00aa1e52dc2e3273578b13653b6fec957cc033d",
    "reconstruct/lifting/P4/D8": "5b637906eb1261e72c51127e857ef1fd2146845ca35dd3559e2d086c654325a5",
    "reconstruct/fused/P1/D2": "940f417349dcac2e2886d5bbadbde4412f0f67c171ee4827d2156d940238c65f",
    "reconstruct/fused/P1/D4": "36c678eb50f142561f0a11c90303c939e7a6f613b33fc845cadf18f84c44a7b6",
    "reconstruct/fused/P1/D8": "e036b9730247bf32ccc25d4fa570d431803060f76449d2c215d129e89f0b4909",
    "reconstruct/fused/P4/D2": "e8a377d6c145e7c570ab13b54878ada0b04ff483edb0e9c700f51bd090fb5005",
    "reconstruct/fused/P4/D4": "573d0cc7769e3973d917228bf00aa1e52dc2e3273578b13653b6fec957cc033d",
    "reconstruct/fused/P4/D8": "5b637906eb1261e72c51127e857ef1fd2146845ca35dd3559e2d086c654325a5",
    "reconstruct/single-loop/P1/D2": "940f417349dcac2e2886d5bbadbde4412f0f67c171ee4827d2156d940238c65f",
    "reconstruct/single-loop/P1/D4": "36c678eb50f142561f0a11c90303c939e7a6f613b33fc845cadf18f84c44a7b6",
    "reconstruct/single-loop/P1/D8": "e036b9730247bf32ccc25d4fa570d431803060f76449d2c215d129e89f0b4909",
    "reconstruct/single-loop/P4/D2": "e8a377d6c145e7c570ab13b54878ada0b04ff483edb0e9c700f51bd090fb5005",
    "reconstruct/single-loop/P4/D4": "573d0cc7769e3973d917228bf00aa1e52dc2e3273578b13653b6fec957cc033d",
    "reconstruct/single-loop/P4/D8": "5b637906eb1261e72c51127e857ef1fd2146845ca35dd3559e2d086c654325a5",
    "dwt_1d/conv/P1/D2": "ca28aebf7501f24e58bd3c7e433ac5611d14937fa08477981439a85a0bfb573b",
    "dwt_1d/conv/P1/D4": "82788ff1799cb3c922f2f84ed8e312640d38443d87a7de3e512b95dee92517f0",
    "dwt_1d/conv/P1/D8": "5fe31020d4edd958cdc28fd98893454aa771c125fd029a5845aa7de0dc336ec7",
    "dwt_1d/conv/P4/D2": "b74925dcc2fb778a6f45f507de6a88fe5a8470f9065715c5d1565ce3a10acbb5",
    "dwt_1d/conv/P4/D4": "9c271fdfb93c5b628990123a33bb8aac9d121019cc3a04ec7cd7dd40ae7ce7aa",
    "dwt_1d/conv/P4/D8": "cf569780bc44f4d0552a154d3f5a7be8635ff3c1fef35d2cf84ec3502f9f7f64",
    "dwt_1d/lifting/P1/D2": "27b2b73ce1af8ab2d7acc889e3e199a1682ea88eae591d1b862e4e8b137b53fc",
    "dwt_1d/lifting/P1/D4": "ae24a91ce6331233d765b249b1026f2632bf14303168ae5153cd1f49d2a5f738",
    "dwt_1d/lifting/P1/D8": "73855ba0a5df255f38ebfa4b5bcaeab2e334aea279801733242531209169491b",
    "dwt_1d/lifting/P4/D2": "8a5a91ef7ffaf62efdb4fa85307dc3b8fa216c0040372aedce9433fbe90e0bd6",
    "dwt_1d/lifting/P4/D4": "b614a6f5367d9bb88a2e19555f68719e9bf7d86fd623e15a1046c26c8cb15301",
    "dwt_1d/lifting/P4/D8": "9a075d0270c0d6b403d26fb45550adbd1a50f58f052c72f69ccc26b7a2acb13e",
    "dwt_1d/fused/P1/D2": "27b2b73ce1af8ab2d7acc889e3e199a1682ea88eae591d1b862e4e8b137b53fc",
    "dwt_1d/fused/P1/D4": "ae24a91ce6331233d765b249b1026f2632bf14303168ae5153cd1f49d2a5f738",
    "dwt_1d/fused/P1/D8": "73855ba0a5df255f38ebfa4b5bcaeab2e334aea279801733242531209169491b",
    "dwt_1d/fused/P4/D2": "8a5a91ef7ffaf62efdb4fa85307dc3b8fa216c0040372aedce9433fbe90e0bd6",
    "dwt_1d/fused/P4/D4": "b614a6f5367d9bb88a2e19555f68719e9bf7d86fd623e15a1046c26c8cb15301",
    "dwt_1d/fused/P4/D8": "9a075d0270c0d6b403d26fb45550adbd1a50f58f052c72f69ccc26b7a2acb13e",
    "dwt_1d/single-loop/P1/D2": "27b2b73ce1af8ab2d7acc889e3e199a1682ea88eae591d1b862e4e8b137b53fc",
    "dwt_1d/single-loop/P1/D4": "ae24a91ce6331233d765b249b1026f2632bf14303168ae5153cd1f49d2a5f738",
    "dwt_1d/single-loop/P1/D8": "73855ba0a5df255f38ebfa4b5bcaeab2e334aea279801733242531209169491b",
    "dwt_1d/single-loop/P4/D2": "8a5a91ef7ffaf62efdb4fa85307dc3b8fa216c0040372aedce9433fbe90e0bd6",
    "dwt_1d/single-loop/P4/D4": "b614a6f5367d9bb88a2e19555f68719e9bf7d86fd623e15a1046c26c8cb15301",
    "dwt_1d/single-loop/P4/D8": "9a075d0270c0d6b403d26fb45550adbd1a50f58f052c72f69ccc26b7a2acb13e",
    "idwt_1d/conv/P1/D2": "e4bc2a648f2f47d66e141983730af8aa60861c31d4a244b16de3e92bf197de4a",
    "idwt_1d/conv/P1/D4": "a74d0eab702fc9b777509903a15e9ca04b4b9d6b325af65970cc89ed106ef2dd",
    "idwt_1d/conv/P1/D8": "27f0a218e49c7b4d445cc5e228390c54098287487619fb0c70a26c46d6fbf3ff",
    "idwt_1d/conv/P4/D2": "cd7b37d1f09b4d82af38abbea14a5f20f831e01a8df7eb85c5ca39307ab02db6",
    "idwt_1d/conv/P4/D4": "c50aca0c67511fb8b2b42a6be4af4ad9a6e6420811163fa015ab4acdbc8469ce",
    "idwt_1d/conv/P4/D8": "de8059ea03fcae7c8cc380927aa56927ea7c99ae92b83999d80504673be44f35",
    "idwt_1d/lifting/P1/D2": "84fc66bbf2b020dd07af4fe6163f05a296102f2b33aed668f17c5ee88b86ab4c",
    "idwt_1d/lifting/P1/D4": "7b3d2a690cbda4d132ba7a8c88c43f8e95120ce52df925adaeead2a6b88f8e5f",
    "idwt_1d/lifting/P1/D8": "50f1f26f37932e5bce041b76c76835b859568439265f901e77902cb724a92982",
    "idwt_1d/lifting/P4/D2": "e81c34f4b779d6799f2f468c931705493234d727ec61ea6342e5fb57d0a9ea8f",
    "idwt_1d/lifting/P4/D4": "807bca48d5770ebc52370da6d86644e4a169145f986e7833dfb501318154efa8",
    "idwt_1d/lifting/P4/D8": "ebd0f83eae74163b140526b167a0fdb5736798600e7058fc1a2dc44f69a18aef",
    "idwt_1d/fused/P1/D2": "84fc66bbf2b020dd07af4fe6163f05a296102f2b33aed668f17c5ee88b86ab4c",
    "idwt_1d/fused/P1/D4": "7b3d2a690cbda4d132ba7a8c88c43f8e95120ce52df925adaeead2a6b88f8e5f",
    "idwt_1d/fused/P1/D8": "50f1f26f37932e5bce041b76c76835b859568439265f901e77902cb724a92982",
    "idwt_1d/fused/P4/D2": "e81c34f4b779d6799f2f468c931705493234d727ec61ea6342e5fb57d0a9ea8f",
    "idwt_1d/fused/P4/D4": "807bca48d5770ebc52370da6d86644e4a169145f986e7833dfb501318154efa8",
    "idwt_1d/fused/P4/D8": "ebd0f83eae74163b140526b167a0fdb5736798600e7058fc1a2dc44f69a18aef",
    "idwt_1d/single-loop/P1/D2": "84fc66bbf2b020dd07af4fe6163f05a296102f2b33aed668f17c5ee88b86ab4c",
    "idwt_1d/single-loop/P1/D4": "7b3d2a690cbda4d132ba7a8c88c43f8e95120ce52df925adaeead2a6b88f8e5f",
    "idwt_1d/single-loop/P1/D8": "50f1f26f37932e5bce041b76c76835b859568439265f901e77902cb724a92982",
    "idwt_1d/single-loop/P4/D2": "e81c34f4b779d6799f2f468c931705493234d727ec61ea6342e5fb57d0a9ea8f",
    "idwt_1d/single-loop/P4/D4": "807bca48d5770ebc52370da6d86644e4a169145f986e7833dfb501318154efa8",
    "idwt_1d/single-loop/P4/D8": "ebd0f83eae74163b140526b167a0fdb5736798600e7058fc1a2dc44f69a18aef",
}


def _image():
    return np.random.default_rng(7).normal(size=(SIDE, SIDE))


def _signal():
    return np.random.default_rng(8).normal(size=SIGNAL)


def _run(program_name, kernel, nranks, bank, wrap=lambda program: program):
    engine = Engine(paragon(nranks))
    if program_name == "striped":
        decomp = StripeDecomposition(SIDE, SIDE, nranks, LEVELS)
        return engine.run(
            wrap(striped_wavelet_program), _image(), bank, LEVELS, decomp, kernel=kernel
        )
    if program_name == "block":
        side = 2 if nranks == 4 else 1
        decomp = BlockDecomposition(SIDE, SIDE, side, side, LEVELS)
        return engine.run(
            wrap(block_wavelet_program), _image(), bank, LEVELS, decomp, kernel=kernel
        )
    if program_name == "reconstruct":
        pyramid = mallat_decompose_2d(_image(), bank, LEVELS)
        decomp = StripeDecomposition(SIDE, SIDE, nranks, LEVELS)
        return engine.run(
            wrap(striped_reconstruct_program), pyramid, bank, decomp, kernel=kernel
        )
    if program_name == "dwt_1d":
        return engine.run(wrap(dwt_1d_program), _signal(), bank, LEVELS, kernel=kernel)
    approx, details = dwt_1d(_signal(), bank, LEVELS)
    return engine.run(wrap(idwt_1d_program), approx, details, bank, kernel=kernel)


CASES = [
    (program, kernel, nranks, length)
    for program in ("striped", "block", "reconstruct", "dwt_1d", "idwt_1d")
    for kernel in ("conv", "lifting", "fused", "single-loop")
    for nranks in (1, 4)
    for length in (2, 4, 8)
]


@pytest.mark.parametrize(
    "program,kernel,nranks,length",
    CASES,
    ids=[f"{p}-{k}-P{n}-D{m}" for p, k, n, m in CASES],
)
def test_run_digest_pinned(program, kernel, nranks, length):
    run = _run(program, kernel, nranks, filter_bank_for_length(length))
    assert run_result_digest(run) == PINS[f"{program}/{kernel}/P{nranks}/D{length}"]


#: Captured from the programs before guard exchanges, distribution and
#: collection moved into shared helpers; a rank-1 case sends nothing.
MESSAGE_PINS = {
    "striped/conv/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/conv/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/conv/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/conv/P4/D2": "188b4ea4d2d292c0876b904f9f33aaaebb4bf00b88f120acefade7dd64a5b0f1",
    "striped/conv/P4/D4": "cba714ac2d95965707bf57f919d6f1b4cd358c0ff4eff35ce5d10b7252b1918d",
    "striped/conv/P4/D8": "a49add67a48e3fdd0904a543ec9988db41118983c31051793cb5ec61df1cf6ff",
    "striped/lifting/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/lifting/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/lifting/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/lifting/P4/D2": "c6c54dc668c3a8a118d2141951b7e1568d8f1ac5e660f5621f2fa5e012a418e5",
    "striped/lifting/P4/D4": "188b4ea4d2d292c0876b904f9f33aaaebb4bf00b88f120acefade7dd64a5b0f1",
    "striped/lifting/P4/D8": "d353a24addf4a8dc1523d51a5f53407e7a0a75995f79839ad4596b7057780c79",
    "striped/fused/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/fused/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/fused/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/fused/P4/D2": "c6c54dc668c3a8a118d2141951b7e1568d8f1ac5e660f5621f2fa5e012a418e5",
    "striped/fused/P4/D4": "188b4ea4d2d292c0876b904f9f33aaaebb4bf00b88f120acefade7dd64a5b0f1",
    "striped/fused/P4/D8": "d353a24addf4a8dc1523d51a5f53407e7a0a75995f79839ad4596b7057780c79",
    "striped/single-loop/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/single-loop/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/single-loop/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "striped/single-loop/P4/D2": "c6c54dc668c3a8a118d2141951b7e1568d8f1ac5e660f5621f2fa5e012a418e5",
    "striped/single-loop/P4/D4": "3eded0d01ab753e05b0dfbe7d9efead16664da82460688fd056a335f320f8f10",
    "striped/single-loop/P4/D8": "8fed804cf74e5c38a7e9359dd46d0e470bda8aa53ab5a0c487608a608202c9ba",
    "block/conv/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/conv/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/conv/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/conv/P4/D2": "a3d8d8077818216b6942830e49a21698ecf381ed84115021465078fe22075cbb",
    "block/conv/P4/D4": "0cbe982987eb56ec6116fe1bc4f7f2be337995e70cf162e67c986c68470f0b17",
    "block/conv/P4/D8": "262ff47aded8c5257f98f37bf4312a3f6819aeb8f18de6fb92ff544364275c83",
    "block/lifting/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/lifting/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/lifting/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/lifting/P4/D2": "9b4dc97eb0d24e2531a87afa1282f00221b8de4962002f8373b7cc03bebdba62",
    "block/lifting/P4/D4": "a3d8d8077818216b6942830e49a21698ecf381ed84115021465078fe22075cbb",
    "block/lifting/P4/D8": "f770ae4ae2a1c3b9899933255485827ae70670c006fd6aac4609af62b74d395d",
    "block/fused/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/fused/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/fused/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/fused/P4/D2": "9b4dc97eb0d24e2531a87afa1282f00221b8de4962002f8373b7cc03bebdba62",
    "block/fused/P4/D4": "a3d8d8077818216b6942830e49a21698ecf381ed84115021465078fe22075cbb",
    "block/fused/P4/D8": "f770ae4ae2a1c3b9899933255485827ae70670c006fd6aac4609af62b74d395d",
    "block/single-loop/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/single-loop/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/single-loop/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "block/single-loop/P4/D2": "9b4dc97eb0d24e2531a87afa1282f00221b8de4962002f8373b7cc03bebdba62",
    "block/single-loop/P4/D4": "e2247b0c9e632bd8e0f489c9e12d897b9732031ebe2e75cc6526e89f9ccfbe13",
    "block/single-loop/P4/D8": "c94443e2a6b3a696095b207b70f747a6a2c4bd77b66a8089ca643ea7d41ba176",
    "reconstruct/conv/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/conv/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/conv/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/conv/P4/D2": "36cce0c3a3c800ee9cb8dd20b80ca1a8c24a410f28be2d71ab2a8df4004c8438",
    "reconstruct/conv/P4/D4": "c44c90951886a7f47ef42f2b7148d19d469ccff2b8e52b130f970193a31f51ec",
    "reconstruct/conv/P4/D8": "123ad83eb9fc024445ef2ed7a8e964f48551ade4c3489b639acc7bc3d70a8687",
    "reconstruct/lifting/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/lifting/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/lifting/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/lifting/P4/D2": "bac2cd7074adb7986471270f9c8a3c0a3427e1516610738cabbbf7e03f468460",
    "reconstruct/lifting/P4/D4": "c6712ee1af0763bac0444797aa1d113a1f788d8362fddb52abf798bd6acb3d51",
    "reconstruct/lifting/P4/D8": "63ee577d9c82d59a22ae05cbd0598213c81e76c4dc49ad98e768766836a5f38c",
    "reconstruct/fused/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/fused/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/fused/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/fused/P4/D2": "bac2cd7074adb7986471270f9c8a3c0a3427e1516610738cabbbf7e03f468460",
    "reconstruct/fused/P4/D4": "c6712ee1af0763bac0444797aa1d113a1f788d8362fddb52abf798bd6acb3d51",
    "reconstruct/fused/P4/D8": "63ee577d9c82d59a22ae05cbd0598213c81e76c4dc49ad98e768766836a5f38c",
    "reconstruct/single-loop/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/single-loop/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/single-loop/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "reconstruct/single-loop/P4/D2": "bac2cd7074adb7986471270f9c8a3c0a3427e1516610738cabbbf7e03f468460",
    "reconstruct/single-loop/P4/D4": "c6712ee1af0763bac0444797aa1d113a1f788d8362fddb52abf798bd6acb3d51",
    "reconstruct/single-loop/P4/D8": "63ee577d9c82d59a22ae05cbd0598213c81e76c4dc49ad98e768766836a5f38c",
    "dwt_1d/conv/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/conv/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/conv/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/conv/P4/D2": "8c7c2ea0883fda12a564d3345eaec5fdda7050b03bb0fd5b0cc941165cda7c95",
    "dwt_1d/conv/P4/D4": "f1eef55c931b2d5ec103e03b2545706654606eac928b215d8360b7fba9e23e9b",
    "dwt_1d/conv/P4/D8": "b1034e482169ec38b5332785152174c33d8d9307952e5bd2eef7bea475ce4449",
    "dwt_1d/lifting/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/lifting/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/lifting/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/lifting/P4/D2": "54ad5dba7f1b949fa9a2f602b61175e40248cd31cc812351eaa80eefa95dd9cb",
    "dwt_1d/lifting/P4/D4": "8c7c2ea0883fda12a564d3345eaec5fdda7050b03bb0fd5b0cc941165cda7c95",
    "dwt_1d/lifting/P4/D8": "c2e69769f232fd9d9e4e48b8eabd7e3cec7c81e564d2e8ecc325f2599d3877ca",
    "dwt_1d/fused/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/fused/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/fused/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/fused/P4/D2": "54ad5dba7f1b949fa9a2f602b61175e40248cd31cc812351eaa80eefa95dd9cb",
    "dwt_1d/fused/P4/D4": "8c7c2ea0883fda12a564d3345eaec5fdda7050b03bb0fd5b0cc941165cda7c95",
    "dwt_1d/fused/P4/D8": "c2e69769f232fd9d9e4e48b8eabd7e3cec7c81e564d2e8ecc325f2599d3877ca",
    "dwt_1d/single-loop/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/single-loop/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/single-loop/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "dwt_1d/single-loop/P4/D2": "54ad5dba7f1b949fa9a2f602b61175e40248cd31cc812351eaa80eefa95dd9cb",
    "dwt_1d/single-loop/P4/D4": "8c7c2ea0883fda12a564d3345eaec5fdda7050b03bb0fd5b0cc941165cda7c95",
    "dwt_1d/single-loop/P4/D8": "c2e69769f232fd9d9e4e48b8eabd7e3cec7c81e564d2e8ecc325f2599d3877ca",
    "idwt_1d/conv/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/conv/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/conv/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/conv/P4/D2": "237763662a83a23a54168b23d7f09f053df84b533072fd497cd23c01c8541e3f",
    "idwt_1d/conv/P4/D4": "590df4b63f5835673801f56ea28a7ce810c4046df752aa295d2826070582e799",
    "idwt_1d/conv/P4/D8": "5527506b64b881356ed6c439e66ca0029304ea2d45b8298e710b12e17ba26e71",
    "idwt_1d/lifting/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/lifting/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/lifting/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/lifting/P4/D2": "4c198f1ee8df259cb3a589215b8175e4c427e7dea54b6cc7bcdb60699b005665",
    "idwt_1d/lifting/P4/D4": "91533d37b9fdad98cc5760108b28bb13c7b259a0ca859116abe90f904665a952",
    "idwt_1d/lifting/P4/D8": "495870c990c40a7302e8dcbfc37a9394bcd874c27f6c38def5d74dc28ebfa896",
    "idwt_1d/fused/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/fused/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/fused/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/fused/P4/D2": "4c198f1ee8df259cb3a589215b8175e4c427e7dea54b6cc7bcdb60699b005665",
    "idwt_1d/fused/P4/D4": "91533d37b9fdad98cc5760108b28bb13c7b259a0ca859116abe90f904665a952",
    "idwt_1d/fused/P4/D8": "495870c990c40a7302e8dcbfc37a9394bcd874c27f6c38def5d74dc28ebfa896",
    "idwt_1d/single-loop/P1/D2": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/single-loop/P1/D4": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/single-loop/P1/D8": "270d6d71785f5e96ccfe155ffe20de0eac55ecd784c0d541468c4988e6bcaf42",
    "idwt_1d/single-loop/P4/D2": "4c198f1ee8df259cb3a589215b8175e4c427e7dea54b6cc7bcdb60699b005665",
    "idwt_1d/single-loop/P4/D4": "91533d37b9fdad98cc5760108b28bb13c7b259a0ca859116abe90f904665a952",
    "idwt_1d/single-loop/P4/D8": "495870c990c40a7302e8dcbfc37a9394bcd874c27f6c38def5d74dc28ebfa896",
}


def _describe(payload):
    """A payload's message shape: arrays as ``(dtype, shape)``, containers
    walked element by element (dicts by sorted key, via the digest)."""
    if isinstance(payload, np.ndarray):
        return (str(payload.dtype), payload.shape)
    if isinstance(payload, dict):
        return {key: _describe(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_describe(item) for item in payload]
    return type(payload).__name__


def _recording(program, log):
    """``program`` forwarding every op it yields, with each send's
    ``(dst, tag, shape)`` appended to ``log[rank]``."""

    def recorded(ctx, *args, **kwargs):
        sent = log.setdefault(ctx.rank, [])
        gen = program(ctx, *args, **kwargs)
        reply = None
        while True:
            try:
                op = gen.send(reply)
            except StopIteration as stop:
                return stop.value
            if isinstance(op, _SendOp):
                sent.append((op.dst, op.tag, _describe(op.payload)))
            reply = yield op

    return recorded


def _message_digest(program, kernel, nranks, length):
    log = {}
    _run(
        program,
        kernel,
        nranks,
        filter_bank_for_length(length),
        wrap=lambda target: _recording(target, log),
    )
    return digest([log[rank] for rank in range(nranks)])


@pytest.mark.parametrize(
    "program,kernel,nranks,length",
    CASES,
    ids=[f"{p}-{k}-P{n}-D{m}" for p, k, n, m in CASES],
)
def test_messages_pinned(program, kernel, nranks, length):
    got = _message_digest(program, kernel, nranks, length)
    assert got == MESSAGE_PINS[f"{program}/{kernel}/P{nranks}/D{length}"]
