"""Golden digests: codewords and decode outcomes stay byte-identical.

Each case encodes 8 seeded messages, passes each codeword through a seeded
channel pattern, decodes, and takes one SHA-256 over the codewords and the
outcomes (the decoded track, or the stage that failed). A change that alters
any codeword bit, any decoded bit or any failure stage changes a digest; a
change that means to do so must say why and update the value here.
"""

import hashlib
import random

import pytest

from rtcodec.delcodec import decode_deletions, encode_deletions
from rtcodec.editcodec import decode_edits, encode_edits
from rtcodec.errors import DecodeFailure
from rtcodec.layout import build_layout
from rtcodec.model import BitTrack, DeletionPattern, apply_deletions, apply_edits, sample_edit_pattern
from rtcodec.params import CodeParams

CASES = {
    "deletion-pair": (
        lambda: CodeParams.deletion(4096, 2, 2),
        "29d007f2aa747a5a2cb9b56bc090d2e2ab3e4e3bb37dc99500fec8cb1604023b",
    ),
    "deletion-rs": (
        lambda: CodeParams.deletion(4096, 4, 2),
        "efd40f0bce4721cc8cfb24340e0ce8c7918013eacfca1b5f9189ca91a118b732",
    ),
    # two blocks, so its restores erase one block or both
    "deletion-rs-multiblock": (
        lambda: CodeParams.deletion(16384, 4, 2),
        "0bcab820b72c8726e6b0928cbc147af27428415fd0b7943ef3e69e4b33dec1fd",
    ),
    "edit-direct": (
        lambda: CodeParams.edit(1024, 1, 2),
        "f504baf272bb2aea29113b92cddb50f0383ffd4fee594364fcd93e18e2725e05",
    ),
    "edit-pair": (
        lambda: CodeParams.edit(4096, 2, 2),
        "3547b5792b057ec3be15e0b8bf4605b2ac6787c74b49a534f9b066df7876339a",
    ),
    "edit-rs": (
        lambda: CodeParams.edit(512, 4, 2),
        "a80e7f080201cfd127113b33392a02f24c6b4fcec46baab2a5c9cb25cec84f82",
    ),
    "relaxed-coloring": (
        lambda: CodeParams.relaxed(64, 2, (30,), kind="edit", block_len=10, hash_mode="coloring"),
        "e335e37d2b78ae8d4633ff462373561ac29f735bf57101c5799802613bb88d8b",
    ),
    "relaxed-vt": (
        lambda: CodeParams.relaxed(40, 1, (45,), kind="deletion", block_len=12, hash_mode="vt"),
        "ce4a740785f6862582250d4c5f7642b033e7cbf00ac05d6aed4ff2ea603e296f",
    ),
}


def outcome_digest(params: CodeParams) -> str:
    deletion = params.kind == "deletion"
    encode = encode_deletions if deletion else encode_edits
    decode = decode_deletions if deletion else decode_edits
    f_len = build_layout(params).f_len
    digest = hashlib.sha256()
    for i in range(8):
        rng = random.Random(f"golden:{i}")
        msg = BitTrack([rng.randrange(2) for _ in range(params.n)])
        cw = encode(msg, params)
        # even seeds put every error on the capped track, odd seeds anywhere
        reach = len(cw) if i % 2 else min(len(cw), f_len + params.geometry.span)
        if deletion:
            pattern = sample_edit_pattern(rng, reach, params.k, params.geometry, r=params.k, s=0)
            reads = apply_deletions(BitTrack(cw), DeletionPattern(pattern.delta1), params.geometry)
        else:
            pattern = sample_edit_pattern(rng, reach, params.k, params.geometry)
            reads = apply_edits(BitTrack(cw), pattern, params.geometry)
        try:
            outcome = b"track:" + decode(reads, params).tobytes()
        except DecodeFailure as e:
            outcome = f"stage:{e.stage}".encode()
        digest.update(cw.tobytes() + b"|" + outcome + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_codewords_and_outcomes_match_golden_digest(case):
    make, want = CASES[case]
    assert outcome_digest(make()) == want
