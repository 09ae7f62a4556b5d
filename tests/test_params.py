"""Parameter validation: every constructor rejects what no codec can run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcodec.errors import ParamViolation
from rtcodec.params import CodeParams

# a bad hasher name, each removed setting at a value other than the one it could
# take, and a paper-exact code with a period bound or block length not the paper's
BAD = [{"symbol_bits": 12}, {"hash_mode": "bogus"}, {"rlayer_hash_mode": "bogus"}, {"T": 3}, {"block_len": 40}]
LEGACY = {"rlayer_hash_mode": "identity", "symbol_bits": 8, "coloring_budget": 16}
# the hasher is the one setting left on the constructors: an empty, an unknown
# and a wrong-case name (hasher names are case-sensitive)
BAD_HASHERS = [{"hash_mode": ""}, {"hash_mode": "bogus"}, {"hash_mode": "Coloring"}]


@pytest.mark.parametrize("bad", BAD_HASHERS)
@pytest.mark.parametrize(
    "make",
    [
        lambda **kw: CodeParams.deletion(64, 4, 2, **kw),
        lambda **kw: CodeParams.edit(64, 4, 2, **kw),
        lambda **kw: CodeParams.relaxed(64, 2, (40,), **kw),
    ],
    ids=["deletion", "edit", "relaxed"],
)
def test_constructors_reject_unusable_settings(make, bad):
    with pytest.raises(ParamViolation):
        make(**bad)


@pytest.mark.parametrize("bad", BAD)
def test_from_dict_rejects_unusable_settings(bad):
    data = {**CodeParams.deletion(64, 4, 2).to_dict(), **bad}
    with pytest.raises(ParamViolation):
        CodeParams.from_dict(data)


def test_accepted_settings_round_trip():
    params = CodeParams.edit(64, 4, 2, hash_mode="vt")
    assert CodeParams.from_dict(params.to_dict()) == params
    # older sidecars carry the removed settings at the one value they could take
    assert CodeParams.from_dict({**params.to_dict(), **LEGACY}) == params


VALID = [
    CodeParams.deletion(64, 4, 2).to_dict(),
    CodeParams.edit(64, 2, 2, hash_mode="vt").to_dict(),
    CodeParams.relaxed(32, 1, (40,), kind="edit", block_len=10).to_dict(),
]
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(["identity", "vt", "coloring", "deletion", "edit", "relaxed", "paper-exact"]),
    st.lists(st.integers(-3, 300), max_size=3),
)
KEYS = st.sampled_from([*VALID[0], *LEGACY, "extra"])


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(VALID),
    dropped=st.sets(KEYS, max_size=2),
    changed=st.dictionaries(KEYS, ANY_VALUE, max_size=3),
)
def test_from_dict_either_rejects_or_round_trips(base, dropped, changed):
    """A sidecar's parameters with keys dropped, retyped or added either raise
    ParamViolation or give parameters that survive to_dict/from_dict."""
    data = {key: value for key, value in base.items() if key not in dropped}
    data.update(changed)
    try:
        params = CodeParams.from_dict(data)
    except ParamViolation:
        return
    assert CodeParams.from_dict(params.to_dict()) == params
