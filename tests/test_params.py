"""Parameter validation: every constructor rejects what no codec can run."""

import pytest

from rtcodec.errors import ParamViolation
from rtcodec.params import CodeParams

BAD = [{"symbol_bits": 12}, {"hash_mode": "bogus"}, {"rlayer_hash_mode": "bogus"}]


@pytest.mark.parametrize("bad", BAD)
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
    for symbol_bits in (8, 16):
        params = CodeParams.edit(64, 4, 2, symbol_bits=symbol_bits, hash_mode="vt")
        assert CodeParams.from_dict(params.to_dict()) == params
