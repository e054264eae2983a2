import json
import math

from golden_outputs import FIXTURE, compute

REL = 1e-12


def test_outputs_match_the_golden_fixture():
    # every sampler path at fixed seeds (tests/golden_outputs.py): integer
    # columns equal, floats within 1e-12 relative, the fixed engine's CSV
    # bytes equal
    want = json.loads(FIXTURE.read_text())["entries"]
    got = compute()
    assert got.keys() == want.keys()
    for name, entry in want.items():
        assert got[name].keys() == entry.keys(), name
        for key, value in entry.items():
            mine = got[name][key]
            if isinstance(value, float) or value is None:
                # json writes a NaN as NaN, which it reads back as a float
                assert (math.isnan(mine) and math.isnan(value)) or (
                    abs(mine - value) <= REL * abs(value)), (name, key, mine, value)
            else:
                assert mine == value, (name, key)
