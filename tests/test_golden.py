import json

from golden_outputs import FIXTURE, compute, moved


def test_outputs_match_the_golden_fixture():
    # every sampler path at fixed seeds (tests/golden_outputs.py): integer
    # columns and lists equal, floats within 1e-12 relative, the CSV bytes
    # of the fixed engine's stage 1 and of the spectrum equal
    want = json.loads(FIXTURE.read_text())["entries"]
    got = compute()
    assert got.keys() == want.keys()
    assert moved(want, got) == {}
