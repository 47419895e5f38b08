import ccsica


def test_every_export_resolves_once():
    assert len(ccsica.__all__) == len(set(ccsica.__all__))
    for name in ccsica.__all__:
        assert hasattr(ccsica, name), name


def test_removed_whitening_stages_not_exported():
    for name in ("remove_mean", "whiten"):
        assert name not in ccsica.__all__
        assert not hasattr(ccsica, name)
