import crnoma_aoi


def test_every_export_resolves():
    missing = [name for name in crnoma_aoi.__all__ if not hasattr(crnoma_aoi, name)]
    assert missing == []
    assert len(set(crnoma_aoi.__all__)) == len(crnoma_aoi.__all__)
