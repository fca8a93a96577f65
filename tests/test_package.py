import traincost


def test_every_exported_name_resolves():
    missing = [name for name in traincost.__all__ if not hasattr(traincost, name)]
    assert missing == []
