import pytest


@pytest.fixture(autouse=True)
def _empty_search_memo():
    # several tests patch trace_coordinates or _assignment_trie; a search
    # memoized under a patch must not answer for a later test
    from torunits import helpengine

    helpengine._proxy_search.cache_clear()
    yield
    helpengine._proxy_search.cache_clear()
