from polylogp import coleman, finite_poly

import worker
from tracing import package_modules


def test_every_pass_starts_with_cold_process_caches():
    field = finite_poly.FiniteField(7, 2)
    finite_poly.li_finite(3, field.from_int(9))
    coleman.check_corollary(5, 1, ns=(1,))
    caches = [v for mod in package_modules() for v in vars(mod).values()
              if hasattr(v, "cache_info")]
    assert any(cache.cache_info().currsize for cache in caches)
    worker.clear_process_caches()
    assert all(cache.cache_info().currsize == 0 for cache in caches)
    table = getattr(coleman, "_np_table_cache", None)
    assert table is None or table["key"] is None
