"""Per-instance tables: each is computed once per process, and what the
caches hold never changes a report."""

import importlib
import pkgutil

import oracles
import zdt
from zdt import claims as cl, poset as ps

# the caches keyed by one (poset, system) instance, one poset, a pair of
# posets (the Galois connections and the monotone tables of the map claims),
# or a poset and a table of its masks (the maximal points of each)
INSTANCE_CACHES = (
    "poset.principal_downs", "poset.fin_poset", "poset.cut_table", "poset.sup_table",
    "poset.map_tables",
    "poset.maxima", "poset.automorphisms",
    "systems._members", "systems._member_ideals",
    "topology.gamma_subbasis", "topology.sigma_topology", "topology.lower_topology",
    "topology.closure_table", "topology.is_lower_hereditary",
    "continuity._member_cut_pairs", "continuity._dd_all", "continuity._member_ideals",
    "continuity._beneath_all", "continuity.s_z_witness",
    "galois._connections",
    "monad.gamma_lattice", "monad.delta_object", "monad.compact_index",
    "monad.compact_table", "monad.mu", "monad.em_structure_map",
)

# the caches keyed by something else: a way-below query within an instance,
# or a population size (the labeled orbits are the rows and classes of the
# labeled orders, kept apart so that run_claim need not build their posets)
OTHER_CACHES = (
    "continuity._wb", "poset._labeled_orders", "poset.labeled_orbits",
    "poset._iso_representatives", "claims._inner_posets",
)

# the nineteen non-lattice claims over the labeled posets with n <= 4;
# lemma-sigma-cont stops at n = 3, where it already maps into every inner poset
NON_LATTICE = tuple(
    (c.id, 3 if c.id == "lemma-sigma-cont" else min(c.max_size, 4))
    for c in cl.registry()
    if c.id not in (
        "prop-gamma-wmc", "prop-union-sup", "gamma-prealgebraic",
        "thm-adjunction", "thm-monad", "thm-em", "prop-em-morph",
    )
)


def zdt_caches():
    """Every lru_cache defined in a zdt module, by ``module.function``."""
    caches = {}
    for info in pkgutil.iter_modules(zdt.__path__):
        mod = importlib.import_module(f"zdt.{info.name}")
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                caches[f"{info.name}.{attr}"] = obj
    return caches


def clear_zdt_caches():
    for cache in zdt_caches().values():
        cache.cache_clear()


def test_every_cache_is_listed():
    # a new cache must join INSTANCE_CACHES, and so the bound and the
    # once-per-sweep check below, unless it names why it stays outside
    assert not set(INSTANCE_CACHES) & set(OTHER_CACHES)
    assert sorted(zdt_caches()) == sorted(INSTANCE_CACHES + OTHER_CACHES)


def test_instance_caches_share_one_bound():
    caches = zdt_caches()
    assert {caches[name].cache_info().maxsize for name in INSTANCE_CACHES} == {
        ps.INSTANCE_CACHE_SIZE
    }


def _cache_infos():
    infos = {name: cache.cache_info() for name, cache in zdt_caches().items()}
    for name, info in infos.items():
        assert info.misses == info.currsize, (name, info)
    return infos


def test_each_table_is_computed_once_per_sweep():
    assert len(NON_LATTICE) == 19
    clear_zdt_caches()
    for claim_id, depth in NON_LATTICE:
        cl.run_claim(claim_id, depth, mode="labeled")
    infos = _cache_infos()
    assert infos["topology.is_lower_hereditary"].hits > 0
    assert infos["systems._member_ideals"].hits > 0
    assert infos["galois._connections"].hits > 0
    # the walk that evaluates every labeled order itself visits far more
    # instances than the classes and witnesses run_claim evaluates
    for claim_id, depth in NON_LATTICE:
        oracles.labeled_reports(claim_id, depth)
    assert _cache_infos()["topology.gamma_subbasis"].misses > 1000
    first = list(ps.enumerate_posets(4, "labeled"))
    again = list(ps.enumerate_posets(4, "labeled"))
    assert len(first) == len(ps.population(4, "labeled")) == 219
    assert all(a is b for a, b in zip(first, again))


# claims that share instances and tables: lower hereditariness, the ↓x
# subposets, the way-below tables, μ and η
SHARING = (
    ("cor-zcpo-lh", 4),
    ("thm-local-wmc", 4),
    ("prop-up-cont", 4),
    ("thm-s4-equiv", 4),
    ("lemma-uu-eq", 4),
    ("thm-monad", 3),
)


def _reports(claim_id, depth):
    return cl.format_reports(cl.run_claim(claim_id, depth, mode="labeled"))


def test_claim_order_does_not_change_reports():
    cold = {}
    for claim_id, depth in SHARING:
        clear_zdt_caches()
        cold[claim_id] = _reports(claim_id, depth)
    assert sum("WITNESS" in text for text in cold.values()) >= 3
    clear_zdt_caches()
    for order in (SHARING, SHARING[::-1]):
        for claim_id, depth in order:
            assert _reports(claim_id, depth) == cold[claim_id], claim_id
