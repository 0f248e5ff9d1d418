"""Tests for the unified cache/backend spec API (``parse_backend_spec``).

The contract: every cache-configuration surface speaks one grammar, the
``shm:``/``server:`` aliases resolve to one spec (a loopback tcp store the
run owns), and malformed specs — including ``store`` on a tcp client and the
retired ``True``/bare-kind spellings — fail up front with an error naming
the offending spec string.
"""

import warnings

import pytest

from repro.perf import BackendSpec, ResynthesisCache, create_backend, parse_backend_spec
from repro.perf.shared_cache import SPEC_QUERY_KEYS


class TestGrammar:
    def test_aliases_resolve_to_the_two_kinds(self):
        assert parse_backend_spec("local:").kind == "local"
        owned = parse_backend_spec("server:")
        assert owned == parse_backend_spec("shm:") == BackendSpec(kind="tcp")
        assert owned.servers == () and owned.canonical == "server:"

    def test_true_is_refused_not_read_as_local(self):
        # True once parsed as "local:"; it now fails, naming what to write
        with pytest.raises(ValueError, match=r"^True is not a backend spec; pass 'local:'"):
            parse_backend_spec(True)

    def test_backend_spec_passes_through(self):
        spec = parse_backend_spec("shm:")
        assert parse_backend_spec(spec) is spec

    def test_query_values_parse(self):
        spec = parse_backend_spec("local:?store=/tmp/c.pkl&flush_every=7&maxsize=99")
        assert spec.kind == "local"
        assert spec.store_path == "/tmp/c.pkl"
        assert spec.flush_interval == 7
        assert spec.maxsize == 99

    def test_tcp_url_with_servers_and_query(self):
        spec = parse_backend_spec("tcp://a:1,b:2?maxsize=33&match_epsilon=1e-6")
        assert spec.kind == "tcp"
        assert spec.servers == (("a", 1), ("b", 2))
        assert spec.maxsize == 33
        assert spec.match_epsilon == pytest.approx(1e-6)

    def test_canonical_round_trips(self):
        for text in (
            "local:",
            "shm:?maxsize=16&match_epsilon=1e-06",
            "server:?store=/tmp/x.pkl",
            "tcp://h:9?maxsize=8",
        ):
            spec = parse_backend_spec(text)
            assert parse_backend_spec(spec.canonical) == spec

    def test_source_is_kept_but_excluded_from_equality(self):
        alias, canonical = parse_backend_spec("shm:"), parse_backend_spec("server:")
        assert alias == canonical
        assert alias.source == "shm:" and canonical.source == "server:"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus",
            "bogus:",
            "local:extra",  # junk between kind and query
            "local:?unknown_key=1",
            "shm:?maxsize=notanumber",
        ],
    )
    def test_malformed_specs_raise_naming_the_spec(self, bad):
        with pytest.raises(ValueError, match="spec"):
            parse_backend_spec(bad)

    def test_non_string_rejected_with_type_error(self):
        with pytest.raises(TypeError):
            parse_backend_spec(123)

    def test_query_keys_are_the_documented_set(self):
        assert set(SPEC_QUERY_KEYS) == {
            "store",
            "flush_every",
            "maxsize",
            "match_epsilon",
        }


class TestStorePathValidation:
    """Satellite bugfix: store on a storeless backend dies up front, by name."""

    def test_owned_store_aliases_accept_store(self):
        # shm: is server: — a store the run spawns, so it may persist
        spec = parse_backend_spec("shm:?store=/tmp/x")
        assert spec == parse_backend_spec("server:?store=/tmp/x")
        assert spec.store_path == "/tmp/x"

    def test_tcp_spec_with_store_points_at_the_server_flag(self):
        with pytest.raises(ValueError, match="store_path.*cache server"):
            parse_backend_spec("tcp://h:1?store=/tmp/x")

    def test_create_backend_validates_before_materializing(self, tmp_path):
        # Nothing listens on port 1: dialing first would raise
        # SharedCacheUnavailable, so a ValueError proves the spec was
        # rejected before any machinery was touched.
        with pytest.raises(ValueError, match="store_path"):
            create_backend("tcp://127.0.0.1:1", store_path=str(tmp_path / "c.pkl"))


class TestDeprecationShims:
    """The spellings deprecated when the grammar landed are now errors."""

    @pytest.mark.parametrize("bare", ["local", "shm", "server", "tcp"])
    def test_bare_kind_raises_naming_the_grammar(self, bare):
        with pytest.raises(ValueError, match=r"'shm'|'local'|'server'|'tcp'") as raised:
            parse_backend_spec(bare, parameter="share_resynthesis_cache")
        assert "share_resynthesis_cache" in str(raised.value)
        assert "expected local:" in str(raised.value)
        with pytest.raises(ValueError, match="expected local:"):
            parse_backend_spec(bare)  # internal plumbing gets no pass either

    def test_true_raises_naming_the_grammar(self):
        with pytest.raises(ValueError, match=r"True.*resynthesis_cache.*'local:'.*expected"):
            parse_backend_spec(True, parameter="resynthesis_cache")

    def test_url_forms_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_backend_spec("shm:", parameter="share_resynthesis_cache")
            parse_backend_spec("tcp://h:1", parameter="share_resynthesis_cache")


class TestSpecRouting:
    """Every surface resolves a given spelling to the same backend."""

    def test_create_backend_accepts_spec_strings_and_objects(self):
        for spelling in ("local:", parse_backend_spec("local:")):
            backend = create_backend(spelling, maxsize=17)
            assert backend.kind == "local"

    def test_spec_query_overrides_create_defaults(self):
        backend = parse_backend_spec("local:?maxsize=5").create(maxsize=512)
        assert backend.maxsize == 5

    def test_resynthesis_cache_accepts_spec_objects(self):
        cache = ResynthesisCache(shared=True, backend=parse_backend_spec("local:"))
        assert cache.backend.kind == "local"

    def test_legacy_and_url_spellings_build_equal_specs(self):
        # shm: is the spelling of the retired shm backend; it and its
        # canonical form build one spec, with or without a query
        for query in ("", "?maxsize=8", "?store=/tmp/x&flush_every=3"):
            assert parse_backend_spec(f"shm:{query}") == parse_backend_spec(f"server:{query}")
            canonical = parse_backend_spec(f"shm:{query}").canonical
            assert parse_backend_spec(canonical) == parse_backend_spec(f"server:{query}")

    def test_spec_is_picklable_for_job_records(self):
        import pickle

        spec = parse_backend_spec("tcp://h:1,i:2?maxsize=4")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_equality_ignores_source_in_job_grouping(self):
        # DistributedJob grouping in the serve offload relies on specs (and
        # their canonical strings) comparing equal across spellings.
        assert (
            parse_backend_spec("local:?maxsize=3").canonical
            == BackendSpec(kind="local", maxsize=3).canonical
        )
