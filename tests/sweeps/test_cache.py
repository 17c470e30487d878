"""Cache correctness: content addressing, invalidation, robustness."""

import hashlib
import json

import pytest

from repro.sweeps.cache import (
    DEFAULT_SALT,
    ResultCache,
    canonical_json,
    default_cache_dir,
    spec_key,
)

SPEC = {"kind": "cell", "space": "ring", "n": 256, "d": 2, "trials": 10, "seed": 42}


class TestSpecKey:
    def test_key_is_order_insensitive(self):
        shuffled = dict(reversed(list(SPEC.items())))
        assert spec_key(SPEC) == spec_key(shuffled)

    def test_identical_specs_same_key(self):
        assert spec_key(dict(SPEC)) == spec_key(dict(SPEC))

    @pytest.mark.parametrize("field,value", [
        ("n", 512),
        ("d", 3),
        ("trials", 11),
        ("seed", 43),
        ("space", "torus"),
        ("kind", "dynamic_churn"),
    ])
    def test_any_perturbation_changes_key(self, field, value):
        perturbed = dict(SPEC, **{field: value})
        assert spec_key(perturbed) != spec_key(SPEC)

    def test_schema_2_in_default_salt(self):
        """Histogram payloads are schema 2: no schema-1 entry is served."""
        assert "-sweeps2-" in DEFAULT_SALT

    def test_salt_changes_key(self):
        assert spec_key(SPEC, salt="other") != spec_key(SPEC, salt=DEFAULT_SALT)

    @pytest.mark.parametrize("spec", [
        SPEC,
        {"grid": ("ring", 2), "n": {"lo": 1, "hi": 2**70}, "name": "Vöcking \"x\""},
        {},
    ])
    @pytest.mark.parametrize("salt", [DEFAULT_SALT, 'pin "ü"'])
    def test_key_hashes_canonical_salt_and_spec(self, spec, salt):
        """The key is the blake2b of one canonical JSON object holding the
        salt and the spec; existing caches hold their entries under it."""
        text = canonical_json({"salt": salt, "spec": spec})
        expected = hashlib.blake2b(text.encode("utf-8"), digest_size=16)
        assert spec_key(spec, salt) == expected.hexdigest()

    def test_canonical_json_is_byte_stable(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b == '{"a":[1,2],"b":1}'


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(SPEC) is None
        cache.put(SPEC, {"counts": {"3": 7}})
        entry = cache.get(SPEC)
        assert entry is not None and entry["payload"]["counts"] == {"3": 7}
        assert cache.stats == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}

    def test_perturbed_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(SPEC, {"counts": {"3": 7}})
        assert cache.get(dict(SPEC, seed=SPEC["seed"] + 1)) is None
        assert cache.get(dict(SPEC, trials=SPEC["trials"] + 1)) is None

    def test_salt_change_invalidates(self, tmp_path):
        """Bumping the code-version salt orphans every existing entry."""
        old = ResultCache(tmp_path, salt="v1")
        old.put(SPEC, {"counts": {"3": 7}})
        new = ResultCache(tmp_path, salt="v2")
        assert SPEC not in new
        assert new.get(SPEC) is None
        # the old salt still resolves its own entries
        assert ResultCache(tmp_path, salt="v1").get(SPEC) is not None

    def test_contains_does_not_bump_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(SPEC, {"counts": {}})
        assert SPEC in cache
        assert cache.stats["hits"] == 0 and cache.stats["misses"] == 0

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(SPEC, {"counts": {"3": 7}})
        path.write_text("{not json")
        assert cache.get(SPEC) is None

    def test_spec_mismatch_refused(self, tmp_path):
        """A tampered entry whose recorded spec differs is not served."""
        cache = ResultCache(tmp_path)
        path = cache.put(SPEC, {"counts": {"3": 7}})
        entry = json.loads(path.read_text())
        entry["spec"]["n"] = 999
        path.write_text(json.dumps(entry))
        assert cache.get(SPEC) is None

    def test_entry_is_one_json_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(SPEC, {"hist": [[0, 3], [1, 1]]})
        assert [p.name for p in tmp_path.glob("*/*")] == [path.name]
        assert json.loads(path.read_text()) == {
            "salt": DEFAULT_SALT, "spec": SPEC,
            "payload": {"hist": [[0, 3], [1, 1]]},
        }

    @pytest.mark.parametrize("spec, payload", [
        (SPEC, {"hist": [[0, 3], [1, 1]]}),
        (SPEC, {"counts": {"3": 7, "10": 1}}),
        (dict(SPEC, shape=(2, 3)), {"rows": ({"a": 1.5, "b": None},)}),
        (SPEC, {"by_peers": {10: "x", 2: "y"}, "nested": [{True: 1}]}),
        (dict(SPEC, ids={64: 1, 128: 2}), {"counts": {}}),
    ], ids=["hist", "counts", "tuples", "int-keys", "int-key-spec"])
    def test_entry_is_its_json_round_trip(self, tmp_path, spec, payload):
        """An entry's bytes are the canonical JSON of the spec and payload
        as JSON reads them back: keys that are not str become str and
        sort as such, tuples become lists.  A hit returns the payload
        read back."""
        cache = ResultCache(tmp_path)
        path = cache.put(spec, payload)
        entry = {"salt": DEFAULT_SALT, "spec": spec, "payload": payload}
        expected = canonical_json(json.loads(canonical_json(entry))) + "\n"
        assert path.read_text() == expected
        hit = cache.get(spec)
        assert hit == {"payload": json.loads(canonical_json(payload))}

    def test_reput_overwrites_identically(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cache.put(SPEC, {"counts": {"3": 7}}).read_bytes()
        second = cache.put(SPEC, {"counts": {"3": 7}}).read_bytes()
        assert first == second

    def test_entry_count_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.entry_count() == 0
        cache.put(SPEC, {"counts": {}})
        cache.put(dict(SPEC, n=512), {"hist": [[1]]})
        assert cache.entry_count() == 2
        assert cache.clear() == 2
        assert cache.entry_count() == 0


class TestDefaultCacheDir:
    def test_env_path_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF", " disabled "])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", value)
        assert default_cache_dir() is None

    def test_unset_falls_back_to_xdg(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro" / "sweeps"
