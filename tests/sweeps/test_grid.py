"""Grid expansion: determinism, ordering, parsing, sharding."""

import pytest

from repro.stats.trials import cell_seed
from repro.sweeps.grid import SweepGrid, parse_axis_args, shard_cells
from repro.sweeps.runner import cell_spec_dict


class TestSweepGrid:
    def test_scalars_normalize_to_tuples(self):
        grid = SweepGrid(n=256, d=2, space="ring")
        assert grid.n == (256,) and grid.d == (2,) and grid.space == ("ring",)

    def test_len_is_product_of_axes(self):
        grid = SweepGrid(n=(64, 128, 256), d=(1, 2), space=("ring", "torus"))
        assert len(grid) == 12 == len(grid.cells())

    def test_expansion_is_deterministic(self):
        grid = SweepGrid(n=(64, 128), d=(1, 2), trials=5, name="g")
        assert grid.cells() == grid.cells()
        assert grid.cells() == SweepGrid(n=(64, 128), d=(1, 2), trials=5, name="g").cells()

    def test_expansion_order_space_outermost(self):
        grid = SweepGrid(n=(64, 128), d=(1, 2))
        labels = [(c.spec.n, c.spec.d) for c in grid.cells()]
        assert labels == [(64, 1), (64, 2), (128, 1), (128, 2)]

    def test_cell_seeds_distinct_and_stable(self):
        cells = SweepGrid(n=(64, 128), d=(1, 2), seed=7).cells()
        seeds = [c.seed for c in cells]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [c.seed for c in SweepGrid(n=(64, 128), d=(1, 2), seed=7).cells()]

    def test_name_is_a_label_only(self):
        a = SweepGrid(n=64, name="a").cells()
        assert a == SweepGrid(n=64, name="b").cells()
        assert a[0].seed == cell_seed(a[0].spec, SweepGrid.seed)

    def test_one_cell_per_identity(self):
        """Axis values that name one cell expand to it once."""
        grid = SweepGrid(n=64, m=(None, 64, 128), space=("ring", "torus"),
                         dim=(2, 3))
        labels = [c.label() for c in grid.cells()]
        assert labels == [
            "ring n=64 d=2", "ring n=64 d=2 m=128",
            "torus n=64 d=2", "torus n=64 d=2 dim=3",
            "torus n=64 d=2 m=128", "torus n=64 d=2 m=128 dim=3",
        ]
        assert len(grid) == len(labels)

    def test_spec_dict_carries_every_axis(self):
        cell = SweepGrid(n=64, d=3, m=128, strategy="smaller", trials=9).cells()[0]
        d = cell_spec_dict(cell.spec, cell.trials, cell.seed)
        assert d == {
            "kind": "cell", "space": "ring", "n": 64, "d": 3, "m": 128,
            "strategy": "smaller", "partitioned": False,
            "trials": 9, "seed": cell.seed,
        }

    def test_axis_accessor(self):
        cell = SweepGrid(n=64).cells()[0]
        assert cell.axis("n") == 64
        with pytest.raises(KeyError):
            cell.axis("bogus")

    def test_invalid_axis_value_rejected_eagerly(self):
        with pytest.raises(ValueError):
            SweepGrid(n=64, strategy="bogus").cells()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            SweepGrid(n=())

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown grid keys"):
            SweepGrid.from_mapping({"ns": (64,)})

    def test_partitioned_string_rejected(self):
        """A JSON grid's ``"false"`` is truthy: it must not run (and
        seed) the partitioned cell."""
        grid = SweepGrid.from_mapping(
            {"n": [64], "d": [2], "partitioned": ["false"], "trials": 2}
        )
        with pytest.raises(TypeError, match="partitioned must be a bool"):
            grid.cells()

    def test_describe_is_jsonable_and_complete(self):
        import json

        desc = SweepGrid(n=(64,), d=(1, 2), trials=3, name="g").describe()
        assert json.loads(json.dumps(desc)) == desc
        assert desc["n"] == [64] and desc["d"] == [1, 2]
        assert desc["trials"] == 3 and desc["name"] == "g"


class TestParseAxisArgs:
    def test_basic(self):
        assert parse_axis_args(["n=256,1024", "d=2"]) == {"n": (256, 1024), "d": (2,)}

    def test_m_none(self):
        assert parse_axis_args(["m=none,512"]) == {"m": (None, 512)}

    def test_partitioned_bool(self):
        assert parse_axis_args(["partitioned=true,false"]) == {
            "partitioned": (True, False)
        }

    @pytest.mark.parametrize("token", ["n", "n=", "bogus=1", "n=abc", "partitioned=maybe"])
    def test_bad_tokens_raise(self, token):
        with pytest.raises(ValueError):
            parse_axis_args([token])

    def test_duplicate_axis_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_axis_args(["n=1", "n=2"])


class TestShardCells:
    def test_shards_partition_exactly(self):
        cells = SweepGrid(n=(64, 128, 256), d=(1, 2, 3)).cells()
        for count in (1, 2, 3, 4, 9, 20):
            shards = [shard_cells(cells, i, count) for i in range(count)]
            flat = [c for shard in shards for c in shard]
            assert sorted(flat, key=lambda c: c.seed) == sorted(
                cells, key=lambda c: c.seed
            )

    def test_round_robin_assignment(self):
        cells = SweepGrid(n=(64, 128, 256), d=(1, 2)).cells()
        shard0 = shard_cells(cells, 0, 2)
        assert shard0 == cells[::2]

    def test_bad_indices(self):
        cells = SweepGrid(n=64).cells()
        with pytest.raises(ValueError):
            shard_cells(cells, 2, 2)
        with pytest.raises(ValueError):
            shard_cells(cells, -1, 2)
