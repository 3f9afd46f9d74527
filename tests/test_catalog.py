import tracemalloc

import numpy as np
import pytest

from mrprior import (
    ApplicabilityError,
    InputError,
    MrSpec,
    apply_mr,
    build_pairs,
    load_catalog,
    pair_from_files,
)
from mrprior.catalog import TRANSFORMS

from conftest import make_dataset, random_dataset, rows


def ibk_row():
    return make_dataset(
        {
            "att1": [45, 12],
            "att2": [16, 99],
            "att3": [3, 7],
            "att4": [38, 4],
            "profit": ["0", "2"],
        },
        class_name="profit",
    )


class TestTransforms:
    def test_identity(self):
        d = ibk_row()
        out = apply_mr(MrSpec("M", "id", "identity"), d)
        assert rows(out) == rows(d)
        assert out.attributes == d.attributes

    def test_permute_attributes_reverse(self):
        d = ibk_row()
        mr = MrSpec("M", "rev", "permute_attributes", {"perm": "3,2,1,0"})
        out = apply_mr(mr, d)
        assert rows(out)[0] == (38.0, 3.0, 16.0, 45.0, "0")
        assert [a.name for a in out.attributes] == ["att4", "att3", "att2", "att1", "profit"]
        assert out.class_index == 4

    def test_permute_attributes_seeded(self):
        d = ibk_row()
        mr = MrSpec("M", "shuffle", "permute_attributes", seed=5)
        out1, out2 = apply_mr(mr, d), apply_mr(mr, d)
        assert rows(out1) == rows(out2)
        assert sorted(a.name for a in out1.attributes) == sorted(a.name for a in d.attributes)

    def test_permute_attributes_bad_perm(self):
        mr = MrSpec("M", "p", "permute_attributes", {"perm": "0,0,1,2"})
        with pytest.raises(ApplicabilityError):
            apply_mr(mr, ibk_row())

    def test_permute_instances_preserves_multiset(self):
        d = random_dataset(np.random.default_rng(0), n_rows=20)
        out = apply_mr(MrSpec("M", "p", "permute_instances", seed=3), d)
        assert sorted(map(repr, rows(out))) == sorted(map(repr, rows(d)))
        assert rows(out) != rows(d)

    def test_affine_example(self):
        d = make_dataset({"x": [1, 2, 3]})
        out = apply_mr(MrSpec("M", "a", "affine_numeric", {"scale": 2.0, "shift": 1.0}), d)
        assert [r[0] for r in rows(out)] == [3.0, 5.0, 7.0]

    def test_affine_selected_columns(self):
        d = make_dataset({"x": [1.0], "y": [10.0]})
        out = apply_mr(
            MrSpec("M", "a", "affine_numeric", {"scale": 3.0, "columns": "y"}), d
        )
        assert rows(out)[0] == (1.0, 30.0)

    def test_affine_skips_missing(self):
        d = make_dataset({"x": [1.0, None]})
        out = apply_mr(MrSpec("M", "a", "affine_numeric", {"scale": 2.0}), d)
        assert rows(out)[1][0] is None

    def test_affine_rejects_nominal_column(self):
        d = ibk_row()
        mr = MrSpec("M", "a", "affine_numeric", {"scale": 2.0, "columns": "profit"})
        with pytest.raises(ApplicabilityError):
            apply_mr(mr, d)

    def test_add_uninformative_numeric(self):
        d = ibk_row()
        out = apply_mr(
            MrSpec("M", "u", "add_uninformative_attribute", {"value": "7"}), d
        )
        assert len(out.attributes) == 6
        assert out.attributes[4].name == "uninformative"
        assert out.attributes[4].is_numeric
        assert all(r[4] == 7.0 for r in rows(out))
        assert out.class_index == 5
        assert out.attributes[5].name == "profit"

    def test_add_uninformative_nominal(self):
        d = ibk_row()
        out = apply_mr(
            MrSpec("M", "u", "add_uninformative_attribute", {"value": "blue"}), d
        )
        assert out.attributes[4].values == ("blue",)

    def test_add_informative_maps_class(self):
        d = ibk_row()
        mr = MrSpec(
            "M", "i", "add_informative_attribute", {"map": "0:1,2:2,1:3,3:4,4:5"}
        )
        out = apply_mr(mr, d)
        assert out.attributes[4].name == "informative"
        assert out.attributes[4].is_numeric
        assert [r[4] for r in rows(out)] == [1.0, 2.0]

    def test_add_informative_requires_total_map(self):
        d = ibk_row()
        mr = MrSpec("M", "i", "add_informative_attribute", {"map": "0:1"})
        with pytest.raises(ApplicabilityError):
            apply_mr(mr, d)

    def test_duplicate_rounds_half_up(self):
        d = random_dataset(np.random.default_rng(1), n_rows=10)
        out = apply_mr(
            MrSpec("M", "d", "duplicate_instances", {"fraction": 0.5}, seed=2), d
        )
        assert out.n_rows == 15
        # the added rows all exist in the source
        source = set(map(repr, rows(d)))
        assert all(repr(r) in source for r in rows(out)[10:])

    def test_duplicate_fraction_0_05_rounds(self):
        d = random_dataset(np.random.default_rng(2), n_rows=10)
        out = apply_mr(
            MrSpec("M", "d", "duplicate_instances", {"fraction": 0.05}, seed=2), d
        )
        assert out.n_rows == 11  # 0.5 rounds up

    def test_remove_instances(self):
        d = random_dataset(np.random.default_rng(3), n_rows=20)
        out = apply_mr(
            MrSpec("M", "r", "remove_instances", {"fraction": 0.25}, seed=9), d
        )
        assert out.n_rows == 15
        source = list(map(repr, rows(d)))
        for row in rows(out):
            source.remove(repr(row))  # every kept row really came from the source

    def test_remove_class(self):
        d = ibk_row()
        out = apply_mr(MrSpec("M", "rc", "remove_class", {"label": "0"}), d)
        assert all(r[out.class_index] != "0" for r in rows(out))
        assert out.n_rows == 1
        assert "0" not in out.attributes[out.class_index].values

    def test_remove_class_absent_label(self):
        d = ibk_row()
        with pytest.raises(ApplicabilityError):
            apply_mr(MrSpec("M", "rc", "remove_class", {"label": "zz"}), d)

    def test_relabel_classes(self):
        d = make_dataset({"x": [1, 2], "cls": ["a", "b"]}, class_name="cls")
        out = apply_mr(MrSpec("M", "rl", "relabel_classes", {"map": "a:b,b:a"}), d)
        assert [r[1] for r in rows(out)] == ["b", "a"]
        assert out.attributes[1].values == ("a", "b")

    def test_relabel_requires_permutation(self):
        d = make_dataset({"x": [1, 2], "cls": ["a", "b"]}, class_name="cls")
        with pytest.raises(ApplicabilityError):
            apply_mr(MrSpec("M", "rl", "relabel_classes", {"map": "a:a,b:a"}), d)

    def test_add_data_points_within_ranges(self):
        d = ibk_row()
        out = apply_mr(MrSpec("M", "ad", "add_data_points", {"count": 50}, seed=4), d)
        assert out.n_rows == 52
        for row in rows(out)[2:]:
            assert 12.0 <= row[0] <= 45.0
            assert 16.0 <= row[1] <= 99.0
            assert row[4] in ("0", "2", "1", "3", "4")

    def test_add_data_points_draws_row_by_row(self):
        # the stream a seed gives: each row, each attribute in turn
        d = random_dataset(np.random.default_rng(6), n_rows=40, n_attrs=6, missing=0.1)
        out = apply_mr(MrSpec("M", "ad", "add_data_points", {"count": 30}, seed=9), d)
        rng = np.random.default_rng(9)
        ranges = [(np.nanmin(c), np.nanmax(c)) if a.is_numeric else len(a.values)
                  for a, c in zip(d.attributes, d.columns)]
        drawn = [[rng.uniform(*r) if isinstance(r, tuple) else rng.integers(r) for r in ranges]
                 for _ in range(30)]
        for column, new, cells in zip(out.columns, zip(*drawn), d.columns):
            expected = np.concatenate([cells, np.array(new, dtype=cells.dtype)])
            assert column.dtype == cells.dtype
            assert column.tobytes() == expected.tobytes()

    def test_add_data_points_holds_its_draws_in_columns(self):
        d = random_dataset(np.random.default_rng(7), n_rows=50, n_attrs=6)
        count = 10_000
        mr = MrSpec("M", "ad", "add_data_points", {"count": count}, seed=1)
        tracemalloc.start()
        try:
            apply_mr(mr, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the follow-up's 8 bytes a cell and the drawn arrays, not a Python
        # object per cell
        per_cell = peak / (count * len(d.attributes))
        assert per_cell < 3 * 8, per_cell

    def test_seeded_transforms_are_deterministic(self):
        d = random_dataset(np.random.default_rng(4), n_rows=30)
        for transform, params in [
            ("permute_instances", {}),
            ("duplicate_instances", {"fraction": 0.3}),
            ("remove_instances", {"fraction": 0.3}),
            ("add_data_points", {"count": 10}),
        ]:
            mr = MrSpec("M", transform, transform, params, seed=77)
            assert rows(apply_mr(mr, d)) == rows(apply_mr(mr, d))

    def test_seed_changes_output(self):
        d = random_dataset(np.random.default_rng(5), n_rows=30)
        a = apply_mr(MrSpec("M", "p", "permute_instances", seed=1), d)
        b = apply_mr(MrSpec("M", "p", "permute_instances", seed=2), d)
        assert rows(a) != rows(b)

    def test_class_required(self):
        d = make_dataset({"x": [1, 2]})
        for transform, params in [
            ("remove_class", {"label": "a"}),
            ("relabel_classes", {"map": "a:a"}),
            ("add_informative_attribute", {"map": "a:1"}),
        ]:
            with pytest.raises(ApplicabilityError):
                apply_mr(MrSpec("M", "t", transform, params), d)

    def test_missing_seed_rejected(self):
        d = make_dataset({"x": [1, 2]})
        with pytest.raises(InputError):
            apply_mr(MrSpec("M", "p", "permute_instances"), d)

    def test_unknown_transform_rejected(self):
        with pytest.raises(InputError, match="^unknown transform 'frobnicate'$"):
            MrSpec("M", "x", "frobnicate")


# (transform, params, seed, message): a spec that misses its seed, misses a
# required parameter or holds an out-of-range value
SPEC_FAULTS = [
    ("permute_attributes", {}, None, "permute_attributes needs either perm= or seed="),
    ("permute_attributes", {"perm": "1,x"}, None,
     "parameter 'perm' expects comma-separated integers"),
    ("permute_instances", {}, None, "transform 'permute_instances' is randomized and needs seed="),
    ("affine_numeric", {}, None, "affine_numeric needs scale= or shift="),
    ("affine_numeric", {"scale": 0.0, "shift": 1.0}, None, "affine_numeric scale must be nonzero"),
    ("add_uninformative_attribute", {}, None, "add_uninformative_attribute needs value="),
    ("add_informative_attribute", {}, None, "add_informative_attribute needs map="),
    ("add_informative_attribute", {"map": "a:1,b"}, None, "map entry 'b' must look like old:new"),
    ("duplicate_instances", {"fraction": 0.5}, None,
     "transform 'duplicate_instances' is randomized and needs seed="),
    ("duplicate_instances", {}, 1, "duplicate_instances needs fraction="),
    ("duplicate_instances", {"fraction": 0.0}, 1,
     "duplicate_instances fraction must be in (0, 1], got 0.0"),
    ("remove_instances", {}, None, "transform 'remove_instances' is randomized and needs seed="),
    ("remove_instances", {"name": "x"}, 1, "remove_instances needs fraction="),
    ("remove_instances", {"fraction": 1.5}, 1,
     "remove_instances fraction must be in (0, 1], got 1.5"),
    ("remove_class", {"value": "a"}, None, "remove_class needs label="),
    ("relabel_classes", {}, None, "relabel_classes needs map="),
    ("relabel_classes", {"map": "a:b,a:c"}, None, "map repeats key 'a'"),
    ("add_data_points", {"count": 3}, None,
     "transform 'add_data_points' is randomized and needs seed="),
    ("add_data_points", {}, 2, "add_data_points needs count="),
    ("add_data_points", {"count": 0}, 2, "add_data_points count must be >= 1, got 0"),
    ("permute_instances", {}, -1, "seed must be >= 0, got -1"),
    ("add_data_points", {"count": 3}, -2, "seed must be >= 0, got -2"),
]


@pytest.mark.parametrize("mr, validations", [
    (MrSpec("M", "scale", "affine_numeric", {"scale": 2.0}), 1),
    (MrSpec("M", "shuffle", "permute_instances", seed=3), 1),
    (MrSpec("M", "ident", "identity"), 0),   # the source, validated already
])
def test_apply_mr_validates_the_followup_once(monkeypatch, mr, validations):
    from mrprior.dataset import Dataset

    source = ibk_row()
    calls = []
    original = Dataset.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(Dataset, "__post_init__", counting)
    out = apply_mr(mr, source)
    assert len(calls) == validations
    assert out.name == "fixture#M" and source.name == "fixture"
    assert out is not source


def test_spec_faults_cover_every_transform_that_can_fail():
    assert {t for t, *_ in SPEC_FAULTS} == set(TRANSFORMS) - {"identity"}


@pytest.mark.parametrize("transform, params, seed, message", SPEC_FAULTS)
def test_spec_fault_raised_when_made_and_cited_by_line(tmp_path, transform, params, seed,
                                                        message):
    with pytest.raises(InputError) as made:
        MrSpec("MR2", "b", transform, params, seed)
    assert str(made.value) == message
    words = [f"{k}={v}" for k, v in params.items()] + ([] if seed is None else [f"seed={seed}"])
    p = tmp_path / "cat.txt"
    p.write_text(f"MR1 a identity\nMR2 b {transform} {' '.join(words)}\n")
    with pytest.raises(InputError) as loaded:
        load_catalog(str(p))
    assert str(loaded.value) == f"{p}: line 2: {message}"


# (transform, params, seed, message): text values, as a catalog line gives
# them, made into a spec in code
TEXT_FAULTS = [
    ("affine_numeric", {"scale": "0"}, None, "affine_numeric scale must be nonzero"),
    ("remove_instances", {"fraction": "2"}, 1,
     "remove_instances fraction must be in (0, 1], got 2.0"),
    ("remove_instances", {"fraction": "half"}, 1,
     "parameter 'fraction' expects a number, got 'half'"),
    ("add_data_points", {"count": "0"}, 1, "add_data_points count must be >= 1, got 0"),
    ("add_data_points", {"count": "3.5"}, 1, "parameter 'count' expects an integer, got '3.5'"),
    ("permute_instances", {}, "-1", "seed must be >= 0, got -1"),
    ("permute_instances", {}, "x", "parameter 'seed' expects an integer, got 'x'"),
]


@pytest.mark.parametrize("transform, params, seed, message", TEXT_FAULTS)
def test_text_parameter_fault_raised_as_for_a_catalog_line(tmp_path, transform, params, seed,
                                                           message):
    with pytest.raises(InputError) as made:
        MrSpec("MR1", "a", transform, params, seed)
    assert str(made.value) == message
    words = [f"{k}={v}" for k, v in params.items()] + ([] if seed is None else [f"seed={seed}"])
    p = tmp_path / "cat.txt"
    p.write_text(f"MR1 a {transform} {' '.join(words)}\n")
    with pytest.raises(InputError) as loaded:
        load_catalog(str(p))
    assert str(loaded.value) == f"{p}: line 1: {message}"


@pytest.mark.parametrize("transform, text, typed, seed", [
    ("remove_instances", {"fraction": "0.5"}, {"fraction": 0.5}, "1"),
    ("add_data_points", {"count": "3"}, {"count": 3}, "4"),
    ("affine_numeric", {"scale": "2", "shift": "-1.5", "columns": "x"},
     {"scale": 2.0, "shift": -1.5, "columns": "x"}, None),
])
def test_text_parameters_make_the_spec_a_catalog_line_makes(tmp_path, transform, text, typed,
                                                            seed):
    made = MrSpec("MR1", "a", transform, text, seed)
    assert made == MrSpec("MR1", "a", transform, typed, None if seed is None else int(seed))
    words = [f"{k}={v}" for k, v in text.items()] + ([] if seed is None else [f"seed={seed}"])
    p = tmp_path / "cat.txt"
    p.write_text(f"MR1 a {transform} {' '.join(words)}\n")
    assert load_catalog(str(p)) == [made]


# values given in code: an integer parameter takes an int (a numpy integer
# too), not a float or a bool; a number parameter takes a finite real number,
# not a bool.  Each fault gets the message a catalog line's text gets.
TYPE_FAULTS = [
    ("add_data_points", {"count": 2.5}, 1, "parameter 'count' expects an integer, got 2.5"),
    ("add_data_points", {"count": True}, 1, "parameter 'count' expects an integer, got True"),
    ("permute_instances", {}, 1.5, "parameter 'seed' expects an integer, got 1.5"),
    ("permute_instances", {}, False, "parameter 'seed' expects an integer, got False"),
    ("remove_instances", {"fraction": True}, 1, "parameter 'fraction' expects a number, got True"),
    ("affine_numeric", {"scale": True}, None, "parameter 'scale' expects a number, got True"),
    ("affine_numeric", {"shift": float("nan")}, None,
     "parameter 'shift' expects a number, got nan"),
    ("affine_numeric", {"shift": [1]}, None, "parameter 'shift' expects a number, got [1]"),
]


@pytest.mark.parametrize("transform, params, seed, message", TYPE_FAULTS)
def test_mistyped_parameter_value_raised_as_for_a_catalog_line(transform, params, seed, message):
    with pytest.raises(InputError) as made:
        MrSpec("MR1", "a", transform, params, seed)
    assert str(made.value) == message


def test_numpy_integers_make_int_parameters():
    made = MrSpec("MR1", "a", "add_data_points", {"count": np.int64(3)}, np.uint8(4))
    assert made == MrSpec("MR1", "a", "add_data_points", {"count": 3}, 4)
    assert type(made.params["count"]) is int and type(made.seed) is int


CATALOG_OK = """\
# example catalog
MR1 "Keep as is"      identity
MR2 "Reverse columns" permute_attributes perm=3,2,1,0
MR3 "Shuffle rows"    permute_instances seed=11
MR4 "Double"          affine_numeric scale=2 shift=0
MR5 "Add noise rows"  add_data_points count=5 seed=3
"""


class TestCatalogFile:
    def test_parses_in_order(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text(CATALOG_OK)
        specs = load_catalog(str(p))
        assert [s.id for s in specs] == ["MR1", "MR2", "MR3", "MR4", "MR5"]
        assert specs[1].name == "Reverse columns"
        assert specs[3].params == {"scale": 2.0, "shift": 0.0}
        assert specs[4].seed == 3

    def test_duplicate_id_cites_line(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text("MR1 a identity\nMR1 b identity\n")
        with pytest.raises(InputError, match="line 2"):
            load_catalog(str(p))

    def test_unknown_transform_is_a_lines_first_error(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text("MR1 a warp foo\n")
        with pytest.raises(InputError) as exc:
            load_catalog(str(p))
        assert str(exc.value) == f"{p}: line 1: unknown transform 'warp'"

    def test_empty_id_cites_line(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text('MR1 a identity\n"" b identity\n')
        with pytest.raises(InputError) as exc:
            load_catalog(str(p))
        assert str(exc.value) == f"{p}: line 2: MR id must be non-empty"

    def test_unknown_transform_cites_line(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text("MR1 a identity\nMR2 b warp\n")
        with pytest.raises(InputError, match="line 2"):
            load_catalog(str(p))

    def test_missing_seed_cites_line(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text("MR1 a permute_instances\n")
        with pytest.raises(InputError, match="line 1"):
            load_catalog(str(p))

    def test_zero_scale_rejected(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text("MR1 a affine_numeric scale=0\n")
        with pytest.raises(InputError, match="line 1"):
            load_catalog(str(p))

    def test_fraction_out_of_range(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text("MR1 a remove_instances fraction=1.5 seed=1\n")
        with pytest.raises(InputError, match="line 1"):
            load_catalog(str(p))

    def test_short_line_rejected(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text("MR1 identity\n")
        with pytest.raises(InputError, match="line 1"):
            load_catalog(str(p))

    def test_empty_catalog_rejected(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text("# nothing here\n")
        with pytest.raises(InputError):
            load_catalog(str(p))


class TestPairs:
    def test_build_pairs_order_and_recomputability(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text(CATALOG_OK)
        d = ibk_row()
        pairs = list(build_pairs(load_catalog(str(p)), d))
        assert [pair.mr.id for pair in pairs] == ["MR1", "MR2", "MR3", "MR4", "MR5"]
        assert all(pair.source is d for pair in pairs)
        # applying again reproduces each follow-up
        for pair in pairs:
            assert rows(apply_mr(pair.mr, d)) == rows(pair.followup)

    def test_build_pairs_collects_failures(self, tmp_path):
        p = tmp_path / "cat.txt"
        p.write_text('MR1 a identity\nMR2 b remove_class label=zz\n')
        with pytest.raises(ApplicabilityError, match="MR2"):
            list(build_pairs(load_catalog(str(p)), ibk_row()))

    def test_pair_from_files(self):
        d = ibk_row()
        f = apply_mr(MrSpec("X", "x", "identity"), d)
        pair = pair_from_files("EXT1", "external pair", d, f)
        with pytest.raises(ApplicabilityError):
            apply_mr(pair.mr, d)


NUMERIC_CLASS = {"x": [1.0, 2.0], "y": [0.0, 1.0]}
NOMINAL_ONLY = {"c": ["a", "b"], "cls": ["p", "q"]}
ONE_CLASS = {"x": [1.0, 2.0], "cls": ["p", "p"]}
TAKEN_NAMES = {"uninformative": [1.0, 2.0], "uninformative2": [3.0, 4.0], "cls": ["p", "q"]}


@pytest.mark.parametrize("columns, line, expected", [
    (ONE_CLASS, "MR1 a identity scale", "{path}: line 1: expected key=value, got 'scale'"),
    (ONE_CLASS, "MR1 a identity =2", "{path}: line 1: empty parameter name in '=2'"),
    (ONE_CLASS, "MR1 a affine_numeric scale=2 scale=3",
     "{path}: line 1: duplicate parameter 'scale'"),
    (NUMERIC_CLASS, "MR1 a relabel_classes map=0:1,1:0",
     "MR MR1: class attribute is not nominal"),
    (ONE_CLASS, "MR1 a affine_numeric columns=z scale=2", "MR MR1: no attribute named 'z'"),
    (NOMINAL_ONLY, "MR1 a affine_numeric scale=2", "MR MR1: no numeric attributes to transform"),
    (ONE_CLASS, "MR1 a remove_class label=p", "MR MR1: cannot remove the only class value"),
    # a second taken name: the follow-up's attributes
    (TAKEN_NAMES, "MR1 a add_uninformative_attribute value=1",
     "uninformative,uninformative2,uninformative3,cls"),
    # only an optional "-" and ASCII digits make an index
    (ONE_CLASS, "MR1 a affine_numeric columns=--1 scale=2", "MR MR1: no attribute named '--1'"),
    (ONE_CLASS, "MR1 a affine_numeric columns=\u00b2 scale=2", "MR MR1: no attribute named '\u00b2'"),
])
def test_catalog_messages(tmp_path, columns, line, expected):
    """The exact error of a catalog line, or the follow-up's attribute names."""
    path = tmp_path / "catalog.txt"
    path.write_text(line + "\n", encoding="utf-8")
    class_name = "cls" if "cls" in columns else "y"
    source = make_dataset(columns, class_name=class_name)
    try:
        followup = apply_mr(load_catalog(str(path))[0], source)
    except (InputError, ApplicabilityError) as exc:
        outcome = str(exc)
    else:
        outcome = ",".join(a.name for a in followup.attributes)
    assert outcome == expected.format(path=path)
