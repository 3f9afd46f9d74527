import math
import tracemalloc

import numpy as np
import pytest

from mrprior import dataset
from mrprior import (
    ApplicabilityError,
    Attribute,
    Dataset,
    InputError,
    MrSpec,
    apply_mr,
    load_arff,
    load_csv,
    numeric_view,
    save_arff,
    save_csv,
)

from conftest import from_rows, make_dataset, rows


class TestDatasetModel:
    def test_rejects_duplicate_attribute_names(self):
        with pytest.raises(InputError):
            Dataset("d", (Attribute("x"), Attribute("x")), ((), ()), None)

    def test_rejects_ragged_rows(self):
        with pytest.raises(InputError, match="unequal lengths"):
            Dataset("d", (Attribute("x"), Attribute("y")), ([1.0, 2.0], [1.0]), None)

    def test_rejects_value_outside_value_set(self):
        for code in (2, -2):
            with pytest.raises(InputError, match=f"row 1, column 'c': code {code} not in"):
                Dataset("d", (Attribute("c", ("a", "b")),), ([0, code],), 0)

    def test_rejects_non_finite_numeric_cell(self):
        for cell in (math.inf, -math.inf):
            with pytest.raises(InputError, match=f"row 1, column 'x': .* got {cell!r}$"):
                Dataset("d", (Attribute("x"),), ([1.0, cell],), None)

    def test_reports_first_bad_cell_in_row_order(self):
        with pytest.raises(InputError, match="row 1, column 'y'"):
            Dataset("d", (Attribute("x"), Attribute("y")),
                     ([0.0, 0.0, math.inf], [0.0, math.inf, 0.0]), None)

    def test_rejects_wrong_column_count(self):
        with pytest.raises(InputError, match="1 columns, expected 2"):
            Dataset("d", (Attribute("x"), Attribute("y")), ([1.0],), None)

    def test_rejects_empty_value_set(self):
        with pytest.raises(InputError):
            Attribute("c", ())

    def test_rejects_out_of_range_class_index(self):
        with pytest.raises(InputError):
            Dataset("d", (Attribute("x"),), ((),), 3)

    def test_columns_are_read_only_copies(self):
        x = np.array([1.0, np.nan])
        codes = np.array([1, -1])
        d = Dataset("d", (Attribute("x"), Attribute("c", ("a", "b"))), (x, codes), None)
        for column in d.columns:
            with pytest.raises(ValueError):
                column[0] = 0
        x[0] = 5.0
        codes[1] = 0
        assert rows(d) == ((1.0, "b"), (None, None))

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        x = np.array([1.0, 2.0])
        view = x[:]
        view.flags.writeable = False
        d = Dataset("d", (Attribute("x"),), (view,), None)
        assert not np.shares_memory(d.columns[0], x)
        x[0] = 5.0
        assert rows(d) == ((1.0,), (2.0,))

    def test_read_only_arrays_are_shared(self):
        x = np.array([1.0, 2.0])
        x.flags.writeable = False
        d = Dataset("d", (Attribute("x"),), (x,), None)
        assert d.columns[0] is x
        shuffled = apply_mr(MrSpec("MR1", "swap", "permute_attributes", {"perm": "0"}), d)
        assert shuffled.columns[0] is x


class TestCsv:
    def test_kind_inference(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("num,mixed,label\n1,1,yes\n2.5,x,no\n3,2,yes\n")
        d = load_csv(str(p), class_column="label")
        assert d.attributes[0].is_numeric
        assert d.attributes[1].values == ("1", "x", "2")
        assert d.attributes[2].values == ("yes", "no")
        assert d.class_index == 2
        assert rows(d)[1] == (2.5, "x", "no")

    def test_missing_tokens(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n?,1\n,2\n3,?\n")
        d = load_csv(str(p))
        assert rows(d)[0][0] is None
        assert rows(d)[1][0] is None
        assert rows(d)[2][1] is None
        assert d.attributes[0].is_numeric  # '?' cells do not block inference

    def test_no_header_names(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,a\n2,b\n")
        d = load_csv(str(p), header=False)
        assert [a.name for a in d.attributes] == ["c0", "c1"]
        assert d.n_rows == 2

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(str(p))

    @pytest.mark.parametrize(
        "text, header, line",
        [
            ("a,b\n\n1,2\n\n3\n", True, 5),
            ("a,b\n\n1,2\n\n3\n", False, 5),
            ('a,b\n"x\ny"\n\n3,4\n', True, 2),   # a record on lines 2-3 cites its first
        ],
        ids=["blank-lines", "blank-lines-no-header", "quoted-newline"],
    )
    def test_ragged_row_cites_its_file_line(self, tmp_path, text, header, line):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(InputError) as exc:
            load_csv(str(p), header=header)
        assert str(exc.value) == f"{p}: line {line}: expected 2 fields, got 1"

    @pytest.mark.parametrize(
        "text, line, column",
        [("a,,c\n1,2,3\n", 1, 2), ("\nx, \n1,2\n", 2, 2), (",b\n1,2\n", 1, 1)],
        ids=["middle", "after-blank-line", "first"],
    )
    def test_empty_header_name_cites_line_and_column(self, tmp_path, text, line, column):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(InputError) as exc:
            load_csv(str(p))
        assert str(exc.value) == f"{p}: line {line}: column {column} has an empty name"

    @pytest.mark.parametrize("head, class_column", [
        ("a,,c\n", None),
        ("a,a,c\n", None),
        ("a,b,c\n1,2\n", None),
        ("a,b,c\n", "nope"),
    ], ids=["empty-name", "duplicate-name", "ragged", "class-column"])
    def test_an_unreadable_line_later_in_the_file_wins(self, tmp_path, head, class_column):
        # far past the first chunk the reader decodes, and past several blocks
        p = tmp_path / "t.csv"
        p.write_bytes(head.encode() + b"1,2,3\n" * 20_000 + b"4,\xff,6\n")
        with pytest.raises(InputError, match=f"^cannot read {p}: 'utf-8' codec"):
            load_csv(str(p), class_column=class_column)

    @pytest.mark.parametrize("cells", [
        lambda rng, n: [repr(v) for v in rng.normal(0, 1e3, n).tolist()],
        lambda rng, n: [str(v) for v in rng.integers(-99, 99, n).tolist()],
    ], ids=["floats", "integers"])
    def test_memory_is_the_columns_and_one_block(self, tmp_path, cells):
        rng = np.random.default_rng(4)
        n_rows, n_cols = 20_000, 5
        columns = [cells(rng, n_rows) for _ in range(n_cols)]
        p = tmp_path / "t.csv"
        p.write_text(",".join(f"x{j}" for j in range(n_cols)) + "\n"
                     + "".join(",".join(r) + "\n" for r in zip(*columns)))
        del columns
        tracemalloc.start()
        try:
            d = load_csv(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(c.nbytes for c in d.columns)
        assert all(a.is_numeric for a in d.attributes) and nbytes == n_rows * n_cols * 8
        assert peak < 3 * nbytes

    def test_unknown_class_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="nope"):
            load_csv(str(p), class_column="nope")

    def test_leading_bom_is_skipped(self, tmp_path):
        text = "x,label\n1.5,yes\n?,no\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        d1 = load_csv(str(plain), class_column="x")
        d2 = load_csv(str(bom), class_column="x")   # "x", not "\ufeffx"
        assert [a.name for a in d2.attributes] == ["x", "label"]
        assert d2.attributes == d1.attributes
        assert rows(d2) == rows(d1)

    @pytest.mark.parametrize("class_column", ["cls", 1])
    def test_numeric_labels_make_a_nominal_class(self, tmp_path, class_column):
        p = tmp_path / "t.csv"
        p.write_text("x,cls\n0.5,1\n2,0\n3,?\n4,1\n")
        d = load_csv(str(p), class_column=class_column)
        assert d.attributes[0].is_numeric   # only the class column is made nominal
        assert d.attributes[1].values == ("1", "0")   # first-appearance order
        assert rows(d) == ((0.5, "1"), (2.0, "0"), (3.0, None), (4.0, "1"))

    def test_class_column_without_labels_stays_numeric(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,cls\n1,?\n2,\n")
        d = load_csv(str(p), class_column="cls")
        assert d.attributes[1].is_numeric
        assert d.class_index == 1

    def test_numeric_labels_feed_the_class_transforms(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,cls\n" + "".join(f"{i},{i % 2}\n" for i in range(8)))
        d = load_csv(str(p), class_column="cls")
        dropped = apply_mr(MrSpec("MR1", "drop", "remove_class", {"label": 0}), d)
        assert [r[1] for r in rows(dropped)] == ["1"] * 4
        grown = apply_mr(MrSpec("MR2", "grow", "add_data_points", {"count": 3}, seed=1), d)
        assert grown.n_rows == 11
        assert {r[1] for r in rows(grown)} <= {"0", "1"}

    def test_nan_token_is_nominal(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a\nnan\n1\n")
        d = load_csv(str(p))
        assert not d.attributes[0].is_numeric

    def test_round_trip(self, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text(
            "x,y,label\n0.1,a,yes\n2,b,no\n?,a,yes\n-3.25,?,no\n"
        )
        d1 = load_csv(str(src), class_column="label")
        out = tmp_path / "out.csv"
        save_csv(d1, str(out))
        d2 = load_csv(str(out), class_column="label")
        assert [a.name for a in d2.attributes] == [a.name for a in d1.attributes]
        assert [a.values for a in d2.attributes] == [a.values for a in d1.attributes]
        assert d2.class_index == d1.class_index
        assert d2.n_rows == d1.n_rows
        for r1, r2 in zip(rows(d1), rows(d2)):
            for c1, c2 in zip(r1, r2):
                if isinstance(c1, float):
                    assert math.isclose(c1, c2, rel_tol=0, abs_tol=1e-12)
                else:
                    assert c1 == c2

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(11)
        from conftest import random_dataset

        for i in range(10):
            d1 = random_dataset(rng, missing=0.05)
            p = tmp_path / f"r{i}.csv"
            save_csv(d1, str(p))
            d2 = load_csv(str(p), class_column="cls")
            assert [a.values for a in d2.attributes] == [a.values for a in d1.attributes]
            assert rows(d2) == rows(d1)


ARFF_IBK = """% synthetic classifier data
@RELATION profits

@ATTRIBUTE att1 NUMERIC
@ATTRIBUTE att2 numeric
@attribute att3 numeric
@attribute att4 numeric
@attribute profit {0,2,1,3,4}

@DATA
45,16,3,38,0
12,99,?,4,2
"""


class TestArff:
    def test_parses_subset(self, tmp_path):
        p = tmp_path / "t.arff"
        p.write_text(ARFF_IBK)
        d = load_arff(str(p))
        assert d.name == "profits"
        assert len(d.attributes) == 5
        assert d.class_index == 4
        assert d.attributes[4].values == ("0", "2", "1", "3", "4")
        assert rows(d)[0] == (45.0, 16.0, 3.0, 38.0, "0")
        assert rows(d)[1][2] is None

    def test_rejects_string_attribute_with_line(self, tmp_path):
        p = tmp_path / "t.arff"
        p.write_text("@relation r\n@attribute a numeric\n@attribute s string\n@data\n1,x\n")
        with pytest.raises(InputError, match="line 3"):
            load_arff(str(p))

    def test_rejects_date_attribute(self, tmp_path):
        p = tmp_path / "t.arff"
        p.write_text('@relation r\n@attribute d date "yyyy-MM-dd"\n@data\n2021-01-01\n')
        with pytest.raises(InputError, match="line 2"):
            load_arff(str(p))

    def test_rejects_sparse_rows(self, tmp_path):
        p = tmp_path / "t.arff"
        p.write_text("@relation r\n@attribute a numeric\n@data\n{0 1}\n")
        with pytest.raises(InputError, match="line 4"):
            load_arff(str(p))

    def test_rejects_undeclared_nominal_value(self, tmp_path):
        p = tmp_path / "t.arff"
        p.write_text("@relation r\n@attribute c {a,b}\n@data\nz\n")
        with pytest.raises(InputError, match="line 4"):
            load_arff(str(p))

    def test_rejects_wrong_arity(self, tmp_path):
        p = tmp_path / "t.arff"
        p.write_text("@relation r\n@attribute a numeric\n@attribute b numeric\n@data\n1\n")
        with pytest.raises(InputError, match="line 5"):
            load_arff(str(p))

    @pytest.mark.parametrize("text, line", [
        ("@attribute c {a,%s}\n@data\n1,a\n" % ("b" * 200_000), 3),
        ("@attribute c numeric\n@data\n1,%s\n" % ("2" * 200_000), 5),
    ])
    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, text, line):
        p = tmp_path / "t.arff"
        p.write_text("@relation r\n@attribute a numeric\n" + text)
        with pytest.raises(InputError, match=f"line {line}: field larger than field limit"):
            load_arff(str(p))

    @pytest.mark.parametrize("block_rows", [2, 1024])
    @pytest.mark.parametrize("data, line", [
        ("1,a\n2,z\n3\n", 6),      # a bad value before a short line
        ("1,a\nx,z\n", 6),          # two bad cells on one line: the first column's
        ("1,a\n2,a\n3,z\nx,a\n", 7),  # a later line's bad cell in an earlier column
        ("1,a\n2,a\n3,a\n4\n5,z\n", 8),
    ])
    def test_first_bad_line_is_reported(self, tmp_path, monkeypatch, block_rows, data, line):
        monkeypatch.setattr(dataset, "BLOCK_ROWS", block_rows)
        p = tmp_path / "t.arff"
        p.write_text("@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n" + data)
        with pytest.raises(InputError, match=f"^{p}: line {line}: "):
            load_arff(str(p))

    @pytest.mark.parametrize("head", [
        "@attribute s string\n@data\n", "@data\n1,z\n", "@data\n1,a,3\n",
    ], ids=["declaration", "value", "arity"])
    def test_an_unreadable_line_later_in_the_file_wins(self, tmp_path, head):
        p = tmp_path / "t.arff"
        p.write_bytes(b"@relation r\n@attribute x numeric\n@attribute c {a,b}\n"
                      + head.encode() + b"1,a\n" * 20_000 + b"\xff,b\n")
        with pytest.raises(InputError, match=f"^cannot read {p}: 'utf-8' codec"):
            load_arff(str(p))

    def test_missing_data_section(self, tmp_path):
        p = tmp_path / "t.arff"
        p.write_text("@relation r\n@attribute a numeric\n")
        with pytest.raises(InputError, match="@data"):
            load_arff(str(p))

    def test_class_override(self, tmp_path):
        p = tmp_path / "t.arff"
        p.write_text(ARFF_IBK)
        assert load_arff(str(p), class_column=None).class_index is None
        assert load_arff(str(p), class_column="att2").class_index == 1

    def test_writer_output_loads_back(self, tmp_path):
        rng = np.random.default_rng(23)
        from conftest import random_dataset

        for i in range(10):
            d1 = random_dataset(rng, missing=0.05, name=f"rt{i}")
            p = tmp_path / f"w{i}.arff"
            save_arff(d1, str(p))
            d2 = load_arff(str(p), class_column="cls")
            assert [a.values for a in d2.attributes] == [a.values for a in d1.attributes]
            assert d2.n_rows == d1.n_rows
            for r1, r2 in zip(rows(d1), rows(d2)):
                for c1, c2 in zip(r1, r2):
                    if isinstance(c1, float):
                        assert c1 == c2
                    else:
                        assert c1 == c2

    def test_writer_quotes_awkward_names(self, tmp_path):
        d = make_dataset({"a b": [1, 2], "cls": ["x y", "z"]}, class_name="cls")
        p = tmp_path / "q.arff"
        save_arff(d, str(p))
        d2 = load_arff(str(p))
        assert d2.attributes[0].name == "a b"
        assert rows(d2)[0][1] == "x y"


class TestNumericView:
    def test_standardization_example(self):
        d = make_dataset({"x": [0, 10]})
        v = numeric_view(d, standardize=True)
        assert v.matrix[:, 0].tolist() == [-1.0, 1.0]
        assert v.raw[:, 0].tolist() == [0.0, 10.0]

    def test_population_std_and_unit_variance(self):
        rng = np.random.default_rng(3)
        d = make_dataset({"x": list(rng.normal(5, 3, 40)), "y": list(rng.uniform(0, 9, 40))})
        v = numeric_view(d)
        assert abs(v.matrix[:, 0].mean()) < 1e-9
        assert abs(np.sqrt((v.matrix[:, 0] ** 2).mean()) - 1.0) < 1e-9

    def test_imputation_uses_column_mean(self):
        d = make_dataset({"x": [1, None, 3]})
        v = numeric_view(d, standardize=False)
        assert v.matrix[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_imputation_preserves_observed_cells(self):
        d = make_dataset({"x": [1, None, 3], "y": [4, 5, 6]})
        v = numeric_view(d, standardize=False)
        assert v.matrix[0, 0] == 1.0 and v.matrix[2, 0] == 3.0
        assert v.matrix[:, 1].tolist() == [4.0, 5.0, 6.0]

    def test_constant_column_flagged_unscaled(self):
        d = make_dataset({"x": [2, 2, 2], "y": [0, 1, 2]})
        v = numeric_view(d)
        assert v.constant_mask.tolist() == [True, False]
        assert v.matrix[:, 0].tolist() == [2.0, 2.0, 2.0]

    def test_excludes_class_and_nominal(self):
        d = make_dataset({"x": [1, 2], "c": ["a", "b"], "y": [3, 4]}, class_name="y")
        v = numeric_view(d)
        assert v.feature_names == ("x",)

    def test_raw_is_the_unstandardized_matrix(self):
        d = make_dataset({"x": [1, None, 3], "y": [2, 2, 2], "z": [0, 10, 5]})
        unscaled = numeric_view(d, standardize=False)
        assert unscaled.raw is unscaled.matrix
        scaled = numeric_view(d)
        assert scaled.raw.tobytes() == unscaled.matrix.tobytes()
        assert scaled.matrix[:, 2].tolist() != scaled.raw[:, 2].tolist()

    def test_errors(self):
        with pytest.raises(ApplicabilityError):
            numeric_view(make_dataset({"c": ["a", "b"]}))
        with pytest.raises(ApplicabilityError):
            numeric_view(make_dataset({"x": [None, None]}))
        with pytest.raises(ApplicabilityError):
            numeric_view(from_rows("d", (Attribute("x"),), ()))

    def test_row_count_matches(self):
        rng = np.random.default_rng(5)
        from conftest import random_dataset

        for _ in range(5):
            d = random_dataset(rng, missing=0.1)
            if not d.numeric_indices():
                continue
            assert numeric_view(d).n_rows == d.n_rows


@pytest.mark.parametrize("make, expected", [
    (lambda: Attribute(""), "attribute name must be non-empty"),
    (lambda: Attribute("a", ("v", "v")), "attribute 'a': duplicate nominal values"),
    (lambda: Dataset("d", (), ()), "dataset 'd': needs at least one attribute"),
    ("@relation r\n@relation s\n", "{path}: line 2: duplicate @relation"),
    ("@relation r\n@data\n1\n", "{path}: line 2: @data before any @attribute"),
    ("@relation r\n@foo bar\n", "{path}: line 2: unrecognized declaration '@foo bar'"),
    ("@relation r\n@attribute x\n", "{path}: line 2: malformed @attribute"),
    ("@relation r\n@attribute c {}\n", "{path}: line 2: empty nominal value-set"),
    ("@relation r\n@attribute c {a,a}\n", "{path}: line 2: duplicate nominal values"),
    # comment and blank lines inside @data are skipped
    ("@relation r\n@attribute x numeric\n@data\n1\n% note\n\n2\n", "rows [1.0, 2.0]"),
])
def test_dataset_messages(tmp_path, make, expected):
    """The exact error of a model or ARFF input, or the rows it loads."""
    path = tmp_path / "d.arff"
    try:
        if isinstance(make, str):
            path.write_text(make)
            loaded = load_arff(str(path))
        else:
            loaded = make()
    except InputError as exc:
        outcome = str(exc)
    else:
        outcome = f"rows {loaded.columns[0].tolist()}"
    assert outcome == expected.format(path=path)
