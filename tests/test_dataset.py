import math

import numpy as np
import pytest

from mrprior import (
    ApplicabilityError,
    Attribute,
    Dataset,
    InputError,
    load_arff,
    load_csv,
    numeric_view,
    save_arff,
    save_csv,
)

from conftest import from_rows, make_dataset


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
        assert d.rows == ((1.0, "b"), (None, None))


class TestCsv:
    def test_kind_inference(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("num,mixed,label\n1,1,yes\n2.5,x,no\n3,2,yes\n")
        d = load_csv(str(p), class_column="label")
        assert d.attributes[0].is_numeric
        assert d.attributes[1].values == ("1", "x", "2")
        assert d.attributes[2].values == ("yes", "no")
        assert d.class_index == 2
        assert d.rows[1] == (2.5, "x", "no")

    def test_missing_tokens(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n?,1\n,2\n3,?\n")
        d = load_csv(str(p))
        assert d.rows[0][0] is None
        assert d.rows[1][0] is None
        assert d.rows[2][1] is None
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

    def test_unknown_class_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="nope"):
            load_csv(str(p), class_column="nope")

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
        for r1, r2 in zip(d1.rows, d2.rows):
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
            assert d2.rows == d1.rows


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
        assert d.rows[0] == (45.0, 16.0, 3.0, 38.0, "0")
        assert d.rows[1][2] is None

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
            for r1, r2 in zip(d1.rows, d2.rows):
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
        assert d2.rows[0][1] == "x y"


class TestNumericView:
    def test_standardization_example(self):
        d = make_dataset({"x": [0, 10]})
        v = numeric_view(d, standardize=True)
        assert v.matrix[:, 0].tolist() == [-1.0, 1.0]
        assert v.means[0] == 5.0
        assert v.stds[0] == 5.0

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
