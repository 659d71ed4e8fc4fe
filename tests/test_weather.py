import numpy as np
import pytest

from qweather import weather
from qweather.weather import (
    REFERENCE_CORRELATIONS,
    CorrelationReport,
    DataFormatError,
    Dataset,
    DegenerateScaleError,
    EmptyDatasetError,
    EmptySelectionError,
    UndefinedCorrelationError,
    bin_target,
    correlation_report,
    load_csv,
    pearson,
    save_csv,
    scale,
    select_features,
    synth_generate,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_well_formed(tmp_path):
    p = write(
        tmp_path / "ok.csv",
        "time,t2m,sp\n"
        "2020-01-01,290.5,101000\n"
        "2020-02-01,291.0,100900\n"
        "2020-03-01,295.25,100800\n",
    )
    ds, report = load_csv(p)
    assert ds.n_rows == 3
    assert set(ds.columns) == {"t2m", "sp"}
    assert report.rows_read == 3 and report.rows_dropped == 0
    assert np.allclose(ds.columns["t2m"], [290.5, 291.0, 295.25])
    assert report.as_dict()["columns"] == ["t2m", "sp"]


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
    p = write(tmp_path / "bom.csv", "\ufefftime,t2m,sp\n2020-01-01,290.5,101000\n")
    ds, report = load_csv(p)
    assert report.as_dict()["columns"] == ["t2m", "sp"]
    assert ds.time == ("2020-01-01",)


def test_load_csv_rejects_text_that_is_not_utf8(tmp_path):
    # a Latin-1 export writes the degree sign as the lone byte 0xb0
    p = tmp_path / "latin1.csv"
    p.write_bytes("time,t2m,unit\n2020-01,290.5,\u00b0K\n".encode("latin-1"))
    with pytest.raises(DataFormatError, match="latin1.csv is not UTF-8 text"):
        load_csv(p)


def test_load_csv_drops_incomplete_rows(tmp_path):
    p = write(
        tmp_path / "gap.csv",
        "time,t2m,sp\n"
        "2020-01-01,290.5,101000\n"
        "2020-02-01,,100900\n"
        "2020-03-01,nan,100800\n"
        "2020-04-01,292.0,100700\n",
    )
    ds, report = load_csv(p)
    assert ds.n_rows == 2
    assert report.rows_dropped == 2
    assert np.all(np.isfinite(ds.columns["t2m"]))


@pytest.mark.parametrize("text", ["  ,289.0\n2020-01,290.0\n", "2020-01,290.0\n,289.0\n"])
def test_load_csv_drops_a_blank_time_cell(tmp_path, text):
    # first or later in the file, a row with no time is dropped and counted,
    # not kept as time '' or taken for a timestamp out of order
    p = write(tmp_path / "blank.csv", "time,t2m\n" + text + "2020-02,291.0\n")
    ds, report = load_csv(p)
    assert ds.time == ("2020-01", "2020-02")
    assert report.rows_read == 3 and report.rows_dropped == 1


def test_load_csv_requires_time_column(tmp_path):
    p = write(tmp_path / "bad.csv", "date,t2m\n2020-01-01,290.0\n")
    with pytest.raises(DataFormatError):
        load_csv(p)


def test_load_csv_rejects_timestamps_out_of_order(tmp_path):
    for name, times in [("swap", ("2020-02", "2020-01")), ("repeat", ("2020-01",) * 2)]:
        p = write(
            tmp_path / f"{name}.csv",
            f"time,t2m,sp\n2019-12,290.0,1\n{times[0]},291.0,2\n{times[1]},292.0,3\n",
        )
        with pytest.raises(DataFormatError, match=f"line 4: timestamp '{times[1]}'"):
            load_csv(p)


def test_load_csv_orders_only_kept_rows(tmp_path):
    # a dropped row's timestamp takes no part in the ordering check
    p = write(
        tmp_path / "gap.csv", "time,t2m\n2020-01,290.0\n2020-03,\n2020-02,291.0\n"
    )
    ds, report = load_csv(p)
    assert ds.time == ("2020-01", "2020-02")
    assert report.rows_dropped == 1


def test_load_csv_rejects_repeated_column(tmp_path):
    p = write(tmp_path / "dup.csv", "time,t2m,t2m,skt\n2020-01,290.0,291.0,1.0\n")
    with pytest.raises(DataFormatError, match="column 't2m' appears more than once"):
        load_csv(p)


@pytest.mark.parametrize(
    "header,column", [("time,,t2m", 2), ("time, ,t2m", 2), ("time,t2m,", 3)]
)
def test_load_csv_rejects_unnamed_column(tmp_path, header, column):
    p = write(tmp_path / "unnamed.csv", header + "\n2020-01,1.0,290.0\n")
    with pytest.raises(DataFormatError, match=f"column {column} has no name"):
        load_csv(p)


def test_load_csv_requires_target_column(tmp_path):
    p = write(tmp_path / "notarget.csv", "time,skt,sp\n2020-01,290.0,1.0\n")
    with pytest.raises(DataFormatError, match="missing 't2m' column"):
        load_csv(p)
    ds, _ = load_csv(p, target_name="skt")
    assert ds.target_name == "skt"


def test_load_csv_empty_dataset(tmp_path):
    p = write(tmp_path / "empty.csv", "time,t2m\n2020-01-01,\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(p)


def test_pearson_known_values():
    x = np.array([1.0, 2.0, 3.0])
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -2 * x + 5) == pytest.approx(-1.0, abs=1e-12)
    r = pearson(x, np.array([1.0, 2.0, 4.0]))
    assert r == pytest.approx(9 / (2 * np.sqrt(21)), abs=1e-12)


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(101)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)
    assert pearson(3.5 * x + 2, y) == pytest.approx(pearson(x, y), abs=1e-10)
    assert pearson(-x, y) == pytest.approx(-pearson(x, y), abs=1e-10)


def test_pearson_errors():
    with pytest.raises(UndefinedCorrelationError):
        pearson(np.ones(5), np.arange(5.0))
    with pytest.raises(ValueError):
        pearson(np.arange(3.0), np.arange(4.0))


def test_correlation_report_target_is_one():
    ds = synth_generate(seed=3, n_months=120)
    report = correlation_report(ds)
    assert report.correlations["t2m"] == pytest.approx(1.0, abs=1e-12)
    assert all(-1 <= r <= 1 for r in report.correlations.values())


def test_reference_selection_at_published_thresholds():
    report = CorrelationReport("t2m", dict(REFERENCE_CORRELATIONS, t2m=1.0))
    assert select_features(report, threshold=0.8) == ["skt", "sp", "tsr"]
    assert select_features(report, threshold=0.78) == ["skt", "sp", "tsr", "ssrdc"]
    with pytest.raises(EmptySelectionError):
        select_features(report, threshold=1.1)


def test_select_features_top_k_and_tie_order():
    report = CorrelationReport(
        "t", {"b": -0.5, "a": 0.5, "c": 0.9, "t": 1.0}
    )
    # equal |r| resolves alphabetically
    assert select_features(report, top_k=3) == ["c", "a", "b"]
    assert select_features(report, threshold=0.5) == ["c", "a", "b"]
    with pytest.raises(ValueError):
        select_features(report)
    with pytest.raises(ValueError):
        select_features(report, threshold=0.5, top_k=2)


def test_top_k_beyond_the_ranking_names_both_numbers():
    report = CorrelationReport("t", {"b": -0.5, "a": 0.5, "c": 0.9, "t": 1.0})
    assert select_features(report, top_k=3) == ["c", "a", "b"]
    with pytest.raises(ValueError, match=r"top_k=4 exceeds the 3 ranked features"):
        select_features(report, top_k=4)


def test_empty_selection_names_the_rule_given():
    # a report holding only the target has no feature to rank
    report = CorrelationReport("t", {"t": 1.0})
    with pytest.raises(EmptySelectionError, match="top_k=2"):
        select_features(report, top_k=2)
    with pytest.raises(EmptySelectionError, match="threshold 0.5"):
        select_features(report, threshold=0.5)


def _tiny_dataset():
    return Dataset(
        time=("2020-01-01", "2020-02-01", "2020-03-01"),
        columns={"t2m": np.array([0.0, 5.0, 10.0]), "sp": np.array([3.0, 3.5, 9.0])},
    )


def test_minmax_scaling_and_inverse():
    ds = scale(_tiny_dataset(), ["t2m"], "minmax", fit_end=3)
    assert np.allclose(ds.columns["t2m"], [0.0, 0.5, 1.0], atol=1e-12)
    scaler = ds.scaling_state["t2m"]
    back = scaler.inverse(ds.columns["t2m"])
    assert np.allclose(back, [0.0, 5.0, 10.0], atol=1e-10)


def test_standard_scaling_fit_slice_statistics():
    rng = np.random.default_rng(102)
    col = rng.normal(5.0, 3.0, size=50)
    ds = Dataset(
        time=tuple(f"{2000 + i // 12:04d}-{i % 12 + 1:02d}-01" for i in range(50)),
        columns={"t2m": col},
    )
    ds2 = scale(ds, ["t2m"], "standard", fit_end=40)
    fit = ds2.columns["t2m"][:40]
    assert fit.mean() == pytest.approx(0.0, abs=1e-10)
    assert fit.std() == pytest.approx(1.0, abs=1e-10)
    scaler = ds2.scaling_state["t2m"]
    assert scaler.a == pytest.approx(col[:40].mean())
    assert scaler.b == pytest.approx(col[:40].std())


def test_scalers_do_not_peek_at_test_rows():
    ds = _tiny_dataset()
    ds2 = scale(ds, ["sp"], "minmax", fit_end=2)
    scaler = ds2.scaling_state["sp"]
    assert scaler.a == 3.0 and scaler.b == 3.5
    # test row scales with train statistics, landing outside [0, 1]
    assert ds2.columns["sp"][2] == pytest.approx((9.0 - 3.0) / 0.5)


def test_scale_errors():
    ds = Dataset(
        time=("2020-01-01", "2020-02-01"),
        columns={"t2m": np.array([1.0, 1.0])},
    )
    with pytest.raises(DegenerateScaleError):
        scale(ds, ["t2m"], "minmax", fit_end=2)
    with pytest.raises(DegenerateScaleError):
        scale(ds, ["t2m"], "standard", fit_end=2)
    with pytest.raises(ValueError):
        scale(ds, ["t2m"], "robust", fit_end=2)
    with pytest.raises(ValueError):
        scale(ds, ["t2m"], "minmax", fit_end=0)


def test_binary_binning():
    labels = bin_target(np.array([290.0, 300.0, 297.99, 298.0]), "binary")
    assert labels.tolist() == [0, 1, 0, 1]


def test_ternary_binning():
    values = np.array([290.0, 300.0, 310.0, 295.55, 306.57, 295.549, 306.569])
    labels = bin_target(values, "ternary")
    assert labels.tolist() == [0, 1, 2, 1, 2, 0, 1]


def test_binning_validation():
    with pytest.raises(ValueError):
        bin_target(np.array([np.nan]), "binary")
    with pytest.raises(ValueError):
        bin_target(np.array([290.0]), "five-way")
    with pytest.warns(UserWarning):
        bin_target(np.array([100.0]), "binary")


def test_synth_is_deterministic():
    a = synth_generate(seed=7, n_months=100)
    b = synth_generate(seed=7, n_months=100)
    assert a.time == b.time
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name])
    c = synth_generate(seed=8, n_months=100)
    assert not np.array_equal(a.columns["t2m"], c.columns["t2m"])


@pytest.mark.parametrize("n_months", [24, 1000, 96740])
def test_synth_month_stamps(n_months, monkeypatch):
    # month i is 1940-01-01 plus i months, as the f-string form writes it;
    # past year 9999 the year takes five digits.  A Dataset orders its
    # stamps as strings, so the longest series is read before one is built
    monkeypatch.setattr(weather, "Dataset", lambda **fields: fields)
    time = synth_generate(seed=7, n_months=n_months)["time"]
    want = tuple(f"{1940 + i // 12:04d}-{i % 12 + 1:02d}-01" for i in range(n_months))
    assert time == want
    assert all(type(t) is str for t in time)
    if n_months > 96720:
        assert time[96719:96721] == ("9999-12-01", "10000-01-01")


def test_synth_correlation_signs_and_magnitudes():
    ds = synth_generate(seed=11, n_months=1000)
    t2m = ds.target()
    assert pearson(np.asarray(ds.columns["skt"]), t2m) > 0.9
    assert pearson(np.asarray(ds.columns["sp"]), t2m) < -0.6
    report = correlation_report(ds)
    # construction pins each feature's sample correlation exactly
    assert report.correlations["skt"] == pytest.approx(0.972, abs=1e-9)
    assert report.correlations["tsr"] == pytest.approx(0.803, abs=1e-9)
    assert report.correlations["ssrdc"] == pytest.approx(0.783, abs=1e-9)
    assert report.correlations["sp"] == pytest.approx(-0.806, abs=1e-9)
    assert select_features(report, threshold=0.8) == ["skt", "sp", "tsr"]
    assert select_features(report, threshold=0.78) == ["skt", "sp", "tsr", "ssrdc"]


def test_synth_temperature_range():
    ds = synth_generate(seed=13, n_months=1000)
    t2m = ds.target()
    assert t2m.min() >= 282.0
    assert t2m.max() <= 320.0


def test_synth_rejects_short_series():
    with pytest.raises(ValueError):
        synth_generate(seed=1, n_months=23)


def test_csv_round_trip(tmp_path):
    ds = synth_generate(seed=17, n_months=48)
    path = tmp_path / "synth.csv"
    save_csv(ds, path)
    loaded, report = load_csv(path)
    assert report.rows_dropped == 0
    assert loaded.time == ds.time
    for name in ds.columns:
        assert np.array_equal(loaded.columns[name], np.asarray(ds.columns[name]))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(
            time=("2020-01-01", "2020-02-01"),
            columns={"t2m": np.array([1.0, 2.0, 3.0])},
        )
    with pytest.raises(ValueError):
        Dataset(
            time=("2020-02-01", "2020-01-01"),
            columns={"t2m": np.array([1.0, 2.0])},
        )
