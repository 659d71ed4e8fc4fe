"""Weather data pipeline.

Monthly ERA5-style extracts come in as CSV (header ``time,<short names>``);
rows with gaps are dropped and counted.  Feature selection ranks Pearson
correlations against the target, scaling fits on the training slice only,
and the synthetic generator produces a seeded stand-in dataset whose
feature/target correlations are constructed exactly.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np


class DataFormatError(Exception):
    """CSV structure is not the expected time + named-columns layout."""


class EmptyDatasetError(Exception):
    """No usable rows survived ingestion."""


class UndefinedCorrelationError(Exception):
    """Pearson correlation of a constant series is undefined."""


class DegenerateScaleError(Exception):
    """A column cannot be scaled (zero range or zero spread on the fit slice)."""


class EmptySelectionError(Exception):
    """No feature met the selection rule."""


# Pearson correlation of each ERA5 short-name feature with 2-meter
# temperature on the reference monthly single-site extract (1940-2025
# cadence); the calibration target of the synthetic generator.
REFERENCE_CORRELATIONS = {
    "skt": 0.972,
    "tsr": 0.803,
    "ssrdc": 0.783,
    "cdir": 0.778,
    "ssrd": 0.766,
    "ssr": 0.759,
    "p54.162": 0.689,
    "vithe": 0.678,
    "fdir": 0.668,
    "vitoe": 0.542,
    "u10": 0.173,
    "hcc": 0.165,
    "mcc": 0.164,
    "u100": 0.136,
    "cbh": 0.094,
    "v100": 0.036,
    "vithed": 0.005,
    "viwvd": -0.001,
    "cp": -0.012,
    "v10": -0.012,
    "tp": -0.025,
    "mtpr": -0.025,
    "lcc": -0.103,
    "str": -0.133,
    "v10n": -0.179,
    "slhf": -0.531,
    "e": -0.531,
    "mer": -0.531,
    "sshf": -0.561,
    "sp": -0.806,
}

BINARY_BOUNDARY_K = 298.0
TERNARY_BOUNDARIES_K = (295.55, 306.57)


@dataclass(frozen=True)
class ColumnScaler:
    """Fitted per-column affine scaler; a/b are (min, max) or (mean, std)."""

    method: str
    a: float
    b: float

    def transform(self, values):
        values = np.asarray(values, dtype=float)
        if self.method == "minmax":
            return (values - self.a) / (self.b - self.a)
        return (values - self.a) / self.b

    def inverse(self, values):
        values = np.asarray(values, dtype=float)
        if self.method == "minmax":
            return values * (self.b - self.a) + self.a
        return values * self.b + self.a


@dataclass(frozen=True)
class Dataset:
    time: tuple
    columns: dict
    target_name: str = "t2m"
    scaling_state: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.time)
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValueError(f"column {name} has {len(col)} rows, expected {n}")
        if any(self.time[i] >= self.time[i + 1] for i in range(n - 1)):
            raise ValueError("timestamps must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return len(self.time)

    def feature_matrix(self, names) -> np.ndarray:
        return np.column_stack([self.columns[n] for n in names])

    def target(self) -> np.ndarray:
        return np.asarray(self.columns[self.target_name])


@dataclass(frozen=True)
class IngestionReport:
    rows_read: int
    rows_dropped: int
    columns: tuple

    def as_dict(self):
        return {
            "rows_read": self.rows_read,
            "rows_dropped": self.rows_dropped,
            "columns": list(self.columns),
        }


@dataclass(frozen=True)
class CorrelationReport:
    target_name: str
    correlations: dict

    def ranking(self) -> list:
        names = [n for n in self.correlations if n != self.target_name]
        return sorted(names, key=lambda n: (-abs(self.correlations[n]), n))


def load_csv(path, target_name: str = "t2m"):
    """Parse a dataset; returns (Dataset, IngestionReport).

    Any row with a missing or non-numeric cell, or a blank time, is dropped
    and counted.  A header without ``time`` or the target, an empty or
    repeated column name, or a kept row whose timestamp is not after the
    previous kept row's is a DataFormatError naming the column or file line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as err:
            raise DataFormatError(f"{path} is not UTF-8 text: {err}") from None
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file") from None
        header = [h.strip() for h in header]
        if "" in header:
            raise DataFormatError(f"column {header.index('') + 1} has no name")
        for name in ("time", target_name):
            if name not in header:
                raise DataFormatError(f"missing {name!r} column")
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise DataFormatError(f"column {repeated[0]!r} appears more than once")
        t_idx = header.index("time")
        names = [h for h in header if h != "time"]
        times, rows = [], []
        rows_read = 0
        dropped = 0
        for raw in reader:
            if not raw or all(not c.strip() for c in raw):
                continue
            rows_read += 1
            if len(raw) != len(header):
                dropped += 1
                continue
            try:
                values = [
                    float(c) for i, c in enumerate(raw) if i != t_idx
                ]
            except ValueError:
                dropped += 1
                continue
            t = raw[t_idx].strip()
            if not t or not all(math.isfinite(v) for v in values):
                dropped += 1
                continue
            if times and t <= times[-1]:
                raise DataFormatError(
                    f"line {reader.line_num}: timestamp {t!r} is not after "
                    f"{times[-1]!r}; timestamps must be strictly increasing"
                )
            times.append(t)
            rows.append(values)
    if not rows:
        raise EmptyDatasetError(f"no usable rows in {path}")
    data = np.array(rows, dtype=float)
    columns = {name: data[:, j].copy() for j, name in enumerate(names)}
    dataset = Dataset(time=tuple(times), columns=columns, target_name=target_name)
    report = IngestionReport(
        rows_read=rows_read, rows_dropped=dropped, columns=tuple(names)
    )
    return dataset, report


def save_csv(dataset: Dataset, path) -> None:
    names = list(dataset.columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time"] + names)
        for i in range(dataset.n_rows):
            row = [dataset.time[i]] + [
                repr(float(dataset.columns[n][i])) for n in names
            ]
            writer.writerow(row)


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("pearson needs two equal-length series of >= 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    nx = np.sqrt(np.sum(dx * dx))
    ny = np.sqrt(np.sum(dy * dy))
    if nx == 0.0 or ny == 0.0:
        raise UndefinedCorrelationError("correlation of a constant series")
    return float(np.sum(dx * dy) / (nx * ny))


def correlation_report(dataset: Dataset) -> CorrelationReport:
    target = dataset.target()
    corr = {
        name: pearson(np.asarray(col), target)
        for name, col in dataset.columns.items()
    }
    return CorrelationReport(target_name=dataset.target_name, correlations=corr)


def select_features(
    report: CorrelationReport,
    threshold: float | None = None,
    top_k: int | None = None,
) -> list:
    """Feature names meeting the rule, descending |r|, alphabetical ties.

    ``top_k`` may not exceed the number of ranked features; a report that
    ranks none is an EmptySelectionError under either rule.
    """
    if (threshold is None) == (top_k is None):
        raise ValueError("give exactly one of threshold or top_k")
    ranking = report.ranking()
    if threshold is not None:
        chosen = [n for n in ranking if abs(report.correlations[n]) >= threshold]
    else:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if 0 < len(ranking) < top_k:
            raise ValueError(f"top_k={top_k} exceeds the {len(ranking)} ranked features")
        chosen = ranking[:top_k]
    if not chosen:
        rule = f"threshold {threshold}" if top_k is None else f"top_k={top_k}"
        raise EmptySelectionError(f"no feature passed {rule}")
    return chosen


def scale(dataset: Dataset, columns, method: str, fit_end: int) -> Dataset:
    """Scale columns with statistics fit on rows [0, fit_end) only.

    minmax maps the fit slice to [0, 1]; standard subtracts the fit mean
    and divides by the fit population standard deviation.
    """
    if method not in ("minmax", "standard"):
        raise ValueError(f"unknown scaling method {method!r}")
    if not 0 < fit_end <= dataset.n_rows:
        raise ValueError("fit slice must be non-empty and within the dataset")
    new_cols = dict(dataset.columns)
    state = dict(dataset.scaling_state)
    for name in columns:
        col = np.asarray(dataset.columns[name], dtype=float)
        fit = col[:fit_end]
        if method == "minmax":
            lo, hi = float(fit.min()), float(fit.max())
            if hi <= lo:
                raise DegenerateScaleError(f"column {name} is constant on the fit slice")
            scaler = ColumnScaler("minmax", lo, hi)
        else:
            mu, sd = float(fit.mean()), float(fit.std())
            if sd == 0.0:
                raise DegenerateScaleError(f"column {name} is constant on the fit slice")
            scaler = ColumnScaler("standard", mu, sd)
        new_cols[name] = scaler.transform(col)
        state[name] = scaler
    return replace(dataset, columns=new_cols, scaling_state=state)


def bin_target(values, mode: str) -> np.ndarray:
    """Class labels from temperature; boundary values go to the upper class."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("temperatures must be finite")
    if values.size and (values.min() < 150.0 or values.max() > 350.0):
        warnings.warn("temperatures outside the plausible 150-350 K range")
    if mode == "binary":
        return (values >= BINARY_BOUNDARY_K).astype(int)
    if mode == "ternary":
        lo, hi = TERNARY_BOUNDARIES_K
        return np.where(values >= hi, 2, np.where(values >= lo, 1, 0)).astype(int)
    raise ValueError(f"unknown binning mode {mode!r}")


def _exact_corr_column(z_unit: np.ndarray, noise: np.ndarray, rho: float):
    """Centered unit-norm column whose sample correlation with z is exactly rho."""
    g = noise - noise.mean()
    g = g - (g @ z_unit) * z_unit
    g /= np.linalg.norm(g)
    return rho * z_unit + math.sqrt(1.0 - rho * rho) * g


# (short name, offset, spread) of every synthetic column, in draw order; each
# hits its reference correlation, so selection behaves as on the real extract.
_SYNTH_COLUMNS = (
    ("skt", 300.8, 14.0),
    ("sp", 101325.0, 800.0),
    ("tsr", 1.8e7, 6.0e6),
    ("ssrdc", 1.6e7, 5.0e6),
    ("cdir", 1.1e7, 4.0e6),
    ("ssrd", 1.5e7, 5.0e6),
    ("slhf", -6.0e6, 2.5e6),
    ("u10", 1.2, 2.1),
    ("hcc", 0.45, 0.2),
    ("lcc", 0.35, 0.2),
    ("tp", 0.004, 0.003),
    ("v10", -0.35, 1.8),
)


def synth_generate(seed: int, n_months: int = 1000) -> Dataset:
    """Seeded synthetic monthly dataset shaped like the ERA5 extract.

    Months run from 1940-01-01, stamped YYYY-MM-01.  The target follows a
    seasonal sine with mild noise, spanning roughly 284.5-317.6 K; each
    feature column is constructed to hit its reference correlation exactly
    on the generated sample.
    """
    if n_months < 24:
        raise ValueError("n_months must be >= 24")
    rng = np.random.default_rng(seed)
    t = np.arange(n_months)
    season = np.sin(2.0 * np.pi * t / 12.0)
    w = 0.97 * season + 0.03 * rng.uniform(-1.0, 1.0, size=n_months)
    t2m = 301.06 + 16.53 * w
    z = t2m - t2m.mean()
    z_unit = z / np.linalg.norm(z)
    columns = {"t2m": t2m}
    for name, offset, spread in _SYNTH_COLUMNS:
        rho = REFERENCE_CORRELATIONS[name]
        base = _exact_corr_column(z_unit, rng.normal(size=n_months), rho)
        # rescale the unit-norm column to population std 1, then to units
        base = base * math.sqrt(n_months)
        columns[name] = offset + spread * base
    months = np.datetime64("1940-01") + np.arange(n_months)
    time = tuple(np.datetime_as_string(months, unit="D").tolist())
    return Dataset(time=time, columns=columns, target_name="t2m")
