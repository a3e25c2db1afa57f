"""Attack-success-probability curves over a delta-T (or mistiming) grid."""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

__all__ = ["SuccessCurve"]

_SOURCES = ("EXPERIMENTAL", "PREDICTED")
_COLUMNS = ["delta_t_seconds", "p_success"]
# written on every row, so a curve file says where it came from
_PROVENANCE = ["trials", "horizon", "source"]


@dataclass(frozen=True, eq=False)
class SuccessCurve:
    grid: np.ndarray          # seconds
    p_success: np.ndarray     # probabilities in [0, 1]
    trials: int = 0           # 0 for model-predicted curves
    horizon: int = 0          # attack batches n (0 if not applicable)
    source: str = "EXPERIMENTAL"  # EXPERIMENTAL or PREDICTED

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        p = np.asarray(self.p_success, dtype=np.float64)
        if grid.shape != p.shape or grid.ndim != 1:
            raise ValueError("grid and p_success must be 1-d arrays of equal length")
        if not np.isfinite(grid).all():
            raise ValueError("grid points must be finite")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.trials < 0 or self.horizon < 0:
            raise ValueError(f"trials and horizon must be >= 0, got {self.trials} and {self.horizon}")
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}, got {self.source!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "p_success", p)

    def to_csv(self):
        tail = f"{self.trials},{self.horizon},{self.source}\n"
        lines = [",".join(_COLUMNS + _PROVENANCE) + "\n"]
        lines.extend(f"{x:.12g},{p:.12g},{tail}" for x, p in zip(self.grid.tolist(), self.p_success.tolist()))
        return "".join(lines)

    @staticmethod
    def records_provenance(text):
        """Whether a curve file has the trials, horizon and source columns."""
        return next(csv.reader(io.StringIO(text)), [])[2:5] == _PROVENANCE

    @classmethod
    def from_csv(cls, text, trials=None, horizon=None, source=None):
        """Read what ``to_csv`` writes. A file's trials, horizon and source
        columns are taken as recorded, and a keyword that disagrees with them
        is an error; for a file without them (delta_t_seconds,p_success
        only) the keywords give them, or 0, 0 and EXPERIMENTAL."""
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or header[:2] != _COLUMNS:
            raise ValueError("expected header 'delta_t_seconds,p_success'")
        rows = []
        for number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise ValueError(f"curve line {number}: expected {len(header)} fields, got {len(row)}")
            rows.append(row)
        given = (trials, horizon, source)
        if header[2:5] == _PROVENANCE and rows:
            recorded = {(int(row[2]), int(row[3]), row[4]) for row in rows}
            if len(recorded) > 1:
                raise ValueError(f"curve rows disagree on (trials, horizon, source): {sorted(recorded)}")
            (given_by_file,) = recorded
            for name, want, got in zip(_PROVENANCE, given, given_by_file):
                if want is not None and want != got:
                    raise ValueError(f"curve file records {name}={got!r}, not {want!r}")
            given = given_by_file
        trials, horizon, source = (default if value is None else value
                                   for value, default in zip(given, (0, 0, "EXPERIMENTAL")))
        return cls(grid=np.array([float(row[0]) for row in rows]),
                   p_success=np.array([float(row[1]) for row in rows]),
                   trials=trials, horizon=horizon, source=source)
