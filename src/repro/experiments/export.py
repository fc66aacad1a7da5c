"""Result export: JSON and CSV writers for experiment records.

The paper's workflow logged every run to wandb; the reproduction's
equivalent is flat files an analysis notebook can ingest.  Exporters are
deliberately dependency-free (``csv``/``json`` from the standard
library) and record enough metadata to regenerate any figure offline.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Union

from .runner import ExperimentRecord

__all__ = ["record_to_dict", "records_to_json", "records_to_csv",
           "write_records"]

#: Columns exported for every record (order matters for CSV).
_EXPORT_FIELDS = [
    "benchmark", "configuration", "strategy", "policy", "global_batch",
    "step_time", "epoch_time", "total_time", "throughput",
    "checkpoint_time", "staging_overhead", "gpu_utilization",
    "gpu_memory", "gpu_mem_access", "cpu_utilization", "host_memory",
    "falcon_gpu_traffic_gbs",
]


def record_to_dict(record: ExperimentRecord) -> dict:
    """Flatten one record to exportable scalars (no live objects)."""
    return {name: getattr(record, name) for name in _EXPORT_FIELDS}


def records_to_json(records: Iterable[ExperimentRecord],
                    indent: int = 2) -> str:
    """Serialize records as a JSON array."""
    return json.dumps([record_to_dict(r) for r in records], indent=indent)


def records_to_csv(records: Iterable[ExperimentRecord]) -> str:
    """Serialize records as CSV with a header row."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_EXPORT_FIELDS)
    writer.writeheader()
    for record in records:
        writer.writerow(record_to_dict(record))
    return buffer.getvalue()


def write_records(records: Iterable[ExperimentRecord],
                  path: Union[str, Path]) -> Path:
    """Write records to ``path``; format chosen by suffix (.json/.csv)."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(records_to_json(records))
    elif path.suffix == ".csv":
        path.write_text(records_to_csv(records))
    else:
        raise ValueError(
            f"unsupported export suffix {path.suffix!r} (use .json/.csv)")
    return path
