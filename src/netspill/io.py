"""File ingestion and atomic serialization helpers.

All writers go through a temp-file-then-rename so a crashed run never
leaves a half-written artifact, and all numeric CSV output uses %.6g so
byte-identical reproduction is well defined.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import InputError
from .netgraph import build_network

NUM_FMT = "%.6g"


def fmt_num(x) -> str:
    """Render a number at %.6g; None/NaN become the empty string."""
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return ""
    return NUM_FMT % x


def write_text_atomic(path, text: str):
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv_atomic(path, header, rows):
    """Rows are iterables of already-formatted strings or raw values."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_json_atomic(path, obj):
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _open_csv(path, required):
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    reader = csv.DictReader(fh)
    cols = reader.fieldnames or []
    missing = [c for c in required if c not in cols]
    if missing:
        fh.close()
        raise InputError(f"{path}: missing required column(s) {', '.join(missing)}")
    return fh, reader, cols


def read_edges_csv(path):
    """Edge list with string node ids; returns list of (src, dst) pairs."""
    fh, reader, _ = _open_csv(path, ("src", "dst"))
    with fh:
        pairs = []
        for lineno, row in enumerate(reader, start=2):
            src, dst = row.get("src"), row.get("dst")
            if not src or not dst:
                raise InputError(f"{path}:{lineno}: empty src or dst")
            pairs.append((src, dst))
    return pairs


def _parse_binary(val, path, lineno, col):
    if val not in ("0", "1"):
        raise InputError(f"{path}:{lineno}: column {col} must be 0 or 1, got {val!r}")
    return int(val)


def read_nodes_csv(path):
    """Node table: id, A, C, Y, Z_* columns.

    Y must be blank exactly when C=1. Returns (ids, A, C, Y, Z, z_names)
    with Y=NaN at censored rows.
    """
    fh, reader, cols = _open_csv(path, ("id", "A", "C", "Y"))
    # zero Z_* columns means intercept-only working models
    z_names = [c for c in cols if c.startswith("Z_")]
    ids, a_col, c_col, y_col, z_rows = [], [], [], [], []
    seen = set()
    with fh:
        for lineno, row in enumerate(reader, start=2):
            node_id = row.get("id")
            if not node_id:
                raise InputError(f"{path}:{lineno}: empty id")
            if node_id in seen:
                raise InputError(f"{path}:{lineno}: duplicate id {node_id!r}")
            seen.add(node_id)
            ids.append(node_id)
            a_col.append(_parse_binary(row.get("A", ""), path, lineno, "A"))
            c_val = _parse_binary(row.get("C", ""), path, lineno, "C")
            c_col.append(c_val)
            y_raw = (row.get("Y") or "").strip()
            if c_val == 1:
                if y_raw != "":
                    raise InputError(f"{path}:{lineno}: Y must be blank when C=1")
                y_col.append(np.nan)
            else:
                if y_raw == "":
                    raise InputError(f"{path}:{lineno}: Y missing for uncensored row")
                try:
                    y_col.append(float(y_raw))
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: bad Y value {y_raw!r}") from exc
            try:
                z_rows.append([float(row[c]) for c in z_names])
            except (ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: bad covariate value") from exc
    return (
        ids,
        np.array(a_col, dtype=np.int64),
        np.array(c_col, dtype=np.int64),
        np.array(y_col, dtype=float),
        np.array(z_rows, dtype=float),
        z_names,
    )


def network_from_files(edges_path, node_ids, pairs=None):
    """Resolve string edge endpoints against the node table order.

    `pairs` are the (src, dst) rows of edges_path when the caller has
    already read them; otherwise the file is read here.
    """
    index = {nid: k for k, nid in enumerate(node_ids)}
    edges = []
    for src, dst in read_edges_csv(edges_path) if pairs is None else pairs:
        if src not in index:
            raise InputError(f"{edges_path}: unknown node id {src!r}")
        if dst not in index:
            raise InputError(f"{edges_path}: unknown node id {dst!r}")
        edges.append((index[src], index[dst]))
    return build_network(len(node_ids), edges)
