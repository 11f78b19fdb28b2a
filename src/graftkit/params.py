"""Parameter registry and checkpoint serialization.

A checkpoint is a JSON manifest (name, shape, frozen flag, byte offset per
parameter, plus free-form metadata) next to a raw little-endian float64 blob;
the manifest records the SHA-256 of the blob and loads refuse on mismatch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .autograd import Parameter

MANIFEST_VERSION = 1


def _blob_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def digest_array(arr: np.ndarray) -> str:
    return hashlib.sha256(_blob_bytes(arr)).hexdigest()


class ParamRegistry:
    """Named parameters with per-parameter frozen status and content digests."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def param(self, name: str, data, frozen: bool = False) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        p = Parameter(name, data, frozen=frozen)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def select(self, prefix: str) -> list[Parameter]:
        return [p for n, p in self._params.items() if n.startswith(prefix)]

    def freeze(self, prefix: str = "") -> None:
        for p in self.select(prefix):
            p.freeze()

    def digest(self, name: str) -> str:
        return digest_array(self._params[name].data)

    def combined_digest(self, prefix: str = "") -> str:
        """Single digest over the sorted (name, blob) stream under prefix."""
        h = hashlib.sha256()
        for p in sorted(self.select(prefix), key=lambda p: p.name):
            h.update(p.name.encode())
            h.update(_blob_bytes(p.data))
        return h.hexdigest()

    def load_values(self, values: dict[str, np.ndarray],
                    frozen: dict[str, bool] | None = None) -> None:
        """Overwrite every registered parameter's value in place, then freeze
        every parameter whose ``frozen`` flag is set.  ``values`` must name
        exactly the registered parameters, each with its shape; nothing is
        written unless they do."""
        missing = [n for n in self._params if n not in values]
        unexpected = [n for n in values if n not in self._params]
        if missing or unexpected:
            raise ValueError("values are not the registry's parameters: " + "; ".join(
                f"{len(names)} {what}, first {names[0]!r}"
                for what, names in (("missing", missing), ("unexpected", unexpected)) if names))
        for name, arr in values.items():
            shape = self._params[name].data.shape
            if shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {shape} vs {arr.shape}")
        for name, arr in values.items():
            self._params[name].data[...] = arr
        for name, flag in (frozen or {}).items():
            if flag:
                self._params[name].freeze()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self}


def save_checkpoint(registry: ParamRegistry, path, meta: dict | None = None) -> dict:
    """Write ``path`` (manifest JSON) and ``path + '.bin'`` (the blob)."""
    path = Path(path)
    entries = []
    chunks = []
    offset = 0
    for p in sorted(registry, key=lambda p: p.name):
        raw = _blob_bytes(p.data)
        entries.append(
            {
                "name": p.name,
                "shape": list(p.data.shape),
                "frozen": bool(p.frozen),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "version": MANIFEST_VERSION,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "params": entries,
        "meta": meta or {},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.with_suffix(path.suffix + ".bin").write_bytes(blob)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def checked_field(path, record, where: str, name: str, kind: type):
    """``record[name]``, refused with a ValueError that names the file, the
    record and the field unless ``record`` is a JSON object holding a
    ``kind`` under ``name`` (a bool is no int)."""
    if not isinstance(record, dict):
        raise ValueError(f"{path}: {where} is not a JSON object")
    if name not in record:
        raise ValueError(f"{path}: {where} has no field {name!r}")
    value = record[name]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{path}: {where} field {name!r} is not of type {kind.__name__}")
    return value


_ENTRY_FIELDS = {"name": str, "shape": list, "frozen": bool, "offset": int, "nbytes": int}


def _read_manifest(path: Path, kind: str | None) -> dict:
    manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: the manifest is not a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"checkpoint manifest version {manifest.get('version')!r} "
                         f"!= supported {MANIFEST_VERSION}")
    checked_field(path, manifest, "the manifest", "blob_sha256", str)
    for i, e in enumerate(checked_field(path, manifest, "the manifest", "params", list)):
        for name, t in _ENTRY_FIELDS.items():
            checked_field(path, e, f"params entry {i}", name, t)
        if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0
                   for d in e["shape"]):
            raise ValueError(f"{path}: params entry {i} field 'shape' is not a list of sizes")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: meta is not a JSON object")
    if kind is not None and meta.get("kind") != kind:
        article = "an" if kind[0] in "aeilo" else "a"  # "an elixr-c", "an lm"
        raise ValueError(f"not {article} {kind} checkpoint: kind={meta.get('kind')!r}")
    return manifest


def checkpoint_meta(path, kind: str | None = None) -> dict:
    """A checkpoint's meta, after the manifest checks of ``load_checkpoint``;
    the blob is not read."""
    return _read_manifest(Path(path), kind).get("meta", {})


def load_checkpoint(path, kind: str | None = None
                    ) -> tuple[dict, dict[str, np.ndarray], dict[str, bool]]:
    """Read a manifest + blob; returns (meta, values, frozen flags).

    Refuses to load when the manifest or an entry lacks a field or holds one
    of the wrong type, the manifest version is not ``MANIFEST_VERSION``,
    ``kind`` is given and differs from ``meta["kind"]``, the blob digest
    differs from the manifest, an entry's shape disagrees with its byte
    extent, or the entries do not tile the blob exactly (no overlap, no gap,
    no trailing bytes).
    """
    path = Path(path)
    manifest = _read_manifest(path, kind)
    meta = manifest.get("meta", {})
    blob = path.with_suffix(path.suffix + ".bin").read_bytes()
    got = hashlib.sha256(blob).hexdigest()
    if got != manifest["blob_sha256"]:
        raise ValueError(f"checkpoint blob digest mismatch: blob_sha256 {got} != manifest")
    values: dict[str, np.ndarray] = {}
    frozen: dict[str, bool] = {}
    end = 0
    for e in sorted(manifest["params"], key=lambda e: e["offset"]):
        shape = tuple(e["shape"])
        expect = int(np.prod(shape, dtype=np.int64)) * 8
        if expect != e["nbytes"]:
            raise ValueError(
                f"checkpoint entry {e['name']!r}: field 'shape' {shape} "
                f"inconsistent with nbytes {e['nbytes']}"
            )
        if e["offset"] != end:
            problem = "overlaps the previous entry" if e["offset"] < end else "leaves a gap"
            raise ValueError(f"checkpoint entry {e['name']!r}: offset {e['offset']} {problem} "
                             f"(expected {end})")
        end += e["nbytes"]
        raw = blob[e["offset"] : end]
        values[e["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        frozen[e["name"]] = bool(e["frozen"])
    if end != len(blob):
        raise ValueError(f"checkpoint entries end at byte {end}, blob has {len(blob)}")
    return meta, values, frozen
