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

    def names(self) -> list[str]:
        return list(self._params)

    def select(self, prefix: str) -> list[Parameter]:
        return [p for n, p in self._params.items() if n.startswith(prefix)]

    def trainable(self, prefix: str = "") -> list[Parameter]:
        return [p for p in self.select(prefix) if not p.frozen]

    def freeze(self, prefix: str = "") -> None:
        for p in self.select(prefix):
            p.freeze()

    def digest(self, name: str) -> str:
        return digest_array(self._params[name].data)

    def digests(self, prefix: str = "") -> dict[str, str]:
        return {p.name: digest_array(p.data) for p in self.select(prefix)}

    def combined_digest(self, prefix: str = "") -> str:
        """Single digest over the sorted (name, blob) stream under prefix."""
        h = hashlib.sha256()
        for p in sorted(self.select(prefix), key=lambda p: p.name):
            h.update(p.name.encode())
            h.update(_blob_bytes(p.data))
        return h.hexdigest()

    def load_values(self, values: dict[str, np.ndarray],
                    frozen: dict[str, bool] | None = None) -> None:
        """Overwrite registered parameter values in place (shapes must match),
        then freeze every parameter whose ``frozen`` flag is set."""
        for name, arr in values.items():
            p = self._params[name]
            if p.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {arr.shape}")
            p.data[...] = arr
        for name, flag in (frozen or {}).items():
            if flag:
                self._params[name].freeze()

    def snapshot(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.select(prefix)}


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


def load_checkpoint(path, kind: str | None = None
                    ) -> tuple[dict, dict[str, np.ndarray], dict[str, bool]]:
    """Read a manifest + blob; returns (meta, values, frozen flags).

    Refuses to load when the manifest version is not ``MANIFEST_VERSION``,
    ``kind`` is given and differs from ``meta["kind"]``, the blob digest
    differs from the manifest, an entry's shape disagrees with its byte
    extent, or the entries do not tile the blob exactly (no overlap, no gap,
    no trailing bytes).
    """
    path = Path(path)
    manifest = json.loads(path.read_text())
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"checkpoint manifest version {manifest.get('version')!r} "
                         f"!= supported {MANIFEST_VERSION}")
    meta = manifest.get("meta", {})
    if kind is not None and meta.get("kind") != kind:
        article = "an" if kind[0] in "aeilo" else "a"  # "an elixr-c", "an lm"
        raise ValueError(f"not {article} {kind} checkpoint: kind={meta.get('kind')!r}")
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
