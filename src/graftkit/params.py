"""Parameter registry and checkpoint serialization.

A checkpoint is a JSON manifest (name, shape, frozen flag, byte offset per
parameter, plus free-form metadata) next to a raw little-endian float64 blob;
the manifest records the SHA-256 of the blob and loads refuse on mismatch.
Every JSON file graftkit loads is parsed by ``read_json`` and typed by
``decode``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import typing
from dataclasses import is_dataclass, make_dataclass
from pathlib import Path

import numpy as np

from .autograd import Parameter

MANIFEST_VERSION = 1


def _blob_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def digest_array(arr: np.ndarray) -> str:
    return hashlib.sha256(_blob_bytes(arr)).hexdigest()


class ParamRegistry:
    """Named parameters with per-parameter frozen status and content digests,
    and a memo of values computed from them (``memo``)."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._memo: dict = {}
        self._memo_versions: tuple = ()
        self._memo_lock = threading.Lock()

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

    def versions(self, prefix: str = "") -> tuple[int, ...]:
        """Each parameter's ``version`` under ``prefix``, in registration order."""
        return tuple(p.version for n, p in self._params.items() if n.startswith(prefix))

    def memo(self, key, compute) -> np.ndarray:
        """The array ``compute()`` returns, computed once per hashable ``key``
        for as long as no parameter is written.  The memo holds entries for
        one tuple of ``versions()``: the first call after a write to any
        parameter drops them all.  The array is read-only, and bit for bit
        what ``compute()`` returns at the current versions; one computed
        while a parameter was written is returned but not kept."""
        with self._memo_lock:
            versions = self.versions()
            if versions != self._memo_versions:
                self._memo, self._memo_versions = {}, versions
            hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = compute()
        value.setflags(write=False)
        with self._memo_lock:
            if self.versions() == versions:
                value = self._memo.setdefault(key, value)
        return value

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
            self._params[name].write(arr)
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


def read_json(path):
    """The JSON value in the file ``path``, or the list of a ``.jsonl``
    file's line values; a parse error names the file (and the row)."""
    path = Path(path)
    rows = path.suffix == ".jsonl"
    values = []
    for i, text in enumerate(path.read_text().splitlines() if rows else [path.read_text()], 1):
        try:
            values.append(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {f'row {i}: ' if rows else ''}{exc}") from None
    return values if rows else values[0]


_field_kinds = functools.cache(typing.get_type_hints)  # a dataclass's field -> type


def decode(path, where: str, value, kind):
    """``value``, at ``where`` in the JSON file ``path``, as ``kind``: bool,
    int (not a bool), float (an int is accepted), str, dict (any object),
    list[T], tuple[T, ...], tuple[T1, T2, T3], dict[str, T] or a dataclass,
    whose object holds exactly its fields bar its ``RETIRED_FIELDS``
    (dropped) and passes its ``validate()``.  Else a ValueError names the
    file, the record and the field."""
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {where} is not a JSON object")
        kinds = _field_kinds(kind)
        for name in value:
            if name not in kinds and name not in getattr(kind, "RETIRED_FIELDS", ()):
                raise ValueError(f"{path}: {where} has an unknown field {name!r}")
        obj = kind(**{name: decode_field(path, where, value, name, k)
                      for name, k in kinds.items()})
        try:
            getattr(obj, "validate", lambda: None)()
        except ValueError as exc:
            raise ValueError(f"{path}: {where}: {exc}") from None
        return obj
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path}: {where} is not of type list")
        fixed = origin is tuple and args[-1] is not Ellipsis  # tuple[T1, T2, T3]
        if fixed and len(value) != len(args):
            raise ValueError(f"{path}: {where} does not hold {len(args)} items")
        return origin(decode(path, f"{where} item {i}", v, args[i] if fixed else args[0])
                      for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {where} is not of type dict")
        return {k: decode(path, f"{where} key {k!r}", v, args[1]) for k, v in value.items()}
    if kind is float and type(value) is int and abs(value) <= 1e308:  # not a bool, fits a float
        return float(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{path}: {where} is not of type {kind.__name__}")
    return value


def decode_field(path, where: str, record: dict, name: str, kind):
    """``record[name]`` as ``decode`` reads it; the record may hold other fields."""
    if name not in record:
        raise ValueError(f"{path}: {where} has no field {name!r}")
    return decode(path, f"{where} field {name!r}", record[name], kind)


_Entry = make_dataclass("_Entry", [("name", str), ("shape", tuple[int, ...]), ("frozen", bool),
                                   ("offset", int), ("nbytes", int)])
_Manifest = make_dataclass("_Manifest", [("version", int), ("blob_sha256", str),
                                         ("params", list[_Entry]), ("meta", dict)])


def read_manifest(path, kind: str | None) -> _Manifest:
    """A checkpoint's manifest, after the checks of ``load_checkpoint`` that
    do not read the blob."""
    manifest = decode(path, "the manifest", read_json(path), _Manifest)
    if manifest.version != MANIFEST_VERSION:
        raise ValueError(f"{path}: checkpoint manifest version {manifest.version!r} "
                         f"!= supported {MANIFEST_VERSION}")
    if kind is not None and manifest.meta.get("kind") != kind:
        article = "an" if kind[0] in "aeilo" else "a"  # "an elixr-c", "an lm"
        raise ValueError(f"{path}: not {article} {kind} checkpoint: "
                         f"kind={manifest.meta.get('kind')!r}")
    return manifest


def load_checkpoint(path, kind: str | None = None
                    ) -> tuple[dict, dict[str, np.ndarray], dict[str, bool]]:
    """Read a manifest + blob; returns (meta, values, frozen flags).

    Refuses to load when the manifest is not JSON or is not exactly a
    ``_Manifest`` (a message naming the file and the field), the version is
    not ``MANIFEST_VERSION``, ``kind`` is given and differs from
    ``meta["kind"]``, the blob digest differs from the manifest, an entry's
    shape has a negative size or disagrees with its byte extent, or the
    entries do not tile the blob exactly (no overlap, no gap, no trailing
    bytes).
    """
    path = Path(path)
    manifest = read_manifest(path, kind)
    blob = path.with_suffix(path.suffix + ".bin").read_bytes()
    got = hashlib.sha256(blob).hexdigest()
    if got != manifest.blob_sha256:
        raise ValueError(f"{path}: checkpoint blob digest mismatch: blob_sha256 {got} != manifest")
    values: dict[str, np.ndarray] = {}
    frozen: dict[str, bool] = {}
    end = 0
    for e in sorted(manifest.params, key=lambda e: e.offset):
        if min(e.shape, default=0) < 0 or int(np.prod(e.shape, dtype=np.int64)) * 8 != e.nbytes:
            raise ValueError(f"{path}: checkpoint entry {e.name!r}: field 'shape' {e.shape} "
                             f"inconsistent with nbytes {e.nbytes}")
        if e.offset != end:
            problem = "overlaps the previous entry" if e.offset < end else "leaves a gap"
            raise ValueError(f"{path}: checkpoint entry {e.name!r}: offset {e.offset} {problem} "
                             f"(expected {end})")
        end += e.nbytes
        values[e.name] = np.frombuffer(blob[e.offset : end], dtype="<f8").reshape(e.shape).copy()
        frozen[e.name] = e.frozen
    if end != len(blob):
        raise ValueError(f"{path}: checkpoint entries end at byte {end}, blob has {len(blob)}")
    return manifest.meta, values, frozen
