"""The queryable on-disk result store behind campaign analysis.

A store is a directory of schema-versioned JSON records — one per
executed point — plus an ``index.json`` summary. It is also the result
cache of every campaign run: a point's record path is computed from
(experiment, params, :func:`config_hash`), so :meth:`CampaignStore.get`
answers "already simulated?" with one file open. Records arrive from
three sources and meet behind one schema:

* ``campaign`` — sweep/figure points, via :meth:`CampaignStore.add_result`
  (the :class:`repro.perf.campaign.CampaignRunner` writes every miss);
* ``hostbench`` — ``BENCH_*.json`` host-performance baselines
  (:meth:`CampaignStore.ingest_bench`);
* ``metrics`` — ``*.metrics.json`` observability snapshots
  (:meth:`CampaignStore.ingest_metrics`).

Queries (:meth:`CampaignStore.query`, :meth:`CampaignStore.series`,
:meth:`CampaignStore.distinct`) return deterministically ordered data,
so everything rendered from a store — tables, charts, EXPERIMENTS.md
sections — is byte-reproducible. :class:`StoreRunner` adapts a store to
the figure harnesses' pluggable-runner protocol
(:func:`repro.experiments.common.resolve_points`): the same code that
renders a section from fresh simulations renders it from stored results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.perf.points import Point
from repro.util.errors import ReproError

#: Bump on intentional record-format changes; old records are skipped.
STORE_SCHEMA = 1

#: Default store location (overridable per-call or via REPRO_STORE_DIR).
DEFAULT_STORE_DIR = ".repro-store"


class StoreError(ReproError):
    """A store operation failed (missing point, unreadable source, ...)."""


@dataclass(frozen=True)
class Record:
    """One stored measurement: a point identity plus its metrics.

    ``params`` mirrors :class:`repro.perf.points.Point.params` (sorted
    scalar pairs); ``metrics`` is the point's JSON-able result dict.
    ``config`` is the simulation config hash the result was produced
    under (``""`` for host-side sources), and ``meta`` carries
    provenance (sweep name, source file, host timing) that is *never*
    part of the record key or of rendered reports.
    """

    key: str
    source: str
    experiment: str
    params: tuple[tuple[str, object], ...]
    metrics: dict = field(hash=False)
    config: str = ""
    meta: dict = field(default_factory=dict, hash=False)

    def get(self, name: str, default: object = None) -> object:
        """One parameter's value (or *default*)."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def point(self) -> Point:
        """The :class:`Point` identity (campaign-source records only)."""
        return Point.make(self.experiment, **dict(self.params))

    def to_json(self) -> dict:
        return {
            "schema": STORE_SCHEMA,
            "key": self.key,
            "source": self.source,
            "experiment": self.experiment,
            "params": dict(self.params),
            "metrics": self.metrics,
            "config": self.config,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Record":
        return cls(
            key=str(data["key"]),
            source=str(data["source"]),
            experiment=str(data["experiment"]),
            params=tuple(sorted(data.get("params", {}).items())),
            metrics=dict(data.get("metrics", {})),
            config=str(data.get("config", "")),
            meta=dict(data.get("meta", {})),
        )


def config_hash() -> str:
    """Hash of the simulation configuration that determines results.

    Covers the calibrated Lonestar preset (every per-event cost
    constant, via the dataclass's fields) and both global scale factors.
    Any calibration change yields a different hash, so campaign records
    produced under another machine model are never served as hits.
    """
    from repro.cluster.lonestar import (
        LONESTAR_SCALE,
        LONESTAR_STRIPE_SCALE,
        make_lonestar,
    )

    parts = [
        f"scale={LONESTAR_SCALE}",
        f"stripe_scale={LONESTAR_STRIPE_SCALE}",
        repr(dataclasses.asdict(make_lonestar())),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def record_key(source: str, experiment: str, params: dict, config: str) -> str:
    """The content-addressed record id (identity, not provenance)."""
    body = json.dumps(
        {
            "schema": STORE_SCHEMA,
            "source": source,
            "experiment": experiment,
            "params": dict(sorted(params.items())),
            "config": config,
        },
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()


class CampaignStore:
    """A directory of :class:`Record` JSON files plus an index.

    Parameters
    ----------
    root: store directory (created on first write). Defaults to
        ``$REPRO_STORE_DIR`` or ``.repro-store`` under the working dir.

    ``config`` is the :func:`config_hash` every campaign record written
    or looked up through this store is keyed under.
    """

    def __init__(self, root: "str | Path | None" = None):
        if root is None:
            root = os.environ.get("REPRO_STORE_DIR", DEFAULT_STORE_DIR)
        self.root = Path(root)
        self.config = config_hash()

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def put(self, record: Record) -> Record:
        """Store one record (atomic rename; same key overwrites)."""
        self.records_dir.mkdir(parents=True, exist_ok=True)
        path = self.records_dir / f"{record.key}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(record.to_json(), sort_keys=True, indent=1),
            encoding="utf-8",
        )
        os.replace(tmp, path)
        self._write_index()
        return record

    def key_for(self, point: Point) -> str:
        """The record key of campaign *point* under this store's config."""
        return record_key(
            "campaign", point.experiment, dict(point.params), self.config
        )

    def add_result(
        self, point: Point, result: dict, *, meta: Optional[dict] = None
    ) -> Record:
        """Store one executed point's result dict (stamped with the config)."""
        return self.put(Record(
            key=self.key_for(point),
            source="campaign",
            experiment=point.experiment,
            params=point.params,
            metrics=dict(result),
            config=self.config,
            meta=dict(meta or {}),
        ))

    def get(self, point: Point) -> Optional[dict]:
        """The stored result of campaign *point*, or ``None`` on a miss.

        One file open at the point's record path. An unreadable or
        truncated record (e.g. a killed writer) counts as a miss, and
        the next :meth:`add_result` for the point overwrites it.
        """
        path = self.records_dir / f"{self.key_for(point)}.json"
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if data["schema"] == STORE_SCHEMA:
                return dict(data["metrics"])
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def ingest_bench(self, path: "str | Path") -> int:
        """Import one ``BENCH_*.json`` host-performance baseline.

        Each named bench point becomes a ``hostbench`` record with
        ``name`` and ``platform`` parameters, so baselines from several
        platforms/eras coexist and stay queryable side by side.
        """
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            points = dict(doc["points"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"unreadable bench file {path}: {exc}") from exc
        platform = str(doc.get("platform", "unknown"))
        count = 0
        for name in sorted(points):
            metrics = dict(points[name])
            params = {"name": name, "platform": platform, "file": path.name}
            self.put(Record(
                key=record_key("hostbench", "hostbench", params, ""),
                source="hostbench",
                experiment="hostbench",
                params=tuple(sorted(params.items())),
                metrics=metrics,
                meta={
                    "from": path.name,
                    "calibration_seconds": doc.get("calibration_seconds"),
                },
            ))
            count += 1
        return count

    def ingest_metrics(self, path: "str | Path", name: Optional[str] = None) -> Record:
        """Import one ``*.metrics.json`` observability snapshot."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable metrics file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise StoreError(f"metrics file {path} is not a JSON object")
        params = {"name": name or path.stem}
        return self.put(Record(
            key=record_key("metrics", "metrics", params, ""),
            source="metrics",
            experiment="metrics",
            params=tuple(sorted(params.items())),
            metrics=doc,
            meta={"from": path.name},
        ))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def records(self) -> list[Record]:
        """Every current-schema record, sorted by (source, experiment, params)."""
        out: list[Record] = []
        if not self.records_dir.is_dir():
            return out
        for path in sorted(self.records_dir.iterdir()):
            if path.suffix != ".json":
                continue
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if data.get("schema") != STORE_SCHEMA:
                continue
            out.append(Record.from_json(data))
        out.sort(key=lambda r: (r.source, r.experiment, _sort_key(r.params)))
        return out

    def query(
        self,
        experiment: Optional[str] = None,
        *,
        source: Optional[str] = None,
        where: Optional[dict] = None,
        predicate: Optional[Callable[[Record], bool]] = None,
    ) -> list[Record]:
        """Records matching the filters, in deterministic order.

        ``where`` matches parameter equality (``{"method": "TCIO"}``);
        ``predicate`` is an arbitrary record filter applied last.
        """
        out = []
        for record in self.records():
            if experiment is not None and record.experiment != experiment:
                continue
            if source is not None and record.source != source:
                continue
            if where and any(record.get(k) != v for k, v in where.items()):
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def distinct(self, param: str, experiment: Optional[str] = None) -> list:
        """The sorted distinct values one parameter takes."""
        values = {
            record.get(param)
            for record in self.query(experiment)
            if record.get(param) is not None
        }
        return sorted(values, key=_value_key)

    def series(
        self,
        x: str,
        y: str,
        *,
        experiment: Optional[str] = None,
        where: Optional[dict] = None,
    ) -> tuple[list, list]:
        """Paired (xs, ys): parameter *x* against metric *y*, sorted by x."""
        pairs = []
        for record in self.query(experiment, where=where):
            xv = record.get(x)
            yv = record.metrics.get(y)
            if xv is None or yv is None:
                continue
            pairs.append((xv, yv))
        pairs.sort(key=lambda p: _value_key(p[0]))
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def results_for(self, points: Iterable[Point]) -> dict:
        """Stored metrics for campaign *points*; raises listing any missing."""
        results, missing = {}, []
        for point in points:
            found = self.get(point)
            if found is None:
                missing.append(point.label())
            else:
                results[point] = found
        if missing:
            raise StoreError(
                "store is missing results for: " + ", ".join(missing)
                + " (run the sweep first)"
            )
        return results

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.records_dir.is_dir():
            return 0
        return sum(1 for p in self.records_dir.iterdir() if p.suffix == ".json")

    def summary(self) -> dict:
        """Counts by source and experiment (what index.json holds)."""
        by_source: dict[str, int] = {}
        by_experiment: dict[str, int] = {}
        for record in self.records():
            by_source[record.source] = by_source.get(record.source, 0) + 1
            by_experiment[record.experiment] = (
                by_experiment.get(record.experiment, 0) + 1
            )
        return {
            "schema": STORE_SCHEMA,
            "records": sum(by_source.values()),
            "by_source": dict(sorted(by_source.items())),
            "by_experiment": dict(sorted(by_experiment.items())),
        }

    def _write_index(self) -> None:
        path = self.root / "index.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(self.summary(), sort_keys=True, indent=1),
            encoding="utf-8",
        )
        os.replace(tmp, path)


def _value_key(value) -> tuple:
    """A total order over mixed scalar values (numbers first, then text)."""
    if isinstance(value, bool):
        return (1, "", int(value))
    if isinstance(value, (int, float)):
        return (0, "", float(value))
    return (2, str(value), 0.0)


def _sort_key(params: tuple) -> tuple:
    return tuple((k,) + _value_key(v) for k, v in params)


class StoreRunner:
    """Adapt a store to the pluggable-runner protocol of the harnesses.

    ``resolve_points(points, StoreRunner(store))`` serves every point
    from stored results without simulating anything — which is how
    report generation replays EXPERIMENTS.md sections byte-identically
    from cached evidence. Missing points raise :class:`StoreError`
    naming each absent point.
    """

    def __init__(self, store: CampaignStore):
        self.store = store

    def __call__(self, points: Iterable[Point]) -> dict:
        return self.store.results_for(points)
