"""The database registry behind the serving layer.

A :class:`DatabaseManager` owns named databases
(:class:`~repro.core.facade.AdaptiveDatabase` or
:class:`~repro.shard.database.ShardedDatabase`), one request lock and
one :class:`~repro.server.admission.AdmissionController` per database,
and hands out :class:`~repro.server.session.Session` objects.  Every
session of a database shares the same lock — statements serialize per
database, so the single-threaded cost ledgers and metrics registry stay
consistent no matter how many server threads carry sessions.

Sessions of one database also share a table→engine registry, so SQL
predicates from different sessions warm the *same* adaptive views —
concurrency multiplies query throughput, not view catalogs.
"""

from __future__ import annotations

import threading

from ..core.facade import AdaptiveDatabase
from ..core.query import QueryEngine
from ..shard.database import ShardedDatabase
from .admission import AdmissionController, AdmissionPolicy
from .options import SessionOptions
from .session import Session

DEFAULT_DB = "default"


class DatabaseManager:
    """Registry of served databases plus the session factory."""

    def __init__(self) -> None:
        self._dbs: dict[str, AdaptiveDatabase | ShardedDatabase] = {}
        self._locks: dict[str, threading.RLock] = {}
        self._admission: dict[str, AdmissionController] = {}
        self._engines: dict[str, dict[str, QueryEngine]] = {}
        self._session_seq = 0
        self._registry_lock = threading.Lock()

    # -- registry -------------------------------------------------------

    def create_database(
        self,
        name: str = DEFAULT_DB,
        *,
        shards: int = 1,
        policy: AdmissionPolicy | None = None,
        **db_kwargs,
    ):
        """Create and register a database under ``name``.

        ``shards > 1`` builds a :class:`ShardedDatabase`; other keyword
        arguments go to the facade constructor unchanged (``observe=``,
        ``resilience=``, ``backend=``, ...).
        """
        with self._registry_lock:
            if name in self._dbs:
                raise ValueError(f"database {name!r} already exists")
            if shards > 1:
                db = ShardedDatabase(shards=shards, **db_kwargs)
            else:
                db = AdaptiveDatabase(**db_kwargs)
            self._dbs[name] = db
            self._locks[name] = threading.RLock()
            self._admission[name] = AdmissionController(
                db, policy, observer=db.observer
            )
            self._engines[name] = {}
            return db

    def add_database(
        self,
        name: str,
        db,
        policy: AdmissionPolicy | None = None,
    ) -> None:
        """Register an externally constructed database."""
        with self._registry_lock:
            if name in self._dbs:
                raise ValueError(f"database {name!r} already exists")
            self._dbs[name] = db
            self._locks[name] = threading.RLock()
            self._admission[name] = AdmissionController(
                db, policy, observer=db.observer
            )
            self._engines[name] = {}

    def database(self, name: str = DEFAULT_DB):
        if name not in self._dbs:
            raise KeyError(f"no such database: {name!r}")
        return self._dbs[name]

    def lock(self, name: str = DEFAULT_DB) -> threading.RLock:
        """The request lock serializing all statements of one database."""
        self.database(name)
        return self._locks[name]

    def admission(self, name: str = DEFAULT_DB) -> AdmissionController:
        self.database(name)
        return self._admission[name]

    def engines(self, name: str = DEFAULT_DB) -> dict[str, QueryEngine]:
        """The shared table→engine registry of one database."""
        self.database(name)
        return self._engines[name]

    # -- sessions -------------------------------------------------------

    def open_session(
        self,
        db_name: str = DEFAULT_DB,
        options: SessionOptions | None = None,
    ) -> Session:
        """Open a session: admission check, then a ready Session.

        Raises :class:`~repro.server.admission.SessionShed` when the
        health state machine or the capacity cap refuses the session.
        """
        db = self.database(db_name)
        options = options or SessionOptions()
        with self._registry_lock:
            self._session_seq += 1
            session_id = self._session_seq
        with self._locks[db_name]:
            decision, reason = self._admission[db_name].admit_session(
                session_id
            )
        from .admission import AdmissionDecision
        from .options import PLANNER_FULLSCAN

        degraded = (
            decision is AdmissionDecision.DEGRADE
            or options.planner == PLANNER_FULLSCAN
        )
        return Session(
            manager=self,
            db_name=db_name,
            session_id=session_id,
            options=options,
            degraded=degraded,
            admit_reason=reason,
        )

    # -- lifecycle ------------------------------------------------------

    def flush_all(self) -> None:
        """Flush staged writes of every database (graceful shutdown).

        Takes each database's request lock so a flush never interleaves
        with a statement; databases without a ``flush_all`` (sharded)
        are skipped — they stage nothing durable.
        """
        for name, db in list(self._dbs.items()):
            flush = getattr(db, "flush_all", None)
            if flush is None:
                continue
            with self._locks[name]:
                flush()

    def close(self) -> None:
        """Close shared engines, then every registered database."""
        for engines in self._engines.values():
            for engine in engines.values():
                engine.close()
            engines.clear()
        for db in self._dbs.values():
            db.close()
        self._dbs.clear()
        self._locks.clear()
        self._admission.clear()
        self._engines.clear()

    def __enter__(self) -> "DatabaseManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
