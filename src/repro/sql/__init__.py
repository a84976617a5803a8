"""A small SQL front-end over the adaptive storage layer.

Supports the subset a range-predicate workload needs — CREATE TABLE /
INSERT (load-once), SELECT with BETWEEN/comparison predicates and
aggregates, UPDATE, FLUSH UPDATES (batch view realignment), SHOW VIEWS
(introspection) and EXPLAIN (routing decisions).  See
:mod:`repro.sql.parser` for the grammar.

Example::

    from repro.sql import Session

    with Session() as sess:
        sess.execute("CREATE TABLE t (k, v)")
        sess.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        result = sess.execute("SELECT v FROM t WHERE k BETWEEN 2 AND 3")
        print(result.pretty())
"""

from .errors import ExecutionError, ParseError, SqlError, TokenizeError
from .executor import ResultTable, Session
from .nodes import (
    Aggregate,
    CreateTableStatement,
    DeleteStatement,
    ExplainStatement,
    FlushStatement,
    InsertStatement,
    RangePredicate,
    SelectStatement,
    ShowViewsStatement,
    UpdateStatement,
)
from .parser import parse
from .tokens import Token, TokenType, tokenize

__all__ = [
    "Aggregate",
    "CreateTableStatement",
    "DeleteStatement",
    "ExecutionError",
    "ExplainStatement",
    "FlushStatement",
    "InsertStatement",
    "parse",
    "ParseError",
    "RangePredicate",
    "ResultTable",
    "SelectStatement",
    "Session",
    "ShowViewsStatement",
    "SqlError",
    "Token",
    "tokenize",
    "TokenizeError",
    "TokenType",
    "UpdateStatement",
]
