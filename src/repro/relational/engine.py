"""Logical queries and their executor.

A :class:`SelectQuery` is the engine's logical plan: projection or
aggregation over one table (optionally hash-joined with another), with an
optional WHERE predicate, GROUP BY, ORDER BY, and LIMIT.  :func:`execute`
runs a plan against a :class:`~repro.relational.catalog.Catalog` or a single
:class:`~repro.relational.table.Table` and returns a result
:class:`~repro.relational.table.Table`.

Aggregate functions: COUNT, SUM, AVG, MIN, MAX, STDDEV (population standard
deviation, matching the paper's Figure 1 sigma), and VAR.  ``COUNT(*)`` is
spelled ``Aggregate('count', '*')``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from repro.errors import RelationalError
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import ColumnType

AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max", "stddev", "var")


class Aggregate:
    """One aggregate output column: ``func(column) AS alias``."""

    __slots__ = ("func", "column", "alias")

    def __init__(self, func, column, alias=None):
        func = func.lower()
        if func not in AGGREGATE_FUNCS:
            raise RelationalError(f"unknown aggregate function {func!r}")
        if column == "*" and func != "count":
            raise RelationalError(f"{func}(*) is not valid; only count(*)")
        self.func = func
        self.column = column
        self.alias = alias or (f"{func}_{column}" if column != "*" else "count")

    def compute(self, values):
        """Apply the aggregate to a list of (possibly NULL) values.

        SQL semantics: NULLs are skipped; aggregates over an empty set
        yield NULL, except COUNT which yields 0.
        """
        if self.func == "count":
            if self.column == "*":
                return len(values)
            return sum(1 for v in values if v is not None)
        present = [v for v in values if v is not None]
        if not present:
            return None
        if self.func == "sum":
            return sum(present)
        if self.func == "avg":
            return sum(present) / len(present)
        if self.func == "min":
            return min(present)
        if self.func == "max":
            return max(present)
        mean = sum(present) / len(present)
        variance = sum((v - mean) ** 2 for v in present) / len(present)
        if self.func == "var":
            return variance
        return math.sqrt(variance)

    def output_type(self, input_type):
        """The result column type given the input column's type."""
        if self.func == "count":
            return ColumnType.INT
        if input_type is ColumnType.BOOL:
            return ColumnType.FLOAT  # bools aggregate as 0/1
        if self.func in ("min", "max", "sum"):
            return input_type
        return ColumnType.FLOAT

    def __repr__(self):
        return f"{self.func}({self.column}) AS {self.alias}"

    def __eq__(self, other):
        return (
            isinstance(other, Aggregate)
            and (self.func, self.column, self.alias)
            == (other.func, other.column, other.alias)
        )


class Join:
    """An equi-join clause: ``JOIN right_table ON left_col = right_col``."""

    __slots__ = ("right_table", "left_column", "right_column")

    def __init__(self, right_table, left_column, right_column):
        self.right_table = right_table
        self.left_column = left_column
        self.right_column = right_column

    def __repr__(self):
        return (
            f"JOIN {self.right_table} ON "
            f"{self.left_column} = {self.right_column}"
        )

    def __eq__(self, other):
        return (
            isinstance(other, Join)
            and (self.right_table, self.left_column, self.right_column)
            == (other.right_table, other.left_column, other.right_column)
        )


class SelectQuery:
    """A logical SELECT over one table (plus optional equi-join)."""

    def __init__(
        self,
        table,
        columns=None,
        aggregates=None,
        where=None,
        group_by=None,
        order_by=None,
        limit=None,
        join=None,
        distinct=False,
    ):
        from repro.relational.expr import TRUE

        if columns and aggregates and not group_by:
            raise RelationalError(
                "mixing plain columns and aggregates requires GROUP BY"
            )
        if not columns and not aggregates:
            columns = ["*"]
        self.table = table
        self.columns = list(columns or [])
        self.aggregates = list(aggregates or [])
        self.where = where if where is not None else TRUE
        self.group_by = list(group_by or [])
        self.order_by = list(order_by or [])  # list of (column, ascending)
        self.limit = limit
        self.join = join
        self.distinct = distinct
        if self.group_by:
            stray = [c for c in self.columns if c not in self.group_by and c != "*"]
            if stray:
                raise RelationalError(
                    f"non-grouped columns in grouped query: {stray}"
                )

    @property
    def is_aggregate(self):
        """True when the query computes aggregate functions."""
        return bool(self.aggregates)

    def output_columns(self):
        """Names of the result columns, in order."""
        names = [c for c in self.columns if c != "*"]
        names.extend(a.alias for a in self.aggregates)
        return names

    def columns_used(self):
        """Every column the query touches (projection + predicates + keys)."""
        used = {c for c in self.columns if c != "*"}
        used |= {a.column for a in self.aggregates if a.column != "*"}
        used |= self.where.columns_used()
        used |= set(self.group_by)
        used |= {c for c, _asc in self.order_by}
        if self.join is not None:
            used |= {self.join.left_column, self.join.right_column}
        return used

    def replace(self, **changes):
        """A copy of this query with the given fields replaced."""
        fields = {
            "table": self.table,
            "columns": self.columns,
            "aggregates": self.aggregates,
            "where": self.where,
            "group_by": self.group_by,
            "order_by": self.order_by,
            "limit": self.limit,
            "join": self.join,
            "distinct": self.distinct,
        }
        fields.update(changes)
        return SelectQuery(**fields)

    def __repr__(self):
        from repro.relational.sql import to_sql

        return f"SelectQuery({to_sql(self)!r})"


#: What :func:`select` returns: the scanned row dicts a query's WHERE
#: admits, the scanned schema, and each kept row's position in the scan
#: (for a query without a join, its index in the base table).
Selection = namedtuple("Selection", "rows schema indices")


def select(query, source):
    """Scan ``query``'s table (joined, if it has a join) and apply its WHERE.

    A caller that needs the selected rows itself, and then the query's
    result, hands the :class:`Selection` to :func:`execute`, which then
    does not scan again.
    """
    rows, schema = _scan(*_tables(query, source), query.join)
    where = query.where
    kept, indices = [], []
    for index, row in enumerate(rows):
        if where.evaluate(row):
            kept.append(row)
            indices.append(index)
    return Selection(kept, schema, indices)


def execute(query, source, selection=None):
    """Execute ``query`` against ``source`` (a Catalog or a Table).

    ``selection`` is :func:`select`'s result for the same query and
    source, when the caller already holds it.
    """
    if selection is None:
        rows, schema = _scan(*_tables(query, source), query.join)
        rows = [row for row in rows if query.where.evaluate(row)]
    else:
        rows, schema = selection.rows, selection.schema

    if query.is_aggregate:
        result = _aggregate(query, rows, schema)
        if query.order_by:
            # Grouped output: order-by columns must appear in the result.
            for column, ascending in reversed(query.order_by):
                index = result.schema.index_of(column)
                _sort_nulls_last(result.rows, lambda r, i=index: r[i], ascending)
    else:
        # Sort the source rows before projecting so ORDER BY may use
        # columns that the projection drops (standard SQL behaviour).
        if query.order_by:
            for column, ascending in reversed(query.order_by):
                if not schema.has_column(column):
                    raise RelationalError(f"unknown ORDER BY column {column!r}")
                _sort_nulls_last(rows, lambda r, c=column: r[c], ascending)
        result = _project(query, rows, schema)

    if query.limit is not None:
        result.rows = result.rows[: query.limit]
    return result


def _sort_nulls_last(rows, key, ascending):
    """Stable in-place sort by ``key`` with NULLs last in either direction."""
    present = [r for r in rows if key(r) is not None]
    absent = [r for r in rows if key(r) is None]
    present.sort(key=key, reverse=not ascending)
    rows[:] = present + absent


# -- executor internals -------------------------------------------------------


def _tables(query, source):
    """The base table and the join's right table (or None) of ``query``."""
    from repro.relational.catalog import Catalog

    if isinstance(source, Catalog):
        base = source.table(query.table)
        right = source.table(query.join.right_table) if query.join else None
    elif isinstance(source, Table):
        base = source
        if query.join is not None:
            raise RelationalError("joins require a Catalog source")
        right = None
    else:
        raise RelationalError(f"cannot execute against {type(source).__name__}")
    return base, right


def _scan(base, right, join):
    """Yield the (possibly joined) row dicts plus the combined schema."""
    if right is None:
        return list(base.rows_as_dicts()), base.schema

    # Hash join: build on the right, probe with the left.
    build = {}
    right_index = right.schema.index_of(join.right_column)
    for row in right.rows:
        build.setdefault(row[right_index], []).append(row)

    right_names = right.schema.column_names()
    joined_columns = list(base.schema.columns)
    seen = set(base.schema.column_names())
    rename = {}
    for column in right.schema.columns:
        name = column.name
        if name in seen:
            name = f"{right.schema.name}_{column.name}"
        rename[column.name] = name
        joined_columns.append(Column(name, column.type, column.nullable))
        seen.add(name)
    schema = TableSchema(base.schema.name, joined_columns)

    rows = []
    for left_row in base.rows_as_dicts():
        key = left_row.get(join.left_column)
        if key is None:
            continue
        for right_row in build.get(key, ()):
            combined = dict(left_row)
            combined.update(
                (rename[n], v) for n, v in zip(right_names, right_row)
            )
            rows.append(combined)
    return rows, schema


def _project(query, rows, schema):
    if query.columns == ["*"]:
        names = schema.column_names()
    else:
        names = query.columns
        for name in names:
            if not schema.has_column(name):
                # repro-lint: disable=REP010 -- echoes the requester's
                # own SELECT list and a table name: identifiers only
                raise RelationalError(
                    f"unknown column {name!r} in table {schema.name!r}"
                )
    columns = [schema.column(n) for n in names]
    result = Table(TableSchema(schema.name, columns))
    emitted = set()
    for row in rows:
        values = tuple(row[n] for n in names)
        if query.distinct:
            if values in emitted:
                continue
            emitted.add(values)
        result.rows.append(values)
    return result


def _aggregate(query, rows, schema):
    for aggregate in query.aggregates:
        if aggregate.column != "*" and not schema.has_column(aggregate.column):
            raise RelationalError(
                f"unknown aggregate column {aggregate.column!r}"
            )
        if aggregate.column != "*" and aggregate.func not in ("count", "min", "max"):
            column_type = schema.column(aggregate.column).type
            # BOOL aggregates as 0/1 — AVG(compliant) is a compliance rate.
            if not column_type.is_numeric and column_type is not ColumnType.BOOL:
                raise RelationalError(
                    f"{aggregate.func}({aggregate.column}) needs a numeric column"
                )
    for name in query.group_by:
        if not schema.has_column(name):
            raise RelationalError(f"unknown GROUP BY column {name!r}")

    out_columns = [schema.column(n) for n in query.group_by]
    for aggregate in query.aggregates:
        input_type = (
            ColumnType.INT
            if aggregate.column == "*"
            else schema.column(aggregate.column).type
        )
        out_columns.append(
            Column(aggregate.alias, aggregate.output_type(input_type))
        )
    result = Table(TableSchema(schema.name, out_columns))

    groups = {}
    for row in rows:
        key = tuple(row[n] for n in query.group_by)
        groups.setdefault(key, []).append(row)
    if not query.group_by and not groups:
        groups[()] = []  # global aggregate over zero rows still emits one row

    for key in sorted(groups, key=_null_safe_key):
        group_rows = groups[key]
        values = list(key)
        for aggregate in query.aggregates:
            if aggregate.column == "*":
                column_values = [1] * len(group_rows)
            else:
                column_values = [
                    float(v) if isinstance(v, bool) else v
                    for v in (r[aggregate.column] for r in group_rows)
                ]
            values.append(aggregate.compute(column_values))
        result.rows.append(tuple(values))
    return result


def _null_safe_key(key):
    return tuple((v is None, str(type(v).__name__), v) for v in key)
