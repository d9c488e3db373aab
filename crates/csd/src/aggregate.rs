//! Host-side aggregation over device-filtered rows.
//!
//! Pushdown splits a query at the WHERE clause: the CSD runs the filter
//! (§2.2.2), and everything after — aggregates, GROUP BY, ORDER BY — stays
//! host-side. This module completes that split so TPC-H Q1 runs end to end:
//! filtered `lineitem` rows come back from the device and the host computes
//! `sum(l_quantity), sum(l_extendedprice), avg(l_discount), count(*)` per
//! `(l_returnflag, l_linestatus)` group.

use crate::row::{Row, Value};
use crate::schema::Schema;
use crate::sql::Query;
use std::collections::BTreeMap;
use std::fmt;

/// One aggregate function over a column (or `*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Aggregate {
    /// A plain column reference (must be a grouping column).
    Column(String),
    /// `count(*)` or `count(col)`.
    Count,
    /// `sum(col)`.
    Sum(String),
    /// `avg(col)`.
    Avg(String),
    /// `min(col)`.
    Min(String),
    /// `max(col)`.
    Max(String),
}

/// Errors from aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// A projection item could not be interpreted.
    BadProjection(String),
    /// An aggregate or grouping column is not in the schema.
    UnknownColumn(String),
    /// A numeric aggregate was applied to a string column.
    NonNumeric(String),
    /// A bare column in the projection is not a grouping column.
    NotGrouped(String),
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::BadProjection(p) => write!(f, "bad projection item '{p}'"),
            AggregateError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            AggregateError::NonNumeric(c) => write!(f, "non-numeric column '{c}' in aggregate"),
            AggregateError::NotGrouped(c) => {
                write!(f, "column '{c}' appears without aggregation or grouping")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// Parses a projection item into an [`Aggregate`].
pub(crate) fn parse_projection_item(item: &str) -> Result<Aggregate, AggregateError> {
    let item = item.trim();
    if let Some(open) = item.find('(') {
        let func = item[..open].to_ascii_lowercase();
        let Some(inner) = item[open + 1..].strip_suffix(')') else {
            return Err(AggregateError::BadProjection(item.to_string()));
        };
        let col = inner.trim().to_string();
        return match func.as_str() {
            "count" => Ok(Aggregate::Count),
            "sum" => Ok(Aggregate::Sum(col)),
            "avg" => Ok(Aggregate::Avg(col)),
            "min" => Ok(Aggregate::Min(col)),
            "max" => Ok(Aggregate::Max(col)),
            _ => Err(AggregateError::BadProjection(item.to_string())),
        };
    }
    if item == "*" {
        return Err(AggregateError::BadProjection("*".to_string()));
    }
    Ok(Aggregate::Column(item.to_string()))
}

/// Extracts the GROUP BY column list from a query's trailing clauses.
pub(crate) fn group_by_columns(query: &Query) -> Vec<String> {
    let lower = query.trailing.to_ascii_lowercase();
    let Some(start) = lower.find("group by") else {
        return Vec::new();
    };
    let rest = &query.trailing[start + "group by".len()..];
    let end = rest
        .to_ascii_lowercase()
        .find("order by")
        .or_else(|| rest.to_ascii_lowercase().find("limit"))
        .unwrap_or(rest.len());
    rest[..end]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// One output row of an aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// The grouping key values (empty for a global aggregate).
    pub group: Vec<Value>,
    /// One value per projection item.
    pub values: Vec<Value>,
}

#[derive(Debug, Default, Clone)]
struct Accumulator {
    count: u64,
    sums: Vec<f64>,
    mins: Vec<Option<f64>>,
    maxs: Vec<Option<f64>>,
}

/// Computes the query's projection over device-filtered rows, grouped by its
/// GROUP BY columns. Rows must match `schema`.
///
/// # Errors
///
/// [`AggregateError`] for malformed projections or column mismatches.
pub fn host_aggregate(
    query: &Query,
    schema: &Schema,
    rows: &[Row],
) -> Result<Vec<AggregateRow>, AggregateError> {
    let group_cols = group_by_columns(query);
    let group_idx: Vec<usize> = group_cols
        .iter()
        .map(|c| {
            schema
                .column_index(c)
                .ok_or_else(|| AggregateError::UnknownColumn(c.clone()))
        })
        .collect::<Result<_, _>>()?;

    let aggregates: Vec<Aggregate> = query
        .projection
        .iter()
        .map(|p| parse_projection_item(p))
        .collect::<Result<_, _>>()?;

    // Resolve aggregate columns once.
    let mut numeric_cols = Vec::new();
    for a in &aggregates {
        match a {
            Aggregate::Column(c) => {
                if !group_cols.contains(c) {
                    return Err(AggregateError::NotGrouped(c.clone()));
                }
            }
            Aggregate::Count => {}
            Aggregate::Sum(c) | Aggregate::Avg(c) | Aggregate::Min(c) | Aggregate::Max(c) => {
                let idx = schema
                    .column_index(c)
                    .ok_or_else(|| AggregateError::UnknownColumn(c.clone()))?;
                numeric_cols.push((c.clone(), idx));
            }
        }
    }

    // Group rows; keys rendered via Display for ordering + equality.
    let mut groups: BTreeMap<String, (Vec<Value>, Accumulator)> = BTreeMap::new();
    for row in rows {
        let key_values: Vec<Value> = group_idx.iter().map(|&i| row.values[i].clone()).collect();
        let key: String = key_values.iter().map(|v| format!("{v}\u{1}")).collect();
        let entry = groups.entry(key).or_insert_with(|| {
            (
                key_values.clone(),
                Accumulator {
                    sums: vec![0.0; numeric_cols.len()],
                    mins: vec![None; numeric_cols.len()],
                    maxs: vec![None; numeric_cols.len()],
                    ..Default::default()
                },
            )
        });
        entry.1.count += 1;
        for (slot, (name, idx)) in numeric_cols.iter().enumerate() {
            let v = row.values[*idx]
                .as_f64()
                .ok_or_else(|| AggregateError::NonNumeric(name.clone()))?;
            entry.1.sums[slot] += v;
            entry.1.mins[slot] = Some(entry.1.mins[slot].map_or(v, |m| m.min(v)));
            entry.1.maxs[slot] = Some(entry.1.maxs[slot].map_or(v, |m| m.max(v)));
        }
    }

    // Emit projection values per group.
    let mut out = Vec::with_capacity(groups.len());
    for (_, (group, acc)) in groups {
        let mut values = Vec::with_capacity(aggregates.len());
        #[expect(
            clippy::expect_used,
            reason = "every Sum/Avg/Min/Max column was pushed onto numeric_cols by the resolve loop above"
        )]
        let slot_of = |col: &str| {
            numeric_cols
                .iter()
                .position(|(c, _)| c == col)
                .expect("resolved above")
        };
        for a in &aggregates {
            values.push(match a {
                Aggregate::Column(c) => {
                    #[expect(clippy::expect_used, reason = "the resolve loop above returned NotGrouped for any projected column missing from group_cols")]
                    let pos = group_cols.iter().position(|g| g == c).expect("validated");
                    group[pos].clone()
                }
                Aggregate::Count => Value::Int(acc.count as i64),
                Aggregate::Sum(c) => Value::Float(acc.sums[slot_of(c)]),
                Aggregate::Avg(c) => Value::Float(acc.sums[slot_of(c)] / acc.count as f64),
                Aggregate::Min(c) => Value::Float(acc.mins[slot_of(c)].unwrap_or(f64::NAN)),
                Aggregate::Max(c) => Value::Float(acc.maxs[slot_of(c)].unwrap_or(f64::NAN)),
            });
        }
        out.push(AggregateRow { group, values });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use crate::sql::parse_query;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("flag", ColumnType::Str),
                Column::new("qty", ColumnType::Float),
                Column::new("price", ColumnType::Int),
            ],
        )
    }

    fn row(flag: &str, qty: f64, price: i64) -> Row {
        Row::new(vec![
            Value::Str(flag.into()),
            Value::Float(qty),
            Value::Int(price),
        ])
    }

    #[test]
    fn projection_item_parsing() {
        assert_eq!(parse_projection_item("count(*)").unwrap(), Aggregate::Count);
        assert_eq!(
            parse_projection_item("sum(qty)").unwrap(),
            Aggregate::Sum("qty".into())
        );
        assert_eq!(
            parse_projection_item("avg(x)").unwrap(),
            Aggregate::Avg("x".into())
        );
        assert_eq!(
            parse_projection_item("flag").unwrap(),
            Aggregate::Column("flag".into())
        );
        assert!(parse_projection_item("median(x)").is_err());
        assert!(parse_projection_item("*").is_err());
    }

    #[test]
    fn group_by_extraction() {
        let q =
            parse_query("SELECT flag FROM t WHERE qty > 0 GROUP BY flag ORDER BY flag").unwrap();
        assert_eq!(group_by_columns(&q), vec!["flag"]);
        let q2 = parse_query("SELECT count(*) FROM t WHERE qty > 0").unwrap();
        assert!(group_by_columns(&q2).is_empty());
    }

    #[test]
    fn grouped_aggregation() {
        let q = parse_query(
            "SELECT flag, sum(qty), avg(price), count(*) FROM t WHERE qty > 0 GROUP BY flag",
        )
        .unwrap();
        let rows = vec![row("A", 1.0, 10), row("A", 2.0, 30), row("B", 5.0, 100)];
        let out = host_aggregate(&q, &schema(), &rows).unwrap();
        assert_eq!(out.len(), 2);
        let a = &out[0];
        assert_eq!(a.values[0], Value::Str("A".into()));
        assert_eq!(a.values[1], Value::Float(3.0));
        assert_eq!(a.values[2], Value::Float(20.0));
        assert_eq!(a.values[3], Value::Int(2));
        let b = &out[1];
        assert_eq!(b.values[1], Value::Float(5.0));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let q = parse_query("SELECT count(*), max(qty), min(qty) FROM t WHERE qty > 0").unwrap();
        let rows = vec![row("A", 1.5, 1), row("B", 9.0, 2), row("C", -3.0, 3)];
        let out = host_aggregate(&q, &schema(), &rows).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values[0], Value::Int(3));
        assert_eq!(out[0].values[1], Value::Float(9.0));
        assert_eq!(out[0].values[2], Value::Float(-3.0));
    }

    #[test]
    fn errors_are_specific() {
        let s = schema();
        let q = parse_query("SELECT sum(ghost) FROM t WHERE qty > 0").unwrap();
        assert_eq!(
            host_aggregate(&q, &s, &[]).unwrap_err(),
            AggregateError::UnknownColumn("ghost".into())
        );
        let q = parse_query("SELECT qty FROM t WHERE qty > 0 GROUP BY flag").unwrap();
        assert_eq!(
            host_aggregate(&q, &s, &[row("A", 1.0, 1)]).unwrap_err(),
            AggregateError::NotGrouped("qty".into())
        );
        let q = parse_query("SELECT sum(flag) FROM t WHERE qty > 0").unwrap();
        assert_eq!(
            host_aggregate(&q, &s, &[row("A", 1.0, 1)]).unwrap_err(),
            AggregateError::NonNumeric("flag".into())
        );
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let q = parse_query("SELECT flag, count(*) FROM t WHERE qty > 0 GROUP BY flag").unwrap();
        assert!(host_aggregate(&q, &schema(), &[]).unwrap().is_empty());
    }
}
