//! Row values and the on-media row codec.

use crate::schema::{ColumnType, Cursor, Schema};
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Numeric view (ints coerce to floats for mixed comparisons).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(_) => None,
        }
    }

    /// The column type this value inhabits.
    pub(crate) fn column_type(&self) -> ColumnType {
        match self {
            Value::Int(_) => ColumnType::Int,
            Value::Float(_) => ColumnType::Float,
            Value::Str(_) => ColumnType::Str,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// One table row: values in schema column order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Cell values, one per schema column.
    pub values: Vec<Value>,
}

impl Row {
    /// Creates a row.
    pub(crate) fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Validates the row against a schema (arity + per-column types).
    pub(crate) fn matches_schema(&self, schema: &Schema) -> bool {
        self.values.len() == schema.columns.len()
            && self
                .values
                .iter()
                .zip(&schema.columns)
                .all(|(v, c)| v.column_type() == c.ty)
    }

    /// Appends the row's encoding: ints/floats as 8 LE bytes, strings as
    /// `[len u16][bytes]`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        for v in &self.values {
            match v {
                Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
                Value::Float(f) => out.extend_from_slice(&f.to_bits().to_le_bytes()),
                Value::Str(s) => {
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }

    /// Encoded size in bytes.
    pub(crate) fn encoded_len(&self) -> usize {
        self.values
            .iter()
            .map(|v| match v {
                Value::Int(_) | Value::Float(_) => 8,
                Value::Str(s) => 2 + s.len(),
            })
            .sum()
    }

    /// Decodes one row per `schema` from the cursor position.
    pub(crate) fn decode_from(cur: &mut Cursor<'_>, schema: &Schema) -> Option<Row> {
        let mut values = Vec::with_capacity(schema.columns.len());
        for c in &schema.columns {
            values.push(match c.ty {
                ColumnType::Int => Value::Int(cur.take_u64()? as i64),
                ColumnType::Float => Value::Float(f64::from_bits(cur.take_u64()?)),
                ColumnType::Str => Value::Str(cur.take_string()?),
            });
        }
        Some(Row { values })
    }

    /// Decodes a packed sequence of rows (`[count u32]` header then rows).
    pub(crate) fn decode_batch(bytes: &[u8], schema: &Schema) -> Option<Vec<Row>> {
        let mut cur = Cursor { bytes, pos: 0 };
        let count = cur.take_u32()? as usize;
        // The count comes off the wire; every row takes at least one byte,
        // so the bytes left bound what it may reserve.
        let mut rows = Vec::with_capacity(count.min(bytes.len() - cur.pos));
        for _ in 0..count {
            rows.push(Row::decode_from(&mut cur, schema)?);
        }
        Some(rows)
    }

    /// Encodes a batch with a `[count u32]` header.
    pub(crate) fn encode_batch(rows: &[Row]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + rows.iter().map(Row::encoded_len).sum::<usize>());
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for r in rows {
            r.encode_into(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Float),
                Column::new("c", ColumnType::Str),
            ],
        )
    }

    fn row(a: i64, b: f64, c: &str) -> Row {
        Row::new(vec![
            Value::Int(a),
            Value::Float(b),
            Value::Str(c.to_string()),
        ])
    }

    #[test]
    fn batch_round_trip() {
        let rows = vec![
            row(1, 2.5, "x"),
            row(-7, 0.0, ""),
            row(i64::MAX, -1e300, "long string here"),
        ];
        let schema = schema();
        let encoded = Row::encode_batch(&rows);
        assert_eq!(Row::decode_batch(&encoded, &schema), Some(rows));
    }

    #[test]
    fn schema_validation() {
        let s = schema();
        assert!(row(1, 1.0, "ok").matches_schema(&s));
        assert!(!Row::new(vec![Value::Int(1)]).matches_schema(&s));
        assert!(!Row::new(vec![
            Value::Str("wrong".into()),
            Value::Float(0.0),
            Value::Str("x".into())
        ])
        .matches_schema(&s));
    }

    #[test]
    fn encoded_len_matches() {
        let r = row(1, 2.0, "abc");
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        assert_eq!(r.encoded_len(), 8 + 8 + 2 + 3);
    }

    #[test]
    fn truncated_batch_is_none() {
        let rows = vec![row(1, 2.5, "x")];
        let encoded = Row::encode_batch(&rows);
        assert_eq!(
            Row::decode_batch(&encoded[..encoded.len() - 1], &schema()),
            None
        );
    }

    /// A count the bytes cannot hold decodes to `None` — without first
    /// reserving room for it (`u32::MAX` rows would be ≈ 103 GB).
    #[test]
    fn count_beyond_the_rows_is_none() {
        assert_eq!(Row::decode_batch(&u32::MAX.to_le_bytes(), &schema()), None);
        let mut encoded = Row::encode_batch(&[row(1, 2.5, "x"), row(2, 0.5, "y")]);
        encoded[..4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(Row::decode_batch(&encoded, &schema()), None);
    }

    #[test]
    fn value_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }
}
