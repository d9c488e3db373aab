//! Table schemas.
//!
//! The paper's key observation for CSDs: "the SSD already stores table
//! schema. As a result, the host only needs to transmit a predicate and a
//! table identifier" (§2.2.2). Schemas are registered once (bulk, via PRP)
//! and live in the device catalog thereafter.

use std::fmt;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Variable-length UTF-8 string.
    Str,
}

impl ColumnType {
    fn code(self) -> u8 {
        match self {
            ColumnType::Int => 0,
            ColumnType::Float => 1,
            ColumnType::Str => 2,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Str,
            _ => return None,
        })
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "INT"),
            ColumnType::Float => write!(f, "FLOAT"),
            ColumnType::Str => write!(f, "STR"),
        }
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Column name (lowercase by convention).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Column {
    /// Creates a column.
    pub(crate) fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// A table schema: name + ordered columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    /// Table name.
    pub table: String,
    /// Ordered columns.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema.
    ///
    /// # Panics
    ///
    /// Panics on empty column lists or duplicate column names.
    pub(crate) fn new(table: impl Into<String>, columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "schema needs at least one column");
        let mut names: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), columns.len(), "duplicate column names");
        Schema {
            table: table.into(),
            columns,
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Whether `name` is a column of this table.
    pub(crate) fn has_column(&self, name: &str) -> bool {
        self.column_index(name).is_some()
    }

    /// Serializes the schema for the create-table command payload:
    /// `[table_len u16][table][ncols u16] ([ty u8][name_len u16][name])*`.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.table.len() as u16).to_le_bytes());
        out.extend_from_slice(self.table.as_bytes());
        out.extend_from_slice(&(self.columns.len() as u16).to_le_bytes());
        for c in &self.columns {
            out.push(c.ty.code());
            out.extend_from_slice(&(c.name.len() as u16).to_le_bytes());
            out.extend_from_slice(c.name.as_bytes());
        }
        out
    }

    /// Deserializes a schema from a create-table payload.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Schema> {
        let mut cur = Cursor { bytes, pos: 0 };
        let table = cur.take_string()?;
        let ncols = cur.take_u16()? as usize;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let ty = ColumnType::from_code(cur.take_u8()?)?;
            let name = cur.take_string()?;
            columns.push(Column { name, ty });
        }
        if columns.is_empty() {
            return None;
        }
        Some(Schema { table, columns })
    }
}

pub(crate) struct Cursor<'a> {
    pub bytes: &'a [u8],
    pub pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take_u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn take_u16(&mut self) -> Option<u16> {
        let b = self.bytes.get(self.pos..self.pos + 2)?;
        self.pos += 2;
        Some(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn take_u32(&mut self) -> Option<u32> {
        let b = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn take_u64(&mut self) -> Option<u64> {
        let b = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn take_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(b)
    }

    pub(crate) fn take_string(&mut self) -> Option<String> {
        let len = self.take_u16()? as usize;
        let b = self.take_bytes(len)?;
        String::from_utf8(b.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(
            "particles",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("energy", ColumnType::Float),
                Column::new("species", ColumnType::Str),
            ],
        )
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample();
        assert_eq!(Schema::decode(&s.encode()), Some(s));
    }

    #[test]
    fn column_lookup() {
        let s = sample();
        assert_eq!(s.column_index("energy"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        assert!(s.has_column("id"));
    }

    #[test]
    fn decode_garbage_is_none() {
        assert_eq!(Schema::decode(&[0xFF; 3]), None);
        assert_eq!(Schema::decode(&[]), None);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Schema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("a", ColumnType::Float),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_schema_panics() {
        let _ = Schema::new("t", vec![]);
    }
}
