//! The wire format of the observability layer: one [`Record`] per span
//! boundary, event, counter increment or histogram sample.
//!
//! Records are plain data — sinks decide what to do with them (discard,
//! buffer, serialize). The JSONL serialization uses short keys to keep
//! traces compact: `k` kind, `n` name, `id`/`p` span ids, `vt` virtual
//! time, `wus` wall microseconds, `v` value, `f` fields.

use minijson::Value;

/// A typed field value attached to a record.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A floating-point quantity.
    F64(f64),
    /// An unsigned integer (node ids, phases, counts).
    U64(u64),
    /// A boolean flag.
    Bool(bool),
    /// A string label.
    Str(String),
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u8> for FieldValue {
    fn from(v: u8) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A value the instrumentation macros accept for a field: anything that
/// converts to a [`FieldValue`], or an `Option` of one. `None` leaves the
/// field out of the record; `Some(v)` renders exactly as `v`.
pub trait OptionalField {
    /// The field's value, or `None` to leave the field out.
    fn into_field(self) -> Option<FieldValue>;
}

impl<T: Into<FieldValue>> OptionalField for Option<T> {
    fn into_field(self) -> Option<FieldValue> {
        self.map(Into::into)
    }
}

macro_rules! always_present {
    ($($t:ty),*) => {
        $(impl OptionalField for $t {
            fn into_field(self) -> Option<FieldValue> {
                Some(self.into())
            }
        })*
    };
}
always_present!(f64, u64, usize, u8, bool, &str, String);

impl FieldValue {
    /// Convert to a JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            FieldValue::F64(x) => Value::Number(*x),
            FieldValue::U64(x) => Value::Number(*x as f64),
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::Str(s) => Value::String(s.clone()),
        }
    }

    /// The numeric view (integers widen, booleans are 0/1, strings None).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::F64(x) => Some(*x),
            FieldValue::U64(x) => Some(*x as f64),
            FieldValue::Bool(b) => Some(*b as u64 as f64),
            FieldValue::Str(_) => None,
        }
    }
}

/// A key/value field.
pub type Field = (&'static str, FieldValue);

/// What a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened (`span` carries its id, `parent` its enclosing span).
    SpanStart,
    /// A span closed (`span` carries its id).
    SpanEnd,
    /// A point event.
    Event,
    /// A counter increment (`value` is the delta).
    Counter,
    /// A histogram sample (`value` is the sample).
    Histogram,
}

impl RecordKind {
    /// Short serialized tag.
    pub fn tag(self) -> &'static str {
        match self {
            RecordKind::SpanStart => "ss",
            RecordKind::SpanEnd => "se",
            RecordKind::Event => "ev",
            RecordKind::Counter => "ct",
            RecordKind::Histogram => "hg",
        }
    }

    /// Parse a serialized tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "ss" => RecordKind::SpanStart,
            "se" => RecordKind::SpanEnd,
            "ev" => RecordKind::Event,
            "ct" => RecordKind::Counter,
            "hg" => RecordKind::Histogram,
            _ => return None,
        })
    }
}

/// One observability record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The record kind.
    pub kind: RecordKind,
    /// Span/event/metric name.
    pub name: &'static str,
    /// Span id for `SpanStart`/`SpanEnd`; the *enclosing* span for events
    /// and metrics (0 = none).
    pub span: u64,
    /// Parent span id for `SpanStart` (0 = root).
    pub parent: u64,
    /// Virtual (simulation) time, when known; NaN when the record is not
    /// anchored to the simulated clock (serialized as `null`).
    pub vtime: f64,
    /// Wall-clock microseconds since the recorder was initialized.
    pub wall_micros: u64,
    /// Counter delta or histogram sample (0 otherwise).
    pub value: f64,
    /// Structured fields.
    pub fields: Vec<Field>,
}

impl Record {
    /// Serialize as a single JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        let mut members: Vec<(String, Value)> = vec![
            ("k".into(), Value::String(self.kind.tag().into())),
            ("n".into(), Value::String(self.name.into())),
        ];
        if self.span != 0 {
            members.push(("id".into(), Value::Number(self.span as f64)));
        }
        if self.parent != 0 {
            members.push(("p".into(), Value::Number(self.parent as f64)));
        }
        if !self.vtime.is_nan() {
            members.push(("vt".into(), Value::Number(self.vtime)));
        }
        members.push(("wus".into(), Value::Number(self.wall_micros as f64)));
        if self.value != 0.0 {
            members.push(("v".into(), Value::Number(self.value)));
        }
        if !self.fields.is_empty() {
            members.push((
                "f".into(),
                Value::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_value()))
                        .collect(),
                ),
            ));
        }
        Value::Object(members).to_json()
    }

    /// The value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_shape() {
        let r = Record {
            kind: RecordKind::Event,
            name: "protocol.timeout",
            span: 3,
            parent: 0,
            vtime: 1.25,
            wall_micros: 42,
            value: 0.0,
            fields: vec![("node", 2usize.into()), ("phase", 3u8.into())],
        };
        let v = Value::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("ev"));
        assert_eq!(v.get("n").unwrap().as_str(), Some("protocol.timeout"));
        assert_eq!(v.get("vt").unwrap().as_f64(), Some(1.25));
        assert_eq!(v.get("f").unwrap().get("node").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn nan_vtime_is_omitted() {
        let r = Record {
            kind: RecordKind::Counter,
            name: "c",
            span: 0,
            parent: 0,
            vtime: f64::NAN,
            wall_micros: 1,
            value: 1.0,
            fields: vec![],
        };
        let v = Value::parse(&r.to_json()).unwrap();
        assert!(v.get("vt").is_none());
        assert_eq!(v.get("v").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn kind_tags_round_trip() {
        for k in [
            RecordKind::SpanStart,
            RecordKind::SpanEnd,
            RecordKind::Event,
            RecordKind::Counter,
            RecordKind::Histogram,
        ] {
            assert_eq!(RecordKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(RecordKind::from_tag("xx"), None);
    }

    #[test]
    fn field_values_convert() {
        assert_eq!(FieldValue::from(2.5).as_f64(), Some(2.5));
        assert_eq!(FieldValue::from(7usize).as_f64(), Some(7.0));
        assert_eq!(FieldValue::from(true).as_f64(), Some(1.0));
        assert_eq!(FieldValue::from("x").as_f64(), None);
    }
}
