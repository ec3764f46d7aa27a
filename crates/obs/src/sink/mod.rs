//! Trace sinks: serialization in and out of [`crate::Trace`].
//!
//! Sinks are the only place observability data is rendered for the
//! outside world. They return strings and print nothing (library code is
//! under clippy's print lints); everything else routes diagnostics
//! through `hc-obs` records. Rendering is
//! hand-rolled over ordered [`serde_json::Value`] objects (never
//! derive), so field order is fixed by construction and golden files
//! stay byte-stable.

pub mod chrome;
pub mod jsonl;

use crate::record::{FieldValue, Fields};
use serde_json::{Number, Value};

/// Builds an insertion-ordered JSON object from `(key, value)` pairs.
pub(crate) fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub(crate) fn s(x: &str) -> Value {
    Value::String(x.to_string())
}

pub(crate) fn u(x: u64) -> Value {
    Value::Number(Number::from_u64(x))
}

pub(crate) fn f(x: f64) -> Value {
    Value::Number(Number::from_f64(x))
}

pub(crate) fn field_value(v: &FieldValue) -> Value {
    match v {
        FieldValue::Bool(b) => Value::Bool(*b),
        FieldValue::U64(x) => u(*x),
        FieldValue::I64(x) => Value::Number(Number::from_i64(*x)),
        FieldValue::F64(x) => f(*x),
        FieldValue::Str(x) => s(x),
    }
}

pub(crate) fn fields_value(fields: &Fields) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.clone(), field_value(v)))
            .collect(),
    )
}
