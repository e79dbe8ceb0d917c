//! The one codec behind every telemetry NDJSON line: the flight capture
//! ([`crate::ndjson`]), the run stream ([`crate::run`]) and the live
//! snapshot stream ([`crate::live`]).
//!
//! A line is `type`, then the fields of each part in order; a part is
//! any struct deriving `Serialize` (a record, or a small prefix such as
//! a loop line's `mode`/`seed`). Reading decodes the same derived types
//! back out of the parsed line, with two rules the derive alone does not
//! keep: a `null` is accepted only where the caller says a field may be
//! non-finite, and a mistyped field is named in the error.

use serde::{Deserialize, Serialize, Value};

/// Render one line (no trailing newline): `type`, then each part's
/// fields in order.
pub(crate) fn line(ty: &str, parts: &[&dyn Serialize]) -> String {
    let mut fields = vec![("type".to_string(), Value::Str(ty.to_string()))];
    for part in parts {
        match part.to_value() {
            Value::Obj(pairs) => fields.extend(pairs),
            other => unreachable!("line parts are structs, got {other:?}"),
        }
    }
    serde_json::to_string(&Value::Obj(fields)).expect("NDJSON serialization is infallible")
}

/// The non-blank lines of an NDJSON text, parsed in order.
pub(crate) fn lines(text: &str) -> impl Iterator<Item = Result<Line, String>> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, raw)| !raw.trim().is_empty())
        .map(|(i, raw)| Line::parse(i + 1, raw))
}

/// One parsed line: a JSON object with a string `type`.
pub(crate) struct Line {
    /// 1-based line number, for error messages.
    pub lineno: usize,
    /// The `type` field.
    pub ty: String,
    /// The whole object.
    pub value: Value,
}

impl Line {
    fn parse(lineno: usize, raw: &str) -> Result<Line, String> {
        let value: Value =
            serde_json::from_str(raw).map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
        if value.as_obj().is_none() {
            return Err(format!("line {lineno}: expected a JSON object"));
        }
        let ty = match value.get("type") {
            Some(Value::Str(ty)) => ty.clone(),
            Some(_) => return Err(format!("line {lineno}: field `type` must be a string")),
            None => return Err(format!("line {lineno}: missing field `type`")),
        };
        Ok(Line { lineno, ty, value })
    }

    /// Decode `T` from this line; no field may be `null`.
    pub fn read<T: Serialize + Deserialize + Default>(&self) -> Result<T, String> {
        self.read_nullable(&[])
    }

    /// Decode `T` from this line; only the `nullable` fields (non-finite
    /// floats) may be `null`.
    pub fn read_nullable<T: Serialize + Deserialize + Default>(
        &self,
        nullable: &[&str],
    ) -> Result<T, String> {
        decode(&self.value, nullable).map_err(|e| format!("line {}: {e}", self.lineno))
    }

    /// Decode each element of the array field `key` as `T`, so an error
    /// inside an element names the element's field.
    pub fn read_items<T: Serialize + Deserialize + Default>(
        &self,
        key: &str,
    ) -> Result<Vec<T>, String> {
        let items = self.value.get(key).and_then(Value::as_arr).unwrap_or(&[]);
        items
            .iter()
            .map(|item| decode(item, &[]).map_err(|e| format!("line {}: {e}", self.lineno)))
            .collect()
    }

    /// Give a field older schemas did not write the value it reads as.
    pub fn or_insert(&mut self, key: &str, default: Value) {
        if let Value::Obj(pairs) = &mut self.value {
            if !pairs.iter().any(|(k, _)| k == key) {
                pairs.push((key.to_string(), default));
            }
        }
    }
}

/// Decode `T` from object `v`. The vendored derive reads `null` as NaN
/// and does not say which field failed, so `T`'s default record serves
/// as its field list: nulls are checked against it first, and a failed
/// decode is retried one field at a time on top of it to find the field.
fn decode<T: Serialize + Deserialize + Default>(v: &Value, nullable: &[&str]) -> Result<T, String> {
    let proto = T::default().to_value();
    let fields = proto.as_obj().unwrap_or(&[]);
    for (key, default) in fields {
        // an `Option` field defaults to null and may hold one
        if *default == Value::Null || nullable.contains(&key.as_str()) {
            continue;
        }
        if let Some(inner) = v.get(key).and_then(|got| null_key(key, got)) {
            return Err(format!("field `{inner}` must not be null"));
        }
    }
    T::from_value(v).map_err(|e| {
        fields
            .iter()
            .enumerate()
            .find_map(|(i, (key, _))| {
                let mut alone = fields.to_vec();
                alone[i].1 = v.get(key)?.clone();
                T::from_value(&Value::Obj(alone))
                    .err()
                    .map(|e| format!("field `{key}`: {e}"))
            })
            .unwrap_or_else(|| e.to_string())
    })
}

/// The key holding the first `null` in `v` (`key` itself when `v` is
/// null), searching nested arrays and objects.
fn null_key<'a>(key: &'a str, v: &'a Value) -> Option<&'a str> {
    match v {
        Value::Null => Some(key),
        Value::Arr(items) => items.iter().find_map(|item| null_key(key, item)),
        Value::Obj(pairs) => pairs.iter().find_map(|(k, item)| null_key(k, item)),
        _ => None,
    }
}
