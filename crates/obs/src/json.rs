//! The workspace's one JSON module: a value tree ([`Json`]), its pretty
//! writer and parser, the [`ToJson`] trait experiment artefacts are
//! written through (with the [`json_object!`](crate::json_object)
//! macro that implements it for a struct), and the string escaper every
//! exporter shares.
//!
//! The metrics snapshot, the trace JSONL writer and the Chrome
//! trace-event writer stream their JSON straight into a `String`
//! instead of building a tree, but they escape through the same
//! [`escape_json`] the writer uses. Keeping the escaper here — public,
//! shared, and unit-tested — is what makes a metric or span name
//! containing `"` or `\` emit *valid* JSON everywhere instead of only
//! in the exporters that remembered to escape.

/// A JSON document.
///
/// Integers and floats stay apart, so `0` and `0.0` each survive a
/// write → parse round trip as what they were.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number written without `.`, `e` or `E`. `i128` holds every
    /// `u64` and every `i64`.
    Int(i128),
    /// A number written with `.`, `e` or `E`.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (surrounding whitespace
    /// allowed). Accepts exactly the JSON grammar, including `\u`
    /// escapes of surrogate pairs; an integer literal too large for
    /// `i128` parses as a float. Time is linear in the document's
    /// length.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first malformed token:
    /// among others a number with a leading zero (`01`), a bare `.`
    /// (`1.`, `-.5`) or a `+` sign, a raw control character inside a
    /// string, and a number beyond the finite `f64` range (`1e999`),
    /// which [`Json::to_pretty`] could not write back. Arrays and
    /// objects nested more than 128 levels deep are an error too, so
    /// hostile input cannot overflow the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Renders the document with two-space indentation: one element or
    /// member per line, `": "` after each key, and `[]` / `{}` for an
    /// empty array / object. A float whose shortest round-trip form is
    /// integral gets a `.0` so it parses back as a float.
    ///
    /// # Errors
    ///
    /// A NaN or infinite float, which JSON cannot represent.
    pub fn to_pretty(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write_pretty(&mut out, 0)?;
        Ok(out)
    }

    fn write_pretty(&self, out: &mut String, depth: usize) -> Result<(), String> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                if !x.is_finite() {
                    return Err(format!("non-finite float {x} is not valid JSON"));
                }
                let text = json_f64(*x);
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => push_str_literal(out, s),
            Json::Arr(items) => {
                write_members(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))?;
            }
            Json::Obj(members) => write_members(
                out,
                depth,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            )?,
        }
        Ok(())
    }

    /// Object-member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Dotted-path lookup: `path("single_image.gemm_ns")`.
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        dotted.split('.').try_fold(self, |node, key| node.get(key))
    }

    /// The numeric value of an integer or a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }
}

/// Writes an array (`key` always `None`) or an object's members, one
/// per line at `depth + 1`, closing at `depth`.
fn write_members<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) -> Result<(), String> {
    out.push(open);
    let empty = members.len() == 0;
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, depth + 1);
        if let Some(key) = key {
            push_str_literal(out, key);
            out.push_str(": ");
        }
        value.write_pretty(out, depth + 1)?;
    }
    if !empty {
        newline_indent(out, depth);
    }
    out.push(close);
    Ok(())
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape_json(s));
    out.push('"');
}

/// Lowers a value to the [`Json`] tree an artefact is written from.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i128)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Implements [`ToJson`] for a struct as an object whose members are
/// the listed fields, in the listed order.
///
/// The implementation binds the fields by destructuring the struct
/// without `..`, so a field added to the struct but not to the list is
/// a compile error rather than a member silently missing from every
/// artefact. rustc words that error as "pattern requires `..` due to
/// inaccessible fields", even when every field is public.
///
/// A field that must stay out of the object — a wall-clock timing,
/// say, in an artefact that is otherwise byte-reproducible — is named
/// after `skip`, so it is still accounted for.
///
/// ```
/// use echo_obs::json::ToJson;
///
/// struct Point {
///     x: f64,
///     hits: usize,
///     elapsed_ms: f64,
/// }
/// echo_obs::json_object!(Point { x, hits } skip { elapsed_ms });
///
/// let p = Point { x: 1.0, hits: 3, elapsed_ms: 2.5 };
/// let json = p.to_json().to_pretty().unwrap();
/// assert_eq!(json, "{\n  \"x\": 1.0,\n  \"hits\": 3\n}");
/// ```
#[macro_export]
macro_rules! json_object {
    ($ty:ident { $($field:ident),+ $(,)? } $(skip { $($skip:ident),+ $(,)? })?) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let $ty { $($field,)+ $($($skip: _,)+)? } = self;
                $crate::json::Json::Obj(::std::vec![$((
                    ::std::string::String::from(::std::stringify!($field)),
                    $crate::json::ToJson::to_json($field),
                )),+])
            }
        }
    };
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). Covers the two mandatory escapes (`"`, `\`), the common
/// whitespace controls, and the rest of the C0 range as `\u00XX`.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values become `null` rather than corrupting the document.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `Display` for f64 prints the shortest round-trip decimal,
        // which is deterministic for a given bit pattern.
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level; the artefacts this workspace
/// writes nest at most a handful of levels.
const MAX_DEPTH: usize = 128;

/// `pos` only ever stops on a char boundary of `text`: every token and
/// delimiter the parser steps over is ASCII, and plain string content
/// is consumed in whole-char runs.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!("unknown escape `\\{}`", other as char));
                        }
                    }
                }
                Some(..0x20) => {
                    return Err(format!(
                        "unescaped control character in string at byte {}",
                        self.pos
                    ));
                }
                Some(_) => {
                    // Copy the plain run up to the next quote, escape or
                    // control character. All are ASCII, so the run is
                    // whole chars.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    /// The char of a `\uXXXX` escape whose `\u` was just consumed. A
    /// high surrogate must be followed by an escaped low one, and the
    /// pair decodes to one char.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos - 2;
        let lone = || format!("lone surrogate in \\u escape at byte {start}");
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(lone());
                }
                self.pos += 2;
                match self.hex4()? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                    _ => return Err(lone()),
                }
            }
            0xDC00..=0xDFFF => return Err(lone()),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| format!("invalid codepoint at byte {start}"))
    }

    /// Four hex digits, as a code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let mut code = 0;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| format!("non-hex digit in \\u escape at byte {}", self.pos))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, as an
    /// `Int` when it has no fraction or exponent and `i128` holds it,
    /// else as a finite `Float`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.digits() == 0 {
            return Err(format!("expected a digit at byte {}", self.pos));
        }
        if self.bytes[int_start] == b'0' && self.pos > int_start + 1 {
            return Err(format!("leading zero in number at byte {int_start}"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if self.digits() == 0 {
                return Err(format!("expected a fraction digit at byte {}", self.pos));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            integral = false;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected an exponent digit at byte {}", self.pos));
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Float(v)),
            _ => Err(format!("number `{text}` out of range at byte {start}")),
        }
    }

    /// Steps over a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `v` pretty and parses it back.
    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_pretty().unwrap()).unwrap()
    }

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(escape_json("stage.imaging"), "stage.imaging");
        assert_eq!(escape_json(""), "");
    }

    #[test]
    fn quotes_and_backslashes_are_escaped() {
        assert_eq!(escape_json(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_json(r"a\b"), r"a\\b");
        assert_eq!(escape_json(r#"\""#), r#"\\\""#);
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(escape_json("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape_json("\u{0}\u{1f}"), "\\u0000\\u001f");
    }

    #[test]
    fn escaped_name_survives_a_json_document() {
        // The exact failure mode the escaper exists for: a name with a
        // quote must still produce a parseable key.
        let name = r#"weird"name\with\controls"#;
        let doc = format!("{{\"{}\": 1}}", escape_json(name));
        // Every interior `"` is escaped and every `\` doubled, so the
        // only bare quotes left are the key's two delimiters.
        assert_eq!(doc, r#"{"weird\"name\\with\\controls": 1}"#);
        let bare_quotes = doc
            .char_indices()
            .filter(|&(i, c)| c == '"' && (i == 0 || doc.as_bytes()[i - 1] != b'\\'))
            .count();
        assert_eq!(bare_quotes, 2);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1f64, -2.5e-7, 1.0, 12345.0, f64::MIN_POSITIVE, 1e300] {
            match round_trip(&x.to_json()) {
                Json::Float(back) => assert_eq!(back.to_bits(), x.to_bits(), "{x}"),
                other => panic!("{x} came back as {other:?}"),
            }
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = vec![vec![1usize, 2], vec![3]].to_json();
        assert_eq!(round_trip(&v), v);
        let pairs = vec![(1usize, 2.5f64), (3, -4.0)].to_json();
        assert_eq!(round_trip(&pairs), pairs);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a \"quoted\"\\\npath/ü\u{1}".to_string();
        assert_eq!(round_trip(&s.to_json()), Json::Str(s));
    }

    #[test]
    fn integer_zero_stays_integer_and_float_zero_stays_float() {
        assert_eq!(0usize.to_json().to_pretty().unwrap(), "0");
        assert_eq!(0.0f64.to_json().to_pretty().unwrap(), "0.0");
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("0.0").unwrap(), Json::Float(0.0));
    }

    #[test]
    fn extreme_integers_round_trip_exactly() {
        for n in [usize::MAX as i128, u64::MAX as i128, i64::MIN as i128, -7] {
            assert_eq!(round_trip(&Json::Int(n)), Json::Int(n));
        }
        assert_eq!(usize::MAX.to_json(), Json::Int(usize::MAX as i128));
    }

    #[test]
    fn non_finite_floats_are_a_write_error() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let nested = Json::Obj(vec![("v".into(), Json::Arr(vec![Json::Float(x)]))]);
            assert!(nested.to_pretty().is_err(), "{x} was written");
        }
    }

    #[test]
    fn parses_the_bench_artefact_shape() {
        let doc = r#"{
          "bench": "feature_bench",
          "quick": false,
          "single_image": {"gemm_ns": 172313, "speedup_vs_naive": 4.93},
          "batch_16_images": [{"threads": "1", "ns_per_batch": 2646145}],
          "nullable": null
        }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.path("single_image.gemm_ns").unwrap().as_f64(),
            Some(172313.0)
        );
        assert_eq!(
            v.path("single_image.speedup_vs_naive").unwrap().as_f64(),
            Some(4.93)
        );
        assert_eq!(v.get("quick"), Some(&Json::Bool(false)));
        assert_eq!(v.get("nullable"), Some(&Json::Null));
        match v.get("batch_16_images") {
            Some(Json::Arr(rows)) => {
                assert_eq!(rows[0].get("threads"), Some(&Json::Str("1".into())));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parses_escapes_and_negative_exponent_numbers() {
        let v = Json::parse(r#"{"s": "a\"b\\c\ndA", "n": -1.5e-3}"#).unwrap();
        assert_eq!(v.get("s"), Some(&Json::Str("a\"b\\c\ndA".into())));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-1.5e-3));
    }

    #[test]
    fn missing_path_and_wrong_type_are_none() {
        let v = Json::parse(r#"{"a": {"b": 1}}"#).unwrap();
        assert!(v.path("a.c").is_none());
        assert!(v.path("a.b.c").is_none());
        assert!(v.get("a").unwrap().as_f64().is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in ["{", r#"{"a": }"#, "[1,]", r#""unterminated"#, "1 2", "tru"] {
            assert!(Json::parse(doc).is_err(), "accepted {doc:?}");
        }
    }

    /// The byte offset an error message names.
    fn error_offset(doc: &str) -> usize {
        let err = Json::parse(doc).unwrap_err();
        let at = err
            .rfind("at byte ")
            .unwrap_or_else(|| panic!("{doc:?}: {err}"));
        err[at + "at byte ".len()..].parse().unwrap()
    }

    #[test]
    fn leading_zeros_are_errors() {
        assert_eq!(error_offset("01"), 0);
        assert_eq!(error_offset("-01"), 1);
        assert_eq!(error_offset("[1, 007]"), 4);
    }

    #[test]
    fn a_plus_sign_is_an_error() {
        assert_eq!(error_offset("+1"), 0);
        assert_eq!(error_offset("[+1]"), 1);
        // A `+` is only ever an exponent's sign.
        assert_eq!(Json::parse("1e+2").unwrap(), Json::Float(100.0));
    }

    #[test]
    fn a_point_needs_digits_on_both_sides() {
        assert_eq!(error_offset("1."), 2);
        assert_eq!(error_offset("-.5"), 1);
        assert_eq!(error_offset("1.e3"), 2);
        assert_eq!(error_offset("[1.]"), 3);
        assert_eq!(error_offset("1e"), 2);
    }

    #[test]
    fn raw_control_characters_in_strings_are_errors() {
        for c in ['\u{0}', '\n', '\t', '\u{1f}'] {
            assert_eq!(error_offset(&format!("\"a{c}b\"")), 2, "{c:?}");
        }
        assert_eq!(error_offset("{\"k\u{7}\": 1}"), 3);
        // Escaped, the same characters parse, and DEL is not a control
        // character in JSON.
        assert_eq!(
            Json::parse(r#""a\u0000b\n\t""#).unwrap(),
            Json::Str("a\u{0}b\n\t".into())
        );
        assert_eq!(
            Json::parse("\"\u{7f}\"").unwrap(),
            Json::Str("\u{7f}".into())
        );
    }

    #[test]
    fn numbers_beyond_the_finite_range_are_errors() {
        assert_eq!(error_offset("1e999"), 0);
        assert_eq!(error_offset("[0, -1e999]"), 4);
        let huge_int = "9".repeat(400);
        assert_eq!(error_offset(&huge_int), 0);
        // Underflow rounds to zero, and an integer past `i128` is a float.
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Float(0.0));
        assert_eq!(
            Json::parse(&"9".repeat(40)).unwrap(),
            Json::Float(1e40 - 1.0)
        );
    }

    #[test]
    fn strict_numbers_still_parse() {
        for (doc, want) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("10", Json::Int(10)),
            ("-120", Json::Int(-120)),
            ("0.5", Json::Float(0.5)),
            ("-0.0", Json::Float(-0.0)),
            ("1E3", Json::Float(1000.0)),
            ("2.5e-3", Json::Float(0.0025)),
            ("0e0", Json::Float(0.0)),
        ] {
            assert_eq!(Json::parse(doc).unwrap(), want, "{doc}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&past_cap).unwrap_err();
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(100_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A parser that re-validates the rest of the document per char
        // takes ~45 s on this 360 KB document in a debug build, and 4×
        // that at twice the size. A linear one takes milliseconds.
        let text = "ab ü 😀 ".repeat(1 << 14);
        let doc = format!("[\"{text}\", {{\"k\": \"{text}\"}}]");
        let started = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        assert!(started.elapsed().as_secs() < 5, "{:?}", started.elapsed());
        let want = Json::Arr(vec![
            Json::Str(text.clone()),
            Json::Obj(vec![("k".into(), Json::Str(text))]),
        ]);
        assert_eq!(v, want);
    }

    #[test]
    fn surrogate_pair_escape_decodes_to_one_char() {
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert_eq!(
            Json::parse(r#""a\uD83D\uDE00b\u00fc""#).unwrap(),
            Json::Str("a\u{1F600}bü".into())
        );
    }

    #[test]
    fn lone_surrogates_and_non_hex_escapes_are_errors() {
        for doc in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g1""#,
            r#""\u00""#,
        ] {
            assert!(Json::parse(doc).is_err(), "accepted {doc}");
        }
    }
}
