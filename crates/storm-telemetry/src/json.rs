//! Minimal hand-rolled JSON support (the repo vendors no serde): a
//! string escaper used by the exporters, and a [`Value`] model with one
//! strict, linear-time parser and a writer for the self-contained
//! artifacts the workspace emits and replays (DST repro files, cluster
//! checkpoints). [`validate_json`], which tests and the CI smoke bench use
//! to assert emitted artifacts parse, is that same parser. Numbers keep
//! their source token so 64-bit seeds round-trip without `f64` precision
//! loss.

use std::borrow::Cow;

/// Append `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Check that `s` is a single well-formed JSON value (with nothing but
/// whitespace after it). Returns a byte offset plus message on failure.
/// This is [`parse`] with the value dropped: there is one grammar.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// Deepest array/object nesting [`parse`] accepts. Deeper input is an
/// error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers, strings and object keys borrow from the
/// parsed text where they can (a string needs an owned copy only if it
/// holds an escape); values built in code use `Cow::Borrowed` literals or
/// owned strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source token (integer-exact round-trips).
    Num(Cow<'a, str>),
    /// A string (unescaped).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, in source key order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Required-member helpers for artifact decoding: error out with the
    /// member path instead of panicking on malformed input.
    pub fn req(&self, key: &str) -> Result<&Value<'a>, String> {
        self.get(key)
            .ok_or_else(|| format!("missing member {key:?}"))
    }

    /// Required `u64` member.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("member {key:?} is not a u64"))
    }

    /// Required string member.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("member {key:?} is not a string"))
    }
}

/// Parse a JSON document (RFC 8259 grammar). Recursive descent, linear in
/// the input: numbers, keys and escape-free strings borrow from `input`,
/// escapes are decoded (surrogate pairs to one scalar), raw control
/// characters in strings are rejected and arrays/objects nested more
/// than 128 deep are an error. Errors carry a byte offset.
pub fn parse(input: &str) -> Result<Value<'_>, String> {
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, 0)?;
    p_skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn p_skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn p_expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    p_skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", char::from(byte)))
    }
}

fn parse_value<'a>(src: &'a str, pos: &mut usize, depth: usize) -> Result<Value<'a>, String> {
    let bytes = src.as_bytes();
    p_skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!("nesting too deep at byte {pos}")),
        Some(b'{') => parse_obj(src, pos, depth + 1),
        Some(b'[') => parse_arr(src, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(src, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(src, pos),
        _ => Err(format!("expected a JSON value at byte {pos}")),
    }
}

fn parse_lit<'a>(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Value<'a>,
) -> Result<Value<'a>, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// Advance over one or more ASCII digits.
fn p_digits(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected digits at byte {pos}"));
    }
    Ok(())
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
fn parse_num<'a>(src: &'a str, pos: &mut usize) -> Result<Value<'a>, String> {
    let bytes = src.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'0') {
        *pos += 1;
    } else {
        p_digits(bytes, pos)?;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        p_digits(bytes, pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        p_digits(bytes, pos)?;
    }
    Ok(Value::Num(Cow::Borrowed(&src[start..*pos])))
}

/// Parse a string literal. Each run of plain bytes up to the next quote,
/// backslash or control byte is taken as one slice of `src` (already
/// valid UTF-8, and every delimiter is ASCII, so the slice boundaries are
/// character boundaries): borrowed when the string has no escape, else
/// appended to an owned copy with one `push_str`.
fn parse_string<'a>(src: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let bytes = src.as_bytes();
    p_expect(bytes, pos, b'"')?;
    let mut owned: Option<String> = None;
    loop {
        let run = *pos;
        while bytes
            .get(*pos)
            .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
        {
            *pos += 1;
        }
        let plain = &src[run..*pos];
        match bytes.get(*pos) {
            None => return Err(format!("unterminated string at byte {pos}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(plain),
                    Some(mut out) => {
                        out.push_str(plain);
                        Cow::Owned(out)
                    }
                });
            }
            Some(b'\\') => {
                let out = owned.get_or_insert_with(String::new);
                out.push_str(plain);
                *pos += 1;
                out.push(parse_escape(bytes, pos)?);
            }
            Some(_) => return Err(format!("raw control character in string at byte {pos}")),
        }
    }
}

/// Decode the escape after a backslash (`pos` is just past it). A
/// `\u` high surrogate must be followed by a `\u` low surrogate; the
/// pair decodes to one scalar value, and a lone surrogate is an error.
fn parse_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let c = match bytes.get(*pos) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'u') => {
            let at = *pos;
            let lone = || format!("lone surrogate at byte {at}");
            let hi = p_hex4(bytes, at + 1)?;
            *pos += 5;
            let code = match hi {
                0xD800..=0xDBFF if bytes[*pos..].starts_with(b"\\u") => {
                    let lo = p_hex4(bytes, *pos + 2)?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err(lone());
                    }
                    *pos += 6;
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                }
                0xD800..=0xDFFF => return Err(lone()),
                _ => hi,
            };
            return char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"));
        }
        _ => return Err(format!("bad escape at byte {pos}")),
    };
    *pos += 1;
    Ok(c)
}

/// The four hex digits at `at` (exactly `[0-9a-fA-F]{4}`, no sign).
fn p_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes
        .get(at..at + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
    digits.iter().try_fold(0, |acc, &d| {
        char::from(d)
            .to_digit(16)
            .map(|v| acc * 16 + v)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))
    })
}

fn parse_arr<'a>(src: &'a str, pos: &mut usize, depth: usize) -> Result<Value<'a>, String> {
    let bytes = src.as_bytes();
    p_expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    p_skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(src, pos, depth)?);
        p_skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj<'a>(src: &'a str, pos: &mut usize, depth: usize) -> Result<Value<'a>, String> {
    let bytes = src.as_bytes();
    p_expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    p_skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        let key = parse_string(src, pos)?;
        p_expect(bytes, pos, b':')?;
        members.push((key, parse_value(src, pos, depth)?));
        p_skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Append `s` to `out` as an escaped, quoted JSON string.
fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Render a [`Value`] as compact JSON (deterministic: member order is the
/// order held in the value).
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(tok) => out.push_str(tok),
        Value::Str(s) => quote_into(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                quote_into(out, k);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Convenience constructor for a JSON number from any displayable value.
pub fn num(n: impl std::fmt::Display) -> Value<'static> {
    Value::Num(Cow::Owned(n.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn value_round_trips_a_document() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("two-node \"launch\"".into())),
            ("seed".into(), num(u64::MAX)),
            ("delta".into(), num(-42)),
            (
                "ties".into(),
                Value::Arr(vec![num(0), num(3), Value::Null, Value::Bool(true)]),
            ),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let text = render(&doc);
        validate_json(&text).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        // 64-bit integers survive exactly (no f64 round-trip).
        assert_eq!(back.req_u64("seed").unwrap(), u64::MAX);
        assert_eq!(back.get("delta").unwrap().as_i64(), Some(-42));
        assert_eq!(back.req_str("name").unwrap(), "two-node \"launch\"");
        assert!(back.req_u64("absent").is_err());
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let mut s = String::from("\"");
        escape_into(&mut s, "line\nquote\" back\\slash tab\t ctl\u{1} é");
        s.push('"');
        validate_json(&s).unwrap();
    }

    /// One grammar: `parse` and `validate_json` give the same verdict on
    /// every input, and that verdict is RFC 8259's.
    #[test]
    fn parse_and_validate_share_one_grammar() {
        let table: &[(&str, bool)] = &[
            // Values and structure.
            ("null", true),
            ("true", true),
            ("[]", true),
            ("{}", true),
            ("[1, [2, {\"k\": \"v\"}], false]", true),
            ("  {\"a\": {\"b\": [1, 2, 3]}}  ", true),
            ("", false),
            ("nul", false),
            ("tru", false),
            ("{", false),
            ("[1,]", false),
            ("[1 2]", false),
            ("{\"a\" 1}", false),
            ("{\"a\":1,}", false),
            ("{1:2}", false),
            ("{\"a\": 1} x", false),
            ("[] []", false),
            // Numbers.
            ("0", true),
            ("-0", true),
            ("12", true),
            ("1.5e-3", true),
            ("1E+2", true),
            ("-", false),
            ("--1", false),
            ("+1", false),
            ("1.2.3", false),
            ("1.", false),
            (".5", false),
            ("1e", false),
            ("1e+", false),
            ("01", false),
            ("01x", false),
            ("-12.5e+3", true),
            // Strings and escapes.
            ("\"a\\n\\u00e9b\"", true),
            ("\"unterminated", false),
            ("\"bad \\q escape\"", false),
            ("\"\\b\"", true),
            ("\"\\f\"", true),
            ("\"\\/\"", true),
            ("\"a\tb\"", false),
            ("\"a\nb\"", false),
            ("\"\\u0041\"", true),
            ("\"\\u+041\"", false),
            ("\"\\u004\"", false),
            ("\"\\ud83d\\ude00\"", true),
            ("\"\\ud83d\"", false),
            ("\"\\ud83dx\"", false),
            ("\"\\ud83d\\u0041\"", false),
            ("\"\\ude00\"", false),
        ];
        for &(input, ok) in table {
            assert_eq!(parse(input).is_ok(), ok, "parse({input:?})");
            assert_eq!(validate_json(input).is_ok(), ok, "validate_json({input:?})");
        }
    }

    #[test]
    fn nesting_is_limited_without_overflowing_the_stack() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        parse(&arrays(MAX_DEPTH)).unwrap();
        parse(&objects(MAX_DEPTH)).unwrap();
        assert!(parse(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        let err = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains("too deep"), "got: {err}");
    }

    #[test]
    fn unicode_escapes_decode_to_scalar_values() {
        let s = |text: &str| parse(text).unwrap().as_str().unwrap().to_string();
        assert_eq!(s("\"\\u0041\\u00e9\\u20AC\""), "Aé€");
        assert_eq!(s("\"\\ud83d\\ude00\""), "\u{1F600}");
        assert_eq!(s("\"x\\b\\f\""), "x\u{8}\u{c}");
    }

    #[test]
    fn escape_free_tokens_borrow_from_the_input() {
        let doc = parse("{\"key\": [\"plain\", 42, \"esc\\n\"]}").unwrap();
        let Value::Obj(members) = &doc else {
            panic!("not an object")
        };
        assert!(matches!(members[0].0, Cow::Borrowed("key")));
        let items = doc.req("key").unwrap().as_arr().unwrap();
        assert!(matches!(items[0], Value::Str(Cow::Borrowed("plain"))));
        assert!(matches!(items[1], Value::Num(Cow::Borrowed("42"))));
        assert!(matches!(&items[2], Value::Str(Cow::Owned(s)) if s == "esc\n"));
    }

    /// Strings mixing quotes, backslashes, control characters, multi-byte
    /// characters and plain ASCII.
    fn text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        prop::collection::vec((0u32..5, 0u32..0x11_0000), len).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(kind, cp)| match kind {
                    0 => ['"', '\\', '/'][cp as usize % 3],
                    1 => char::from_u32(cp % 0x20).expect("control character"),
                    2 => char::from_u32(cp).unwrap_or('\u{FFFD}'),
                    3 => ['é', '€', '\u{1F600}', '\u{7f}', '\u{2028}'][cp as usize % 5],
                    _ => char::from(b' ' + (cp % 95) as u8),
                })
                .collect()
        })
    }

    fn round_trip(key: &str, value: &str) {
        let doc = Value::Obj(vec![
            (key.into(), Value::Str(value.into())),
            (
                value.into(),
                Value::Arr(vec![Value::Str(key.into()), num(7)]),
            ),
        ]);
        let text = render(&doc);
        assert_eq!(parse(&text).unwrap(), doc, "{text:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn render_then_parse_round_trips_arbitrary_strings(
            key in text(0..24),
            value in text(0..96),
        ) {
            round_trip(&key, &value);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn render_then_parse_round_trips_runs_over_64_kib(
            n in 70_000usize..80_000,
            head in text(0..8),
            tail in text(0..8),
        ) {
            let long = format!("{head}{}{tail}", "x\u{20AC}".repeat(n / 4));
            round_trip(&head, &long);
            round_trip(&long, &tail);
        }
    }
}
