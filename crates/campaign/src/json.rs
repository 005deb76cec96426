//! The crate's one JSON module: a minimal reader ([`parse_json`] into
//! [`JVal`]) and the two scalar writers ([`json_str`], [`json_num`])
//! every JSON producer in the crate renders through.
//!
//! Store manifests, record and failure lines, daemon submit bodies and
//! responses, `eend-cli bench --check` perf records and loadgen's view
//! of the daemon's responses are all read here. (The `eend-opt` eval cache keeps
//! its own exact-layout decoder: replaying a large cache through this
//! reader measured 1.2-1.45x slower.)

use std::io;

/// An [`io::ErrorKind::InvalidData`] error — what every malformed
/// document, missing key or mistyped value reads as.
pub(crate) fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Renders an f64 as JSON (JSON has no Infinity/NaN; map them to null).
pub(crate) fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// A parsed JSON value. Numbers keep their raw token so u64s round-trip
/// without an f64 detour and f64s restore their exact bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its raw (validated) token.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object's key/value pairs in document order.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    fn type_name(&self) -> &'static str {
        match self {
            JVal::Null => "null",
            JVal::Bool(_) => "bool",
            JVal::Num(_) => "number",
            JVal::Str(_) => "string",
            JVal::Arr(_) => "array",
            JVal::Obj(_) => "object",
        }
    }

    /// The value under `key` of an object; a missing key is an error.
    pub fn get(&self, key: &str) -> io::Result<&JVal> {
        let JVal::Obj(pairs) = self else {
            return Err(bad_data(format!(
                "expected object with {key:?}, got {}",
                self.type_name()
            )));
        };
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| bad_data(format!("missing key {key:?}")))
    }

    /// Like [`JVal::get`], but a missing key reads as `None` (for keys
    /// added after files in the wild were written).
    pub fn get_opt(&self, key: &str) -> io::Result<Option<&JVal>> {
        let JVal::Obj(pairs) = self else {
            return Err(bad_data(format!(
                "expected object with {key:?}, got {}",
                self.type_name()
            )));
        };
        Ok(pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// `None` for `null`, the value itself otherwise.
    pub fn non_null(&self) -> Option<&JVal> {
        (*self != JVal::Null).then_some(self)
    }

    /// The string value.
    pub fn str(&self) -> io::Result<&str> {
        match self {
            JVal::Str(s) => Ok(s),
            other => Err(bad_data(format!("expected string, got {}", other.type_name()))),
        }
    }

    /// The string value, owned.
    pub fn string(&self) -> io::Result<String> {
        self.str().map(str::to_owned)
    }

    /// The array's elements.
    pub fn arr(&self) -> io::Result<&[JVal]> {
        match self {
            JVal::Arr(a) => Ok(a),
            other => Err(bad_data(format!("expected array, got {}", other.type_name()))),
        }
    }

    /// The array's elements, each decoded by `f`.
    pub fn list<T>(&self, f: impl FnMut(&JVal) -> io::Result<T>) -> io::Result<Vec<T>> {
        self.arr()?.iter().map(f).collect()
    }

    /// The number as a `u64`, parsed from its exact token.
    pub fn u64(&self) -> io::Result<u64> {
        match self {
            JVal::Num(raw) => {
                raw.parse().map_err(|_| bad_data(format!("expected u64, got {raw:?}")))
            }
            other => Err(bad_data(format!("expected number, got {}", other.type_name()))),
        }
    }

    /// The number as a `usize`.
    pub fn usize(&self) -> io::Result<usize> {
        self.u64().map(|v| v as usize)
    }

    /// The number as an `f64`, parsed from its exact token.
    pub fn f64(&self) -> io::Result<f64> {
        match self {
            JVal::Num(raw) => {
                raw.parse().map_err(|_| bad_data(format!("expected f64, got {raw:?}")))
            }
            other => Err(bad_data(format!("expected number, got {}", other.type_name()))),
        }
    }
}

/// Parses one complete JSON document (with nothing but whitespace
/// after it).
pub fn parse_json(text: &str) -> io::Result<JVal> {
    let mut p = JsonParser { s: text, i: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(bad_data(format!("trailing garbage at byte {}", p.i)));
    }
    Ok(v)
}

/// Walks `s` by byte; `i` only ever rests on a char boundary, because it
/// advances over ASCII bytes or over whole unescaped runs of a string.
struct JsonParser<'a> {
    s: &'a str,
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.s.as_bytes().get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> io::Result<u8> {
        self.s.as_bytes().get(self.i).copied().ok_or_else(|| bad_data("unexpected end of JSON"))
    }

    fn eat(&mut self, b: u8) -> io::Result<()> {
        if self.peek()? == b {
            self.i += 1;
            Ok(())
        } else {
            Err(bad_data(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.i,
                self.peek()? as char
            )))
        }
    }

    fn lit(&mut self, word: &str, v: JVal) -> io::Result<JVal> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(bad_data(format!("bad literal at byte {}", self.i)))
        }
    }

    fn value(&mut self) -> io::Result<JVal> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.lit("null", JVal::Null),
            b't' => self.lit("true", JVal::Bool(true)),
            b'f' => self.lit("false", JVal::Bool(false)),
            b'"' => Ok(JVal::Str(self.string()?)),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(JVal::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(JVal::Arr(items));
                        }
                        c => return Err(bad_data(format!("bad array separator {:?}", c as char))),
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(JVal::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(JVal::Obj(pairs));
                        }
                        c => return Err(bad_data(format!("bad object separator {:?}", c as char))),
                    }
                }
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while matches!(
                    self.s.as_bytes().get(self.i),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.i += 1;
                }
                let raw = &self.s[start..self.i];
                // Validate now so accessors can't hit un-number tokens.
                raw.parse::<f64>().map_err(|_| bad_data(format!("bad number {raw:?}")))?;
                Ok(JVal::Num(raw.to_owned()))
            }
            c => Err(bad_data(format!("unexpected {:?} at byte {}", c as char, self.i))),
        }
    }

    fn string(&mut self) -> io::Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run up to the next quote or backslash
            // (both ASCII, so the cut lands on a char boundary).
            let rest = &self.s[self.i..];
            let run = rest.find(['"', '\\']).ok_or_else(|| bad_data("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.i += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Ok(out),
                _ => {
                    let e = self.peek()?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| bad_data("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| bad_data("bad \\u escape"))?;
                            self.i += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| bad_data("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(bad_data(format!("bad escape \\{}", e as char))),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_the_writers() {
        let v = parse_json(r#"{"a":1,"b":[1.5,null,"x\"y\n"],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().u64().unwrap(), 1);
        let b = v.get("b").unwrap().arr().unwrap();
        assert_eq!(b[0].f64().unwrap(), 1.5);
        assert_eq!(b[1], JVal::Null);
        assert_eq!(b[2].str().unwrap(), "x\"y\n");
        assert!(matches!(v.get("c").unwrap().get("d").unwrap(), JVal::Bool(true)));
        assert!(parse_json("{\"a\":1} junk").is_err());
        assert!(parse_json("{").is_err());
    }

    #[test]
    fn json_numbers_keep_exact_tokens() {
        // u64 beyond 2^53 and a shortest-round-trip f64 both survive.
        let v = parse_json("[18446744073709551615,0.1,-2.5e-3]").unwrap();
        let a = v.arr().unwrap();
        assert_eq!(a[0].u64().unwrap(), u64::MAX);
        assert_eq!(a[1].f64().unwrap(), 0.1);
        assert_eq!(a[2].f64().unwrap(), -2.5e-3);
    }

    #[test]
    fn writers_escape_and_map_non_finite_to_null() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("tab\there\rcr"), "\"tab\\there\\rcr\"");
        assert_eq!(json_str("ctl\u{1}"), "\"ctl\\u0001\"");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
        for s in ["plain", "a\"b\\c\n", "ctl\u{1}\u{1f}", "é — 日本"] {
            assert_eq!(parse_json(&json_str(s)).unwrap().str().unwrap(), s);
        }
    }

    /// Openers that put the parser inside an object key, a string or an
    /// array before the random pieces start.
    const JSON_OPENERS: &[&str] = &["", "\"", "{\"", "[\""];

    /// Pieces that stress the parser: structure, escapes (lone `\` and
    /// short `\u`), numbers, literals and multi-byte UTF-8.
    #[rustfmt::skip]
    const JSON_PIECES: &[&str] = &[
        "{", "}", "[", "]", "\"", ":", ",", " ", "\\", "\\u", "\\u0", "\\u00", "\\u00e9",
        "\\ud800", "\\n", "0", "-", "1.5e-3", "e", "+", ".", "null", "nul", "true", "fals", "é",
        "日本", "—", "\u{1f600}", "\"job\"", "\u{0}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn parse_json_never_panics_on_arbitrary_text(
            opener in 0..JSON_OPENERS.len(),
            picks in proptest::collection::vec(0..JSON_PIECES.len(), 0..24),
        ) {
            let text: String = std::iter::once(JSON_OPENERS[opener])
                .chain(picks.iter().map(|&i| JSON_PIECES[i]))
                .collect();
            if let Err(e) = parse_json(&text) {
                proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }

        #[test]
        fn parse_json_never_panics_on_a_mutated_record_line(
            edits in proptest::collection::vec((0usize..1 << 20, 0u16..256), 1..4),
        ) {
            let mut bytes = crate::store::tests::sample_record_line().as_bytes().to_vec();
            for &(at, b) in &edits {
                let at = at % bytes.len();
                bytes[at] = b as u8;
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse_json(&text) {
                proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }
    }
}
