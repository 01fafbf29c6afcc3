//! Replayable counterexample traces.
//!
//! A [`Counterexample`] pins everything needed to re-drive the engine down
//! the violating path: the model name and seed, the [`CheckCell`](crate::CheckCell)
//! name, the violated invariant, and the
//! ordered branch [`ChoiceRecord`]s. Traces serialise to a single JSON
//! object so CI can upload them as artifacts; the writer and its minimal
//! parser are hand-written here (the workspace has no external packages),
//! and this is the repository's only wire format.

use std::fmt::Write as _;

/// One branch decision: which of the same-instant frontier events was
/// applied first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceRecord {
    /// The frontier instant, in microseconds since the simulation epoch.
    pub time_us: u64,
    /// Label of the event applied first (see `EventKind::label`).
    pub chosen: String,
    /// Labels of the whole frontier in default scheduling order; the first
    /// entry is the choice a plain run would have made.
    pub alternatives: Vec<String>,
}

/// A minimised, replayable witness of an invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Name of the violated model.
    pub model: String,
    /// The model seed (filters and message contents derive from it).
    pub seed: u64,
    /// The cell name, parseable with `CheckCell::from_name`.
    pub cell: String,
    /// Machine-readable violation discriminant (`InvariantViolation::kind`).
    pub kind: String,
    /// Human-readable description of the violated invariant.
    pub violation: String,
    /// Branch choices, in order; replay defaults past the end of the list.
    pub choices: Vec<ChoiceRecord>,
}

impl Counterexample {
    /// Serialises the trace to a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        write!(
            out,
            "\"model\":{},\"seed\":{},\"cell\":{},\"kind\":{},\"violation\":{},\"choices\":[",
            json_string(&self.model),
            self.seed,
            json_string(&self.cell),
            json_string(&self.kind),
            json_string(&self.violation),
        )
        .expect("writing to a String cannot fail");
        for (i, choice) in self.choices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"time_us\":{},\"chosen\":{},\"alternatives\":[",
                choice.time_us,
                json_string(&choice.chosen)
            )
            .expect("writing to a String cannot fail");
            for (j, alt) in choice.alternatives.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(alt));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a trace previously produced by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<Counterexample, String> {
        let value = Parser::new(text).parse()?;
        let obj = value.as_object("counterexample")?;
        let choices_value = obj_get(obj, "choices")?;
        let mut choices = Vec::new();
        for entry in choices_value.as_array("choices")? {
            let choice = entry.as_object("choice")?;
            let mut alternatives = Vec::new();
            for alt in obj_get(choice, "alternatives")?.as_array("alternatives")? {
                alternatives.push(alt.as_string("alternative")?.to_string());
            }
            choices.push(ChoiceRecord {
                time_us: obj_get(choice, "time_us")?.as_u64("time_us")?,
                chosen: obj_get(choice, "chosen")?.as_string("chosen")?.to_string(),
                alternatives,
            });
        }
        Ok(Counterexample {
            model: obj_get(obj, "model")?.as_string("model")?.to_string(),
            seed: obj_get(obj, "seed")?.as_u64("seed")?,
            cell: obj_get(obj, "cell")?.as_string("cell")?.to_string(),
            kind: obj_get(obj, "kind")?.as_string("kind")?.to_string(),
            violation: obj_get(obj, "violation")?
                .as_string("violation")?
                .to_string(),
            choices,
        })
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The subset of JSON the traces use: objects, arrays, strings and
/// non-negative integers.
enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    String(String),
    Number(u64),
}

impl Value {
    fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(format!("{what}: expected an array")),
        }
    }

    fn as_string(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Number(n) => Ok(*n),
            _ => Err(format!("{what}: expected a number")),
        }
    }
}

fn obj_get<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field \"{key}\""))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Value, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in object, found '{}' at byte {}",
                        other as char, self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' in array, found '{}' at byte {}",
                        other as char, self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            self.pos += 4;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape \"{hex}\""))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: take the full scalar from the source.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid UTF-8");
        digits
            .parse::<u64>()
            .map(Value::Number)
            .map_err(|_| format!("number out of range at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counterexample {
        Counterexample {
            model: "nested-flap".into(),
            seed: 7,
            cell: "sparse".into(),
            kind: "conservation".into(),
            violation: "transfer balance broke: \"in flight\" copy vanished".into(),
            choices: vec![
                ChoiceRecord {
                    time_us: 5_000_000,
                    chosen: "publish:p1".into(),
                    alternatives: vec!["publish:p0".into(), "publish:p1".into()],
                },
                ChoiceRecord {
                    time_us: 6_002_000,
                    chosen: "link-up:l2".into(),
                    alternatives: vec!["send-complete:l2".into(), "link-up:l2".into()],
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_including_escapes() {
        let cex = sample();
        let json = cex.to_json();
        assert_eq!(Counterexample::from_json(&json).unwrap(), cex);
    }

    #[test]
    fn empty_choice_list_round_trips() {
        let mut cex = sample();
        cex.choices.clear();
        assert_eq!(Counterexample::from_json(&cex.to_json()).unwrap(), cex);
    }

    #[test]
    fn malformed_json_is_rejected_with_a_reason() {
        assert!(Counterexample::from_json("").is_err());
        assert!(Counterexample::from_json("{\"model\":\"m\"}").is_err());
        assert!(Counterexample::from_json("{\"model\":1}junk").is_err());
    }
}
