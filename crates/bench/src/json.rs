//! The crate's one JSON reader: enough of JSON for slambench's result
//! line, `BENCHMARK.json` and the bench baseline (no `null`, no escapes
//! beyond `\"`, `\\`, `\/`, `\n`, `\t`).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    /// Keys in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; `None` on any syntax error or
    /// trailing text.
    pub(crate) fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(value)
    }

    /// The value under `key` of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&byte)).then(|| self.i += 1)
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Json::Object(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Json::Object(fields));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Json::Array(items));
                    }
                }
            }
            b'"' => self.string().map(Json::String),
            _ => {
                for (word, value) in [("true", true), ("false", false)] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Some(Json::Bool(value));
                    }
                }
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                let number = std::str::from_utf8(&self.s[start..self.i]).ok()?;
                number.parse().ok().map(Json::Number)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let byte = *self.s.get(self.i)?;
            self.i += 1;
            match byte {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let escaped = *self.s.get(self.i)?;
                    self.i += 1;
                    out.push(match escaped {
                        b'"' | b'\\' | b'/' => escaped,
                        b'n' => b'\n',
                        b't' => b'\t',
                        _ => return None,
                    });
                }
                _ => out.push(byte),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1} x",
            "\"\\q\"",
            "null",
        ] {
            assert_eq!(Json::parse(bad), None, "{bad}");
        }
        assert_eq!(
            Json::parse(" [true, -1.5e2, \"a\\\"b\"] "),
            Some(Json::Array(vec![
                Json::Bool(true),
                Json::Number(-150.0),
                Json::String("a\"b".into()),
            ]))
        );
    }
}
