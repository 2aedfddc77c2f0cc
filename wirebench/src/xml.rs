//! A small XML tree reader, independent of the program's own parser.
//!
//! The oracle reads both the generated inputs and every reply's `xml`
//! field through this reader, so a fault in `gql_ssdm::xml` cannot hide
//! itself by agreeing with its own output. It handles what the generators
//! and the engines write: elements, attributes, text, the five predefined
//! entities and numeric character references. Comments, processing
//! instructions and a prolog are skipped.

/// One element: its name, attributes in source order, element children,
/// and its direct text (the concatenation of its text children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Elem {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<Elem>,
    pub text: String,
}

impl Elem {
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Element children named `name`.
    pub fn kids<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Elem> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    pub fn kid(&self, name: &str) -> Option<&Elem> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Elements in this subtree, itself included.
    pub fn element_count(&self) -> usize {
        1 + self.children.iter().map(Elem::element_count).sum::<usize>()
    }

    /// Direct text of the first child named `name`, or "".
    pub fn kid_text(&self, name: &str) -> &str {
        self.kid(name).map(|c| c.text.as_str()).unwrap_or("")
    }
}

/// Parse a document and return its top-level elements (a reply's `xml`
/// field may hold several, e.g. one `RESULT` per binding).
pub fn parse_forest(input: &str) -> Result<Vec<Elem>, String> {
    let mut p = Reader {
        s: input.as_bytes(),
        i: 0,
    };
    let mut out = Vec::new();
    loop {
        p.skip_misc();
        if p.i >= p.s.len() {
            return Ok(out);
        }
        if p.s[p.i] != b'<' {
            // Stray top-level text (a scalar XPath answer is wrapped, so
            // this only skips whitespace-like filler).
            while p.i < p.s.len() && p.s[p.i] != b'<' {
                p.i += 1;
            }
            continue;
        }
        out.push(p.element()?);
    }
}

/// Parse a document with exactly one root element.
pub fn parse_root(input: &str) -> Result<Elem, String> {
    let mut forest = parse_forest(input)?;
    match forest.len() {
        1 => Ok(forest.remove(0)),
        n => Err(format!("expected one root element, found {n}")),
    }
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn err(&self, what: &str) -> String {
        format!("xml: {what} at byte {}", self.i)
    }

    fn starts(&self, lit: &str) -> bool {
        self.s[self.i..].starts_with(lit.as_bytes())
    }

    fn skip_until(&mut self, lit: &str) {
        while self.i < self.s.len() && !self.starts(lit) {
            self.i += 1;
        }
        self.i = (self.i + lit.len()).min(self.s.len());
    }

    /// Whitespace, comments, processing instructions and doctypes.
    fn skip_misc(&mut self) {
        loop {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
            if self.starts("<?") {
                self.skip_until("?>");
            } else if self.starts("<!--") {
                self.skip_until("-->");
            } else if self.starts("<!") {
                self.skip_until(">");
            } else {
                return;
            }
        }
    }

    fn name(&mut self) -> Result<String, String> {
        let start = self.i;
        while self.i < self.s.len() {
            let b = self.s[self.i];
            if b.is_ascii_whitespace() || b == b'>' || b == b'/' || b == b'=' {
                break;
            }
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("empty name"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
    }

    fn element(&mut self) -> Result<Elem, String> {
        self.i += 1; // '<'
        let name = self.name()?;
        let mut attrs = Vec::new();
        loop {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated start tag")),
                Some(b'/') => {
                    if self.s.get(self.i + 1) != Some(&b'>') {
                        return Err(self.err("stray '/'"));
                    }
                    self.i += 2;
                    return Ok(Elem {
                        name,
                        attrs,
                        children: Vec::new(),
                        text: String::new(),
                    });
                }
                Some(b'>') => {
                    self.i += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    if self.s.get(self.i) != Some(&b'=') {
                        return Err(self.err("attribute without '='"));
                    }
                    self.i += 1;
                    let quote = *self.s.get(self.i).ok_or_else(|| self.err("eof"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("unquoted attribute"));
                    }
                    self.i += 1;
                    let start = self.i;
                    while self.i < self.s.len() && self.s[self.i] != quote {
                        self.i += 1;
                    }
                    if self.i >= self.s.len() {
                        return Err(self.err("unterminated attribute"));
                    }
                    let raw = std::str::from_utf8(&self.s[start..self.i])
                        .map_err(|_| self.err("attribute is not UTF-8"))?;
                    attrs.push((key, unescape(raw)?));
                    self.i += 1;
                }
            }
        }
        let mut children = Vec::new();
        let mut text = String::new();
        loop {
            if self.i >= self.s.len() {
                return Err(self.err(&format!("unclosed <{name}>")));
            }
            if self.starts("</") {
                self.i += 2;
                let close = self.name()?;
                if close != name {
                    return Err(self.err(&format!("</{close}> closes <{name}>")));
                }
                while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                    self.i += 1;
                }
                if self.s.get(self.i) != Some(&b'>') {
                    return Err(self.err("unterminated end tag"));
                }
                self.i += 1;
                return Ok(Elem {
                    name,
                    attrs,
                    children,
                    text,
                });
            }
            if self.starts("<!--") || self.starts("<?") {
                self.skip_misc();
                continue;
            }
            if self.starts("<![CDATA[") {
                let start = self.i + 9;
                self.skip_until("]]>");
                let end = self.i.saturating_sub(3).max(start);
                text.push_str(&String::from_utf8_lossy(&self.s[start..end]));
                continue;
            }
            if self.s[self.i] == b'<' {
                children.push(self.element()?);
                continue;
            }
            let start = self.i;
            while self.i < self.s.len() && self.s[self.i] != b'<' {
                self.i += 1;
            }
            let raw = std::str::from_utf8(&self.s[start..self.i])
                .map_err(|_| self.err("text is not UTF-8"))?;
            text.push_str(&unescape(raw)?);
        }
    }
}

fn unescape(raw: &str) -> Result<String, String> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp + 1..];
        let semi = tail
            .find(';')
            .ok_or_else(|| format!("xml: unterminated entity in {raw:?}"))?;
        let ent = &tail[..semi];
        let ch = match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let code = if let Some(hex) = ent.strip_prefix("#x") {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = ent.strip_prefix('#') {
                    dec.parse().ok()
                } else {
                    None
                };
                code.and_then(char::from_u32)
                    .ok_or_else(|| format!("xml: unknown entity &{ent};"))?
            }
        };
        out.push(ch);
        rest = &tail[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_elements_attributes_text_and_entities() {
        let e = parse_root(
            "<?xml version=\"1.0\"?><a x=\"1\" y='&lt;2&gt;'><b>t&amp;u</b><!-- c --><b/>tail&#65;</a>",
        )
        .unwrap();
        assert_eq!(e.name, "a");
        assert_eq!(e.attr("y"), Some("<2>"));
        assert_eq!(e.kids("b").count(), 2);
        assert_eq!(e.kid_text("b"), "t&u");
        assert_eq!(e.text, "tailA");
    }

    #[test]
    fn reads_forests_and_rejects_broken_input() {
        let f = parse_forest("<r>1</r><r>2</r>").unwrap();
        assert_eq!(f.len(), 2);
        assert!(parse_root("<a><b></a>").is_err());
        assert!(parse_root("<a>").is_err());
        assert!(parse_root("<a>&bogus;</a>").is_err());
    }
}
