//! Kernel Features descriptors (paper Section III-B).
//!
//! The DAS prototype embeds a *Kernel Features* component in the active
//! storage client that identifies the dependence pattern of each
//! operator from a descriptor, "implemented and represented as a plain
//! text file or an XML file". The text record format is, verbatim from
//! the paper:
//!
//! ```text
//! Name:flow-routing
//! Dependence: -imgWidth+1, -imgWidth, -imgWidth-1, -1, 1,
//!             imgWidth-1, imgWidth, imgWidth+1
//! ```
//!
//! Offsets are *element* offsets and may be symbolic in the image
//! width, so this module includes a little expression parser
//! (integers, the `imgWidth` variable, `+ - *`, unary minus,
//! parentheses). A parsed [`KernelFeatures`] is instantiated to
//! concrete offsets with [`KernelFeatures::offsets`] once the client
//! knows the actual width.

use std::collections::BTreeMap;
use std::fmt;

/// A symbolic element offset: an arithmetic expression over integer
/// literals and the `imgWidth` variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OffsetExpr {
    /// Integer literal.
    Const(i64),
    /// The image width variable (`imgWidth`).
    ImgWidth,
    /// Negation.
    Neg(Box<OffsetExpr>),
    /// Addition.
    Add(Box<OffsetExpr>, Box<OffsetExpr>),
    /// Subtraction.
    Sub(Box<OffsetExpr>, Box<OffsetExpr>),
    /// Multiplication.
    Mul(Box<OffsetExpr>, Box<OffsetExpr>),
}

impl OffsetExpr {
    /// Evaluate with the given image width.
    pub fn eval(&self, img_width: u64) -> i64 {
        match self {
            OffsetExpr::Const(c) => *c,
            OffsetExpr::ImgWidth => img_width as i64,
            OffsetExpr::Neg(e) => -e.eval(img_width),
            OffsetExpr::Add(a, b) => a.eval(img_width) + b.eval(img_width),
            OffsetExpr::Sub(a, b) => a.eval(img_width) - b.eval(img_width),
            OffsetExpr::Mul(a, b) => a.eval(img_width) * b.eval(img_width),
        }
    }

    /// Parse an expression like `-imgWidth+1` or `2*imgWidth - 3`.
    pub fn parse(src: &str) -> Result<Self, ParseError> {
        let tokens = tokenize(src)?;
        let mut p = Parser { tokens, pos: 0, src };
        let expr = p.expr()?;
        if p.pos != p.tokens.len() {
            return Err(ParseError::new(src, "trailing input after expression"));
        }
        Ok(expr)
    }
}

impl fmt::Display for OffsetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffsetExpr::Const(c) => write!(f, "{c}"),
            OffsetExpr::ImgWidth => write!(f, "imgWidth"),
            OffsetExpr::Neg(e) => write!(f, "-{e}"),
            OffsetExpr::Add(a, b) => write!(f, "{a}+{b}"),
            OffsetExpr::Sub(a, b) => write!(f, "{a}-{b}"),
            OffsetExpr::Mul(a, b) => write!(f, "{a}*{b}"),
        }
    }
}

/// Descriptor parse failure, with the offending input and a reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The text being parsed when the error occurred.
    pub input: String,
    /// What went wrong.
    pub reason: String,
}

impl ParseError {
    pub(crate) fn new(input: &str, reason: impl Into<String>) -> Self {
        ParseError { input: input.to_string(), reason: reason.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error in {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Int(i64),
    ImgWidth,
    Plus,
    Minus,
    Star,
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v = text
                    .parse::<i64>()
                    .map_err(|_| ParseError::new(src, format!("integer overflow in {text:?}")))?;
                out.push(Token::Int(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let ident = &src[start..i];
                if ident.eq_ignore_ascii_case("imgwidth") {
                    out.push(Token::ImgWidth);
                } else {
                    return Err(ParseError::new(src, format!("unknown identifier {ident:?}")));
                }
            }
            other => return Err(ParseError::new(src, format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    src: &'a str,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// expr := term (('+' | '-') term)*
    fn expr(&mut self) -> Result<OffsetExpr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.bump();
                    let rhs = self.term()?;
                    lhs = OffsetExpr::Add(Box::new(lhs), Box::new(rhs));
                }
                Some(Token::Minus) => {
                    self.bump();
                    let rhs = self.term()?;
                    lhs = OffsetExpr::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    /// term := factor ('*' factor)*
    fn term(&mut self) -> Result<OffsetExpr, ParseError> {
        let mut lhs = self.factor()?;
        while matches!(self.peek(), Some(Token::Star)) {
            self.bump();
            let rhs = self.factor()?;
            lhs = OffsetExpr::Mul(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// factor := INT | 'imgWidth' | '-' factor | '(' expr ')'
    fn factor(&mut self) -> Result<OffsetExpr, ParseError> {
        match self.bump() {
            Some(Token::Int(v)) => Ok(OffsetExpr::Const(v)),
            Some(Token::ImgWidth) => Ok(OffsetExpr::ImgWidth),
            Some(Token::Minus) => Ok(OffsetExpr::Neg(Box::new(self.factor()?))),
            Some(Token::LParen) => {
                let inner = self.expr()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(ParseError::new(self.src, "missing closing parenthesis")),
                }
            }
            other => Err(ParseError::new(self.src, format!("unexpected token {other:?}"))),
        }
    }
}

/// A parsed Kernel Features record: operator name plus the symbolic
/// dependence offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelFeatures {
    /// Operator name (the `Name:` line).
    pub name: String,
    /// Symbolic dependence offsets (the `Dependence:` line).
    pub dependence: Vec<OffsetExpr>,
}

impl KernelFeatures {
    /// Instantiate the dependence pattern for a concrete image width.
    pub fn offsets(&self, img_width: u64) -> Vec<i64> {
        self.dependence.iter().map(|e| e.eval(img_width)).collect()
    }

    /// Render the record in the paper's plain-text format.
    pub fn to_text(&self) -> String {
        let deps: Vec<String> = self.dependence.iter().map(|e| e.to_string()).collect();
        format!("Name:{}\nDependence: {}\n", self.name, deps.join(", "))
    }

    /// Parse one or more records from the paper's plain-text format
    /// (records separated by their `Name:` lines; blank lines and `#`
    /// comments are ignored).
    pub fn parse_text(src: &str) -> Result<Vec<KernelFeatures>, ParseError> {
        let mut out = Vec::new();
        let mut current_name: Option<String> = None;
        for raw in src.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = strip_prefix_ci(line, "name:") {
                if let Some(name) = current_name.take() {
                    return Err(ParseError::new(
                        src,
                        format!("record {name:?} has no Dependence line"),
                    ));
                }
                current_name = Some(rest.trim().to_string());
            } else if let Some(rest) = strip_prefix_ci(line, "dependence:") {
                let name = current_name.take().ok_or_else(|| {
                    ParseError::new(src, "Dependence line without preceding Name line")
                })?;
                let mut dependence = Vec::new();
                // `Dependence: none` declares a dependence-free
                // operator (the paper's ideal offloading case).
                if !rest.trim().eq_ignore_ascii_case("none") {
                    for part in rest.split(',') {
                        let part = part.trim();
                        if part.is_empty() {
                            continue;
                        }
                        dependence.push(OffsetExpr::parse(part)?);
                    }
                    if dependence.is_empty() {
                        return Err(ParseError::new(
                            src,
                            format!("record {name:?} lists no offsets (use 'none')"),
                        ));
                    }
                }
                out.push(KernelFeatures { name, dependence });
            } else {
                return Err(ParseError::new(raw, "expected Name: or Dependence: line"));
            }
        }
        if let Some(name) = current_name {
            return Err(ParseError::new(src, format!("record {name:?} has no Dependence line")));
        }
        Ok(out)
    }
}

/// Case-insensitive ASCII prefix strip. Compares bytes, so a line
/// starting with multibyte UTF-8 can never match the ASCII `prefix` —
/// and when it does match, the split point is guaranteed to be a char
/// boundary (found by fuzzing: slicing by `prefix.len()` directly
/// panics on input like `"\u{c1}AME:…"`).
fn strip_prefix_ci<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    debug_assert!(prefix.is_ascii());
    let (lb, pb) = (line.as_bytes(), prefix.as_bytes());
    if lb.len() >= pb.len() && lb[..pb.len()].eq_ignore_ascii_case(pb) {
        Some(&line[prefix.len()..])
    } else {
        None
    }
}

/// The descriptors shipped with the prototype: one record per kernel in
/// `das-kernels`, written exactly as the paper's Section III-B example.
/// This is `descriptors/kernels.txt`, compiled in: the file is the one
/// copy, and a client that loads it from disk reads the same records.
pub const BUILTIN_DESCRIPTORS: &str = include_str!("../../../descriptors/kernels.txt");

/// The operator-name → [`KernelFeatures`] store embedded in the active
/// storage client.
#[derive(Debug, Clone, Default)]
pub struct FeatureRegistry {
    records: BTreeMap<String, KernelFeatures>,
}

impl FeatureRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with [`BUILTIN_DESCRIPTORS`].
    pub fn with_builtin() -> Self {
        let mut reg = Self::new();
        reg.load_text(BUILTIN_DESCRIPTORS)
            .expect("builtin descriptors parse");
        reg
    }

    /// Register a record, replacing any previous one of the same name.
    pub fn insert(&mut self, features: KernelFeatures) {
        self.records.insert(features.name.clone(), features);
    }

    /// Load every record in a plain-text descriptor file.
    pub fn load_text(&mut self, src: &str) -> Result<usize, ParseError> {
        let records = KernelFeatures::parse_text(src)?;
        let n = records.len();
        for r in records {
            self.insert(r);
        }
        Ok(n)
    }

    /// Load a plain-text descriptor file from disk.
    pub fn load_text_file(&mut self, path: impl AsRef<std::path::Path>) -> Result<usize, ParseError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path).map_err(|e| {
            ParseError::new(&path.display().to_string(), format!("cannot read file: {e}"))
        })?;
        self.load_text(&src)
    }

    /// Load an XML descriptor file from disk.
    pub fn load_xml_file(&mut self, path: impl AsRef<std::path::Path>) -> Result<usize, ParseError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path).map_err(|e| {
            ParseError::new(&path.display().to_string(), format!("cannot read file: {e}"))
        })?;
        self.load_xml(&src)
    }

    /// Load every record from XML descriptor content (a `<kernels>`
    /// list of `<kernel>` elements, or one bare `<kernel>`).
    pub fn load_xml(&mut self, src: &str) -> Result<usize, ParseError> {
        let records = crate::xml::parse_kernel_xml(src)?;
        let n = records.len();
        for r in records {
            self.insert(r);
        }
        Ok(n)
    }

    /// Look up an operator's features.
    pub fn get(&self, name: &str) -> Option<&KernelFeatures> {
        self.records.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_parser_handles_paper_offsets() {
        let cases = [
            ("-imgWidth+1", -99),
            ("-imgWidth", -100),
            ("-imgWidth-1", -101),
            ("-1", -1),
            ("1", 1),
            ("imgWidth-1", 99),
            ("imgWidth", 100),
            ("imgWidth+1", 101),
        ];
        for (src, expected) in cases {
            let e = OffsetExpr::parse(src).unwrap();
            assert_eq!(e.eval(100), expected, "{src}");
        }
    }

    #[test]
    fn expression_parser_precedence_and_parens() {
        assert_eq!(OffsetExpr::parse("2*imgWidth+1").unwrap().eval(10), 21);
        assert_eq!(OffsetExpr::parse("2*(imgWidth+1)").unwrap().eval(10), 22);
        assert_eq!(OffsetExpr::parse("-(imgWidth-3)*2").unwrap().eval(10), -14);
        assert_eq!(OffsetExpr::parse("1-2-3").unwrap().eval(0), -4, "left assoc");
    }

    #[test]
    fn expression_parser_rejects_garbage() {
        assert!(OffsetExpr::parse("").is_err());
        assert!(OffsetExpr::parse("imgHeight").is_err());
        assert!(OffsetExpr::parse("1 +").is_err());
        assert!(OffsetExpr::parse("(1").is_err());
        assert!(OffsetExpr::parse("1 1").is_err());
        assert!(OffsetExpr::parse("99999999999999999999").is_err());
    }

    #[test]
    fn comments_blank_lines_and_none_parse() {
        let src = "# comment\nName:a\nDependence: 1\n\nName:b\nDependence: none\n";
        let recs = KernelFeatures::parse_text(src).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].name.as_str(), recs[0].offsets(10)), ("a", vec![1]));
        assert_eq!((recs[1].name.as_str(), recs[1].dependence.len()), ("b", 0));
    }

    #[test]
    fn text_roundtrip() {
        let rec = KernelFeatures {
            name: "flow-routing".into(),
            dependence: vec![
                OffsetExpr::parse("-imgWidth+1").unwrap(),
                OffsetExpr::parse("imgWidth").unwrap(),
            ],
        };
        let text = rec.to_text();
        let parsed = KernelFeatures::parse_text(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].offsets(50), rec.offsets(50));
        assert_eq!(parsed[0].name, "flow-routing");
    }

    #[test]
    fn paper_record_parses_verbatim() {
        // The exact record from Section III-B.
        let src = "Name:flow-routing\nDependence: -imgWidth + 1, -imgWidth, -imgWidth - 1, -1, 1, imgWidth - 1, imgWidth, imgWidth + 1";
        let recs = KernelFeatures::parse_text(src).unwrap();
        assert_eq!(recs[0].offsets(100), vec![-99, -100, -101, -1, 1, 99, 100, 101]);
    }

    #[test]
    fn multi_record_files_with_comments() {
        let n = FeatureRegistry::new().load_text(BUILTIN_DESCRIPTORS).unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn malformed_records_rejected() {
        assert!(KernelFeatures::parse_text("Dependence: 1").is_err());
        assert!(KernelFeatures::parse_text("Name:x").is_err());
        assert!(KernelFeatures::parse_text("Name:x\nName:y\nDependence: 1").is_err());
        assert!(KernelFeatures::parse_text("Name:x\nDependence:").is_err());
        assert!(KernelFeatures::parse_text("garbage line").is_err());
    }

    #[test]
    fn builtin_registry_matches_kernel_implementations() {
        use das_kernels::{kernel_by_name, kernel_names};
        let reg = FeatureRegistry::with_builtin();
        for &name in kernel_names() {
            let kernel = kernel_by_name(name).unwrap();
            let features = reg.get(name).unwrap_or_else(|| panic!("{name} registered"));
            for w in [16u64, 100, 2048] {
                let mut a = features.offsets(w);
                let mut b = kernel.dependence_offsets(w);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "descriptor/kernel mismatch for {name} at width {w}");
            }
        }
    }

    #[test]
    fn registry_replaces_on_reinsert() {
        let mut reg = FeatureRegistry::new();
        reg.load_text("Name:op\nDependence: 1").unwrap();
        assert_eq!(reg.get("op").unwrap().offsets(10), vec![1]);
        reg.load_text("Name:op\nDependence: 2, 3").unwrap();
        assert_eq!(reg.get("op").unwrap().offsets(10), vec![2, 3]);
    }
}
