//! A small comment- and string-aware Rust lexer.
//!
//! The rule passes need far less than a real parser: identifiers and
//! single-character punctuation with line numbers, plus the comments
//! (which carry `SAFETY:` justifications and `// lint: allow(...)`
//! annotations). Everything the rules must *not* trip over — string
//! literals, char literals vs. lifetimes, raw strings, nested block
//! comments, doc comments quoting code — is consumed here so the rule
//! passes never see it.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `unsafe`, `fn`, …).
    Ident,
    /// One punctuation character (`<`, `:`, `#`, …). Multi-character
    /// operators arrive as consecutive tokens.
    Punct,
    /// A numeric literal (`10`, `0xFF`, `1_000u64`). The parser follows
    /// tuple fields through these; the token rules treat them as opaque.
    Number,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text (one char for [`TokenKind::Punct`]).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Identifier or punctuation.
    pub kind: TokenKind,
}

impl Token {
    /// `true` iff this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// `true` iff this is the punctuation character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct
            && self.text.len() == ch.len_utf8()
            && self.text.starts_with(ch)
    }
}

/// One comment (line `//`, block `/* */`, or doc variant).
#[derive(Debug, Clone)]
pub struct Comment {
    /// The comment text without the delimiters, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub start_line: u32,
    /// 1-based line the comment ends on (equal to `start_line` for line
    /// comments).
    pub end_line: u32,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

/// `true` iff `tokens[i]` and `tokens[i + 1]` spell the path separator
/// `::`.
pub(crate) fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// `true` iff `tokens[i]` is called as a method: `.name(`.
pub(crate) fn is_method_call(tokens: &[Token], i: usize) -> bool {
    i > 0 && tokens[i - 1].is_punct('.') && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// `true` iff `tokens[i]` is invoked as a macro: `name!`.
pub(crate) fn is_macro_call(tokens: &[Token], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
}

/// Lexes `source` into tokens and comments.
///
/// Unterminated strings or block comments are tolerated (the rest of
/// the file is treated as that literal): the linter must never panic on
/// the code it audits, and `rustc` will reject such a file anyway.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.char_indices().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<(usize, char)>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    /// Consumes one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'r' | 'b' if self.raw_or_byte_string() => {}
                '\'' => self.char_or_lifetime(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    let line = self.line;
                    let c = self.bump().unwrap_or(' ');
                    self.out.tokens.push(Token {
                        text: c.to_string(),
                        line,
                        kind: TokenKind::Punct,
                    });
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        self.bump();
        self.bump(); // `//`
                     // Doc slashes / bang are part of the delimiter, not the text.
        while matches!(self.peek(0), Some('/' | '!')) {
            self.bump();
        }
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            text: text.trim().to_string(),
            start_line,
            end_line: start_line,
        });
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        self.bump();
        self.bump(); // `/*`
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.out.comments.push(Comment {
            text: text.trim().to_string(),
            start_line,
            end_line: self.line,
        });
    }

    /// Consumes a plain `"…"` string (escapes honoured).
    fn string(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => return,
                _ => {}
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `rb…` prefixes.
    /// Returns `false` (consuming nothing) when the `r`/`b` is just an
    /// identifier start.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut ahead = 0;
        // Up to two prefix letters out of {r, b}.
        while matches!(self.peek(ahead), Some('r' | 'b')) && ahead < 2 {
            ahead += 1;
        }
        let mut hashes = 0;
        while self.peek(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(ahead + hashes) != Some('"') {
            return false;
        }
        let raw = (0..ahead).any(|i| self.peek(i) == Some('r'));
        for _ in 0..ahead + hashes + 1 {
            self.bump();
        }
        // Body: raw strings ignore escapes and close on `"` + hashes.
        while let Some(c) = self.bump() {
            match c {
                '\\' if !raw => {
                    self.bump();
                }
                '"' if (0..hashes).all(|i| self.peek(i) == Some('#')) => {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    return true;
                }
                _ => {}
            }
        }
        true
    }

    /// Disambiguates `'a` (lifetime — emitted as punct `'` + ident) from
    /// `'x'` / `'\n'` (char literal — consumed silently).
    fn char_or_lifetime(&mut self) {
        match self.peek(1) {
            Some(c) if c.is_alphabetic() || c == '_' => {
                // Scan the identifier; a trailing `'` makes it a char
                // literal like `'a'`, otherwise it is a lifetime.
                let mut ahead = 2;
                while self
                    .peek(ahead)
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    ahead += 1;
                }
                if self.peek(ahead) == Some('\'') {
                    for _ in 0..=ahead {
                        self.bump();
                    }
                } else {
                    // A lifetime: keep the tick as a punct so type
                    // normalization can tell `'a` from the type `a`;
                    // the ident lexes next round.
                    let line = self.line;
                    self.bump();
                    self.out.tokens.push(Token {
                        text: "'".to_string(),
                        line,
                        kind: TokenKind::Punct,
                    });
                }
            }
            Some('\\') => {
                self.bump(); // `'`
                self.bump(); // `\`
                             // The escaped char itself is consumed unconditionally so
                             // `'\''` does not stop at the escaped quote and leave the
                             // closing `'` to swallow code as a phantom char literal.
                self.bump();
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
            }
            Some(_) => {
                self.bump(); // `'`
                self.bump(); // the char
                self.bump(); // closing `'`
            }
            None => {
                self.bump();
            }
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        // Raw identifier `r#name` lexes as the single ident `name`, not
        // the three tokens `r`, `#`, `name`.
        if self.peek(0) == Some('r')
            && self.peek(1) == Some('#')
            && self.peek(2).is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            self.bump();
            self.bump();
        }
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.out.tokens.push(Token {
            text,
            line,
            kind: TokenKind::Ident,
        });
    }

    /// Numbers are emitted as [`TokenKind::Number`] tokens: the token
    /// rules skip them, while the item parser follows tuple fields
    /// (`self.0`) through them. Digits plus any suffix or float tail are one token so
    /// `1e5`, `0xFF`, `1_000u64` never shed ident fragments — but a `.`
    /// is only part of the number when a digit follows, so method calls
    /// on literals (`1.to_string()`) are not swallowed.
    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let float_dot = c == '.' && self.peek(1).is_some_and(|n| n.is_ascii_digit());
            if c.is_alphanumeric() || c == '_' || float_dot {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.out.tokens.push(Token {
            text,
            line,
            kind: TokenKind::Number,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(source: &str) -> Vec<String> {
        lex(source)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn skips_strings_and_comments() {
        let lexed = lex(r#"let x = "unsafe panic!"; // unwrap in comment"#);
        assert_eq!(idents(r#"let x = "unsafe panic!";"#), ["let", "x"]);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].text, "unwrap in comment");
    }

    #[test]
    fn raw_strings_do_not_leak_tokens() {
        assert_eq!(
            idents(r##"let s = r#"thread::spawn "quoted" unsafe"#; end"##),
            ["let", "s", "end"]
        );
        assert_eq!(idents(r#"let b = b"unsafe"; end"#), ["let", "b", "end"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // `'scope` must not swallow code until the next apostrophe.
        assert_eq!(
            idents("fn f<'scope>(x: &'scope str) { let c = 'x'; let n = '\\n'; done() }"),
            ["fn", "f", "scope", "x", "scope", "str", "let", "c", "let", "n", "done"]
        );
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("a /* outer /* inner */ still comment */ b");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn line_numbers_are_tracked() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn doc_comment_markers_are_stripped() {
        let lexed = lex("/// doc text\n//! inner doc\nfn f() {}");
        assert_eq!(lexed.comments[0].text, "doc text");
        assert_eq!(lexed.comments[1].text, "inner doc");
    }

    #[test]
    fn numbers_are_opaque() {
        assert_eq!(
            idents("let x = 1_000u64 + 0xFFu8 + 1e5; f()"),
            ["let", "x", "f"]
        );
    }

    #[test]
    fn numbers_are_tokens_with_text() {
        let nums: Vec<String> = lex("const R: Rank = Rank { order: 10 }; let f = 2.5;")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text)
            .collect();
        assert_eq!(nums, ["10", "2.5"]);
    }

    #[test]
    fn method_call_on_number_literal_is_visible() {
        // `1.to_string()` must lex as number `1`, `.`, ident — the old
        // lexer swallowed the whole call inside the number, blinding the
        // obs allocation rule.
        assert_eq!(idents("let s = 1.to_string();"), ["let", "s", "to_string"]);
    }

    #[test]
    fn escaped_quote_char_literal_does_not_swallow_code() {
        // `'\''` once broke at the escaped quote, leaving the closing `'`
        // to start a phantom literal that consumed real code.
        assert_eq!(
            idents(r"let q = '\''; let t = '\t'; after()"),
            ["let", "q", "let", "t", "after"]
        );
    }

    #[test]
    fn raw_identifiers_lex_as_one_ident() {
        assert_eq!(
            idents("let r#type = r#fn(); done()"),
            ["let", "type", "fn", "done"]
        );
    }
}
