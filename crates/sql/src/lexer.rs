//! SQL tokenizer.

use crate::{Result, SqlError};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Keyword or identifier (keywords are detected case-insensitively by
    /// the parser; the original spelling is preserved).
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    StringLit(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `?` — a positional placeholder in a prepared statement.
    Question,
}

impl Token {
    /// Whether this token is the given keyword (case-insensitive).
    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes a SQL string.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                // Line comments: `-- …`
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    return Err(SqlError::Lex {
                        position: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '.' => {
                // `.5` style numbers are not supported; standalone dot.
                tokens.push(Token::Dot);
                i += 1;
            }
            '?' => {
                tokens.push(Token::Question);
                i += 1;
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(SqlError::Lex {
                            position: i,
                            message: "unterminated string literal".into(),
                        });
                    }
                    if bytes[i] == b'\'' {
                        // `''` escapes a quote.
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(bytes[i] as char);
                    i += 1;
                }
                tokens.push(Token::StringLit(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &input[start..i];
                let n: f64 = text.parse().map_err(|_| SqlError::Lex {
                    position: start,
                    message: format!("invalid number literal {text}"),
                })?;
                tokens.push(Token::Number(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_owned()));
            }
            other => {
                return Err(SqlError::Lex {
                    position: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_query() {
        let toks = tokenize("SELECT AVG(x) FROM t WHERE y >= 1.5;").unwrap();
        assert!(toks[0].is_kw("select"));
        assert_eq!(toks[1], Token::Ident("AVG".into()));
        assert_eq!(toks[2], Token::LParen);
        assert!(toks.contains(&Token::GtEq));
        assert!(toks.contains(&Token::Number(1.5)));
        assert_eq!(*toks.last().unwrap(), Token::Semicolon);
    }

    #[test]
    fn string_literals_with_escape() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::StringLit("it's".into())]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(matches!(tokenize("'oops"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("< <= > >= = != <>").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::Eq,
                Token::NotEq,
                Token::NotEq
            ]
        );
    }

    #[test]
    fn scientific_notation_numbers() {
        let toks = tokenize("1e3 2.5E-2").unwrap();
        assert_eq!(toks, vec![Token::Number(1000.0), Token::Number(0.025)]);
    }

    #[test]
    fn line_comments_skipped() {
        let toks = tokenize("SELECT -- comment\n 1").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], Token::Number(1.0));
    }

    #[test]
    fn dotted_identifiers() {
        let toks = tokenize("lineitem.l_price").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("lineitem".into()),
                Token::Dot,
                Token::Ident("l_price".into())
            ]
        );
    }

    #[test]
    fn bad_character_is_error() {
        assert!(tokenize("SELECT @").is_err());
    }

    #[test]
    fn question_mark_placeholder() {
        let toks = tokenize("a BETWEEN ? AND ?").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Token::Question).count(), 2);
    }
}
