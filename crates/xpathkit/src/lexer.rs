//! Tokenizer for the structural path expression language.

use crate::error::{ParseError, Result};

/// A token of the path expression language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `/` — child axis separator.
    Slash,
    /// `//` — descendant axis separator.
    DoubleSlash,
    /// `[` — start of a branching predicate.
    LBracket,
    /// `]` — end of a branching predicate.
    RBracket,
    /// `*` — wildcard node test.
    Star,
    /// An element name test.
    Name(String),
}

/// A token together with its character offset in the original input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Offset of the first character of the token.
    pub offset: usize,
}

/// Tokenizes a path expression string.
///
/// Whitespace between tokens is permitted and skipped. Names follow the
/// same rules as XML element names in `xmlkit`: they start with an ASCII
/// letter, `_` or `:` and continue with those, digits, `-` or `.`. So the
/// abbreviated steps `.` and `..`, which this subset does not support, are
/// syntax errors rather than child steps named `"."` or `".."`.
pub fn tokenize(input: &str) -> Result<Vec<SpannedToken>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                pos += 1;
            }
            b'/' => {
                if pos + 1 < bytes.len() && bytes[pos + 1] == b'/' {
                    tokens.push(SpannedToken {
                        token: Token::DoubleSlash,
                        offset: pos,
                    });
                    pos += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Slash,
                        offset: pos,
                    });
                    pos += 1;
                }
            }
            b'[' => {
                tokens.push(SpannedToken {
                    token: Token::LBracket,
                    offset: pos,
                });
                pos += 1;
            }
            b']' => {
                tokens.push(SpannedToken {
                    token: Token::RBracket,
                    offset: pos,
                });
                pos += 1;
            }
            b'*' => {
                tokens.push(SpannedToken {
                    token: Token::Star,
                    offset: pos,
                });
                pos += 1;
            }
            _ if is_name_start(b) => {
                let start = pos;
                while pos < bytes.len() && is_name_byte(bytes[pos]) {
                    pos += 1;
                }
                let name = std::str::from_utf8(&bytes[start..pos])
                    .map_err(|_| ParseError::new("invalid UTF-8 in name", start))?
                    .to_string();
                tokens.push(SpannedToken {
                    token: Token::Name(name),
                    offset: start,
                });
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character '{}'", other as char),
                    pos,
                ));
            }
        }
    }
    Ok(tokens)
}

#[inline]
fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || matches!(b, b'_' | b':')
}

#[inline]
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn simple_path() {
        assert_eq!(
            toks("/a/b/c"),
            vec![
                Token::Slash,
                Token::Name("a".into()),
                Token::Slash,
                Token::Name("b".into()),
                Token::Slash,
                Token::Name("c".into())
            ]
        );
    }

    #[test]
    fn double_slash_and_star() {
        assert_eq!(
            toks("//a/*"),
            vec![
                Token::DoubleSlash,
                Token::Name("a".into()),
                Token::Slash,
                Token::Star
            ]
        );
    }

    #[test]
    fn predicates() {
        assert_eq!(
            toks("/a[b]/c"),
            vec![
                Token::Slash,
                Token::Name("a".into()),
                Token::LBracket,
                Token::Name("b".into()),
                Token::RBracket,
                Token::Slash,
                Token::Name("c".into())
            ]
        );
    }

    #[test]
    fn whitespace_skipped() {
        assert_eq!(toks(" / a / b "), toks("/a/b"));
    }

    #[test]
    fn offsets_recorded() {
        let spanned = tokenize("/ab//c").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 1);
        assert_eq!(spanned[2].offset, 3);
        assert_eq!(spanned[3].offset, 5);
    }

    #[test]
    fn hyphenated_and_namespaced_names() {
        assert_eq!(
            toks("/ns:elem-name.x"),
            vec![Token::Slash, Token::Name("ns:elem-name.x".into())]
        );
    }

    #[test]
    fn self_and_parent_steps_are_errors_not_names() {
        // A name cannot start with `.`, so the unsupported self and parent
        // steps are errors, not child steps named "." and ".." that would
        // estimate a silent 0.
        for (query, offset) in [("//b[.//c]", 4), ("/a/b/..", 5), ("/.", 1), ("/a/-b", 3)] {
            let err = tokenize(query).unwrap_err();
            assert_eq!(err.offset, offset, "{query}");
            assert!(crate::parse(query).is_err(), "{query}");
        }
        // Digits, `-` and `.` remain fine after the first byte.
        assert_eq!(
            toks("/_a1.b-c"),
            vec![Token::Slash, Token::Name("_a1.b-c".into())]
        );
    }

    #[test]
    fn rejects_invalid_character() {
        let err = tokenize("/a/$b").unwrap_err();
        assert_eq!(err.offset, 3);
    }

    #[test]
    fn empty_input_is_empty_token_stream() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   ").unwrap().is_empty());
    }
}
