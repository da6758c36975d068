//! Reading JSON documents (server replies, the metric map) through the
//! workspace's serde shim, plus the formatting of the result line.

use serde::{Content, Deserialize, Error};

/// Captures the parsed document tree as is.
struct Tree(Content);

impl<'de> Deserialize<'de> for Tree {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        Ok(Tree(content.clone()))
    }
}

pub fn parse(text: &str) -> Result<Content, String> {
    serde_json::from_str::<Tree>(text)
        .map(|tree| tree.0)
        .map_err(|err| err.to_string())
}

pub fn get<'a>(content: &'a Content, key: &str) -> Option<&'a Content> {
    content
        .as_map()?
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, value)| value)
}

pub fn as_u64(content: &Content) -> Option<u64> {
    match content {
        Content::U64(n) => Some(*n),
        Content::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

pub fn str_field<'a>(content: &'a Content, key: &str) -> Option<&'a str> {
    get(content, key)?.as_str()
}

pub fn u64_field(content: &Content, key: &str) -> Option<u64> {
    as_u64(get(content, key)?)
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_fields() {
        let doc = parse(r#"{"found":true,"cost":5,"circuit":"VCB*FBA","g":[1,6]}"#).unwrap();
        assert_eq!(get(&doc, "found"), Some(&Content::Bool(true)));
        assert_eq!(u64_field(&doc, "cost"), Some(5));
        assert_eq!(str_field(&doc, "circuit"), Some("VCB*FBA"));
        assert_eq!(
            get(&doc, "g").and_then(Content::as_seq).map(<[_]>::len),
            Some(2)
        );
        assert!(parse("{").is_err());
    }

    #[test]
    fn quotes_control_characters() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }
}
