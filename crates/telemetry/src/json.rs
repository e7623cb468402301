//! Minimal JSON emission helpers (no serde in the offline build). The
//! string escaper is the workspace's only one; `fts-server` re-exports
//! it as `wire::json_escape`.

/// Escapes a string for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an f64 as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub(crate) fn num(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_owned();
    }
    if x == 0.0 {
        return "0".to_owned();
    }
    let mag = x.abs();
    if (1.0e-4..1.0e15).contains(&mag) {
        format!("{x}")
    } else {
        format!("{x:e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{01}"), "\\u0001");
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(1.0e-300), "1e-300");
        assert!(num(3.0e20).contains('e'));
    }
}
