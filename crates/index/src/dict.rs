//! Label dictionary: interns label strings ("car", "person", …) to the
//! `u32` identifiers used in index keys.
//!
//! Identifier 0 is reserved for the internal *processed-frame* marker (the
//! record TASM writes when a detector has run on a frame, so that "no boxes"
//! can be distinguished from "never looked"). Real labels start at 1.

use std::collections::HashMap;

/// Reserved label id marking frames a detector has processed.
pub const PROCESSED_LABEL: u32 = 0;

/// First id handed out to a real label.
pub const FIRST_LABEL: u32 = 1;

/// Bidirectional label-string ↔ id mapping.
#[derive(Default)]
pub struct LabelDict {
    /// `names[i]` is the label with id `i + FIRST_LABEL`.
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl LabelDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        assert!(
            !name.contains(['\t', '\n']),
            "label names may not contain tabs or newlines"
        );
        let id = self.names.len() as u32 + FIRST_LABEL;
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// Looks up an existing label id.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The label string for `id` (never the reserved marker).
    pub fn name(&self, id: u32) -> Option<&str> {
        if id < FIRST_LABEL {
            return None;
        }
        self.names
            .get((id - FIRST_LABEL) as usize)
            .map(|s| s.as_str())
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no labels are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = LabelDict::new();
        let car = d.intern("car");
        let person = d.intern("person");
        assert_eq!(car, FIRST_LABEL);
        assert_eq!(person, FIRST_LABEL + 1);
        assert_eq!(d.intern("car"), car);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn lookup_and_name() {
        let mut d = LabelDict::new();
        let id = d.intern("bicycle");
        assert_eq!(d.lookup("bicycle"), Some(id));
        assert_eq!(d.lookup("unknown"), None);
        assert_eq!(d.name(id), Some("bicycle"));
        assert_eq!(d.name(PROCESSED_LABEL), None);
        assert_eq!(d.name(999), None);
    }

    #[test]
    #[should_panic(expected = "tabs or newlines")]
    fn tab_in_label_rejected() {
        let mut d = LabelDict::new();
        let _ = d.intern("bad\tlabel");
    }
}
