//! Model names interned once per run.
//!
//! An open-loop run has a session per arrival but only a few dozen models.
//! Its reports label every session with its model's name, so each distinct
//! name is allocated once, and every label is a shared [`ModelName`].

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A model name shared by every label that names the model. Derefs to
/// `str`, and prints and compares like the `String` it stands for.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelName(Arc<str>);

impl ModelName {
    /// The name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for ModelName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ModelName {
    fn from(name: &str) -> Self {
        ModelName(Arc::from(name))
    }
}

impl fmt::Debug for ModelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for ModelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl PartialEq<&str> for ModelName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for ModelName {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

/// The model names of one run's clients: each distinct name once, and
/// each client's as an index into them.
#[derive(Debug, Clone, Default)]
pub struct ModelNames {
    names: Vec<ModelName>,
    clients: Vec<u32>,
}

impl ModelNames {
    /// Interns each client's model name, in client-id order.
    pub fn new<'a>(client_models: impl IntoIterator<Item = &'a str>) -> ModelNames {
        let mut table = ModelNames::default();
        let clients = client_models.into_iter().map(|name| table.intern(name)).collect();
        table.clients = clients;
        table
    }

    /// The index of `name`, added if it is new.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(ModelName::from(name));
                (self.names.len() - 1) as u32
            }
        }
    }

    /// The name at `index`.
    pub fn name(&self, index: u32) -> &ModelName {
        &self.names[index as usize]
    }

    /// Client `client`'s model name, as an index into the names.
    ///
    /// # Panics
    ///
    /// Panics if the run has no such client.
    pub fn of_client(&self, client: u32) -> u32 {
        self.clients[client as usize]
    }

    /// Number of distinct names.
    pub fn distinct(&self) -> usize {
        self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_is_allocated_once_and_prints_like_a_string() {
        let names = ModelNames::new(["a", "bb", "a", "a"]);
        assert_eq!(names.distinct(), 2);
        let (first, third) = (names.of_client(0), names.of_client(2));
        assert_eq!(first, third);
        assert!(Arc::ptr_eq(&names.name(first).0, &names.name(third).0));
        let bb = names.name(names.of_client(1));
        assert_eq!(format!("{bb:?} {bb}"), format!("{:?} {}", "bb".to_string(), "bb"));
        assert_eq!(format!("{bb:#?}"), format!("{:#?}", "bb".to_string()));
        assert_eq!(*bb, "bb".to_string());
        assert_eq!(bb.as_str(), "bb");
        assert_eq!(format!("{:?}", ModelName::default()), format!("{:?}", String::new()));
    }
}
