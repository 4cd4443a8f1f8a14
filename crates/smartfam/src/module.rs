//! Data-intensive processing modules.
//!
//! The paper "preload\[s\]" data-intensive modules onto the McSD node; each
//! is addressable through its log file. A module takes string parameters
//! (what the host writes into the log) and returns result bytes (what the
//! daemon writes back).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error returned by a module invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleError {
    /// Human-readable failure description.
    pub message: String,
}

impl ModuleError {
    /// Build an error from any displayable value.
    pub fn new(message: impl fmt::Display) -> Self {
        ModuleError {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ModuleError {}

/// A data-intensive operation preloaded into a smart-storage node.
pub trait ProcessingModule: Send + Sync {
    /// The module's name — also the stem of its log file
    /// (`<name>.log`).
    fn name(&self) -> &str;

    /// Run the module with the given parameters, returning result bytes.
    fn invoke(&self, params: &[String]) -> Result<Vec<u8>, ModuleError>;
}

/// A module built from a closure, for tests and small operations.
pub struct FnModule<F> {
    name: String,
    f: F,
}

impl<F> FnModule<F>
where
    F: Fn(&[String]) -> Result<Vec<u8>, ModuleError> + Send + Sync,
{
    /// Wrap a closure as a module.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnModule {
            name: name.into(),
            f,
        }
    }
}

impl<F> ProcessingModule for FnModule<F>
where
    F: Fn(&[String]) -> Result<Vec<u8>, ModuleError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&self, params: &[String]) -> Result<Vec<u8>, ModuleError> {
        (self.f)(params)
    }
}

/// The set of modules preloaded on one SD node. Thread-safe; the daemon
/// reads it while the application may keep loading modules ("the
/// extensibility of data-processing modules … preloaded into McSD
/// smart-disk nodes", §VI).
#[derive(Clone, Default)]
pub struct ModuleRegistry {
    modules: Arc<RwLock<HashMap<String, Arc<dyn ProcessingModule>>>>,
}

impl ModuleRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Preload a module. Replaces any module with the same name; returns
    /// whether a module was replaced.
    pub fn register(&self, module: Arc<dyn ProcessingModule>) -> bool {
        self.modules
            .write()
            .insert(module.name().to_string(), module)
            .is_some()
    }

    /// Look up a module by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn ProcessingModule>> {
        self.modules.read().get(name).cloned()
    }

    /// Names of all preloaded modules, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.modules.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of preloaded modules.
    pub fn len(&self) -> usize {
        self.modules.read().len()
    }

    /// Whether no modules are loaded.
    pub fn is_empty(&self) -> bool {
        self.modules.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_module() -> Arc<dyn ProcessingModule> {
        Arc::new(FnModule::new("echo", |params: &[String]| {
            Ok(params.join(",").into_bytes())
        }))
    }

    #[test]
    fn fn_module_invokes() {
        let m = echo_module();
        assert_eq!(m.name(), "echo");
        let out = m.invoke(&["a".into(), "b".into()]).unwrap();
        assert_eq!(out, b"a,b");
    }

    #[test]
    fn registry_register_and_get() {
        let r = ModuleRegistry::new();
        assert!(r.is_empty());
        assert!(!r.register(echo_module()));
        assert!(r.len() == 1 && !r.is_empty());
        assert!(r.get("echo").is_some());
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn registry_replace_reports() {
        let r = ModuleRegistry::new();
        assert!(!r.register(echo_module()));
        assert!(r.register(echo_module()));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn registry_names_sorted() {
        let r = ModuleRegistry::new();
        r.register(Arc::new(FnModule::new("zeta", |_: &[String]| Ok(vec![]))));
        r.register(Arc::new(FnModule::new("alpha", |_: &[String]| Ok(vec![]))));
        assert_eq!(r.names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn module_error_display() {
        let e = ModuleError::new("out of cheese");
        assert_eq!(e.to_string(), "out of cheese");
    }

    #[test]
    fn registry_is_cloneable_and_shared() {
        let r = ModuleRegistry::new();
        let r2 = r.clone();
        r.register(echo_module());
        assert_eq!(r2.len(), 1);
    }
}
