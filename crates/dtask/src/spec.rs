//! Task specifications and the operation registry.
//!
//! A [`TaskSpec`] is the serializable description of a task: a target key, an
//! op name resolved against the [`OpRegistry`], parameters, and dependency
//! keys. This is the moral equivalent of a Dask graph entry
//! `key: (func, *args)`; keeping functions behind a registry (rather than
//! shipping closures) mirrors the constraint that every worker must be able
//! to deserialize the function.

use crate::datum::Datum;
use crate::key::Key;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// The function type behind an op: `(params, dep values in dependency order)
/// -> result or error text`.
pub type OpFn = dyn Fn(&Datum, &[Datum]) -> Result<Datum, String> + Send + Sync;

/// Where one input of a fused stage comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FusedInput {
    /// Index into the fused spec's `deps` (an outside-the-chain dependency).
    Dep(usize),
    /// Result of an earlier stage in the same fused spec.
    Stage(usize),
}

/// One original task folded into a fused chain.
#[derive(Clone)]
pub struct FusedStage {
    /// The original task key (kept for error attribution).
    pub key: Key,
    /// Registered op name.
    pub op: String,
    /// Op parameters.
    pub params: Datum,
    /// Where each argument comes from, in argument order.
    pub inputs: Vec<FusedInput>,
}

/// What a task computes: a single registered op, or a fused chain of ops
/// produced by the graph optimizer (`dtask::optimize`). A fused chain runs
/// inline on one executor slot; only the final stage's result is stored,
/// under the spec's key.
#[derive(Clone)]
pub enum Value {
    /// One registered op call.
    Op {
        /// Registered op name.
        op: String,
        /// Op parameters (available to the function besides dep values).
        params: Datum,
    },
    /// A linear chain of ops collapsed into one task. The last stage's key
    /// equals the spec key.
    Fused {
        /// Stages in execution order.
        stages: Vec<FusedStage>,
    },
}

/// Description of one task in a graph.
#[derive(Clone)]
pub struct TaskSpec {
    /// Key under which the result is stored.
    pub key: Key,
    /// What to compute.
    pub value: Value,
    /// Keys of tasks whose outputs this task consumes, in argument order
    /// (for fused specs: the deduplicated union of outside-chain deps).
    pub deps: Vec<Key>,
}

// The scheduler keeps every submitted spec until its key is released: a
// field that widens it costs that much per resident task (DESIGN.md §5,
// the size-pin table).
const _: () = assert!(std::mem::size_of::<TaskSpec>() <= 120);

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.value {
            Value::Op { op, .. } => write!(
                f,
                "TaskSpec({} = {}({} deps))",
                self.key,
                op,
                self.deps.len()
            ),
            Value::Fused { stages } => write!(
                f,
                "TaskSpec({} = fused[{}]({} deps))",
                self.key,
                stages
                    .iter()
                    .map(|s| s.op.as_str())
                    .collect::<Vec<_>>()
                    .join("|"),
                self.deps.len()
            ),
        }
    }
}

impl TaskSpec {
    /// Convenience constructor for a single-op task.
    pub fn new(key: impl Into<Key>, op: impl Into<String>, params: Datum, deps: Vec<Key>) -> Self {
        TaskSpec {
            key: key.into(),
            value: Value::Op {
                op: op.into(),
                params,
            },
            deps,
        }
    }

    /// Constructor for a fused chain (used by the optimizer).
    pub fn fused(key: impl Into<Key>, stages: Vec<FusedStage>, deps: Vec<Key>) -> Self {
        TaskSpec {
            key: key.into(),
            value: Value::Fused { stages },
            deps,
        }
    }

    /// Number of original tasks this spec stands for (1 unless fused).
    pub fn n_stages(&self) -> usize {
        match &self.value {
            Value::Op { .. } => 1,
            Value::Fused { stages } => stages.len(),
        }
    }
}

/// Registry of named operations shared by all workers in a cluster.
///
/// Ships with a small standard library of ops that `darray`/`dml` build on;
/// applications register their own with [`OpRegistry::register`].
#[derive(Clone, Default)]
pub struct OpRegistry {
    ops: Arc<RwLock<HashMap<String, Arc<OpFn>>>>,
}

impl OpRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        OpRegistry::default()
    }

    /// Registry preloaded with the standard ops (`identity`, `const`,
    /// `list`, `sum_scalars`).
    pub fn with_std_ops() -> Self {
        let reg = OpRegistry::new();
        reg.register("identity", |_p, deps| {
            deps.first()
                .cloned()
                .ok_or_else(|| "identity needs one dependency".to_string())
        });
        reg.register("const", |p, _deps| Ok(p.clone()));
        reg.register("list", |_p, deps| Ok(Datum::List(deps.to_vec())));
        reg.register("sum_scalars", |_p, deps| {
            let mut acc = 0.0;
            for d in deps {
                acc += d
                    .as_f64()
                    .ok_or_else(|| "sum_scalars: non-numeric dependency".to_string())?;
            }
            Ok(Datum::F64(acc))
        });
        reg
    }

    /// Register (or replace) an op.
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: Fn(&Datum, &[Datum]) -> Result<Datum, String> + Send + Sync + 'static,
    {
        self.ops.write().insert(name.to_string(), Arc::new(f));
    }

    /// Look up an op.
    pub fn get(&self, name: &str) -> Option<Arc<OpFn>> {
        self.ops.read().get(name).cloned()
    }

    /// Registered op names (sorted, for diagnostics).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.ops.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_ops_behave() {
        let reg = OpRegistry::with_std_ops();
        let id = reg.get("identity").unwrap();
        assert!(matches!(
            id(&Datum::Null, &[Datum::I64(7)]),
            Ok(Datum::I64(7))
        ));
        assert!(id(&Datum::Null, &[]).is_err());

        let c = reg.get("const").unwrap();
        assert!(matches!(c(&Datum::F64(1.5), &[]), Ok(Datum::F64(v)) if v == 1.5));

        let sum = reg.get("sum_scalars").unwrap();
        let r = sum(&Datum::Null, &[Datum::F64(1.0), Datum::I64(2)]).unwrap();
        assert_eq!(r.as_f64(), Some(3.0));
        assert!(sum(&Datum::Null, &[Datum::Str("x".into())]).is_err());
    }

    #[test]
    fn register_and_replace() {
        let reg = OpRegistry::new();
        assert!(reg.get("f").is_none());
        reg.register("f", |_, _| Ok(Datum::I64(1)));
        assert_eq!(
            reg.get("f").unwrap()(&Datum::Null, &[]).unwrap().as_i64(),
            Some(1)
        );
        reg.register("f", |_, _| Ok(Datum::I64(2)));
        assert_eq!(
            reg.get("f").unwrap()(&Datum::Null, &[]).unwrap().as_i64(),
            Some(2)
        );
    }

    #[test]
    fn registry_is_shared_between_clones() {
        let reg = OpRegistry::new();
        let clone = reg.clone();
        reg.register("late", |_, _| Ok(Datum::Null));
        assert!(clone.get("late").is_some());
        assert_eq!(clone.names(), vec!["late".to_string()]);
    }
}
