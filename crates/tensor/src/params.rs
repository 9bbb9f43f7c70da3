//! Trainable parameter storage.
//!
//! Parameters live outside the autograd tape so a fresh [`Graph`](crate::Graph)
//! can be built every step while values, gradients, and optimizer state
//! persist across steps.
//!
//! Every set carries a *generation*: a number drawn from one process-wide
//! counter whenever the set is created or any of its values may change.
//! Two reads that see the same generation saw the same values, in the same
//! set, so a consumer can cache something derived from the values (the
//! compiled plan's packed weights) and key it on the generation alone.
//!
//! Values are reference-counted: an autograd tape's parameter leaf shares
//! the set's storage instead of copying it, and every write goes through
//! [`Arc::make_mut`], which copies only while such a tape is still alive.
//! A training step therefore drops its tape before the optimizer writes.

use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of every [`ParamSet::generation`]; process-wide, so no two value
/// states of any sets ever share a generation.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Handle to a parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct ParamEntry {
    name: String,
    value: Arc<Matrix>,
    grad: Matrix,
}

/// A named collection of trainable matrices with gradient buffers.
pub struct ParamSet {
    entries: Vec<ParamEntry>,
    generation: u64,
}

impl Default for ParamSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self { entries: Vec::new(), generation: next_generation() }
    }

    /// The current value generation (see the module docs): it changes on
    /// [`insert`](Self::insert), [`value_mut`](Self::value_mut),
    /// [`value_and_grad_mut`](Self::value_and_grad_mut) and
    /// [`restore`](Self::restore) — every way to change a value — and is
    /// never shared with another set. Gradient updates leave it alone.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Registers a parameter, returning its handle. Names are for
    /// introspection and need not be unique (e.g. per-feature weights share a
    /// prefix).
    pub fn insert(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.generation = next_generation();
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.entries.push(ParamEntry { name: name.into(), value: Arc::new(value), grad });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters, as reported in the paper's §4.5
    /// complexity analysis.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// The storage of a parameter's current value, shared rather than
    /// copied (a tape's parameter leaf holds it).
    pub(crate) fn shared_value(&self, id: ParamId) -> Arc<Matrix> {
        Arc::clone(&self.entries[id.0].value)
    }

    /// Mutable value access (used by optimizers and serialization). Copies
    /// the value first only while a tape still shares it.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.generation = next_generation();
        Arc::make_mut(&mut self.entries[id.0].value)
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].grad
    }

    /// Mutable gradient access (used by `Graph::backward`).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0].grad
    }

    /// Simultaneous mutable value / immutable gradient access for one
    /// parameter — lets optimizers update in place without cloning the
    /// gradient.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Matrix, &Matrix) {
        self.generation = next_generation();
        let e = &mut self.entries[id.0];
        (Arc::make_mut(&mut e.value), &e.grad)
    }

    /// The name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Handles of every parameter, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Zeroes every gradient buffer; call before each backward pass.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.fill_zero();
        }
    }

    /// Global L2 norm of all gradients; useful for clipping and diagnostics.
    pub fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .map(|e| e.grad.as_slice().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for e in &mut self.entries {
                for v in e.grad.as_mut_slice() {
                    *v *= s;
                }
            }
        }
    }

    /// Deep-copies all current values (snapshot for early stopping / best
    /// model tracking).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.entries.iter().map(|e| Matrix::clone(&e.value)).collect()
    }

    /// Restores values from a [`snapshot`](Self::snapshot). Panics if the
    /// shapes do not line up.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.entries.len(), "ParamSet::restore arity mismatch");
        self.generation = next_generation();
        for (e, s) in self.entries.iter_mut().zip(snapshot) {
            assert_eq!(e.value.shape(), s.shape(), "ParamSet::restore shape mismatch");
            e.value = Arc::new(s.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_count_scalars() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(3, 4));
        let b = p.insert("b", Matrix::zeros(1, 4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 16);
        assert_eq!(p.name(a), "w");
        assert_eq!(p.name(b), "b");
    }

    #[test]
    fn zero_grads_resets() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(2, 2));
        p.grad_mut(a).add_assign(&Matrix::full(2, 2, 3.0));
        assert_eq!(p.grad(a).sum(), 12.0);
        p.zero_grads();
        assert_eq!(p.grad(a).sum(), 0.0);
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(1, 2));
        p.grad_mut(a).add_assign(&Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        p.clip_grad_norm(1.0);
        assert!((p.grad_norm() - 1.0).abs() < 1e-6);
        // Direction is preserved.
        let g = p.grad(a);
        assert!((g.get(0, 0) / g.get(0, 1) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn every_value_mutation_moves_the_generation() {
        let mut p = ParamSet::new();
        let other = ParamSet::new();
        assert_ne!(p.generation(), other.generation(), "sets never share a generation");
        let mut seen = vec![p.generation()];
        let mut moved = |p: &ParamSet, how: &str| {
            assert!(!seen.contains(&p.generation()), "{how} kept an old generation");
            seen.push(p.generation());
        };
        let a = p.insert("w", Matrix::zeros(1, 2));
        moved(&p, "insert");
        p.value_mut(a).set(0, 0, 1.0);
        moved(&p, "value_mut");
        p.value_and_grad_mut(a).0.set(0, 1, 2.0);
        moved(&p, "value_and_grad_mut");
        let snap = p.snapshot();
        p.restore(&snap);
        moved(&p, "restore");
        // Gradient-only updates and reads keep it.
        let g = p.generation();
        p.grad_mut(a).set(0, 0, 3.0);
        p.clip_grad_norm(1.0);
        p.zero_grads();
        let _ = p.value(a);
        assert_eq!(p.generation(), g);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::full(2, 2, 1.0));
        let snap = p.snapshot();
        p.value_mut(a).add_assign(&Matrix::full(2, 2, 5.0));
        assert_eq!(p.value(a).get(0, 0), 6.0);
        p.restore(&snap);
        assert_eq!(p.value(a).get(0, 0), 1.0);
    }
}
